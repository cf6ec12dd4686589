"""Subprocess side of the benchmark. Each mode runs in a fresh interpreter
with the checkout's ``src`` on PYTHONPATH:

  gen    write one synthetic input edge list and print its sizes as JSON
  setup  time ``import trilink.cli`` plus load_edge_list -> build_graph ->
         largest_connected_component on an input, print the seconds
  run    run one workload's command through ``trilink.cli.main`` in-process
         until ``--seconds`` have passed, check the outputs, print JSON

trilink is imported inside the modes only, so ``setup`` times its import from
scratch.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout

from workloads import WORKLOADS, InputSpec

MIN_COMMANDS = 3  # the median rejects one slow command; repeats are compared byte for byte


def gen(spec: InputSpec, out: str) -> dict:
    import numpy as np
    from trilink import EdgeList, GpaParams, build_graph, enumerate_triangles, generate_gpa, write_edge_list

    if spec.kind == "gpa":
        edges = generate_gpa(GpaParams(p_edge=spec.p, steps=spec.size, rng_seed=spec.rng_seed))
    else:
        rng = np.random.default_rng(spec.rng_seed)
        iu, ju = np.triu_indices(spec.size, k=1)
        mask = rng.random(len(iu)) < spec.p
        edges = EdgeList(tuple(zip(iu[mask].tolist(), ju[mask].tolist())))
    write_edge_list(out, edges)
    g = build_graph(edges) if isinstance(edges, EdgeList) else edges
    return {"n": g.n, "m": g.m, "triangles": enumerate_triangles(g).count}


def setup(path: str) -> float:
    t0 = time.perf_counter()
    import trilink.cli  # noqa: F401 - timed import
    from trilink import build_graph, largest_connected_component, load_edge_list

    largest_connected_component(build_graph(load_edge_list(path)))
    return time.perf_counter() - t0


def run(workload: str, input_path: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    t0 = time.perf_counter()
    import trilink.cli as cli

    import_s = time.perf_counter() - t0
    from spans import ROOT_BUCKET, Tracer

    w = WORKLOADS[workload]
    commands: list[dict] = []
    layers: list[dict] = []
    spans: list[dict] = []
    start = time.perf_counter()
    while len(commands) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        i = len(commands)
        traced = trace and i % 2 == 1
        out = os.path.join(work, f"rep{i}")
        shutil.rmtree(out, ignore_errors=True)
        argv = w.argv(input_path, out, seed)
        tracer = Tracer()
        undo = tracer.install() if traced else []
        try:
            with redirect_stdout(io.StringIO()):
                c0, t = time.process_time(), time.perf_counter()
                rc = tracer.call(ROOT_BUCKET, cli.main, argv) if traced else cli.main(argv)
                wall, cpu = time.perf_counter() - t, time.process_time() - c0
        finally:
            Tracer.uninstall(undo)
        commands.append({"out": out, "rc": rc, "wall_s": wall, "cpu_s": cpu, "traced": traced})
        if traced:
            layers.append(tracer.layer_metrics(wall))
            spans.append({"command": i, "spans": tracer.spans})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans:
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    from checks import check_outputs, same_files

    ok = [c for c in commands if c["rc"] == 0]
    errors = check_outputs(w, input_path, seed, ok[0]["out"]) if ok else []
    for c in commands:
        c["failed"] = c["rc"] != 0 or bool(errors) or not same_files(ok[0]["out"], c["out"])
    result = {"import_s": import_s, "peak_rss_mb": peak_rss_mb, "commands": commands, "errors": errors}
    if layers:
        result["layers"] = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    g = sub.add_parser("gen")
    g.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    g.add_argument("--out", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--input", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    r.add_argument("--input", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--work", required=True)
    args = p.parse_args()
    if args.mode == "gen":
        out = gen(WORKLOADS[args.workload].input, args.out)
    elif args.mode == "setup":
        out = setup(args.input)
    else:
        out = run(args.workload, args.input, args.seed, args.seconds, bool(args.trace), args.work)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
