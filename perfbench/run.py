"""trilink benchmark: one workload per invocation, run through the public CLI
entry point in a fresh worker interpreter.

  python3 perfbench/run.py --workload holdout-gpa20k --seed 1 --seconds 14 --trace 0

Run from the root of a checkout that holds ``src/trilink``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Inputs are generated once per checkout
under ``.bench_build/perfbench``; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(env: dict, *args: str) -> object:
    """Run worker.py in a fresh interpreter and return its last stdout line
    as JSON; its stderr passes through."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out after {SUBPROCESS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _source_key(spec) -> str:
    """Inputs are regenerated whenever the trilink sources or the spec change."""
    h = hashlib.sha256(repr(spec).encode())
    for path in sorted((ROOT / "src" / "trilink").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_input(workload, env: dict) -> tuple[Path, dict]:
    spec = workload.input
    path = WORK / "inputs" / f"{spec.name}-{_source_key(spec)}.txt"
    info_path = path.with_suffix(".json")
    if not info_path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        info = _worker(env, "gen", "--workload", workload.name, "--out", str(tmp))
        info["sha256"] = hashlib.sha256(tmp.read_bytes()).hexdigest()
        os.replace(tmp, path)
        info_path.write_text(json.dumps(info), encoding="utf-8")
    info = json.loads(info_path.read_text(encoding="utf-8"))
    if hashlib.sha256(path.read_bytes()).hexdigest() != info["sha256"]:
        raise BenchError(f"cached input {path} does not match its recorded digest")
    return path, info


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "trilink" / "__init__.py").is_file():
        raise BenchError(f"no trilink sources under {ROOT / 'src'}; run from a full checkout")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + pythonpath if pythonpath else ""))
    input_path, info = ensure_input(workload, env)
    print(
        f"input {workload.input.name}: sha256={info['sha256']} n={info['n']} m={info['m']} "
        f"triangles={info['triangles']}",
        flush=True,
    )
    setup = [] if trace else [_worker(env, "setup", "--input", str(input_path)) for _ in range(SETUP_SAMPLES)]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    res = _worker(env, "run", "--workload", workload.name, "--input", str(input_path), "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(work))
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    commands = res["commands"]
    plain = [c for c in commands if not c["traced"]]
    wall = statistics.median(c["wall_s"] for c in plain)
    print(f"{len(commands)} commands, wall_s " + " ".join(f"{c['wall_s']:.3f}" for c in commands), flush=True)
    if trace:
        layers = res["layers"]
        traced_wall = statistics.median(c["wall_s"] for c in commands if c["traced"])
        layers["cli.import_s"] = res["import_s"]
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - wall
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"} for k, v in sorted(layers.items())}
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(c["cpu_s"] for c in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not res["errors"],
        "attempted": len(commands),
        "failed": sum(c["failed"] for c in commands),
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
