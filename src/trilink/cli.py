"""Command-line interface.

Subcommands: ``pairwise`` (success-probability experiments), ``linkpred``
(standard link prediction with neighborhood seeding), ``diagnose``
(convergence and rank-stability traces), ``triangles`` (count/list), and
``gen-gpa`` (synthetic graph generation). Results go to CSV files with a
JSON metadata sidecar; stdout carries progress only.

Every subcommand takes ``--log-level`` (default ``warning``), which routes
the ``trilink`` logger to stderr at that level for the command.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

import numpy as np

from .diffusion import DiffusionParams, make_seed, rank_stability, trpr_iterates
from .experiments import (
    DEFAULT_LINKPRED_METHODS,
    DEFAULT_PAIRWISE_METHODS,
    run_pairwise_experiment,
    run_standard_linkpred,
    write_json,
    write_linkpred_reports,
    write_pairwise_reports,
)
from .generators import GpaParams, generate_gpa
from .graph import (
    DataError,
    _token,
    build_graph,
    largest_connected_component,
    load_edge_list,
    write_edge_list,
)
from .triangles import enumerate_triangles, triangles_per_edge


class _Parser(argparse.ArgumentParser):
    # Flags are spelled in full: an abbreviation such as --conf would parse,
    # yet slip past the --config lookup of _config_path. Subcommand parsers
    # are built with this class too, so they refuse abbreviations as well.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with 2 on usage errors; we reserve 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _csv_strs(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


LOG_LEVELS = ("debug", "info", "warning", "error")


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Send the ``trilink`` logger to stderr at ``level`` for one command.

    The handler is removed and the logger's level restored afterwards, so a
    caller that runs :func:`main` many times in one process never stacks
    handlers.
    """
    log = logging.getLogger("trilink")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = log.level
    log.setLevel(level.upper())
    log.addHandler(handler)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(previous)


def _build_parser() -> _Parser:
    p = _Parser(prog="trilink", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.subcommands = {}
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        p.subcommands[name] = sp
        return sp

    def log_level(sp):
        sp.add_argument(
            "--log-level",
            choices=LOG_LEVELS,
            default="warning",
            help="messages of the trilink logger at this level or above go to stderr",
        )

    def common(sp):
        log_level(sp)
        sp.add_argument("--config", help="JSON file supplying defaults for any flag")
        sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
        sp.add_argument("--alpha", type=float, default=0.85)
        sp.add_argument("--iterations", type=int, default=10, help="reinforced-iteration step count")
        sp.add_argument("--threads", type=int, default=None, help="accepted and ignored; runs are single-threaded")
        sp.add_argument("--out-dir", default=".", help="directory for result files")

    sp = add_parser("pairwise", help="success-probability experiments on seed edges")
    common(sp)
    sp.add_argument("--input", required=True, help="edge-list file")
    sp.add_argument("--protocol", choices=["holdout", "loeto", "temporal"], default="holdout")
    sp.add_argument(
        "--fraction",
        type=float,
        default=None,
        help="held-out fraction for holdout (default 0.3) / training fraction for temporal (default 0.7)",
    )
    sp.add_argument("--methods", default=",".join(DEFAULT_PAIRWISE_METHODS))
    sp.add_argument("--k", default="5,25", help="comma-separated top-k cutoffs")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--truth-mode", choices=["and", "or"], default="and")
    sp.add_argument("--allow-empty-truth", action="store_true")
    sp.add_argument("--timestamps", action="store_true", help="input lines are 'u v t'")
    sp.set_defaults(fn=cmd_pairwise)

    sp = add_parser("linkpred", help="standard link prediction, neighborhood seeding vs single seed")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--fraction", type=float, default=0.2, help="held-out test fraction")
    sp.add_argument("--num-nodes", type=int, default=100, help="top-degree cohort size")
    sp.add_argument("--methods", default=",".join(DEFAULT_LINKPRED_METHODS))
    sp.add_argument("--timestamps", action="store_true")
    sp.set_defaults(fn=cmd_linkpred)

    sp = add_parser("diagnose", help="convergence and rank-stability trace of the reinforced iteration")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--edge", default=None, help="seed edge as 'u,v' (default: edge in the most triangles)")
    sp.add_argument("--max-iters", type=int, default=200)
    sp.add_argument("--top-k", type=int, default=100)
    sp.add_argument("--weighted", action="store_true")
    sp.add_argument("--timestamps", action="store_true")
    sp.set_defaults(fn=cmd_diagnose)

    sp = add_parser("triangles", help="count (and optionally list) triangles of an edge list")
    sp.add_argument("input")
    sp.add_argument("--list", action="store_true", help="print the triples as TSV")
    sp.add_argument("--timestamps", action="store_true")
    sp.add_argument("--config", help=argparse.SUPPRESS)
    log_level(sp)
    sp.set_defaults(fn=cmd_triangles)

    sp = add_parser("gen-gpa", help="generate a preferential-attachment graph")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--p-edge", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--clique", type=int, default=5, help="starting clique size")
    sp.add_argument("--out", required=True, help="output edge-list path")
    sp.add_argument("--config", help=argparse.SUPPRESS)
    log_level(sp)
    sp.set_defaults(fn=cmd_gen_gpa)

    return p


def _load_graph(args):
    return largest_connected_component(build_graph(load_edge_list(args.input, args.timestamps)))


def cmd_pairwise(args) -> int:
    params = DiffusionParams(alpha=args.alpha, iterations=args.iterations)
    result = run_pairwise_experiment(
        load_edge_list(args.input, args.timestamps or args.protocol == "temporal"),
        args.protocol,
        _csv_strs(args.methods),
        k_values=_csv_ints(args.k),
        trials=args.trials,
        fraction=args.fraction,
        truth_mode=args.truth_mode,
        params=params,
        rng_seed=args.seed,
        allow_empty_truth=args.allow_empty_truth,
    )
    paths = write_pairwise_reports(result, args.out_dir)
    for row in result.summary:
        print(f"{row.method:>10s}  k={row.k:<3d} mean_sp={row.mean_sp:.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def cmd_linkpred(args) -> int:
    params = DiffusionParams(alpha=args.alpha, iterations=args.iterations)
    g = _load_graph(args)
    result = run_standard_linkpred(
        g,
        test_fraction=args.fraction,
        num_nodes=args.num_nodes,
        methods=_csv_strs(args.methods),
        params=params,
        rng_seed=args.seed,
    )
    paths = write_linkpred_reports(result, args.out_dir)
    for row in result.summary:
        print(
            f"{row.method:>12s}  mean_auc={row.mean_auc:.4f} "
            f"delta={row.mean_delta_vs_baseline:+.4f} dist={row.mean_dist_to_diag:+.4f}"
        )
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def cmd_diagnose(args) -> int:
    if args.max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if args.top_k < 2:
        raise ValueError("top_k must be >= 2: a top-1 union may be one node, which has no rank correlation")
    params = DiffusionParams(alpha=args.alpha, iterations=args.iterations)
    g = _load_graph(args)
    ts = enumerate_triangles(g)
    if args.edge:
        toks = [_token(t) for t in args.edge.split(",")]
        if len(toks) != 2:
            raise DataError(f"--edge expects 'u,v', got {args.edge!r}")
        try:
            u, v = g.label_index[toks[0]], g.label_index[toks[1]]
        except KeyError as missing:
            raise DataError(f"node {missing} not in the graph's largest component")
        if not g.has_edge(u, v):
            raise DataError(f"--edge {args.edge!r} is not an edge of the graph's largest component")
    else:
        # The edge in the most triangles; argmax picks the smallest (u, v) on a tie.
        u, v = g.edge_array()[np.argmax(triangles_per_edge(g, ts))].tolist()
    seed = make_seed(g, "pair", u, v)
    # Only the previous and the reference iterate are kept; each step's statistics are taken as it comes.
    ref = min(params.iterations, args.max_iters)
    x = x_ref = seed.dense(g.n)
    rows = [f"iter,l1_delta,spearman_full,kendall_full,spearman_top{args.top_k},kendall_top{args.top_k}\n"]
    for i, x_next, _, delta in trpr_iterates(g, ts, seed, params, args.weighted, iterations=args.max_iters):
        stats = rank_stability(x, x_next) + rank_stability(x, x_next, top_k=args.top_k)
        rows.append(",".join([str(i), repr(delta), *map(repr, stats)]) + "\n")
        x = x_next
        if i == ref:
            x_ref = x
    stats = rank_stability(x_ref, x) + rank_stability(x_ref, x, top_k=args.top_k)
    gap = float(np.abs(x - x_ref).sum())
    rows.append(",".join([f"{ref}v{args.max_iters}", repr(gap), *map(repr, stats)]) + "\n")

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "diagnose.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(rows)
    meta = {
        "command": "diagnose",
        "input": str(args.input),
        "seed_edge": [g.labels[u], g.labels[v]],
        "alpha": args.alpha,
        "iterations": args.iterations,
        "max_iters": args.max_iters,
        "top_k": args.top_k,
        "weighted": args.weighted,
    }
    meta_path = os.path.join(args.out_dir, "diagnose_metadata.json")
    write_json(meta_path, meta)
    print(f"seed edge: ({g.labels[u]}, {g.labels[v]})")
    print(f"wrote {path}")
    print(f"wrote {meta_path}")
    return 0


def cmd_triangles(args) -> int:
    g = build_graph(load_edge_list(args.input, args.timestamps))
    ts = enumerate_triangles(g)
    print(ts.count)
    if args.list:
        for a, b, c in ts.triples:
            print(f"{g.labels[a]}\t{g.labels[b]}\t{g.labels[c]}")
    return 0


def cmd_gen_gpa(args) -> int:
    g = generate_gpa(
        GpaParams(p_edge=args.p_edge, steps=args.steps, seed_clique=args.clique, rng_seed=args.seed)
    )
    write_edge_list(args.out, g)
    meta = {
        "command": "gen-gpa",
        "steps": args.steps,
        "p_edge": args.p_edge,
        "seed_clique": args.clique,
        "rng_seed": args.seed,
        "rng": "numpy.random.default_rng (PCG64)",
        "nodes": g.n,
        "edges": g.m,
    }
    meta_path = f"{args.out}.meta.json"
    write_json(meta_path, meta)
    print(f"wrote {args.out} (n={g.n}, m={g.m})")
    print(f"wrote {meta_path}")
    return 0


def _config_path(argv: list[str], prog: str) -> str | None:
    """The value of ``--config``, found by argparse as the full parse will
    find it: either spelling, the last one wins, nothing after ``--``."""
    finder = _Parser(prog=prog, add_help=False)
    finder.add_argument("--config")
    return finder.parse_known_args(argv)[0].config


def _long_flags(sp: argparse.ArgumentParser) -> dict[str, tuple[str, argparse.Action]]:
    """Each ``--flag`` of a parser, keyed with ``_`` for ``-``."""
    return {
        opt[2:].replace("-", "_"): (opt, action)
        for action in sp._actions
        for opt in action.option_strings
        if opt.startswith("--")
    }


def _config_argv(parser: _Parser, argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` file's values spelled out as flags of
    the chosen subcommand, ahead of the user's flags so those still win, and
    so argparse checks config values as it checks typed ones."""
    if not argv or argv[0] not in parser.subcommands:
        return argv
    sp = parser.subcommands[argv[0]]
    path = _config_path(argv, sp.prog)
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must hold a JSON object")
    # One config may serve several subcommands, so a key only has to name a
    # long flag of one of them; anything else is a typo.
    known = set().union(*map(_long_flags, parser.subcommands.values()))
    own = _long_flags(sp)
    tokens = []
    for key, val in cfg.items():
        name = key.replace("-", "_")
        if name not in known:
            raise DataError(f"config {path}: {key!r} names no flag of any subcommand")
        if name not in own or val is None:
            continue
        opt, action = own[name]
        switch = action.nargs == 0  # store_true: true sets it, false leaves it off
        if switch and isinstance(val, bool):
            tokens += [opt] if val else []
        elif not switch and isinstance(val, (str, int, float)) and not isinstance(val, bool):
            tokens.append(f"{opt}={val}")
        else:
            sp.error(f"config {path}: {key!r} cannot be {json.dumps(val)}")
    return [argv[0], *tokens, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_config_argv(parser, argv))
        with _log_to_stderr(args.log_level):
            return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
