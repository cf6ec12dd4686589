"""Spans around the calls into each trilink module, recorded from outside the
package by replacing its public functions wherever a module has bound them.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans. Every wrapped function feeds exactly one time
bucket, so the buckets plus ``trace.unattributed_s`` add up to the traced
wall time of the command.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np


def _count(name):
    return lambda counts, args, result: counts.update({name: 1})


def _listed(counts, args, result):
    counts.update({"triangles.enumerate_calls": 1, "triangles.listed": result.count})


def _columns(counts, args, result):
    counts.update({"diffusion.pagerank_many_columns": np.shape(args[1])[1]})


def _pairwise_trials(counts, args, result):
    counts.update({"experiments.trials_completed": result.metadata["trials_completed"],
                   "experiments.discards": result.metadata["discards"]})


def _linkpred_nodes(counts, args, result):
    meta = result.metadata
    skipped = meta["nodes_skipped_no_positives"]
    counts.update({"experiments.trials_completed": meta["cohort_size"] - skipped,
                   "experiments.discards": skipped})


# (home module, function, time bucket, counter hook)
TRACED = (
    ("graph", "load_edge_list", "graph.load_s", None),
    ("graph", "build_graph", "graph.build_s", _count("graph.build_calls")),
    ("graph", "largest_connected_component", "graph.lcc_s", None),
    ("triangles", "enumerate_triangles", "triangles.enumerate_s", _listed),
    ("triangles", "tensor_bilinear", "triangles.contract_s", _count("triangles.contract_calls")),
    ("triangles", "tensor_row_sums", "triangles.contract_s", _count("triangles.contract_calls")),
    ("triangles", "reinforced_matrix_apply", "triangles.contract_s",
     _count("triangles.contract_calls")),
    ("diffusion", "pagerank", "diffusion.pagerank_s", _count("diffusion.pagerank_calls")),
    ("diffusion", "pair_seeded_pagerank", "diffusion.pagerank_s", None),
    ("diffusion", "single_seeded_pagerank", "diffusion.pagerank_s", None),
    ("diffusion", "pagerank_many", "diffusion.pagerank_many_s", _columns),
    ("diffusion", "trpr", "diffusion.trpr_s", None),
    ("diffusion", "rank_stability", "diffusion.rank_stability_s", None),
    ("local", "score_all_nodes", "local.score_s", _count("local.score_calls")),
    ("experiments", "split_holdout", "experiments.split_s", None),
    ("experiments", "split_loeto", "experiments.split_s", None),
    ("experiments", "split_temporal", "experiments.split_s", None),
    ("experiments", "ground_truth", "experiments.ground_truth_s", None),
    ("experiments", "candidate_nodes", "experiments.candidates_s", None),
    ("experiments", "auc", "experiments.auc_s", None),
    ("experiments", "run_pairwise_experiment", "experiments.harness_self_s", _pairwise_trials),
    ("experiments", "run_standard_linkpred", "experiments.harness_self_s", _linkpred_nodes),
    ("experiments", "write_pairwise_reports", "experiments.report_s", None),
    ("experiments", "write_linkpred_reports", "experiments.report_s", None),
)
# trpr_iterates is a generator: each step is its own span, timed around next().
GENERATOR = ("diffusion", "trpr_iterates", "diffusion.trpr_s", "diffusion.trpr_steps")
ROOT_BUCKET = "cli.self_s"

BUCKETS = sorted({b for _, _, b, _ in TRACED} | {GENERATOR[2], ROOT_BUCKET})
COUNTERS = ("graph.build_calls", "triangles.enumerate_calls", "triangles.listed",
            "triangles.contract_calls", "diffusion.pagerank_calls",
            "diffusion.pagerank_many_columns", "diffusion.trpr_steps", "local.score_calls",
            "experiments.trials_completed", "experiments.discards")


class Tracer:
    """Records spans as [bucket, start, end, parent index] in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, bucket: str) -> int:
        idx = len(self.spans)
        self.spans.append([bucket, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, bucket, fn, *args, **kwargs):
        idx = self._open(bucket)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, bucket, fn, hook):
        def traced(*args, **kwargs):
            result = self.call(bucket, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def wrap_generator(self, bucket, fn, counter):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(bucket)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[counter] += 1
                yield item

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Replace every binding of the traced functions in the loaded trilink
        modules; returns what :func:`uninstall` needs to put them back."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "trilink" or name.startswith("trilink."))]
        replacements = {}
        for home, name, bucket, hook in TRACED:
            fn = getattr(sys.modules[f"trilink.{home}"], name)
            replacements[id(fn)] = self.wrap(bucket, fn, hook)
        home, name, bucket, counter = GENERATOR
        fn = getattr(sys.modules[f"trilink.{home}"], name)
        replacements[id(fn)] = self.wrap_generator(bucket, fn, counter)
        undo = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replacements:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, replacements[id(val)])
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for mod, attr, val in undo:
            setattr(mod, attr, val)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self time per bucket, the counters, and the part of ``wall_s`` no
        span covers."""
        child = [0.0] * len(self.spans)
        for bucket, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {b: 0.0 for b in BUCKETS}
        for (bucket, start, end, _), covered in zip(self.spans, child):
            out[bucket] += (end - start) - covered
        for name in COUNTERS:
            out[name] = float(self.counts.get(name, 0))
        out["trace.unattributed_s"] = wall_s - sum(out[b] for b in BUCKETS)
        return out
