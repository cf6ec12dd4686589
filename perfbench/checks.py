"""Output checks: each workload's files against an independent computation or
a property the method must have.

Only graph loading comes from trilink. Splits, ground truth, PageRank (a
direct sparse solve instead of power iteration), AUC (pair counting instead
of ranks), the diagnose seed edge ((A·A)∘A) and the reinforced iterates
(T[x] = A ∘ (A·diag(x)·A)) are recomputed here with numpy and scipy.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from workloads import ALPHA, ITERATIONS, K_VALUES, LINKPRED_METHODS, PAIRWISE_METHODS

SAMPLED = 10  # trials / cohort nodes recomputed by a direct solve
DIAGNOSE_STEPS = 5  # leading l1_delta rows recomputed from the dense-identity iterates
REL_TOL = 1e-8


def load_graph(path):
    from trilink.graph import build_graph, largest_connected_component, load_edge_list

    return largest_connected_component(build_graph(load_edge_list(path)))


def _label(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _adjacency(g) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n))


def _sym(edges: np.ndarray, n: int) -> sp.csr_matrix:
    a = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return (a + a.T).tocsr()


def _holdout_split(a: sp.csr_matrix, fraction: float, seed_seq):
    """Train and test edges (u < v, dense indices) of a uniform holdout: the
    edges in lexicographic order, permuted by the seed's generator."""
    up = sp.triu(a, k=1).tocoo()
    order = np.lexsort((up.col, up.row))
    edges = np.column_stack([up.row[order], up.col[order]]).astype(np.int64)
    t = max(1, round(fraction * len(edges)))
    test = np.zeros(len(edges), dtype=bool)
    test[np.random.default_rng(seed_seq).permutation(len(edges))[:t]] = True
    return edges[~test], edges[test]


def _largest_component(a: sp.csr_matrix) -> np.ndarray:
    """Boolean mask of the largest connected component."""
    _, comp = connected_components(a, directed=False)
    return comp == np.argmax(np.bincount(comp))


def _holdout_train(g, fraction: float, seed: int):
    """The harness's holdout split redrawn from the master seed: train
    adjacency, mask of its largest component, and the test edges inside that
    component as neighbour sets."""
    train, test = _holdout_split(_adjacency(g), fraction, np.random.SeedSequence(seed).spawn(1)[0])
    train_a = _sym(train, g.n)
    keep = _largest_component(train_a)
    test_adj: dict[int, set[int]] = {}
    for u, v in test.tolist():
        if keep[u] and keep[v]:
            test_adj.setdefault(u, set()).add(v)
            test_adj.setdefault(v, set()).add(u)
    return train_a, keep, test_adj


class _Solver:
    """Seeded PageRank x = (1-α)(I - α A D⁻¹)⁻¹ s on the subgraph ``keep``,
    by one sparse LU factorization."""

    def __init__(self, a: sp.csr_matrix, keep: np.ndarray):
        self.n = len(keep)
        self.nodes = np.flatnonzero(keep)
        self.local = {int(i): k for k, i in enumerate(self.nodes)}
        sub = a[self.nodes][:, self.nodes].tocsc()
        deg = np.asarray(sub.sum(axis=0)).ravel()
        m = sp.identity(len(self.nodes), format="csc") - ALPHA * (sub @ sp.diags(1.0 / deg))
        self.lu = splu(m.tocsc())

    def solve(self, weights: dict[int, float]) -> np.ndarray:
        """Scores indexed like the full graph (0 outside ``keep``)."""
        s = np.zeros(len(self.nodes))
        for i, w in weights.items():
            s[self.local[i]] = w
        out = np.zeros(self.n)
        out[self.nodes] = (1.0 - ALPHA) * self.lu.solve(s)
        return out


def _rank_interval(x: np.ndarray, truth: set[int], cands: np.ndarray) -> tuple[int, int]:
    """Lowest and highest 1-based rank of the best truth node that rounding
    of near-tied scores allows."""
    eps = 1e-10 * float(np.abs(x).max())
    best = max(x[w] for w in truth)
    others = x[np.setdiff1d(cands, np.fromiter(truth, dtype=np.int64))]
    return 1 + int((others > best + eps).sum()), 1 + int((others >= best - eps).sum())


def _auc_interval(x: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> tuple[float, float]:
    """AUC by counting every positive/negative pair; near-ties count as losses
    for the low end and as wins for the high end."""
    eps = 1e-10 * float(np.abs(x).max())
    diff = x[pos][:, None] - x[neg][None, :]
    total = diff.size
    return float((diff > eps).sum()) / total, float((diff >= -eps).sum()) / total


def _pairwise_trials(detail: list[dict], errors: list[str]) -> list[list[dict]]:
    """Detail rows grouped per trial, after checking the row layout and the
    sp column."""
    per_trial = len(PAIRWISE_METHODS) * len(K_VALUES)
    if len(detail) % per_trial:
        errors.append(f"{len(detail)} detail rows is not a multiple of {per_trial}")
        return []
    trials = [detail[i : i + per_trial] for i in range(0, len(detail), per_trial)]
    expected = [(m, str(k)) for m in PAIRWISE_METHODS for k in K_VALUES]
    for t, rows in enumerate(trials):
        if [(r["method"], r["k"]) for r in rows] != expected:
            errors.append(f"trial {t}: methods or k out of order")
        if len({(r["seed_u"], r["seed_v"], r["truth_count"]) for r in rows}) != 1:
            errors.append(f"trial {t}: rows disagree on the seed edge or truth count")
        for r in rows:
            rank, k = int(r["best_rank"]), int(r["k"])
            if int(r["sp"]) != int(0 < rank <= k):
                errors.append(f"trial {t} {r['method']}: sp={r['sp']} but best_rank={rank}, k={k}")
        for m in PAIRWISE_METHODS:
            sps = [int(r["sp"]) for r in rows if r["method"] == m]
            if sps != sorted(sps):
                errors.append(f"trial {t} {m}: sp@{K_VALUES[0]} > sp@{K_VALUES[-1]}")
    return trials


def _pairwise_summary(summary: list[dict], trials: list[list[dict]], errors: list[str]) -> None:
    means = {(r["method"], int(r["k"])): float(r["mean_sp"]) for r in summary}
    for m in PAIRWISE_METHODS:
        if means.get((m, K_VALUES[0]), 0.0) > means.get((m, K_VALUES[-1]), 0.0):
            errors.append(f"summary {m}: mean sp@{K_VALUES[0]} > sp@{K_VALUES[-1]}")
        for k in K_VALUES:
            hits = [int(r["sp"]) for rows in trials for r in rows if r["method"] == m and int(r["k"]) == k]
            if hits and not math.isclose(means.get((m, k), -1.0), float(np.mean(hits)), abs_tol=1e-12):
                errors.append(f"summary {m}@{k}: mean_sp disagrees with the detail rows")


def check_holdout(g, workload, seed: int, out_dir: str) -> list[str]:
    errors: list[str] = []
    detail = _read_csv(os.path.join(out_dir, "pairwise_detail.csv"))
    trials = _pairwise_trials(detail, errors)
    if len(trials) != workload.count:
        errors.append(f"{len(trials)} trials written, {workload.count} requested")
    _pairwise_summary(_read_csv(os.path.join(out_dir, "pairwise_summary.csv")), trials, errors)

    train_a, keep, test_adj = _holdout_train(g, 0.3, seed)
    solver = _Solver(train_a, keep)
    idx = g.label_index
    for t, rows in enumerate(trials):
        u, v = idx[_label(rows[0]["seed_u"])], idx[_label(rows[0]["seed_v"])]
        if not (keep[u] and train_a[u, v]):
            errors.append(f"trial {t}: seed edge is not an edge of the train component")
            continue
        truth = (test_adj.get(u, set()) & test_adj.get(v, set())) - {u, v}
        if int(rows[0]["truth_count"]) != len(truth) or not truth:
            errors.append(f"trial {t}: truth_count {rows[0]['truth_count']}, set algebra gives {len(truth)}")
            continue
        if t >= SAMPLED:
            continue
        x = solver.solve({u: 0.5, v: 0.5})
        struck = set(train_a[u].indices) | set(train_a[v].indices) | {u, v}
        cands = np.asarray([i for i in solver.nodes if int(i) not in struck], dtype=np.int64)
        lo, hi = _rank_interval(x, truth, cands)
        rank = int(next(r["best_rank"] for r in rows if r["method"] == "pairseed"))
        if not lo <= rank <= hi:
            errors.append(f"trial {t}: pairseed best_rank {rank}, direct solve gives [{lo}, {hi}]")
    return errors


def check_loeto(g, workload, seed: int, out_dir: str) -> list[str]:
    errors: list[str] = []
    detail = _read_csv(os.path.join(out_dir, "pairwise_detail.csv"))
    trials = _pairwise_trials(detail, errors)
    _pairwise_summary(_read_csv(os.path.join(out_dir, "pairwise_summary.csv")), trials, errors)
    with open(os.path.join(out_dir, "pairwise_metadata.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["trials_completed"] != len(trials) or not trials:
        errors.append(f"{len(trials)} trials written, metadata says {meta['trials_completed']}")

    a = _adjacency(g)
    idx = g.label_index
    for t, rows in enumerate(trials):
        u, v = idx[_label(rows[0]["seed_u"])], idx[_label(rows[0]["seed_v"])]
        common = a[u].multiply(a[v])
        wedge = common.indices
        if not a[u, v] or len(wedge) != int(common.sum()):
            errors.append(f"trial {t}: seed edge is not an edge of the input")
            continue
        removed = np.asarray([(min(e, w), max(e, w)) for w in wedge.tolist() for e in (u, v)])
        drop = _sym(removed, g.n)
        train_a = (a - drop).tocsr()
        train_a.eliminate_zeros()
        keep = _largest_component(train_a)
        expected = int(keep[wedge].sum()) if keep[u] and keep[v] else 0
        if int(rows[0]["truth_count"]) != expected or not expected:
            errors.append(
                f"trial {t}: truth_count {rows[0]['truth_count']}, (A²)_uv={len(wedge)} "
                f"minus dropped wedge nodes gives {expected}"
            )
    return errors


def check_linkpred(g, workload, seed: int, out_dir: str) -> list[str]:
    errors: list[str] = []
    nodes = _read_csv(os.path.join(out_dir, "linkpred_nodes.csv"))
    summary = {r["method"]: r for r in _read_csv(os.path.join(out_dir, "linkpred_summary.csv"))}
    base = summary.get("single")
    if base is None or float(base["mean_delta_vs_baseline"]) != 0.0 or float(base["mean_dist_to_diag"]) != 0.0:
        errors.append("summary: the single baseline's delta is not 0")
    per_node = len(LINKPRED_METHODS)
    if not nodes or len(nodes) % per_node:
        errors.append(f"{len(nodes)} node rows is not a positive multiple of {per_node}")
        return errors
    groups = [nodes[i : i + per_node] for i in range(0, len(nodes), per_node)]

    train_a, keep, test_adj = _holdout_train(g, 0.2, seed)
    deg = np.asarray(train_a.sum(axis=1)).ravel() * keep
    cutoff = np.sort(deg)[::-1][workload.count - 1]
    solver = _Solver(train_a, keep)
    idx = g.label_index
    for n_idx, rows in enumerate(groups):
        i = idx[_label(rows[0]["node"])]
        if [r["method"] for r in rows] != list(LINKPRED_METHODS):
            errors.append(f"node {rows[0]['node']}: methods out of order")
        if any(not 0.0 <= float(r["auc"]) <= 1.0 for r in rows):
            errors.append(f"node {rows[0]['node']}: an AUC lies outside [0, 1]")
        if not keep[i] or int(rows[0]["degree"]) != deg[i] or deg[i] < cutoff:
            errors.append(f"node {rows[0]['node']}: not a top-{workload.count} train node by degree")
            continue
        if n_idx >= SAMPLED:
            continue
        pos = np.asarray(sorted(test_adj.get(i, ())), dtype=np.int64)
        struck = set(train_a[i].indices) | {i}
        neg = np.asarray([j for j in solver.nodes if int(j) not in struck and int(j) not in test_adj.get(i, ())],
                         dtype=np.int64)
        lo, hi = _auc_interval(solver.solve({i: 1.0}), pos, neg)
        got = float(rows[0]["auc"])
        if not lo - 1e-12 <= got <= hi + 1e-12:
            errors.append(f"node {rows[0]['node']}: single AUC {got}, pair counting gives [{lo}, {hi}]")
    return errors


def check_diagnose(g, workload, seed: int, out_dir: str) -> list[str]:
    errors: list[str] = []
    rows = _read_csv(os.path.join(out_dir, "diagnose.csv"))
    with open(os.path.join(out_dir, "diagnose_metadata.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    a = _adjacency(g)

    per_edge = sp.triu((a @ a).multiply(a), k=1).tocoo()
    best = per_edge.data.max()
    ties = per_edge.data == best
    order = np.lexsort((per_edge.col[ties], per_edge.row[ties]))
    u, v = int(per_edge.row[ties][order[0]]), int(per_edge.col[ties][order[0]])
    if meta["seed_edge"] != [g.labels[u], g.labels[v]]:
        errors.append(f"seed edge {meta['seed_edge']}, argmax of (A·A)∘A is {[g.labels[u], g.labels[v]]}")

    want = [str(i) for i in range(1, workload.count + 1)] + [f"{min(ITERATIONS, workload.count)}v{workload.count}"]
    if [r["iter"] for r in rows] != want:
        errors.append("iteration column is not 1..max_iters plus the reference row")
    for r in rows:
        corr = [float(r[c]) for c in ("spearman_full", "kendall_full", "spearman_top100", "kendall_top100")]
        if not all(-1.0 <= c <= 1.0 for c in corr):
            errors.append(f"iter {r['iter']}: a correlation lies outside [-1, 1]")

    deg = np.asarray(a.sum(axis=1)).ravel()
    x0 = np.zeros(g.n)
    x0[[u, v]] = 0.5
    x = x0
    for r in rows[:DIAGNOSE_STEPS]:
        tx = (a @ sp.diags(x) @ a).multiply(a).tocsr()
        y = x / (np.asarray(tx.sum(axis=1)).ravel() + deg)
        x_next = ALPHA * (tx @ y + a @ y) + (1.0 - ALPHA) * x0
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if not math.isclose(float(r["l1_delta"]), delta, rel_tol=REL_TOL):
            errors.append(f"iter {r['iter']}: l1_delta {r['l1_delta']}, T[x] = A∘(A·diag(x)·A) gives {delta!r}")
    return errors


CHECKS = {"holdout": check_holdout, "loeto": check_loeto, "linkpred": check_linkpred,
          "diagnose": check_diagnose}


def check_outputs(workload, input_path: str, seed: int, out_dir: str) -> list[str]:
    """Errors found in one command's output directory; empty means it passed."""
    try:
        return CHECKS[workload.kind](load_graph(input_path), workload, seed, out_dir)
    except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def same_files(ref_dir: str, other_dir: str) -> bool:
    """True when both directories hold the same file names with the same bytes."""
    names = sorted(os.listdir(ref_dir))
    if names != sorted(os.listdir(other_dir)):
        return False
    match, mismatch, errors = filecmp.cmpfiles(ref_dir, other_dir, names, shallow=False)
    return not mismatch and not errors
