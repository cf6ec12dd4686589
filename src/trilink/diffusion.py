"""Seeded PageRank, triangle-reinforced PageRank, and rank diagnostics.

Seeded PageRank solves (I - alpha*P) x = (1 - alpha) * e_s for a column
stochastic random-walk matrix P and a seed distribution e_s; the solver is a
power iteration run to a tight L1 residual. The triangle-reinforced variant
rebuilds the transition matrix every step from the adjacency plus a
contraction of the triangle tensor with the current iterate, so edges inside
many triangles carry more weight. All tensor work is implicit (see
:mod:`trilink.triangles`), keeping each step linear in the triangle count.
"""

from __future__ import annotations

import math
import logging
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .graph import Graph
from .triangles import TriangleSet, reinforced_matrix_apply, tensor_row_sums

log = logging.getLogger("trilink")

SEED_KINDS = ("single", "pair", "star", "weighted-star")

# Seed columns per batched power iteration; keeps the n x _BLOCK iterates
# cache-sized (32, 64 and 128 measured alike, unblocked about twice as slow).
_BLOCK = 64


@dataclass(frozen=True)
class DiffusionParams:
    """alpha: walk probability; iterations: fixed step count for the
    reinforced iteration; tolerance: L1 residual bound for the plain solver
    (None means 1e-15 * n at solve time)."""

    alpha: float = 0.85
    iterations: int = 10
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SeedVector:
    """Sparse teleport distribution: node index -> weight, summing to one."""

    entries: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("seed support must be nonempty")
        if any(w < 0 for w in self.entries.values()):
            raise ValueError("seed weights must be nonnegative")
        total = sum(self.entries.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"seed weights must sum to 1, got {total}")

    def dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for i, w in self.entries.items():
            out[i] = w
        return out


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Dense per-node scores plus a provenance tag naming the method."""

    values: np.ndarray
    method: str

    def __len__(self) -> int:
        return len(self.values)


def make_seed(g: Graph, kind: str, u: int, v: int | None = None) -> SeedVector:
    """Build a teleport distribution.

    single: all mass at u. pair: half at u, half at v. star: uniform over
    the closed neighborhood of u. weighted-star: degree(u) at u and 1 at
    each neighbor, normalized (the aggregate of u's pair seeds).
    """
    g._check_node(u)
    if kind == "single":
        return SeedVector({u: 1.0})
    if kind == "pair":
        if v is None or v == u:
            raise ValueError("pair seed requires two distinct nodes")
        g._check_node(v)
        return SeedVector({u: 0.5, v: 0.5})
    if kind in ("star", "weighted-star"):
        nbrs = g.neighbors(u)
        d = len(nbrs)
        if d == 0:
            raise ValueError(f"star seed on isolated node {u}")
        if kind == "star":
            w = 1.0 / (d + 1)
            ent = {int(j): w for j in nbrs}
            ent[u] = w
        else:
            ent = {int(j): 1.0 / (2 * d) for j in nbrs}
            ent[u] = 0.5
        return SeedVector(ent)
    raise ValueError(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")


def _walk_degrees(g: Graph) -> np.ndarray:
    deg = g.degrees.astype(np.float64)
    if np.any(deg == 0):
        raise ValueError("graph has a zero-degree node; cannot normalize columns")
    return deg


def pagerank(g: Graph, seed: SeedVector, params: DiffusionParams = DiffusionParams()) -> ScoreVector:
    """Seeded PageRank by power iteration.

    Returns the iterate of the first step whose L1 size is within the
    tolerance (default 1e-15 * n, effectively machine precision), or that is
    no smaller than the step before it: the steps shrink by a factor alpha
    or more in exact arithmetic, so one that does not has hit the rounding
    floor. At most ceil(log(tol / 2) / log(alpha)) steps are taken.
    """
    x = _pagerank_columns(g, seed.dense(g.n)[:, None], params)[:, 0]
    return ScoreVector(x, "pagerank")


def pagerank_many(
    g: Graph, seeds: np.ndarray, params: DiffusionParams = DiffusionParams()
) -> np.ndarray:
    """Solve one PageRank system per column of ``seeds`` (n x k), sharing the
    sparse matrix sweeps across columns.

    Columns are solved in blocks of 64, and each column stops by the rule of
    :func:`pagerank` on its own steps, so every column is bit-equal to its
    own :func:`pagerank` call.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.shape[0] != g.n:
        raise ValueError("seed matrix must have n rows")
    return _pagerank_columns(g, seeds, params)


def _pagerank_columns(g: Graph, s: np.ndarray, params: DiffusionParams) -> np.ndarray:
    # Power steps x <- A (x * alpha/deg) + (1 - alpha) s over blocks of
    # _BLOCK columns; each column stops on its own steps by the rule that
    # :func:`pagerank` states (in exact arithmetic step k <= 2 alpha^k).
    a = g.adjacency
    scale = (params.alpha / _walk_degrees(g))[:, None]
    tol = params.tolerance if params.tolerance is not None else 1e-15 * g.n
    steps = max(1, math.ceil((math.log(tol) - math.log(2.0)) / math.log(params.alpha)))
    # A block adds up each column's step in another order than a lone solve
    # does; two sums of n terms differ by at most 2n unit roundoffs, well
    # inside `margin`. So a column whose block sum comes within `margin` of
    # stopping is decided on its own sums, added in the lone order.
    margin = 4 * (g.n + 64) * np.finfo(np.float64).eps
    out = np.empty_like(s)
    for lo in range(0, s.shape[1], _BLOCK):
        x = s[:, lo : lo + _BLOCK].copy()
        # Seeds are sparse, so the teleport term goes to their nonzeros only.
        hot = np.flatnonzero(x)
        teleport = (1.0 - params.alpha) * x.reshape(-1)[hot]
        before = None
        floor = np.full(x.shape[1], np.inf)
        last = np.empty(x.shape[1])
        live = np.ones(x.shape[1], dtype=bool)
        for k in range(steps):
            x_next = a @ (x * scale)
            x_next.reshape(-1)[hot] += teleport
            step = x_next - x
            delta = np.abs(step, out=step).sum(axis=0)
            x = x_next
            near = (delta <= tol * (1.0 + margin)) | (delta >= floor)
            if near.any():
                for j in np.flatnonzero(near & live):
                    d = step[:, j].sum()
                    if d <= tol or (k and d >= before[:, j].sum()):
                        out[:, lo + j] = x[:, j]
                        last[j] = d
                        live[j] = False
                if not live.any():
                    break
            floor = delta * (1.0 - margin)
            before = step
        else:
            out[:, lo + np.flatnonzero(live)] = x[:, live]
            last[live] = delta[live]
        for d in last[last > tol]:
            log.debug("pagerank residual floored at %.3g (tolerance %.3g)", d, tol)
    return out


def single_seeded_pagerank(g: Graph, u: int, params: DiffusionParams = DiffusionParams()) -> ScoreVector:
    x = pagerank(g, make_seed(g, "single", u), params)
    return ScoreVector(x.values, "single")


def pair_seeded_pagerank(
    g: Graph, u: int, v: int, params: DiffusionParams = DiffusionParams()
) -> ScoreVector:
    """PageRank with teleport mass split half/half over an edge's endpoints."""
    x = pagerank(g, make_seed(g, "pair", u, v), params)
    return ScoreVector(x.values, "pairseed")


def trpr_iterates(
    g: Graph,
    ts: TriangleSet,
    seed: SeedVector,
    params: DiffusionParams = DiffusionParams(),
    weighted: bool = False,
    iterations: int | None = None,
) -> Iterator[tuple[int, np.ndarray, float, float]]:
    """Yield (iteration, x_i, gamma_i, l1_delta_i) for the triangle-reinforced
    power iteration.

    Per step: contract the triangle tensor with the previous iterate, add the
    adjacency (scaled by gamma for the weighted variant so both terms carry
    equal total weight), column-normalize implicitly, and take one damped
    power step toward the seed. The contraction's column sums come from
    :func:`tensor_row_sums`; the matrix itself is never formed.
    """
    if ts.n != g.n:
        raise ValueError(f"triangle set has {ts.n} nodes but the graph has {g.n}")
    deg = _walk_degrees(g)
    alpha = params.alpha
    n_iter = params.iterations if iterations is None else iterations
    sum_a = float(deg.sum())
    x0 = seed.dense(g.n)
    x = x0
    for i in range(1, n_iter + 1):
        rs = tensor_row_sums(ts, x)
        if weighted:
            total = rs.sum()
            # No triangle mass reachable: drop the reinforcement term for
            # this step instead of dividing by zero.
            gamma = sum_a / total if total > 0 else 0.0
        else:
            gamma = 1.0
        y = x / (gamma * rs + deg)
        x_next = alpha * reinforced_matrix_apply(g, ts, x, y, gamma) + (1.0 - alpha) * x0
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        yield i, x, gamma, delta


def trpr(
    g: Graph,
    ts: TriangleSet,
    seed: SeedVector,
    params: DiffusionParams = DiffusionParams(),
    weighted: bool = False,
) -> ScoreVector:
    """Triangle-reinforced PageRank: a fixed number of reweighted power steps.

    Runs exactly ``params.iterations`` steps (no convergence test); the
    result is deterministic and mass-conserving.
    """
    x = seed.dense(g.n)
    for _, x, _, _ in trpr_iterates(g, ts, seed, params, weighted):
        pass
    return ScoreVector(x, "trprw" if weighted else "trpr")


def combine_scores(a: ScoreVector, b: ScoreVector, mode: str) -> ScoreVector:
    """Element-wise max or product of two score vectors."""
    if len(a.values) != len(b.values):
        raise ValueError("score vectors differ in length")
    m = mode.lower()
    if m == "max":
        vals = np.maximum(a.values, b.values)
    elif m == "mul":
        vals = a.values * b.values
    else:
        raise ValueError(f"mode must be 'max' or 'mul', got {mode!r}")
    return ScoreVector(vals, f"{m}({a.method},{b.method})")


def convergence_trace(
    g: Graph,
    ts: TriangleSet,
    seed: SeedVector,
    params: DiffusionParams = DiffusionParams(),
    max_iters: int = 200,
    weighted: bool = False,
) -> list[tuple[int, float]]:
    """L1 difference between consecutive reinforced iterates, per iteration."""
    return [
        (i, delta)
        for i, _, _, delta in trpr_iterates(g, ts, seed, params, weighted, iterations=max_iters)
    ]


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, ties broken by ascending index."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = np.lexsort((np.arange(len(values)), -np.asarray(values, dtype=np.float64)))
    return order[:k]


def rank_stability(
    x_prev: ScoreVector | np.ndarray,
    x_next: ScoreVector | np.ndarray,
    top_k: int | None = None,
) -> tuple[float, float]:
    """(Spearman rho, Kendall tau-b) between two score vectors.

    With ``top_k`` set, correlation is computed over the union of the two
    vectors' top-k node sets; ranks within the restriction use the standard
    tie corrections (average ranks for rho, tau-b for tau).
    """
    va = np.asarray(x_prev.values if isinstance(x_prev, ScoreVector) else x_prev, dtype=np.float64)
    vb = np.asarray(x_next.values if isinstance(x_next, ScoreVector) else x_next, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError("score vectors differ in length")
    if top_k is not None:
        keep = np.union1d(top_k_indices(va, top_k), top_k_indices(vb, top_k))
        va, vb = va[keep], vb[keep]
    if len(va) < 2:
        raise ValueError("need at least 2 items to correlate")
    from scipy import stats  # deferred: scipy.stats takes ~0.7 s to import

    rho = stats.spearmanr(va, vb).statistic
    tau = stats.kendalltau(va, vb).statistic
    return float(rho), float(tau)
