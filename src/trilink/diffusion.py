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
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import Graph, _sorted_unique
from .triangles import TriangleSet, reinforced_matrix_apply, tensor_row_sums

log = logging.getLogger("trilink")

SEED_KINDS = ("single", "pair", "star")

# Bytes of one n x width block of a batched power iteration. A block holds
# three (the iterate, the next one and the step before), so at 512 KiB they
# stay inside a 2 MiB L2 cache; at most 64 columns share a block.
_BLOCK_BYTES = 512 * 1024


def _block_width(n: int) -> int:
    """Columns per block of a batched power iteration on n nodes."""
    return min(max(_BLOCK_BYTES // (8 * n), 1), 64)


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


def seed_columns(n: int, seeds: Sequence[SeedVector]) -> sp.csc_array:
    """The sparse n x k matrix whose columns are ``seeds``, in order."""
    indptr = np.cumsum([0] + [len(s.entries) for s in seeds])
    indices = np.fromiter((i for s in seeds for i in s.entries), dtype=np.int64, count=indptr[-1])
    data = np.fromiter((w for s in seeds for w in s.entries.values()), dtype=np.float64, count=indptr[-1])
    return sp.csc_array((data, indices, indptr), shape=(n, len(seeds)))


def make_seed(g: Graph, kind: str, u: int, v: int | None = None) -> SeedVector:
    """Build a teleport distribution.

    single: all mass at u. pair: half at u, half at v. star: uniform over
    the closed neighborhood of u.
    """
    g._check_node(u)
    if kind == "single":
        return SeedVector({u: 1.0})
    if kind == "pair":
        if v is None or v == u:
            raise ValueError("pair seed requires two distinct nodes")
        g._check_node(v)
        return SeedVector({u: 0.5, v: 0.5})
    if kind == "star":
        nbrs = g.neighbors(u)
        d = len(nbrs)
        if d == 0:
            raise ValueError(f"star seed on isolated node {u}")
        w = 1.0 / (d + 1)
        ent = {int(j): w for j in nbrs}
        ent[u] = w
        return SeedVector(ent)
    raise ValueError(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")


def _walk_degrees(g: Graph) -> np.ndarray:
    deg = g.degrees.astype(np.float64)
    if np.any(deg == 0):
        raise ValueError("graph has a zero-degree node; cannot normalize columns")
    return deg


def pagerank(g: Graph, seed: SeedVector, params: DiffusionParams = DiffusionParams()) -> np.ndarray:
    """Seeded PageRank by power iteration.

    Returns the iterate of the first step whose L1 size is within the
    tolerance (default 1e-15 * n, effectively machine precision), or that is
    no smaller than the step before it: the steps shrink by a factor alpha
    or more in exact arithmetic, so one that does not has hit the rounding
    floor. At most ceil(log(tol / 2) / log(alpha)) steps are taken.
    """
    x, _, _ = _pagerank_columns(g, seed_columns(g.n, [seed]), params)
    return x[:, 0]


def pagerank_many(g: Graph, seeds, params: DiffusionParams = DiffusionParams()) -> np.ndarray:
    """Solve one PageRank system per column of ``seeds``, an n x k dense
    array or ``scipy.sparse`` matrix, sharing the sparse matrix sweeps across
    columns; returns the n x k solutions, each column contiguous in memory.

    Columns are solved in cache-sized blocks (:func:`_block_width`: 64
    columns on small graphs, fewer as n grows), each built from the sparse
    seed columns, and each column stops by the rule of :func:`pagerank` on
    its own steps, so every column is bit-equal to its own :func:`pagerank`
    call.
    """
    s = sp.csc_array(seeds, dtype=np.float64)
    if s.shape[0] != g.n:
        raise ValueError("seed matrix must have n rows")
    x, steps, floored = _pagerank_columns(g, s, params)
    if steps.size and log.isEnabledFor(logging.DEBUG):
        width = min(_block_width(g.n), steps.size)
        log.debug(
            "pagerank_many: %d columns in %d blocks of width %d, steps per column min %d median %g "
            "max %d, %d floor hits",
            steps.size, -(-steps.size // width), width, steps.min(), np.median(steps), steps.max(),
            np.count_nonzero(floored),
        )
    return x


def _pagerank_columns(
    g: Graph, s: sp.csc_array, params: DiffusionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Power steps x <- A (x * alpha/deg) + (1 - alpha) s over blocks of
    # _block_width(n) columns; each column stops on its own steps by the rule
    # that :func:`pagerank` states (in exact arithmetic step k <= 2 alpha^k).
    # Returns the n x k solutions (the transpose of a k x n array, so each
    # column is contiguous), the steps each column took, and which columns
    # stopped above the tolerance.
    # A is 0/1, so A with alpha/deg_j stored in its column j gives the same
    # rounded terms x_j * alpha/deg_j as scaling x first, without a scaled
    # copy of the block per step. (A sparse product built with fused
    # multiply-adds would round each term with its sum instead; lone and
    # batched columns would still agree, as both use this product.)
    a = g.adjacency
    a = sp.csr_matrix(((params.alpha / _walk_degrees(g))[a.indices], a.indices, a.indptr), shape=a.shape)
    tol = params.tolerance if params.tolerance is not None else 1e-15 * g.n
    steps = max(1, math.ceil((math.log(tol) - math.log(2.0)) / math.log(params.alpha)))
    # The block screen adds up each column's step in another order than a
    # lone column's pairwise sum; two sums of n terms differ by at most 2n
    # unit roundoffs, well inside `margin`. So a column whose screen sum
    # comes within `margin` of stopping is decided on its own pairwise sums.
    margin = 4 * (g.n + 64) * np.finfo(np.float64).eps
    width = _block_width(g.n)
    cols = s.shape[1]
    out = np.empty((cols, g.n))
    taken = np.empty(cols, dtype=np.int64)
    floored = np.empty(cols, dtype=bool)
    for lo in range(0, cols, width):
        x = s[:, lo : lo + width].toarray(order="C")
        # Seeds are sparse, so the teleport term goes to their nonzeros only.
        hot = np.flatnonzero(x)
        teleport = (1.0 - params.alpha) * x.reshape(-1)[hot]
        before = None
        floor = np.full(x.shape[1], np.inf)
        last = np.empty(x.shape[1])
        live = np.ones(x.shape[1], dtype=bool)
        for k in range(steps):
            x_next = a @ x
            x_next.reshape(-1)[hot] += teleport
            # The step takes the old iterate's buffer, so a block holds three
            # n x width arrays: x, its step and the step before.
            step = np.abs(np.subtract(x_next, x, out=x), out=x)
            # einsum adds a C-order block's columns in one pass at any width,
            # where sum(axis=0) walks it row by row.
            delta = np.einsum("ij->j", step)
            x = x_next
            near = (delta <= tol * (1.0 + margin)) | (delta >= floor)
            if near.any():
                for j in np.flatnonzero(near & live):
                    d = step[:, j].sum()
                    if d <= tol or (k and d >= before[:, j].sum()):
                        out[lo + j] = x[:, j]
                        last[j] = d
                        taken[lo + j] = k + 1
                        live[j] = False
                if not live.any():
                    break
            floor = delta * (1.0 - margin)
            before = step
        else:
            capped = lo + np.flatnonzero(live)
            out[capped] = x[:, live].T
            last[live] = delta[live]
            taken[capped] = steps
        over = last > tol
        floored[lo : lo + len(last)] = over
        for d in last[over]:
            log.debug("pagerank residual floored at %.3g (tolerance %.3g)", d, tol)
        # Free this block's arrays before the next block's seeds are densified.
        del x, x_next, step, before
    return out.T, taken, floored


# Two names for pagerank(g, make_seed(...)). No protocol calls them; they stay
# because perfbench/spans.py's TRACED binds both by name.
def single_seeded_pagerank(g: Graph, u: int, params: DiffusionParams = DiffusionParams()) -> np.ndarray:
    return pagerank(g, make_seed(g, "single", u), params)


def pair_seeded_pagerank(g: Graph, u: int, v: int, params: DiffusionParams = DiffusionParams()) -> np.ndarray:
    """PageRank with teleport mass split half/half over an edge's endpoints."""
    return pagerank(g, make_seed(g, "pair", u, v), params)


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
) -> np.ndarray:
    """Triangle-reinforced PageRank: a fixed number of reweighted power steps.

    Runs exactly ``params.iterations`` steps (no convergence test); the
    result is deterministic and mass-conserving.
    """
    x = seed.dense(g.n)
    for _, x, _, _ in trpr_iterates(g, ts, seed, params, weighted):
        pass
    return x


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, ties broken by ascending index."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = np.lexsort((np.arange(len(values)), -np.asarray(values, dtype=np.float64)))
    return order[:k]


def _ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Average ranks (1-based, ties sharing their mean, as scipy's
    ``rankdata``), dense ranks (0-based) and the number of tied pairs of a
    NaN-free ``v``. Each average is an exact half-integer, so its bits match
    any exact method's."""
    order = np.argsort(v)
    s = v[order]
    bounds = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1], [True])))
    runs = np.diff(bounds)
    average = np.empty(len(v))
    average[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, runs)
    dense = np.empty(len(v), dtype=np.int64)
    dense[order] = np.repeat(np.arange(len(runs)), runs)
    return average, dense, int((runs * (runs - 1) // 2).sum())


_LEAF = 16
_LEAF_PAIRS = np.triu(np.ones((_LEAF, _LEAF), dtype=bool), 1)


def _inversions(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j], for nonnegative integers ``y``.

    Bottom-up merge counting (Knight 1966, as scipy's ``kendalltau``):
    blocks of 16 compare all their pairs at once, then each level merges
    sibling blocks with one row-wise sort and counts the pairs split by them.
    """
    size = max(_LEAF, 1 << (len(y) - 1).bit_length())
    # Padding past the end with a value above every y adds no inversion.
    padded = np.full(size, int(y.max()) + 1, dtype=np.int64)
    padded[: len(y)] = y
    leaves = padded.reshape(-1, _LEAF)
    dis = int(np.count_nonzero((leaves[:, :, None] > leaves[:, None, :]) & _LEAF_PAIRS))
    vals = 2 * np.sort(leaves, axis=1)
    s = _LEAF
    while s < size:
        # Sorting 2y + side (0 left, 1 right) merges each sibling pair, a left
        # entry ahead of an equal right one. The k-th right entry of a row
        # (from 0), at position p, then has p - k left entries at or below
        # it and s - p + k above it.
        rows = vals.reshape(-1, 2 * s) | (np.arange(2 * s) >= s)
        rows.sort(axis=1)
        at = int(np.dot((rows & 1).sum(axis=0), np.arange(2 * s)))
        dis += len(rows) * (s * s + s * (s - 1) // 2) - at
        vals = rows & -2
        s *= 2
    return dis


def _kendall_tau_b(dx: np.ndarray, xtie: int, dy: np.ndarray, ytie: int) -> float:
    """Kendall tau-b from dense ranks and tied-pair counts, by scipy's
    ``kendalltau`` integer formula, so the result has its bits."""
    span = int(dy.max()) + 1
    keys = np.sort(dx * span + dy)  # (x, y) order; equal pairs stay together
    runs = np.diff(np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True]))))
    ntie = int((runs * (runs - 1) // 2).sum())
    dis = _inversions(keys % span)
    tot = len(dx) * (len(dx) - 1) // 2
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def rank_stability(x_prev: np.ndarray, x_next: np.ndarray, top_k: int | None = None) -> tuple[float, float]:
    """(Spearman rho, Kendall tau-b) between two score vectors.

    With ``top_k`` set, correlation is computed over the union of the two
    vectors' top-k node sets; ranks within the restriction use the standard
    tie corrections (average ranks for rho, tau-b for tau). A constant
    vector has no ranking to compare, so it gives (nan, nan), as does a NaN
    entry. Both statistics equal scipy's ``spearmanr`` and ``kendalltau``
    bit for bit.
    """
    va = np.asarray(x_prev, dtype=np.float64)
    vb = np.asarray(x_next, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError("score vectors differ in length")
    if top_k is not None:
        keep = _sorted_unique(np.concatenate([top_k_indices(va, top_k), top_k_indices(vb, top_k)]))
        va, vb = va[keep], vb[keep]
    if len(va) < 2:
        raise ValueError("need at least 2 items to correlate")
    if any(np.isnan(v).any() or v.min() == v.max() for v in (va, vb)):
        log.debug("rank_stability: constant or NaN input over %d items; rho and tau are nan", len(va))
        return math.nan, math.nan
    ra, da, xtie = _ranks(va)
    rb, db, ytie = _ranks(vb)
    rho = np.corrcoef(np.column_stack([ra, rb]), rowvar=False)[1, 0]
    return float(rho), _kendall_tau_b(da, xtie, db, ytie)
