"""Triangle enumeration and implicit products with the triangle tensor.

Triangles are listed by a vectorized forward pass over index-oriented edges:
wedges expanded in bounded chunks and closed by a binary search on the sorted
edge keys. The (symmetric, 0/1) triangle indicator tensor is never
materialized: every product is an accumulation over the canonical triangle
list, so all costs are linear in the number of triangles.

The products walk the list in blocks of ``_BLOCK`` triangles. ``triples``
is column-major, so a block's corner columns a, b and c are contiguous
slices. A product gathers each input vector straight from them, forms the
corner weights w, laid out a|b|c, in place and adds ``S @ w``, where S, the
block's scatter, is all that a ``TriangleSet`` caches. scipy's CSR
product starts each row at 0.0 and adds ``1.0 * w[p]`` (exact, fused or
not) in stored order, so every node gets the additions a weighted
``bincount`` of a|b|c makes, in the same order, and the same bits; but each
row sums in a register instead of through memory. The cache holds 3T int32,
an (n + 1) int32 row pointer per block and 3B shared ones: 3.4 MB at
T = 287k. The output bits depend on ``_BLOCK`` and on the a|b|c order,
which fix the order of the floating-point sums: changing either changes the
bytes of every result written from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graph import Graph, _sorted_unique


@dataclass(frozen=True, eq=False)
class TriangleSet:
    """Canonical triangle list of a graph: rows (i, j, k) with i < j < k."""

    n: int
    triples: np.ndarray  # shape (count, 3), int64, column-major

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", np.asfortranarray(self.triples))
        self.triples.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.triples)

    @cached_property
    def _corner_index(self) -> tuple[sp.csr_array, ...]:
        """Per block of ``_BLOCK`` triangles, the scatter S that sums the
        corner weights by node: row i lists, ascending, the positions p of
        the corners equal to i in the block's corners joined a|b|c, so
        ``S @ w`` adds them in ``bincount``'s order. Every S has int32
        indices and shares one read-only buffer of ones."""
        ones = np.ones(3 * min(self.count, _BLOCK))
        ones.setflags(write=False)
        blocks = []
        for lo in range(0, self.count, _BLOCK):
            idx = np.concatenate(self.triples[lo : lo + _BLOCK].T, dtype=np.int32)
            # Column p of this CSC matrix holds one entry, at row idx[p]; the
            # conversion lists each row's columns in ascending order.
            colptr = np.arange(len(idx) + 1, dtype=np.int32)
            scatter = sp.csc_array((ones[: len(idx)], idx, colptr), shape=(self.n, len(idx))).tocsr()
            # The conversion writes its own array of ones; share the buffer.
            scatter.data = ones[: len(idx)]
            scatter.indices.setflags(write=False)
            scatter.indptr.setflags(write=False)
            blocks.append(scatter)
        return tuple(blocks)


# Expand wedges and accumulate in fixed-size blocks so the gather/scatter
# temporaries stay cache-resident regardless of the wedge and triangle counts.
_BLOCK = 32768


def enumerate_triangles(g: Graph) -> TriangleSet:
    """All triangles of ``g`` by the forward algorithm over index-oriented edges.

    Each edge (i, j) with i < j is oriented from i to j, so the forward list
    of ``i`` is the tail of its sorted neighbor row past ``i``. Every wedge
    (i; j < k) of two forward edges is closed by a ``searchsorted`` of the key
    ``j*n + k`` in the sorted keys of all oriented edges. Wedges are expanded
    in chunks of at most ``_BLOCK`` (a chunk may split one edge's wedges), so
    temporaries stay bounded by the chunk size. Wedges come out ordered by
    (i, j, k), so the rows are already in canonical lexicographic order and
    each triangle appears exactly once. The work is one binary search per
    forward wedge, with no Python loop per node or edge (Latapy, "Main-memory
    triangle computations for very large (sparse (power-law)) graphs", TCS
    2008).
    """
    n = g.n
    # The oriented edges, sorted by (i, j); edge e's later forward neighbors
    # of i sit right after it in ``heads``.
    tails, heads = g.edge_array().T
    # A sentinel past every key keeps each search result a valid index.
    keys = np.append(tails * n + heads, n * n)
    # Edge e closes a wedge with each later forward neighbor of its tail;
    # its wedges are numbered starts[e] .. ends[e] - 1, and wedge w takes
    # its k from heads[e + 1 + w - starts[e]].
    row_end = np.cumsum(np.bincount(tails, minlength=n))
    ends = np.cumsum(row_end[tails] - np.arange(1, len(tails) + 1))
    starts = np.append(0, ends[:-1])
    # Each chunk's closed wedges as a (3, hits) stack, joined once at the end.
    found = [np.empty((3, 0), dtype=np.int64)]
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        e0 = int(np.searchsorted(ends, lo, side="right"))
        e1 = int(np.searchsorted(starts, hi, side="left"))
        e = np.repeat(np.arange(e0, e1), np.minimum(ends[e0:e1], hi) - np.maximum(starts[e0:e1], lo))
        k = heads[e + 1 - starts[e] + np.arange(lo, hi)]
        want = heads[e] * n + k
        closed = keys[np.searchsorted(keys, want)] == want
        e = e[closed]
        found.append(np.stack([tails[e], heads[e], k[closed]]))
    return TriangleSet(n=n, triples=np.concatenate(found, axis=1).T)


def subgraph_triangles(ts: TriangleSet, to_sub: np.ndarray, sub: Graph) -> TriangleSet:
    """The triangles of ``sub``, taken from the triangles ``ts`` of a graph
    that ``sub`` is a subgraph of; ``to_sub`` maps that graph's node indices
    to ``sub``'s, -1 for a node outside it, as a split's ``to_train`` does.

    They are exactly the rows of ``ts`` whose three corner pairs are edges
    of ``sub``. Those rows are mapped to ``sub``'s indices and
    re-canonicalized (each row sorted, then the rows in lexicographic order),
    so the result is array-equal to ``enumerate_triangles(sub)``. The map
    need not be monotone, so the sort is needed. The work is one binary
    search per corner pair of ``ts`` and one sort of the surviving rows,
    with no wedge expansion.
    """
    n = sub.n
    t = to_sub[ts.triples]
    # Every directed edge of ``sub`` as the key i*n + j, sorted (CSR order),
    # then a sentinel past every key, so each search result is a valid index.
    keys = np.append(np.repeat(np.arange(n, dtype=np.int64), sub.degrees) * n + sub.indices, n * n)
    # A corner outside ``sub`` maps to -1, and a pair key with a -1 in it can
    # equal a real edge's key, so those rows are dropped here.
    keep = t.min(axis=1) >= 0
    for x, y in ((0, 1), (0, 2), (1, 2)):
        want = t[:, x] * n + t[:, y]
        keep &= keys[np.searchsorted(keys, want)] == want
    a, b, c = t[keep].T
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = a + b + c - lo - hi
    order = np.lexsort((hi, lo * n + mid))
    return TriangleSet(n=n, triples=np.stack([lo[order], mid[order], hi[order]]).T)


def _check_len(ts: TriangleSet, vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (ts.n,):
        raise ValueError(f"{name} has length {vec.shape}, expected ({ts.n},)")
    return vec


def _blocks(ts: TriangleSet):
    """Per block, its corner columns a, b, c (views of ``triples``) and S."""
    for lo, scatter in zip(range(0, ts.count, _BLOCK), ts._corner_index):
        yield ts.triples[lo : lo + _BLOCK].T, scatter


def _cross_into(out: np.ndarray, tmp: np.ndarray, p, q, r, s) -> None:
    """out = p*q + r*s, rounded exactly as that expression, in place."""
    np.multiply(p, q, out=out)
    np.multiply(r, s, out=tmp)
    np.add(out, tmp, out=out)


def tensor_bilinear(ts: TriangleSet, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z with z_i = sum_{j,k} T(i,j,k) * y(j) * x(k).

    Per canonical triangle (a, b, c) each corner accumulates both ordered
    pairs of the other two corners, which realizes the fully symmetric
    tensor. Runtime is proportional to the triangle count.
    """
    x = _check_len(ts, x, "x")
    y = _check_len(ts, y, "y")
    z = np.zeros(ts.n)
    for (a, b, c), scatter in _blocks(ts):
        xa, xb, xc = x[a], x[b], x[c]
        ya, yb, yc = y[a], y[b], y[c]
        w = np.empty((3, len(a)))  # its rows joined are the a|b|c weights
        tmp = np.empty(len(a))
        _cross_into(w[0], tmp, yb, xc, yc, xb)
        _cross_into(w[1], tmp, ya, xc, yc, xa)
        _cross_into(w[2], tmp, ya, xb, yb, xa)
        z += scatter @ w.ravel()
    return z


def tensor_row_sums(ts: TriangleSet, x: np.ndarray) -> np.ndarray:
    """Row sums of the matrix T[x], i.e. tensor_bilinear(ts, x, ones).

    T[x] is symmetric, so these are also its column sums; the reinforced
    power iteration needs them every step to renormalize columns.
    """
    x = _check_len(ts, x, "x")
    z = np.zeros(ts.n)
    for (a, b, c), scatter in _blocks(ts):
        xa, xb, xc = x[a], x[b], x[c]
        w = np.empty((3, len(a)))
        np.add(xb, xc, out=w[0])
        np.add(xa, xc, out=w[1])
        np.add(xa, xb, out=w[2])
        z += scatter @ w.ravel()
    return z


def reinforced_matrix_apply(
    g: Graph, ts: TriangleSet, x: np.ndarray, y: np.ndarray, gamma: float
) -> np.ndarray:
    """(gamma * T[x] + A) @ y without forming T[x]."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    y = _check_len(ts, y, "y")
    return gamma * tensor_bilinear(ts, x, y) + g.adjacency @ y


def triangle_edges(ts: TriangleSet) -> list[tuple[int, int]]:
    """The edges (u < v) in at least one triangle, in (u, v) order: the
    distinct keys u * n + v, sorted."""
    a, b, c = ts.triples.T
    n = ts.n
    keys = _sorted_unique(np.concatenate([a * n + b, a * n + c, b * n + c]))
    return list(zip((keys // n).tolist(), (keys % n).tolist()))
