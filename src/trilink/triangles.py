"""Triangle enumeration and implicit products with the triangle tensor.

Triangles are listed by a vectorized forward pass over index-oriented edges:
wedges expanded in bounded chunks and closed by a binary search on the sorted
edge keys. The (symmetric, 0/1) triangle indicator tensor is never
materialized: every product is an accumulation over the canonical triangle
list, so all costs are linear in the number of triangles.

The products walk the list in blocks of ``_BLOCK`` triangles. Each
``TriangleSet`` caches, on first use, per block: the block's corner columns
joined as a|b|c (``idx``, the gather index), and its scatter, a CSR matrix
S of shape (n, 3B) whose row i lists, in ascending order, the positions p
with ``idx[p] == i``. A product does one gather per input vector per block,
forms the corner weights w in place, and adds ``S @ w``. scipy's CSR
product starts each row at 0.0 and adds ``1.0 * w[p]`` (exact, fused or
not) in stored order, so every node gets the additions a
``bincount(idx, weights=w)`` makes, in the same order, and the same bits;
but each row sums in a register instead of through memory. The cache holds
3T int64 (``idx``), 3T int32 (S's indices), an (n + 1) int32 row pointer
per block and one shared read-only buffer of 3B ones: 6.9 + 3.4 MB at
T = 287k. The output bits depend on ``_BLOCK`` and on the a|b|c join order,
which fix the order of the floating-point sums: changing either changes the
bytes of every result written from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graph import Graph


@dataclass(frozen=True, eq=False)
class TriangleSet:
    """Canonical triangle list of a graph: rows (i, j, k) with i < j < k."""

    n: int
    triples: np.ndarray  # shape (count, 3), int64

    def __post_init__(self) -> None:
        self.triples.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.triples)

    @cached_property
    def _corner_index(self) -> tuple[tuple[np.ndarray, sp.csr_array], ...]:
        """Per block of ``_BLOCK`` triangles, ``(idx, S)``: the corner
        columns joined as a|b|c, the gather index of the corner values, and
        the scatter S, which sums the corner weights by node. Row i of S
        lists, ascending, the positions p with ``idx[p] == i``, so ``S @ w``
        adds each node's weights in ``bincount``'s order and gives its bits.
        Every block's S takes its 1.0 entries from one shared read-only
        buffer and has int32 indices: 3T int64 plus 3T int32 in all, plus
        an (n + 1) int32 row pointer per block and the buffer of ones."""
        ones = np.ones(3 * min(self.count, _BLOCK))
        ones.setflags(write=False)
        blocks = []
        for lo in range(0, self.count, _BLOCK):
            idx = np.ascontiguousarray(self.triples[lo : lo + _BLOCK].T).ravel()
            idx.setflags(write=False)
            # Column p of this CSC matrix holds one entry, at row idx[p]; the
            # conversion lists each row's columns in ascending order.
            colptr = np.arange(len(idx) + 1, dtype=np.int32)
            scatter = sp.csc_array(
                (ones[: len(idx)], idx.astype(np.int32), colptr), shape=(self.n, len(idx))
            ).tocsr()
            # The conversion writes its own array of ones; share the buffer.
            scatter.data = ones[: len(idx)]
            scatter.indices.setflags(write=False)
            scatter.indptr.setflags(write=False)
            blocks.append((idx, scatter))
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
    # Each chunk's closed wedges, as (hits, 3) rows; joined once at the end.
    found = [np.empty((0, 3), dtype=np.int64)]
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
        found.append(np.column_stack([tails[e], heads[e], k[closed]]))
    return TriangleSet(n=n, triples=np.concatenate(found))


def subgraph_triangles(ts: TriangleSet, g: Graph, sub: Graph) -> TriangleSet:
    """The triangles of ``sub``, taken from the triangles ``ts`` of ``g``.

    ``sub`` must be a subgraph of ``g`` with nodes matched by label, such as
    a split's train graph. Its triangles are then exactly the triangles of
    ``g`` whose three corner pairs are edges of ``sub``. Those rows are
    relabelled to ``sub``'s indices and re-canonicalized (each row sorted,
    then the rows in lexicographic order), so the result is array-equal to
    ``enumerate_triangles(sub)``. The relabel need not be monotone, so the
    sort is needed. The work is one binary search per corner pair of ``ts``
    and one sort of the surviving rows, with no wedge expansion.
    """
    n = sub.n
    parent_index = np.fromiter(map(g.label_index.__getitem__, sub.labels), dtype=np.int64, count=n)
    to_sub = np.full(g.n, -1, dtype=np.int64)
    to_sub[parent_index] = np.arange(n)
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
    return TriangleSet(n=n, triples=np.column_stack([lo[order], mid[order], hi[order]]))


def _check_len(ts: TriangleSet, vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (ts.n,):
        raise ValueError(f"{name} has length {vec.shape}, expected ({ts.n},)")
    return vec


def _thirds(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The a, b and c parts of a vector laid out like a corner index block."""
    size = len(v) // 3
    return v[:size], v[size : 2 * size], v[2 * size :]


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
    for idx, scatter in ts._corner_index:
        xa, xb, xc = _thirds(x[idx])
        ya, yb, yc = _thirds(y[idx])
        w = np.empty(len(idx))
        wa, wb, wc = _thirds(w)
        tmp = np.empty(len(wa))
        _cross_into(wa, tmp, yb, xc, yc, xb)
        _cross_into(wb, tmp, ya, xc, yc, xa)
        _cross_into(wc, tmp, ya, xb, yb, xa)
        z += scatter @ w
    return z


def tensor_row_sums(ts: TriangleSet, x: np.ndarray) -> np.ndarray:
    """Row sums of the matrix T[x], i.e. tensor_bilinear(ts, x, ones).

    T[x] is symmetric, so these are also its column sums; the reinforced
    power iteration needs them every step to renormalize columns.
    """
    x = _check_len(ts, x, "x")
    z = np.zeros(ts.n)
    for idx, scatter in ts._corner_index:
        xa, xb, xc = _thirds(x[idx])
        w = np.empty(len(idx))
        wa, wb, wc = _thirds(w)
        np.add(xb, xc, out=wa)
        np.add(xa, xc, out=wb)
        np.add(xa, xb, out=wc)
        z += scatter @ w
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
    unique keys u * n + v come sorted."""
    a, b, c = ts.triples.T
    n = ts.n
    keys = np.unique(np.concatenate([a * n + b, a * n + c, b * n + c]))
    return list(zip((keys // n).tolist(), (keys % n).tolist()))
