"""Simple undirected graphs in compressed adjacency form.

Graphs are loaded from whitespace-delimited edge lists, cleaned (self loops
and duplicate edges removed), and stored as CSR-style sorted neighbor arrays.
Original node identifiers survive as an index <-> label bijection so that
experiment reports can name nodes the way the input file did.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

log = logging.getLogger("trilink")

Label = int | str


class DataError(Exception):
    """Input data violates the expected format or is unusable."""


class ParseError(DataError):
    """A malformed line in an edge-list stream."""


@dataclass(frozen=True)
class EdgeList:
    """Raw edge records with original node labels, pre-deduplication.

    ``times`` is None for static inputs; otherwise one integer timestamp per
    pair. Self loops are dropped at parse time; duplicates are kept so that
    temporal splitting can see every occurrence.
    """

    pairs: tuple[tuple[Label, Label], ...]
    times: tuple[int, ...] | None = None
    self_loops_dropped: int = 0

    def __post_init__(self) -> None:
        if self.times is not None and len(self.times) != len(self.pairs):
            raise ValueError("times and pairs length mismatch")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[Label, Label]]:
        return iter(self.pairs)

    @property
    def has_timestamps(self) -> bool:
        return self.times is not None


def _token(tok: str) -> Label:
    # Node IDs are opaque; a token becomes an int only when it is that int's
    # canonical spelling, so distinct tokens such as "01" and "1" stay apart.
    try:
        value = int(tok)
    except ValueError:
        return tok
    return value if str(value) == tok else tok


def load_edge_list(source, has_timestamps: bool = False) -> EdgeList:
    """Parse an edge-list stream into an :class:`EdgeList`.

    ``source`` may be a path or an open text/byte stream. Lines hold "u v"
    (or "u v t" with ``has_timestamps``); '#'/'%' lines and blank lines are
    skipped. Self-loop records are dropped and counted; duplicates are kept.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, has_timestamps)
    want = 3 if has_timestamps else 2
    pairs: list[tuple[Label, Label]] = []
    times: list[int] = []
    loops = 0
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        fields = line.split()
        if len(fields) != want:
            raise ParseError(
                f"line {lineno}: expected {want} fields, got {len(fields)}: {line!r}"
            )
        u, v = _token(fields[0]), _token(fields[1])
        if has_timestamps:
            try:
                t = int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer timestamp {fields[2]!r}")
        if u == v:
            loops += 1
            continue
        pairs.append((u, v))
        if has_timestamps:
            times.append(t)
    if loops:
        log.debug("dropped %d self-loop record(s)", loops)
    return EdgeList(tuple(pairs), tuple(times) if has_timestamps else None, loops)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    ``indices[indptr[i]:indptr[i+1]]`` is the sorted neighbor list of dense
    node ``i``; ``labels[i]`` is its original identifier. Safe to share
    read-only across workers; never mutate the arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.diff(self.indptr)
        d.setflags(write=False)
        return d

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """0/1 adjacency as float CSR (copy-backed, indices sorted)."""
        a = sp.csr_matrix(
            (np.ones(len(self.indices)), self.indices.copy(), self.indptr.copy()),
            shape=(self.n, self.n),
        )
        a.has_sorted_indices = True
        return a

    @cached_property
    def label_index(self) -> dict[Label, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def _check_node(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range [0, {self.n})")

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of ``i`` (read-only view)."""
        self._check_node(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        self._check_node(i)
        return int(self.indptr[i + 1] - self.indptr[i])

    def has_edge(self, i: int, j: int) -> bool:
        self._check_node(i)
        self._check_node(j)
        row = self.neighbors(i)
        k = np.searchsorted(row, j)
        return k < len(row) and row[k] == j

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])


def build_graph(edges: EdgeList | Iterable[tuple[Label, Label]]) -> Graph:
    """Build a simple undirected graph, assigning dense indices in
    first-appearance order and collapsing duplicate/reversed records."""
    pairs = edges.pairs if isinstance(edges, EdgeList) else tuple(edges)
    if not pairs:
        raise DataError("cannot build a graph from an empty edge list")
    index: dict[Label, int] = {}
    seen: set[tuple[int, int]] = set()
    dedup: list[tuple[int, int]] = []
    loops = dups = 0
    for u, v in pairs:
        if u == v:
            loops += 1
            continue
        iu = index.setdefault(u, len(index))
        iv = index.setdefault(v, len(index))
        key = (iu, iv) if iu < iv else (iv, iu)
        if key in seen:
            dups += 1
            continue
        seen.add(key)
        dedup.append(key)
    if loops or dups:
        log.debug("build_graph removed %d self-loop(s), %d duplicate(s)", loops, dups)
    if not dedup:
        raise DataError("edge list contains no usable edges")
    labels = [None] * len(index)
    for lab, i in index.items():
        labels[i] = lab
    return _from_index_pairs(np.asarray(dedup, dtype=np.int64), tuple(labels))


def edge_subgraph(g: Graph, edges: np.ndarray) -> Graph:
    """Graph on the given (k, 2) rows of ``g.edge_array()``.

    Nodes are re-indexed in first-appearance order over the rows, as
    :func:`build_graph` would index the same edges given as label pairs;
    nodes on none of the rows are dropped.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if len(edges) == 0:
        raise DataError("cannot build a graph from an empty edge list")
    nodes, first, inverse = np.unique(edges, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    lab = g.labels
    labels = tuple(lab[i] for i in nodes[order].tolist())
    return _from_index_pairs(rank[inverse].reshape(edges.shape), labels)


def _from_index_pairs(e: np.ndarray, labels: tuple[Label, ...]) -> Graph:
    """CSR graph from an (m, 2) array of distinct undirected dense-index edges."""
    n = len(labels)
    und = np.vstack([e, e[:, ::-1]])
    und = und[np.lexsort((und[:, 1], und[:, 0]))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(und[:, 0], minlength=n))
    return Graph(indptr=indptr, indices=und[:, 1].copy(), labels=labels)


def to_edge_list(g: Graph) -> EdgeList:
    """Edges of ``g`` as original-label pairs (canonical dense order)."""
    arr = g.edge_array()
    return EdgeList(tuple((g.labels[u], g.labels[v]) for u, v in arr))


def _check_writable(label: Label) -> None:
    # A label is written as its str() and read back by the loader, so it must
    # be one whitespace-free field that does not open a comment line, and
    # _token must give back the same value of the same kind (str "1" would
    # merge into int 1).
    text = str(label)
    back = _token(text)
    same = back == label and isinstance(back, str) == isinstance(label, str)
    if text.split() != [text] or text[0] in "#%" or not same:
        raise DataError(f"label {label!r} would not read back as itself from an edge list")


def _check_time(t) -> None:
    # The loader reads a timestamp with int(), which must give back t itself:
    # 1.5 would be written as "1.5" and True as "True", and neither loads.
    try:
        same = int(str(t)) == t
    except ValueError:
        same = False
    if not same:
        raise DataError(f"timestamp {t!r} would not read back as the same integer from an edge list")


def write_edge_list(path, edges: EdgeList | Graph) -> None:
    """Write one "u v" (or "u v t") line per edge. Raises DataError, before
    opening ``path``, on a label that :func:`load_edge_list` would read back
    as another node or not at all, or on a timestamp it would not read back
    as the same integer."""
    if isinstance(edges, Graph):
        edges = to_edge_list(edges)
    # By (type, value): 1.0 and True equal 1 in a set, but are written apart.
    for _, label in {(type(w), w) for pair in edges.pairs for w in pair}:
        _check_writable(label)
    for t in edges.times or ():
        _check_time(t)
    with open(path, "w", encoding="utf-8") as fh:
        if edges.times is None:
            for u, v in edges.pairs:
                fh.write(f"{u} {v}\n")
        else:
            for (u, v), t in zip(edges.pairs, edges.times):
                fh.write(f"{u} {v} {t}\n")


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component (ties: smallest member
    index wins), re-indexed with the original labels carried along."""
    # Label each node with its component's smallest index: every root takes
    # the smallest label across its tree's edges, then pointer jumping
    # flattens the trees, until no label changes. Labels only fall, so this
    # ends, in a few rounds even on long paths (11 on a randomly labelled
    # 20,000-node path).
    src = np.repeat(np.arange(g.n), g.degrees)
    label = np.arange(g.n)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[src], label[g.indices])
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, label):
            break
        label = hooked
    # argmax takes the first largest count, i.e. the smallest root index.
    best = int(np.argmax(np.bincount(label, minlength=g.n)))
    keep = label == best
    if keep.all():
        return g
    # A whole component keeps every neighbor of its nodes, so its CSR is the
    # parent's kept rows, relabeled in order; the rows stay sorted.
    indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(g.degrees[keep], out=indptr[1:])
    indices = (np.cumsum(keep) - 1)[g.indices[np.repeat(keep, g.degrees)]]
    labels = tuple(g.labels[i] for i in np.flatnonzero(keep).tolist())
    return Graph(indptr=indptr, indices=indices, labels=labels)


def edge_neighborhood(g: Graph, u: int, v: int) -> np.ndarray:
    """Union of the endpoints' neighborhoods minus both endpoints.

    (u, v) need not be an edge of ``g``; held-out pairs are scored too.
    """
    if u == v:
        raise ValueError("edge neighborhood requires two distinct endpoints")
    nb = np.union1d(g.neighbors(u), g.neighbors(v))
    return nb[(nb != u) & (nb != v)]
