"""Simple undirected graphs in compressed adjacency form.

Graphs are loaded from whitespace-delimited edge lists, cleaned (self loops
and duplicate edges removed), and stored as CSR-style sorted neighbor arrays.
The loader keeps each record as a pair of indices into the distinct labels,
and the graph is built from that array with numpy.
Original node identifiers survive as an index <-> label bijection so that
experiment reports can name nodes the way the input file did.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class _IndexedEdges:
    """What :func:`load_edge_list` reads, before it makes label pairs: each
    record as a row of indices into ``labels``, the distinct labels in order
    of first appearance over the records. :func:`build_graph` takes it as it
    is."""

    index: np.ndarray  # shape (records, 2), int64
    labels: list[Label]
    times: list[int] | None = None
    self_loops_dropped: int = 0


def _read_edges(source, has_timestamps: bool) -> _IndexedEdges:
    """The one line loop of the loader; see :func:`load_edge_list`. Each
    distinct token is kept once, in a dict that gives its index, and read
    by :func:`_token` once. Distinct tokens are distinct labels, so a record
    is a self loop exactly when its two tokens are the same string."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_edges(fh, has_timestamps)
    want = 3 if has_timestamps else 2
    index: dict[str, int] = {}
    flat = array("q")
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
        if has_timestamps:
            try:
                t = int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer timestamp {fields[2]!r}")
        u, v = fields[0], fields[1]
        if u == v:
            loops += 1
            continue
        flat.append(index.setdefault(u, len(index)))
        flat.append(index.setdefault(v, len(index)))
        if has_timestamps:
            times.append(t)
    if loops:
        log.debug("dropped %d self-loop record(s)", loops)
    return _IndexedEdges(
        np.frombuffer(flat, dtype=np.int64).reshape(-1, 2),
        list(map(_token, index)),
        times if has_timestamps else None,
        loops,
    )


def load_edge_list(source, has_timestamps: bool = False) -> EdgeList:
    """Parse an edge-list stream into an :class:`EdgeList`.

    ``source`` may be a path or an open text/byte stream. Lines hold "u v"
    (or "u v t" with ``has_timestamps``); '#'/'%' lines and blank lines are
    skipped. Self-loop records are dropped and counted; duplicates are kept.
    """
    edges = _read_edges(source, has_timestamps)
    ends = map(edges.labels.__getitem__, edges.index.ravel().tolist())
    pairs = tuple(zip(ends, ends))
    times = None if edges.times is None else tuple(edges.times)
    return EdgeList(pairs, times, edges.self_loops_dropped)


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


def build_graph(edges: EdgeList | _IndexedEdges | Iterable[tuple[Label, Label]]) -> Graph:
    """Build a simple undirected graph, assigning dense indices in
    first-appearance order and collapsing duplicate/reversed records.

    Labels are ints or strs. Labels that compare equal are one node, so a
    numpy integer is stored as the ``int`` it equals; a bool or float label,
    numpy ones too, raises :class:`DataError`, since it would merge with an
    int (``True == 1 == 1.0``) yet be written apart."""
    if not isinstance(edges, _IndexedEdges):
        edges = _index_labels(edges.pairs if isinstance(edges, EdgeList) else tuple(edges))
    return _index_graph(edges.index, edges.labels)


def _index_labels(pairs: tuple[tuple[Label, Label], ...]) -> _IndexedEdges:
    """Label pairs as rows of indices into their distinct labels."""
    if not pairs:
        raise DataError("cannot build a graph from an empty edge list")
    if set(map(len, pairs)) != {2}:
        raise ValueError("every edge record must be a pair of labels")
    # By type over every label: a dict would merge True into 1 unseen.
    kinds = set(map(type, chain.from_iterable(pairs)))
    bad = tuple(k for k in kinds if issubclass(k, (bool, np.bool_, float, np.floating)))
    if bad:
        label = next(w for w in chain.from_iterable(pairs) if isinstance(w, bad))
        raise DataError(f"label {label!r} is a {type(label).__name__}; node labels must be ints or strs")
    index = dict(zip(dict.fromkeys(chain.from_iterable(pairs)), count()))
    codes = np.fromiter(map(index.__getitem__, chain.from_iterable(pairs)), dtype=np.int64, count=2 * len(pairs))
    labels: list[Label] = list(index)
    if any(issubclass(k, np.integer) for k in kinds):
        labels = [int(w) if isinstance(w, np.integer) else w for w in labels]
    return _IndexedEdges(codes.reshape(-1, 2), labels)


def _index_graph(e: np.ndarray, labels: Sequence[Label]) -> Graph:
    """Graph from an (m, 2) int64 array of records given as indices into
    ``labels``, which are numbered in order of first appearance over the
    records: self loops dropped, nodes numbered in order of first appearance
    over the kept records, repeated and reversed records merged."""
    if len(e) == 0:
        raise DataError("cannot build a graph from an empty edge list")
    kept = e[:, 0] != e[:, 1]
    loops = len(e) - int(np.count_nonzero(kept))
    if loops:
        # A dropped record may hold a label's first appearance, or its only one.
        e = e[kept]
        if len(e) == 0:
            raise DataError("edge list contains no usable edges")
        e, nodes = _first_appearance(e)
        labels = tuple(map(labels.__getitem__, nodes.tolist()))
    n = len(labels)
    keys = np.sort(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    dups = len(e) - len(keys)
    if loops or dups:
        log.debug("build_graph removed %d self-loop(s), %d duplicate(s)", loops, dups)
    return _from_index_pairs(np.column_stack([keys // n, keys % n]), tuple(labels))


def _first_appearance(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``e`` renumbered 0, 1, ... in order of first appearance (row by row),
    and the old number of each new one."""
    nodes, first, inverse = np.unique(e, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse].reshape(e.shape), nodes[order]


def edge_subgraph(g: Graph, edges: np.ndarray) -> Graph:
    """Graph on the given (k, 2) rows of ``g.edge_array()``.

    Nodes are re-indexed in first-appearance order over the rows, as
    :func:`build_graph` would index the same edges given as label pairs;
    nodes on none of the rows are dropped.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if len(edges) == 0:
        raise DataError("cannot build a graph from an empty edge list")
    e, nodes = _first_appearance(edges)
    return _from_index_pairs(e, tuple(map(g.labels.__getitem__, nodes.tolist())))


def _from_index_pairs(e: np.ndarray, labels: tuple[Label, ...]) -> Graph:
    """CSR graph from an (m, 2) array of distinct undirected dense-index edges."""
    n = len(labels)
    # Both directions of every edge as the key i * n + j; sorted, they list
    # each row's neighbours in order, row after row.
    keys = np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]])
    keys.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return Graph(indptr=indptr, indices=keys % n, labels=labels)


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
