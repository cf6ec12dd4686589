"""Simple undirected graphs in compressed adjacency form.

Graphs are loaded from whitespace-delimited edge lists, cleaned (self loops
and duplicate edges removed), and stored as CSR-style sorted neighbor arrays.
An edge list keeps each record as a pair of indices into the distinct
labels, and the graph is built from that array with numpy.
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


class EdgeList:
    """Raw edge records with original node labels, pre-deduplication.

    Row i of the (m, 2) int64 ``index`` holds record i's ends as indices
    into ``labels``, the distinct labels in order of first appearance.
    ``stamps`` is None for static inputs, else one int64 timestamp per
    record; ``pairs`` and ``times`` are made as tuples when read. Self loops
    are dropped at parse time; duplicates are kept so that temporal
    splitting can see every occurrence. Labels that compare equal but differ
    in kind (1, 1.0, True) stay apart, for :func:`build_graph` and
    :func:`write_edge_list` to refuse; a numpy integer is the ``int`` it
    equals. A time that would not read back as itself raises DataError.
    """

    def __init__(self, pairs: Iterable[tuple[Label, Label]], times=None, self_loops_dropped: int = 0) -> None:
        pairs = tuple(pairs)
        if times is not None and len(times) != len(pairs):
            raise ValueError("times and pairs length mismatch")
        if set(map(len, pairs)) - {2}:
            raise ValueError("every edge record must be a pair of labels")
        ends = tuple(chain.from_iterable(pairs))
        keyed = not set(map(type, ends)) <= {int, str}
        if keyed:
            # A dict would merge True and 1.0 into 1, so key by kind too.
            ends = tuple((int, int(w)) if isinstance(w, np.integer) else
                         (str if isinstance(w, str) else type(w), w) for w in ends)
        index = dict(zip(dict.fromkeys(ends), count()))
        codes = np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=len(ends))
        for t in () if times is None else times:
            _check_time(t)
        self.index = codes.reshape(-1, 2)
        self.labels = tuple(w for _, w in index) if keyed else tuple(index)
        self.stamps = None if times is None else np.array(times, dtype=np.int64)
        self.self_loops_dropped = self_loops_dropped

    @classmethod
    def _of(cls, index: np.ndarray, labels: tuple[Label, ...], stamps=None, self_loops_dropped: int = 0) -> EdgeList:
        """An edge list on arrays already laid out as the class keeps them."""
        edges = cls.__new__(cls)
        edges.index, edges.labels, edges.stamps, edges.self_loops_dropped = index, labels, stamps, self_loops_dropped
        return edges

    @property
    def pairs(self) -> tuple[tuple[Label, Label], ...]:
        ends = map(self.labels.__getitem__, self.index.ravel().tolist())
        return tuple(zip(ends, ends))

    @property
    def times(self) -> tuple[int, ...] | None:
        return None if self.stamps is None else tuple(self.stamps.tolist())

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[tuple[Label, Label]]:
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (self.pairs, self.times, self.self_loops_dropped) == (other.pairs, other.times, other.self_loops_dropped)

    def __repr__(self) -> str:
        return f"EdgeList({self.pairs!r}, {self.times!r}, {self.self_loops_dropped!r})"

    @property
    def has_timestamps(self) -> bool:
        return self.stamps is not None


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
    (or "u v t" with ``has_timestamps``, t an int64); '#'/'%' lines and
    blank lines are skipped. Self-loop records are dropped and counted;
    duplicates are kept. Each distinct token is kept once, as a dict key
    that gives its index; distinct tokens are distinct labels.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, has_timestamps)
    want = 3 if has_timestamps else 2
    index: dict[str, int] = {}
    flat = array("q")
    times = array("q")
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
            if not -(1 << 63) <= t < 1 << 63:
                raise ParseError(f"line {lineno}: timestamp {fields[2]!r} is outside the int64 range")
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
    return EdgeList._of(
        np.frombuffer(flat, dtype=np.int64).reshape(-1, 2),
        tuple(map(_token, index)),
        np.frombuffer(times, dtype=np.int64) if has_timestamps else None,
        loops,
    )


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
    """Build a simple undirected graph from the records' index arrays: self
    loops dropped, nodes numbered in order of first appearance over the kept
    records, repeated and reversed records merged. Labels are ints or strs;
    a bool or float label, numpy ones too, raises :class:`DataError`, since
    it would merge with an int (``True == 1 == 1.0``) yet be written apart."""
    if not isinstance(edges, EdgeList):
        edges = EdgeList(edges)
    _check_labels(edges.labels)
    e, labels = edges.index, edges.labels
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
    return _from_index_pairs(np.column_stack([keys // n, keys % n]), labels)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of a 1-D ``a`` by a sort and a pass that drops
    repeats, as in :func:`build_graph`: many times faster on numpy 2."""
    a = np.sort(a)
    return a[np.append(a[:1] == a[:1], a[1:] != a[:-1])]  # a[:1] keeps an empty a empty


def _check_labels(labels: Sequence[Label]) -> None:
    bad = tuple(k for k in set(map(type, labels)) if issubclass(k, (bool, np.bool_, float, np.floating)))
    if bad:
        label = next(w for w in labels if isinstance(w, bad))
        raise DataError(f"label {label!r} is a {type(label).__name__}; node labels must be ints or strs")


def _first_appearance(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``e`` renumbered 0, 1, ... in order of first appearance (row by row),
    and the old number of each new one."""
    nodes, first, inverse = np.unique(e, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse].reshape(e.shape), nodes[order]


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
    e, nodes = _first_appearance(g.edge_array())
    return EdgeList._of(e, tuple(map(g.labels.__getitem__, nodes.tolist())))


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
    # The loader reads a timestamp with int() into an int64, which must give
    # back t itself: 1.5 would be written as "1.5" and True as "True", and
    # neither loads; 2**63 loads as no int64.
    try:
        same = int(str(t)) == t and -2**63 <= t < 2**63
    except ValueError:
        same = False
    if not same:
        raise DataError(f"timestamp {t!r} would not read back as the same integer from an edge list")


def write_edge_list(path, edges: EdgeList | Graph) -> None:
    """Write one "u v" (or "u v t") line per edge. Raises DataError, before
    opening ``path``, on a label that :func:`load_edge_list` would read back
    as another node or not at all. The timestamps were checked when the
    :class:`EdgeList` was made."""
    if isinstance(edges, Graph):
        edges = to_edge_list(edges)
    for label in edges.labels:
        _check_writable(label)
    lab, rows = edges.labels, edges.index.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        if edges.stamps is None:
            fh.writelines(f"{lab[u]} {lab[v]}\n" for u, v in rows)
        else:
            fh.writelines(f"{lab[u]} {lab[v]} {t}\n" for (u, v), t in zip(rows, edges.stamps.tolist()))


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
