"""Independent reference implementations used to check the library.

Everything here favors obviousness over speed: explicit dense tensors,
cubic scans, direct linear solves, pure-Python set algebra. The rank
statistics and connected components come from scipy, which trilink itself
uses only for ``scipy.sparse``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import stats
from scipy.sparse.csgraph import connected_components

from trilink import DataError, EdgeList, Graph, ParseError, SeedVector, build_graph, largest_connected_component
from trilink.experiments import SplitDataset


def neighbor_sets(g: Graph) -> list[set[int]]:
    return [set(int(j) for j in g.neighbors(i)) for i in range(g.n)]


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    nb = neighbor_sets(g)
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if j not in nb[i]:
                continue
            for k in range(j + 1, g.n):
                if k in nb[i] and k in nb[j]:
                    out.append((i, j, k))
    return out


def dense_tensor(triples, n: int) -> np.ndarray:
    """Fully symmetric 0/1 triangle tensor as an n^3 array."""
    import itertools

    t = np.zeros((n, n, n))
    for tri in triples:
        for p in itertools.permutations(tri):
            t[p] = 1.0
    return t


def dense_bilinear(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,j,k->i", t, y, x)


def dense_tx(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix T[x] with entries sum_k T(i,j,k) x(k)."""
    return np.einsum("ijk,k->ij", t, x)


def adjacency_dense(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i in range(g.n):
        a[i, g.neighbors(i)] = 1.0
    return a


def pagerank_direct(g: Graph, seed_dense: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (I - alpha*P) x = (1 - alpha) * seed with a dense direct solve."""
    a = adjacency_dense(g)
    p = a / a.sum(axis=0, keepdims=True)
    n = g.n
    return np.linalg.solve(np.eye(n) - alpha * p, (1 - alpha) * seed_dense)


def weighted_star_seed(g: Graph, u: int) -> SeedVector:
    """The aggregate of u's pair seeds: the mean over u's neighbors j of the
    seed with half its mass at u and half at j, which is degree(u) at u and 1
    at each neighbor, normalized."""
    nbrs = [int(j) for j in g.neighbors(u)]
    ent = {u: 0.0}
    for j in nbrs:
        ent[u] += 0.5 / len(nbrs)
        ent[j] = 0.5 / len(nbrs)
    return SeedVector(ent)


def power_steps(g: Graph, seed_dense: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    """Truncated power iteration for plain PageRank (dense arithmetic)."""
    a = adjacency_dense(g)
    p = a / a.sum(axis=0, keepdims=True)
    x = seed_dense.copy()
    for _ in range(steps):
        x = alpha * (p @ x) + (1 - alpha) * seed_dense
    return x


def trpr_dense(g: Graph, triples, seed_dense: np.ndarray, alpha: float, iters: int,
               weighted: bool = False) -> np.ndarray:
    """Reinforced iteration with the tensor fully materialized."""
    a = adjacency_dense(g)
    t = dense_tensor(triples, g.n)
    x0 = seed_dense.copy()
    x = x0.copy()
    for _ in range(iters):
        xh = dense_tx(t, x)
        if weighted:
            s = xh.sum()
            gamma = a.sum() / s if s > 0 else 0.0
        else:
            gamma = 1.0
        m = gamma * xh + a
        p = m / m.sum(axis=0, keepdims=True)
        x = alpha * (p @ x) + (1 - alpha) * x0
    return x


# -- blockwise tensor contraction (bit reference) ---------------------------
#
# The contraction as first written: per block of ``block`` triangles, the
# corner columns joined with np.concatenate and one gather per corner use.
# The library must reproduce these bits exactly, not just to 1e-12, because
# diagnose.csv writes every l1_delta with repr.


def blockwise_bilinear(triples, n: int, x, y, block: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.zeros(n)
    for lo in range(0, len(triples), block):
        a, b, c = triples[lo : lo + block].T
        idx = np.concatenate([a, b, c])
        w = np.concatenate(
            [
                y[b] * x[c] + y[c] * x[b],
                y[a] * x[c] + y[c] * x[a],
                y[a] * x[b] + y[b] * x[a],
            ]
        )
        z += np.bincount(idx, weights=w, minlength=n)
    return z


def blockwise_row_sums(triples, n: int, x, block: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    z = np.zeros(n)
    for lo in range(0, len(triples), block):
        a, b, c = triples[lo : lo + block].T
        idx = np.concatenate([a, b, c])
        w = np.concatenate([x[b] + x[c], x[a] + x[c], x[a] + x[b]])
        z += np.bincount(idx, weights=w, minlength=n)
    return z


def blockwise_trpr_iterates(g: Graph, triples, seed_dense: np.ndarray, alpha: float,
                            iters: int, block: int, weighted: bool = False):
    """Yield (x_i, gamma_i, l1_delta_i) in the library's order of operations."""
    deg = g.degrees.astype(np.float64)
    sum_a = float(deg.sum())
    x0 = seed_dense
    x = x0
    for _ in range(iters):
        rs = blockwise_row_sums(triples, g.n, x, block)
        if weighted:
            total = rs.sum()
            gamma = sum_a / total if total > 0 else 0.0
        else:
            gamma = 1.0
        y = x / (gamma * rs + deg)
        tx_y = gamma * blockwise_bilinear(triples, g.n, x, y, block) + g.adjacency @ y
        x_next = alpha * tx_y + (1.0 - alpha) * x0
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        yield x, gamma, delta


# -- local similarity set algebra ------------------------------------------


def js_sets(sa: set[int], sb: set[int]) -> float:
    union = sa | sb
    return len(sa & sb) / len(union) if union else 0.0


def aa_sets(g: Graph, sa: set[int], sb: set[int]) -> float:
    total = 0.0
    for z in sa & sb:
        d = g.degree(z)
        if d >= 2:
            total += 1.0 / math.log(d)
    return total


def edge_nbhd_sets(g: Graph, u: int, v: int) -> set[int]:
    nb = neighbor_sets(g)
    return (nb[u] | nb[v]) - {u, v}


def local_oracle(g: Graph, w: int, u: int, v: int, method: str) -> float:
    nb = neighbor_sets(g)
    s = edge_nbhd_sets(g, u, v)
    if method == "js":
        return js_sets(nb[w], s)
    if method == "aa":
        return aa_sets(g, nb[w], s)
    if method == "pa":
        return g.degree(w) * len(s)
    base, mode = method.split("-")
    if base == "js":
        a, b = js_sets(nb[w], nb[u]), js_sets(nb[w], nb[v])
    else:
        a, b = aa_sets(g, nb[w], nb[u]), aa_sets(g, nb[w], nb[v])
    return max(a, b) if mode == "max" else a * b


# -- metrics ----------------------------------------------------------------


def sp_oracle(values: np.ndarray, candidates, truth, k: int) -> tuple[int, int]:
    """(best_rank, hit) by explicit sort: score desc, index asc."""
    ranked = sorted(candidates, key=lambda c: (-values[c], c))
    best = -1
    for pos, c in enumerate(ranked, start=1):
        if c in truth:
            best = pos
            break
    return best, int(0 < best <= k)


def auc_pairs(values: np.ndarray, positives, candidates) -> float:
    pos = [c for c in candidates if c in positives]
    neg = [c for c in candidates if c not in positives]
    total = 0.0
    for p in pos:
        for q in neg:
            if values[p] > values[q]:
                total += 1.0
            elif values[p] == values[q]:
                total += 0.5
    return total / (len(pos) * len(neg))


# -- splits -------------------------------------------------------------------


def pack_split(labels, train: Graph, test_pairs) -> SplitDataset:
    """A split of the input labels ``labels`` from its train graph and its
    held-out label pairs, each label mapped to its input index through a
    dict."""
    index = {w: i for i, w in enumerate(labels)}
    test_rows = np.array([(index[u], index[v]) for u, v in test_pairs], dtype=np.int64).reshape(-1, 2)
    to_train = np.full(len(labels), -1, dtype=np.int64)
    for i, w in enumerate(train.labels):
        to_train[index[w]] = i
    return SplitDataset(train, tuple(labels), test_rows, to_train)


def _label_pair_split(g: Graph, held_out) -> SplitDataset:
    """Train graph rebuilt from original-label pairs: build_graph, then the
    largest component. ``held_out`` is a set of dense (u < v) edges."""
    train_pairs, test_pairs = [], []
    for u, v in g.edge_array().tolist():
        pair = (g.labels[u], g.labels[v])
        (test_pairs if (u, v) in held_out else train_pairs).append(pair)
    train = largest_connected_component(build_graph(EdgeList(tuple(train_pairs))))
    return pack_split(g.labels, train, test_pairs)


def holdout_split(g: Graph, fraction: float, rng_seed: int) -> SplitDataset:
    """split_holdout through label pairs (same permutation draw)."""
    edges = g.edge_array().tolist()
    t = max(1, round(fraction * len(edges)))
    perm = np.random.default_rng(rng_seed).permutation(len(edges))
    held_out = {tuple(edges[i]) for i in perm[:t]}
    return _label_pair_split(g, held_out)


def loeto_split(g: Graph, u: int, v: int) -> SplitDataset:
    """split_loeto through label pairs: both wedge edges of every node
    adjacent to u and v are held out."""
    nb = neighbor_sets(g)
    held_out = set()
    for w in nb[u] & nb[v]:
        held_out |= {(min(u, w), max(u, w)), (min(v, w), max(v, w))}
    return _label_pair_split(g, held_out)


def temporal_split(edges: EdgeList, train_fraction: float) -> SplitDataset:
    """split_temporal as one loop over label pairs: each record keyed by its
    labels, the one whose repr sorts first ahead, each key kept at its
    earliest (time, position) and the keys sorted so; the train pairs are
    rebuilt through build_graph."""
    if not edges.has_timestamps:
        raise DataError("temporal split requires timestamps")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    first: dict = {}
    for pos, ((u, v), t) in enumerate(zip(edges.pairs, edges.times)):
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key not in first or (t, pos) < first[key]:
            first[key] = (t, pos)
    ordered = sorted(first.items(), key=lambda kv: kv[1])
    cut = math.ceil(train_fraction * len(ordered))
    if cut >= len(ordered):
        raise DataError("temporal split would leave no test edges")
    train_pairs = [k for k, _ in ordered[:cut]]
    test_pairs = [k for k, _ in ordered[cut:]]
    train = largest_connected_component(build_graph(EdgeList(tuple(train_pairs))))
    if train.n < 3:
        raise DataError(f"train component too small ({train.n} nodes)")
    return pack_split(edges.labels, train, test_pairs)


def truth_oracle(split: SplitDataset, seed_edge: tuple[int, int], truth_mode: str) -> frozenset[int]:
    """Ground truth by set algebra on labels, read from ``split.test_pairs``:
    the train nodes w other than the seed endpoints whose wedge edges to the
    endpoints are both held out ('and'), or exactly one held out and the
    other in train ('or')."""
    lab = split.train.labels
    test = {frozenset(p) for p in split.test_pairs}
    train = {frozenset((lab[a], lab[b])) for a, b in split.train.edge_array().tolist()}
    u, v = lab[seed_edge[0]], lab[seed_edge[1]]
    truth = set()
    for i, w in enumerate(lab):
        if w in (u, v):
            continue
        eu, ev = frozenset((u, w)), frozenset((v, w))
        if truth_mode == "and":
            hit = eu in test and ev in test
        else:
            hit = (eu in test and ev not in test and ev in train) or (
                ev in test and eu not in test and eu in train
            )
        if hit:
            truth.add(i)
    return frozenset(truth)


# -- edge-list loading --------------------------------------------------------


def _token(tok: str):
    """A node id token: an int when it is that int's canonical spelling."""
    try:
        value = int(tok)
    except ValueError:
        return tok
    return value if str(value) == tok else tok


def load_edge_list(stream, has_timestamps: bool = False) -> EdgeList:
    """The loader as one loop that keeps a tuple per record: '#'/'%' and
    blank lines skipped, a ParseError on a wrong field count or timestamp,
    self-loop records dropped and counted, duplicates kept."""
    want = 3 if has_timestamps else 2
    pairs, times, loops = [], [], 0
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        fields = line.split()
        if len(fields) != want:
            raise ParseError(f"line {lineno}: expected {want} fields, got {len(fields)}: {line!r}")
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
    return EdgeList(tuple(pairs), tuple(times) if has_timestamps else None, loops)


def build_csr(pairs) -> tuple[list[int], list[int], tuple]:
    """``(indptr, indices, labels)`` of the simple graph on label pairs, by
    one loop over the records: self loops skipped, labels indexed in order
    of first appearance, each unordered pair kept once."""
    if not pairs:
        raise DataError("cannot build a graph from an empty edge list")
    index: dict = {}
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            continue
        iu = index.setdefault(u, len(index))
        iv = index.setdefault(v, len(index))
        seen.add((min(iu, iv), max(iu, iv)))
    if not seen:
        raise DataError("edge list contains no usable edges")
    rows: list[list[int]] = [[] for _ in index]
    for a, b in seen:
        rows[a].append(b)
        rows[b].append(a)
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return indptr, [j for row in rows for j in sorted(row)], tuple(index)


# -- random instances ---------------------------------------------------------


def gnp_graph(n: int, p: float, rng_seed: int) -> Graph:
    """G(n, p): upper-triangle pairs kept with probability p."""
    rng = np.random.default_rng(rng_seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return build_graph(EdgeList(tuple(zip(iu[keep].tolist(), ju[keep].tolist()))))


def random_graph(rng: np.random.Generator, max_n: int = 12) -> Graph:
    """Small random simple graph with at least one edge."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        p = float(rng.uniform(0.2, 0.8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if pairs:
            return build_graph(EdgeList(tuple(pairs)))


def bfs_nodes(g: Graph, start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbors(i):
                j = int(j)
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return seen


def largest_component_slice(g: Graph) -> Graph:
    """The largest BFS component (ties: the one holding the smallest index),
    induced by slicing the scipy adjacency twice and re-indexed in order."""
    best: set[int] = set()
    seen: set[int] = set()
    for i in range(g.n):
        if i not in seen:
            comp = bfs_nodes(g, i)
            seen |= comp
            if len(comp) > len(best):
                best = comp
    nodes = np.array(sorted(best), dtype=np.int64)
    a = g.adjacency[nodes][:, nodes].tocsr()
    a.sort_indices()
    return Graph(
        indptr=a.indptr.astype(np.int64),
        indices=a.indices.astype(np.int64),
        labels=tuple(g.labels[i] for i in nodes),
    )


# -- scipy references -----------------------------------------------------------


def scipy_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks, ties sharing their mean."""
    return stats.rankdata(values)


def scipy_rank_stats(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(Spearman rho, Kendall tau-b); scipy returns nan for a constant input
    and warns, and the warning is silenced here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        return float(stats.spearmanr(a, b).statistic), float(stats.kendalltau(a, b).statistic)


def scipy_lcc_nodes(g: Graph) -> np.ndarray:
    """Dense indices of the largest component by ``connected_components``
    (ties: the component holding the smallest index)."""
    _, comp = connected_components(g.adjacency, directed=False)
    sizes = np.bincount(comp)
    # each component's smallest index, ascending
    firsts = np.sort(np.unique(comp, return_index=True)[1])
    best = comp[firsts[np.argmax(sizes[comp[firsts]])]]
    return np.flatnonzero(comp == best)
