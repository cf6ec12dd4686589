"""Dataset splitting, success-probability / AUC evaluation, and the trial
harnesses for pairwise and standard link prediction.

A split always keeps the original edge universe intact: train edges and
held-out test edges partition the input, the train side is rebuilt and
reduced to its largest connected component, and test edges whose endpoints
fell out of that component stay in the record but are flagged unusable.

Both harnesses score methods the same way: a method is a ``(name, fn)``
pair, and ``fn`` maps a :class:`TrialContext` to one float score per train
node. The built-ins are two tables, ``PAIRWISE_METHODS`` and
``LINKPRED_METHODS``. A PageRank built-in is the nodes whose single-seed
vectors it reads plus a step that combines those vectors; ``pairseed``, for
one, is ½(x_u + x_v), which by linearity in the seed is the pair-seed
solution, and it carries those nodes as ``fn.seeds``. Every context on one
train graph shares a cache that lists the triangles once and solves each
node's single-seed PageRank vector once. Both harnesses build their
contexts on a train graph first, then solve in one batch the seeds that
their methods carry, then score. linkpred's ``max`` and ``max-singles``
also carry the neighbours whose vectors they read only through their
elementwise max; those are solved block by block and folded into one
running max per node, never kept. A loeto trial's train graph is a subgraph
of the parent graph, so its triangles are taken from the parent's list
(enumerated once per run) rather than enumerated again, and only when a
method reads them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .diffusion import DiffusionParams, _block_width, _ranks, make_seed, pagerank_many, seed_columns, trpr
from .graph import (
    DataError,
    EdgeList,
    Graph,
    Label,
    _from_index_pairs,
    build_graph,
    edge_subgraph,
    largest_connected_component,
)
from .local import LOCAL_METHODS, score_all_nodes
from .triangles import TriangleSet, enumerate_triangles, subgraph_triangles, triangle_edges

log = logging.getLogger("trilink")


# ---------------------------------------------------------------------------
# policies and reports


@dataclass(frozen=True)
class EvalPolicy:
    """k: top-k cutoff; truth_mode: 'and' needs both wedge edges held out,
    'or' exactly one (the other in train); candidate_rule: which nodes are
    struck from the ranking ('either' = adjacent to either seed endpoint,
    'both' = adjacent to both). None derives the rule from the truth mode,
    which keeps ground-truth nodes rankable in both modes."""

    k: int = 5
    truth_mode: str = "and"
    candidate_rule: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.truth_mode not in ("and", "or"):
            raise ValueError("truth_mode must be 'and' or 'or'")
        if self.candidate_rule not in (None, "either", "both"):
            raise ValueError("candidate_rule must be None, 'either' or 'both'")

    @property
    def rule(self) -> str:
        if self.candidate_rule is not None:
            return self.candidate_rule
        return "either" if self.truth_mode == "and" else "both"


@dataclass(frozen=True)
class TrialReport:
    """One scored trial: rank of the best ground-truth node and the top-k hit
    indicator. best_rank is -1 when no ground-truth node was rankable."""

    method: str
    k: int
    seed_u: Label
    seed_v: Label
    truth_count: int
    best_rank: int
    sp: int


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """A train graph plus held-out test edges (original labels).

    ``test_graph`` holds the usable test edges as a graph on the train
    nodes: every held-out pair with both endpoints in the train component,
    without self-loop records. Every split keeps train and test edges
    disjoint."""

    train: Graph
    test_pairs: tuple[tuple[Label, Label], ...]
    protocol: str
    rng_seed: int | None = None
    meta: dict = field(default_factory=dict)

    @cached_property
    def test_graph(self) -> Graph:
        idx = self.train.label_index
        usable = [(idx[u], idx[v]) for u, v in self.test_pairs if u in idx and v in idx]
        pairs = np.sort(np.array(usable, dtype=np.int64).reshape(-1, 2), axis=1)
        # Drop self-loop records and merge repeated pairs.
        return _from_index_pairs(np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0), self.train.labels)

    @property
    def unusable_test_edges(self) -> int:
        idx = self.train.label_index
        return sum(1 for u, v in self.test_pairs if u not in idx or v not in idx)


# ---------------------------------------------------------------------------
# splits


def _assemble(train: Graph, test_pairs, protocol, rng_seed=None, meta=None, min_nodes=3) -> SplitDataset:
    train = largest_connected_component(train)
    if train.n < min_nodes:
        raise DataError(f"train component too small ({train.n} nodes)")
    return SplitDataset(
        train=train,
        test_pairs=tuple(test_pairs),
        protocol=protocol,
        rng_seed=rng_seed,
        meta=meta or {},
    )


def _split_by_mask(g: Graph, edges: np.ndarray, test_mask: np.ndarray, protocol, rng_seed=None,
                   meta=None, min_nodes=3) -> SplitDataset:
    """Split ``g`` by a boolean mask over ``edges = g.edge_array()`` (True:
    held out). The train graph is built from the parent's dense edges
    directly, indexed as :func:`build_graph` would index the same edges given
    as label pairs."""
    lab = g.labels
    test_pairs = [(lab[u], lab[v]) for u, v in edges[test_mask].tolist()]
    train = edge_subgraph(g, edges[~test_mask])
    return _assemble(train, test_pairs, protocol, rng_seed, meta, min_nodes)


def split_holdout(g: Graph, test_fraction: float, rng_seed) -> SplitDataset:
    """Hold out a uniformly random fraction of the edges as test data."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    edges = g.edge_array()
    m = len(edges)
    t = max(1, round(test_fraction * m))
    if t >= m:
        raise DataError("holdout would leave no training edges")
    perm = np.random.default_rng(rng_seed).permutation(m)
    test_mask = np.zeros(m, dtype=bool)
    test_mask[perm[:t]] = True
    seed_int = rng_seed if isinstance(rng_seed, int) else None
    return _split_by_mask(g, edges, test_mask, "holdout", seed_int, {"fraction": test_fraction})


def split_temporal(edges: EdgeList, train_fraction: float) -> SplitDataset:
    """Time-ordered split: the earliest fraction of the unique edges trains.

    Duplicate records collapse to their earliest timestamp; ordering ties
    fall back to input position. Pure function of the input, no randomness.
    """
    if not edges.has_timestamps:
        raise DataError("temporal split requires timestamps")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    first: dict[tuple[Label, Label], tuple[int, int]] = {}
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
    train = build_graph(EdgeList(tuple(train_pairs)))
    return _assemble(train, test_pairs, "temporal", None, {"fraction": train_fraction})


def split_loeto(g: Graph, seed_edge: tuple[int, int]) -> SplitDataset:
    """Leave one edge's triangles out: for every node closing a triangle with
    the seed edge, hold out both of its wedge edges."""
    u, v = seed_edge
    if not g.has_edge(u, v):
        raise ValueError(f"seed edge ({u}, {v}) is not an edge")
    wedge_nodes = np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True)
    if len(wedge_nodes) == 0:
        raise ValueError(f"seed edge ({u}, {v}) participates in no triangle")
    n, w = g.n, wedge_nodes
    removed = np.concatenate([np.minimum(x, w) * n + np.maximum(x, w) for x in (u, v)])
    edges = g.edge_array()
    test_mask = np.isin(edges[:, 0] * n + edges[:, 1], removed)
    lab = g.labels
    # A 2-node train component is a legal (if useless) outcome here; the
    # harness discards such trials rather than erroring.
    return _split_by_mask(
        g, edges, test_mask, "loeto", None, {"seed_edge": (lab[u], lab[v])}, min_nodes=2
    )


# ---------------------------------------------------------------------------
# ground truth, candidates, metrics


def _truth_graphs(split: SplitDataset, truth_mode: str) -> tuple[tuple[Graph, Graph], ...]:
    """The truth rule: node w is ground truth for the seed edge (u, v) when,
    for one of these pairs (X, Y), w is an X-neighbour of u and a
    Y-neighbour of v. ``and`` is (test, test): both wedge edges held out.
    ``or`` is (test, train) and (train, test): one wedge edge held out and
    the other in train. Train and test edges are disjoint, so no node with
    both wedge edges held out is ``or`` truth."""
    test, train = split.test_graph, split.train
    return {"and": ((test, test),), "or": ((test, train), (train, test))}[truth_mode]


def ground_truth(split: SplitDataset, seed_edge: tuple[int, int], policy: EvalPolicy) -> frozenset[int]:
    """Nodes (train indices) that complete a triangle with the seed edge
    under the policy's truth mode (see :func:`_truth_graphs`). Neither graph
    has a self-loop, so the seed endpoints are never truth. Raises
    IndexError for a seed node outside the train graph."""
    u, v = seed_edge
    return frozenset(
        w
        for x, y in _truth_graphs(split, policy.truth_mode)
        for w in np.intersect1d(x.neighbors(u), y.neighbors(v), assume_unique=True).tolist()
    )


def candidate_nodes(train: Graph, u: int, v: int, rule: str = "either") -> np.ndarray:
    """Rankable nodes for a seed edge: everything except the endpoints and
    the nodes the rule strikes (train-adjacent to either endpoint, or to
    both)."""
    mask = np.ones(train.n, dtype=bool)
    if rule == "either":
        mask[train.neighbors(u)] = False
        mask[train.neighbors(v)] = False
    elif rule == "both":
        both = np.intersect1d(train.neighbors(u), train.neighbors(v), assume_unique=True)
        mask[both] = False
    else:
        raise ValueError(f"unknown candidate rule {rule!r}")
    mask[u] = mask[v] = False
    return np.flatnonzero(mask)


def _best_truth_rank(values: np.ndarray, candidates: np.ndarray, truth: frozenset[int]) -> int:
    """1-based rank (within candidates, score descending, index ascending) of
    the best ground-truth node, or -1 if none is rankable."""
    s = values[candidates]
    is_truth = np.isin(candidates, np.fromiter(truth, dtype=np.int64, count=len(truth)))
    if not is_truth.any():
        return -1
    # Count what sorts ahead of the best truth node: higher scores, and
    # equal scores at a lower index than the first truth node with that score.
    best = s[is_truth].max()
    first = candidates[is_truth & (s == best)].min()
    return 1 + int(np.count_nonzero(s > best)) + int(np.count_nonzero((s == best) & (candidates < first)))


def _method_output(name: str, values, n: int) -> np.ndarray:
    """A method's scores as float64, checked for shape (n,) and NaN."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        raise ValueError(f"method {name!r} returned shape {values.shape}, expected ({n},)")
    if np.isnan(values).any():
        raise ValueError(f"method {name!r} returned NaN scores")
    return values


def success_probability(
    scores: np.ndarray, split: SplitDataset, seed_edge: tuple[int, int], policy: EvalPolicy
) -> TrialReport:
    """Top-k hit indicator for one scored seed edge. ``scores`` must hold one
    score per train node, none of them NaN."""
    scores = _method_output("scores", scores, split.train.n)
    u, v = seed_edge
    truth = ground_truth(split, seed_edge, policy)
    if not truth:
        raise ValueError("ground truth is empty; filter such trials before scoring")
    cands = candidate_nodes(split.train, u, v, policy.rule)
    best = _best_truth_rank(scores, cands, truth)
    lab = split.train.labels
    return TrialReport(
        method="scores",
        k=policy.k,
        seed_u=lab[u],
        seed_v=lab[v],
        truth_count=len(truth),
        best_rank=best,
        sp=int(0 < best <= policy.k),
    )


def auc(scores: np.ndarray, positives: Iterable[int], candidates: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative among
    the candidates, ties counted half (Mann-Whitney); nan if a candidate's
    score is NaN."""
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    candidates = np.asarray(candidates, dtype=np.int64)
    pos = np.asarray(sorted(set(int(p) for p in positives)), dtype=np.int64)
    if len(pos) == 0:
        raise ValueError("no positive examples")
    is_pos = np.isin(candidates, pos)
    if len(pos) != int(is_pos.sum()):
        raise ValueError("positives must be a subset of candidates")
    n_neg = len(candidates) - len(pos)
    if n_neg == 0:
        raise ValueError("no negative examples")
    v = scores[candidates]
    if np.isnan(v).any():
        return math.nan
    ranks = _ranks(v)[0]
    u_stat = ranks[is_pos].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u_stat / (len(pos) * n_neg))


# ---------------------------------------------------------------------------
# trial context and method registries


@dataclass(eq=False)
class TrialContext:
    """Everything a method may look at when it scores one trial. Pairwise
    trials fill the seed edge ``u``, ``v``; linkpred trials fill ``node``.
    ``truth`` holds the ground-truth nodes (linkpred: the node's held-out
    partners) and ``candidates`` the rankable nodes. All methods in a trial
    receive the same context, and all contexts on one train graph share
    ``cache``, so its triangles, single-seed vectors and maxima are computed
    once. A vector asked for through :meth:`singles` stays cached as long as
    ``cache`` lives, which is the whole run on one train graph; a vector
    solved for :meth:`maxima` is dropped once it is folded in. When
    ``cache`` holds ``"parent"``, a ``(TriangleSet, Graph)`` pair of a graph
    that ``train`` is a subgraph of, the triangles are taken from the
    parent's list instead of being enumerated."""

    train: Graph
    params: DiffusionParams
    cache: dict = field(default_factory=dict)
    candidates: np.ndarray | None = None
    truth: frozenset[int] = frozenset()
    u: int | None = None
    v: int | None = None
    node: int | None = None

    @property
    def triangles(self) -> TriangleSet:
        ts = self.cache.get("triangles")
        if ts is None:
            parent = self.cache.get("parent")
            if parent is None:
                ts = enumerate_triangles(self.train)
            else:
                ts = subgraph_triangles(*parent, self.train)
            self.cache["triangles"] = ts
        return ts

    def singles(self, nodes: Iterable[int]) -> dict[int, np.ndarray]:
        """Single-seed PageRank vectors of ``nodes``, by node; those not
        cached yet are solved together in one :func:`pagerank_many` call,
        whose columns are bit-equal to lone solves. They stay cached for as
        long as ``cache`` lives."""
        nodes = list(dict.fromkeys(nodes))
        missing = [i for i in nodes if i not in self.cache]
        if missing:
            sols = self._solve(missing)
            for col, i in enumerate(missing):
                self.cache[i] = sols[:, col]
        return {i: self.cache[i] for i in nodes}

    def maxima(self, groups: Iterable[Sequence[int]]) -> list[np.ndarray]:
        """The elementwise max of the single-seed vectors of each group of
        nodes, cached by group. A vector in the cache is read from it. The
        others are solved in blocks of :func:`_block_width` columns, one
        :func:`pagerank_many` call per block and each node once; each column
        is folded into the running max of every group that lists it, and the
        block is dropped, so only the maxima stay cached. A max of NaN-free
        values is exact, so the order of the folds changes no bit."""
        keys = [("max", *group) for group in groups]
        users: dict[int, list[tuple]] = {}
        for key in dict.fromkeys(k for k in keys if k not in self.cache):
            if len(key) == 1:
                raise ValueError("max of an empty group of vectors")
            for j in key[1:]:
                users.setdefault(j, []).append(key)
        acc: dict[tuple, np.ndarray] = {}

        def fold(j: int, x: np.ndarray) -> None:
            for key in users[j]:
                if key in acc:
                    np.maximum(acc[key], x, out=acc[key])
                else:
                    acc[key] = x.copy()

        missing = []
        for j in users:
            if j in self.cache:
                fold(j, self.cache[j])
            else:
                missing.append(j)
        width = _block_width(self.train.n)
        for lo in range(0, len(missing), width):
            block = missing[lo : lo + width]
            sols = self._solve(block)
            for col, j in enumerate(block):
                fold(j, sols[:, col])
            del sols  # before the next block is solved
        self.cache.update(acc)
        return [self.cache[key] for key in keys]

    def _solve(self, nodes: list[int]) -> np.ndarray:
        seeds = seed_columns(self.train.n, [make_seed(self.train, "single", i) for i in nodes])
        return pagerank_many(self.train, seeds, self.params)

    def digest(self) -> str:
        h = hashlib.sha256()
        payload = (
            self.train.n,
            self.train.m,
            int(self.u),
            int(self.v),
            tuple(self.candidates.tolist()),
            tuple(sorted(int(t) for t in self.truth)),
        )
        h.update(repr(payload).encode())
        return h.hexdigest()


Method = Callable[[TrialContext], np.ndarray]
Seeds = Callable[[TrialContext], list[int]]


def _pagerank_method(seeds: Seeds, combine: Callable[..., np.ndarray], maxed: Seeds | None = None) -> Method:
    """A method that combines the single-seed PageRank vectors of the nodes
    ``seeds`` lists on a context, in that order, and last, when ``maxed`` is
    given, the elementwise max of the vectors of the nodes it lists (see
    :meth:`TrialContext.maxima`). Both are kept on the method, as
    ``fn.seeds`` and ``fn.maxed``, so the harnesses can solve them for all
    their contexts before scoring (see ``_solve_declared``)."""

    def fn(ctx: TrialContext) -> np.ndarray:
        vectors = list(ctx.singles(seeds(ctx)).values())
        if maxed is not None:
            vectors += ctx.maxima([maxed(ctx)])
        return combine(*vectors)

    fn.seeds = seeds
    if maxed is not None:
        fn.maxed = maxed
    return fn


def _trpr_method(seed: Callable[[TrialContext], tuple], weighted: bool = False) -> Method:
    """TRPR from the :func:`~trilink.diffusion.make_seed` arguments ``seed(ctx)``."""

    def fn(ctx: TrialContext) -> np.ndarray:
        return trpr(ctx.train, ctx.triangles, make_seed(ctx.train, *seed(ctx)), ctx.params, weighted=weighted)

    return fn


def _local_method(tag: str) -> Method:
    def fn(ctx: TrialContext) -> np.ndarray:
        return score_all_nodes(ctx.train, (ctx.u, ctx.v), tag)

    return fn


def _oracle(score: float) -> Method:
    """Harness bound: ``score`` exactly on the ground truth, 0 elsewhere."""

    def fn(ctx: TrialContext) -> np.ndarray:
        vals = np.zeros(ctx.train.n)
        vals[list(ctx.truth)] = score
        return vals

    return fn


def _same(x: np.ndarray) -> np.ndarray:
    return x


def _endpoints(ctx: TrialContext) -> list[int]:
    return [ctx.u, ctx.v]


def _node(ctx: TrialContext) -> list[int]:
    return [ctx.node]


def _neighbours(ctx: TrialContext) -> list[int]:
    return ctx.train.neighbors(ctx.node).tolist()


# sum aggregates the pair-seed vectors of node i's edges, which by linearity
# is the PageRank vector of the aggregate of i's pair seeds (degree(i) at i,
# 1 at each neighbour, normalized). On an undirected graph that vector and
# the star vector are positive multiples of the single vector x_i away from
# i, and i is never a candidate, so both rank every candidate as x_i does.
_single = _pagerank_method(_node, _same)


PAIRWISE_METHODS: dict[str, Method] = {
    # Linearity in the seed: the pair-seed solution is the endpoints' mean.
    "pairseed": _pagerank_method(_endpoints, lambda x_u, x_v: (x_u + x_v) / 2.0),
    "ss": _pagerank_method(lambda ctx: [min(ctx.u, ctx.v)], _same),
    "ss-high": _pagerank_method(lambda ctx: [max(ctx.u, ctx.v)], _same),
    "max": _pagerank_method(_endpoints, np.maximum),
    "mul": _pagerank_method(_endpoints, np.multiply),
    "trpr": _trpr_method(lambda ctx: ("pair", ctx.u, ctx.v)),
    "trprw": _trpr_method(lambda ctx: ("pair", ctx.u, ctx.v), weighted=True),
    **{tag: _local_method(tag) for tag in LOCAL_METHODS},
    "oracle": _oracle(1.0),
    "antioracle": _oracle(-1.0),
}
LINKPRED_METHODS: dict[str, Method] = {
    "single": _single,
    "sum": _single,
    # max is max_j (x_i + x_j) / 2 over i's neighbours j, and max-singles
    # the max over i and its neighbours. Rounding is monotone, so with
    # m = max_j x_j both are computed from x_i and m with the same bits, and
    # the neighbours' vectors are only folded into m, never kept.
    "max": _pagerank_method(_node, lambda x_i, m: (x_i + m) / 2.0, maxed=_neighbours),
    "max-singles": _pagerank_method(_node, np.maximum, maxed=_neighbours),
    "star": _single,
    "trpr": _trpr_method(lambda ctx: ("star", ctx.node)),
    "oracle": _oracle(1.0),
}


def _solve_declared(named: list[tuple[str, Method]], contexts: Sequence[TrialContext]) -> None:
    """Solve, on the contexts' shared cache, what the methods among
    ``named`` declare they read on ``contexts``: first, in one batch and in
    first-use order, the nodes their ``fn.seeds`` list, then the maxima
    their ``fn.maxed`` groups name, streamed through blocks by
    :meth:`TrialContext.maxima`, which reads the vectors the first step
    cached. A method that declares neither is solved when it asks."""
    if contexts:
        fns = [fn for _, fn in named]
        contexts[0].singles(i for ctx in contexts for fn in fns if hasattr(fn, "seeds") for i in fn.seeds(ctx))
        contexts[0].maxima(fn.maxed(ctx) for ctx in contexts for fn in fns if hasattr(fn, "maxed"))


DEFAULT_PAIRWISE_METHODS = (
    "pairseed",
    "ss",
    "max",
    "mul",
    "trpr",
    "trprw",
    "js",
    "aa",
    "pa",
    "js-max",
    "js-mul",
    "aa-max",
    "aa-mul",
)
DEFAULT_LINKPRED_METHODS = ("single", "sum", "max", "star", "trpr")
LINKPRED_BASELINE = "single"


def _check_unique(items: Sequence, what: str) -> None:
    """Reject an empty ``items`` or one that names something twice."""
    if not items:
        raise ValueError(f"no {what} given")
    for i, x in enumerate(items):
        if x in items[:i]:
            raise ValueError(f"{what} {x!r} given twice")


def _resolve_methods(methods, registry: dict[str, Method]) -> list[tuple[str, Method]]:
    out = []
    for m in methods:
        if isinstance(m, str):
            if m not in registry:
                raise ValueError(f"unknown method {m!r}")
            out.append((m, registry[m]))
        else:
            name, fn = m
            out.append((name, fn))
    _check_unique([name for name, _ in out], "method")
    return out


# ---------------------------------------------------------------------------
# pairwise experiment harness


@dataclass(frozen=True)
class PairwiseSummaryRow:
    method: str
    k: int
    trials: int
    discards: int
    mean_sp: float


@dataclass(eq=False)
class PairwiseResult:
    summary: list[PairwiseSummaryRow]
    details: list[TrialReport]
    metadata: dict


def _eligible_seed_edges(split: SplitDataset, policy: EvalPolicy) -> list[tuple[int, int]]:
    """Train edges (in ``edge_array`` order) whose ground truth is nonempty,
    found for all edges at once: summed over the pairs (X, Y) of
    :func:`_truth_graphs`, (X.adjacency @ Y.adjacency)[u, v] counts the
    nodes that :func:`ground_truth` lists for (u, v)."""
    edges = split.train.edge_array()
    u, v = edges.T
    count = sum((x.adjacency @ y.adjacency)[u, v] for x, y in _truth_graphs(split, policy.truth_mode))
    return [(a, b) for a, b in edges[np.asarray(count).ravel() > 0].tolist()]


def run_pairwise_experiment(
    data: Graph | EdgeList,
    protocol: str,
    methods: Sequence = DEFAULT_PAIRWISE_METHODS,
    *,
    k_values: Sequence[int] = (5, 25),
    trials: int = 500,
    fraction: float | None = None,
    truth_mode: str = "and",
    candidate_rule: str | None = None,
    params: DiffusionParams = DiffusionParams(),
    rng_seed: int = 0,
    allow_empty_truth: bool = False,
) -> PairwiseResult:
    """Run the pairwise link prediction protocol.

    holdout/temporal: one split is drawn, then ``trials`` seed edges are
    sampled (uniformly, among train edges with nonempty ground truth unless
    ``allow_empty_truth``) and every method scores the same trial. loeto: a
    fresh triangles-out split per trial; invalid draws (seed endpoints or all
    truth lost to the component reduction) are discarded and resampled.
    loeto refuses ``or`` truth: it holds out both wedge edges of every
    triangle on the seed edge, so no wedge edge is left in train. It also
    refuses ``allow_empty_truth``, since it redraws every empty-truth draw.
    Trials run in order, so results are deterministic for a given master
    seed.

    Trials on one train graph (every holdout/temporal trial, or one loeto
    trial) share a :class:`TrialContext` cache, so the triangles are listed
    once and each endpoint's single-seed vector is solved once.
    holdout/temporal draw every trial first, then solve the seeds that the
    methods carry as ``fn.seeds`` for all scored trials in one batch; a
    loeto trial solves its endpoints in one two-column batch. A method
    without ``seeds`` is solved when it asks. ``pairseed``, ``ss``, ``max``
    and ``mul`` all read those vectors; ``pairseed`` is ½(x_u + x_v), which
    equals the pair-seed solution by linearity, so its scores do not depend
    on the other methods. Each batch column is bit-equal to a lone solve.
    loeto enumerates the parent graph's triangles once, to draw seed edges;
    each trial takes its train graph's triangles from that list
    (:func:`~trilink.triangles.subgraph_triangles`, array-equal to a fresh
    enumeration), and only if a method reads them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if protocol not in ("holdout", "temporal", "loeto"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "loeto" and truth_mode == "or":
        raise ValueError(
            "loeto holds out both wedge edges of every triangle on the seed edge, "
            "so 'or' truth (one wedge edge in train) is always empty"
        )
    if protocol == "loeto" and allow_empty_truth:
        raise ValueError(
            "loeto discards and redraws every seed edge with empty truth, "
            "so allow_empty_truth would have no effect"
        )
    named = _resolve_methods(methods, PAIRWISE_METHODS)
    k_values = tuple(int(k) for k in k_values)
    _check_unique(k_values, "k value")
    base_policy = EvalPolicy(k=min(k_values), truth_mode=truth_mode, candidate_rule=candidate_rule)
    root = np.random.SeedSequence(rng_seed)
    children = root.spawn(trials + 1)

    if protocol == "temporal":
        if not (isinstance(data, EdgeList) and data.has_timestamps):
            raise DataError("temporal protocol needs a timestamped edge list")
        split = split_temporal(data, 0.7 if fraction is None else fraction)
    else:
        g = data if isinstance(data, Graph) else largest_connected_component(build_graph(data))
        if protocol == "holdout":
            split = split_holdout(g, 0.3 if fraction is None else fraction, children[0])

    if protocol in ("holdout", "temporal"):
        if allow_empty_truth:
            eligible = [(int(u), int(v)) for u, v in split.train.edge_array()]
        else:
            eligible = _eligible_seed_edges(split, base_policy)
        if not eligible:
            raise DataError("no eligible seed edges in the training graph")
        shared = TrialContext(split.train, params)
        drawn = []
        for i in range(trials):
            rng = np.random.default_rng(children[i + 1])
            u, v = eligible[rng.integers(len(eligible))]
            drawn.append(replace(shared, u=u, v=v, truth=ground_truth(split, (u, v), base_policy)))
        # A trial with empty truth is never scored, so its seeds are not solved.
        _solve_declared(named, [ctx for ctx in drawn if ctx.truth])

        def make_trial(i: int):
            return drawn[i], 0

    else:  # loeto
        ts_full = enumerate_triangles(g)
        tri_edge_list = triangle_edges(ts_full)
        if not tri_edge_list:
            raise DataError("graph has no triangles; cannot run the triangles-out protocol")

        def make_trial(i: int):
            rng = np.random.default_rng(children[i + 1])
            rejected = 0
            for _ in range(50):
                u, v = tri_edge_list[rng.integers(len(tri_edge_list))]
                lsplit = split_loeto(g, (u, v))
                idx = lsplit.train.label_index
                tu, tv = idx.get(g.labels[u]), idx.get(g.labels[v])
                truth = None
                if tu is not None and tv is not None:
                    truth = ground_truth(lsplit, (tu, tv), base_policy)
                if not truth:
                    rejected += 1
                    continue
                cache = {"parent": (ts_full, g)}
                ctx = TrialContext(lsplit.train, params, cache=cache, u=tu, v=tv, truth=truth)
                _solve_declared(named, [ctx])
                return ctx, rejected
            return None

    details: list[TrialReport] = []
    digests: list[str] = []
    failed = discards = 0
    for i in range(trials):
        made = make_trial(i)
        if made is None:
            failed += 1
            discards += 50
            continue
        ctx, rejected = made
        discards += rejected
        u, v, truth = ctx.u, ctx.v, ctx.truth
        cands = candidate_nodes(ctx.train, u, v, base_policy.rule)
        ctx = replace(ctx, candidates=cands)
        lab = ctx.train.labels
        for name, fn in named:
            best = _best_truth_rank(_method_output(name, fn(ctx), ctx.train.n), cands, truth) if truth else -1
            details.extend(
                TrialReport(name, k, lab[u], lab[v], len(truth), best, int(0 < best <= k)) for k in k_values
            )
        digests.append(ctx.digest())
        # Free this trial's train graph and cache before the next split.
        del made, ctx

    completed = trials - failed
    summary = []
    for name, _ in named:
        for k in k_values:
            hits = [r.sp for r in details if r.method == name and r.k == k]
            mean_sp = float(np.mean(hits)) if hits else 0.0
            summary.append(PairwiseSummaryRow(name, k, completed, discards, mean_sp))

    metadata = {
        "protocol": protocol,
        "fraction": split.meta.get("fraction") if protocol != "loeto" else None,
        "trials_requested": trials,
        "trials_completed": completed,
        "discards": discards,
        "k_values": list(k_values),
        "methods": [name for name, _ in named],
        "truth_mode": truth_mode,
        "candidate_rule": base_policy.rule,
        "alpha": params.alpha,
        "iterations": params.iterations,
        "rng_seed": rng_seed,
        "allow_empty_truth": allow_empty_truth,
        "trial_digests": digests,
    }
    if protocol != "loeto":
        metadata["train_nodes"] = split.train.n
        metadata["train_edges"] = split.train.m
        metadata["test_edges"] = len(split.test_pairs)
        metadata["unusable_test_edges"] = split.unusable_test_edges
    return PairwiseResult(summary=summary, details=details, metadata=metadata)


# ---------------------------------------------------------------------------
# standard link prediction harness


@dataclass(frozen=True)
class LinkpredNodeRow:
    node: Label
    degree: int
    method: str
    auc: float


@dataclass(frozen=True)
class LinkpredSummaryRow:
    method: str
    mean_auc: float
    mean_delta_vs_baseline: float
    mean_dist_to_diag: float


@dataclass(eq=False)
class LinkpredResult:
    nodes: list[LinkpredNodeRow]
    summary: list[LinkpredSummaryRow]
    metadata: dict


def run_standard_linkpred(
    g: Graph,
    *,
    test_fraction: float = 0.2,
    num_nodes: int = 100,
    methods: Sequence = DEFAULT_LINKPRED_METHODS,
    params: DiffusionParams = DiffusionParams(),
    rng_seed: int = 0,
) -> LinkpredResult:
    """Standard link prediction with neighborhood seeding strategies.

    After a random holdout split, the top-degree training nodes are scored
    per method by AUC over their non-neighbors, with the node's held-out
    partners as positives. The summary compares every method to the
    single-seed baseline, including the mean signed distance to the y = x
    diagonal of the method-vs-baseline AUC scatter. Cohort nodes are scored
    in order. Before scoring, the vectors the methods declare are solved
    for every scored node (see ``_solve_declared``): the single-seed vectors
    of the scored nodes in one batch, then each distinct neighbour once, in
    blocks that ``max`` and ``max-singles`` fold into one running max per
    node and drop. So the vectors held at once are about 2 x cohort x n
    floats plus one block, whatever the neighbourhood sizes; a node's
    candidates are listed only while it is scored. A function
    listed under several names (``single``, ``sum`` and ``star`` are one)
    is called, checked and ranked once per node, and reported under each.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    named = _resolve_methods(methods, LINKPRED_METHODS)
    if LINKPRED_BASELINE not in (name for name, _ in named):
        named.insert(0, (LINKPRED_BASELINE, LINKPRED_METHODS[LINKPRED_BASELINE]))

    root = np.random.SeedSequence(rng_seed)
    split = split_holdout(g, test_fraction, root.spawn(1)[0])
    train = split.train

    order = np.lexsort((np.arange(train.n), -train.degrees))
    cohort = [int(i) for i in order[:num_nodes]]
    if len(cohort) < num_nodes:
        log.warning("cohort shrunk to %d nodes (graph too small)", len(cohort))

    basis = TrialContext(train, params)
    contexts = []
    for i in cohort:
        # The candidates, i's non-neighbours other than i, are listed when
        # i is scored; here only their count is needed.
        positives = frozenset(split.test_graph.neighbors(i).tolist())
        if positives and len(positives) < train.n - 1 - train.degree(i):
            contexts.append(replace(basis, node=i, truth=positives))
    skipped = len(cohort) - len(contexts)
    _solve_declared(named, contexts)
    # single, sum and star are one function: score it once per node.
    names_of: dict[Method, list[str]] = {}
    for name, fn in named:
        names_of.setdefault(fn, []).append(name)
    rows: list[LinkpredNodeRow] = []
    per_method: dict[str, list[float]] = {name: [] for name, _ in named}
    baseline_aucs: list[float] = []
    for ctx in contexts:
        i = ctx.node
        mask = np.ones(train.n, dtype=bool)
        mask[train.neighbors(i)] = False
        mask[i] = False
        ctx = replace(ctx, candidates=np.flatnonzero(mask))
        res = {}
        for fn, names in names_of.items():
            a = auc(_method_output(names[0], fn(ctx), train.n), ctx.truth, ctx.candidates)
            res.update(dict.fromkeys(names, a))
        baseline_aucs.append(res[LINKPRED_BASELINE])
        for name, _ in named:
            rows.append(LinkpredNodeRow(train.labels[i], train.degree(i), name, res[name]))
            per_method[name].append(res[name])

    base = np.asarray(baseline_aucs)
    summary = []
    for name, _ in named:
        vals = np.asarray(per_method[name])
        delta = vals - base
        summary.append(
            LinkpredSummaryRow(
                method=name,
                mean_auc=float(vals.mean()) if len(vals) else float("nan"),
                mean_delta_vs_baseline=float(delta.mean()) if len(vals) else float("nan"),
                mean_dist_to_diag=float((delta / math.sqrt(2.0)).mean()) if len(vals) else float("nan"),
            )
        )

    metadata = {
        "protocol": "holdout",
        "test_fraction": test_fraction,
        "num_nodes_requested": num_nodes,
        "cohort_size": len(cohort),
        "nodes_skipped_no_positives": skipped,
        "methods": [name for name, _ in named],
        "alpha": params.alpha,
        "iterations": params.iterations,
        "rng_seed": rng_seed,
        "train_nodes": train.n,
        "train_edges": train.m,
        "test_edges": len(split.test_pairs),
        "unusable_test_edges": split.unusable_test_edges,
    }
    return LinkpredResult(nodes=rows, summary=summary, metadata=metadata)


# ---------------------------------------------------------------------------
# report files


def write_json(path, obj) -> None:
    """Write a JSON sidecar: ``obj`` with sorted keys, indented, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_reports(out_dir, prefix: str, tables: dict, metadata: dict) -> dict:
    """Write ``<prefix>_<key>.csv`` for each ``key: (row class, rows)`` table,
    one column per field of the row class, plus the replayable
    ``<prefix>_metadata.json``; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, (row_class, rows) in tables.items():
        names = [f.name for f in fields(row_class)]
        paths[key] = os.path.join(out_dir, f"{prefix}_{key}.csv")
        with open(paths[key], "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(names) + "\n")
            for row in rows:
                fh.write(",".join(str(getattr(row, name)) for name in names) + "\n")
    paths["metadata"] = os.path.join(out_dir, f"{prefix}_metadata.json")
    write_json(paths["metadata"], metadata)
    return paths


def write_pairwise_reports(result: PairwiseResult, out_dir, prefix: str = "pairwise") -> dict:
    """Emit summary/detail CSVs plus a replayable metadata sidecar; returns
    the written paths."""
    tables = {"summary": (PairwiseSummaryRow, result.summary), "detail": (TrialReport, result.details)}
    return _write_reports(out_dir, prefix, tables, result.metadata)


def write_linkpred_reports(result: LinkpredResult, out_dir, prefix: str = "linkpred") -> dict:
    """Emit per-node and summary CSVs plus a replayable metadata sidecar;
    returns the written paths."""
    tables = {"nodes": (LinkpredNodeRow, result.nodes), "summary": (LinkpredSummaryRow, result.summary)}
    return _write_reports(out_dir, prefix, tables, result.metadata)
