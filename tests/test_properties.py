"""Property tests for the identities the fast paths rely on: the tensor
contraction, the splits built from index rows (the temporal one against
its reference loop), the loeto triangles taken from the
parent's list, the O(n) rank count, pair-seed linearity, edge-list labels
surviving a round trip through a graph, and the numpy rank statistics and
largest component agreeing with scipy bit for bit.

Small random graphs and vectors drawn by Hypothesis; derandomized, so every
run draws the same examples.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import assume, example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trilink import (
    DataError,
    EdgeList,
    build_graph,
    enumerate_triangles,
    largest_connected_component,
    load_edge_list,
    make_seed,
    pair_seeded_pagerank,
    single_seeded_pagerank,
    split_holdout,
    split_loeto,
    split_temporal,
    tensor_bilinear,
    tensor_row_sums,
    to_edge_list,
    trpr_iterates,
)
from trilink.diffusion import SEED_KINDS, _ranks, rank_stability
from trilink.experiments import _best_truth_rank
from trilink.triangles import subgraph_triangles, triangle_edges

import oracles

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, max_n: int = 10):
    """A connected simple graph with at least one edge."""
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k] or [pairs[0]]
    return largest_connected_component(build_graph(EdgeList(tuple(edges))))


@st.composite
def graph_and_vectors(draw):
    g = draw(graphs())
    x = draw(arrays(np.float64, g.n, elements=FINITE))
    y = draw(arrays(np.float64, g.n, elements=FINITE))
    return g, x, y


@PROPERTY
@given(graph_and_vectors())
def test_bilinear_is_symmetric_bit_for_bit(case):
    g, x, y = case
    ts = enumerate_triangles(g)
    assert np.array_equal(tensor_bilinear(ts, x, y), tensor_bilinear(ts, y, x))


@PROPERTY
@given(graph_and_vectors())
def test_row_sums_are_bilinear_with_ones_bit_for_bit(case):
    g, x, _ = case
    ts = enumerate_triangles(g)
    assert np.array_equal(tensor_row_sums(ts, x), tensor_bilinear(ts, x, np.ones(g.n)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(graphs(), st.sampled_from(SEED_KINDS), st.booleans(), st.data())
def test_trpr_iterates_stay_distributions(g, kind, weighted, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = int(data.draw(st.sampled_from(g.neighbors(u).tolist())))
    seed = make_seed(g, kind, u, v)
    ts = enumerate_triangles(g)
    for _, x, _, _ in trpr_iterates(g, ts, seed, weighted=weighted, iterations=12):
        assert (x >= 0).all()
        assert abs(x.sum() - 1.0) <= 1e-12


@st.composite
def loeto_cases(draw):
    """A graph, its triangles and one of its triangle edges."""
    g = draw(graphs())
    ts = enumerate_triangles(g)
    seeds = triangle_edges(ts)
    assume(seeds)
    return g, ts, draw(st.sampled_from(seeds))


def label_edges(g) -> set[frozenset]:
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edge_array().tolist()}


def assert_partition(g, split) -> None:
    """The train graph's edges and the test pairs are disjoint and make up E,
    except what the LCC step dropped: whole components, so no dropped edge
    touches a train node."""
    edges, train = label_edges(g), label_edges(split.train)
    test = {frozenset(p) for p in split.test_pairs}
    assert len(test) == len(split.test_pairs)
    assert test <= edges and train <= edges and not train & test
    nodes = set(split.train.labels)
    assert all(not e & nodes for e in edges - train - test)
    assert_index_map(g.labels, split)


def assert_index_map(labels, split) -> None:
    """The split keeps the input's labels, ``to_train`` inverts the train
    numbering, and ``test_pairs`` are the label pairs of ``test_rows``."""
    assert split.labels is labels
    to_train, train = split.to_train.tolist(), set(split.train.labels)
    assert [t >= 0 for t in to_train] == [w in train for w in labels]
    assert all(split.train.labels[t] == w for t, w in zip(to_train, labels) if t >= 0)
    assert split.test_pairs == tuple((labels[u], labels[v]) for u, v in split.test_rows.tolist())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(loeto_cases())
def test_loeto_triangles_from_parent_equal_fresh_enumeration(case):
    g, ts, seed = case
    split = split_loeto(g, seed)
    train = split.train
    got, want = subgraph_triangles(ts, split.to_train, train), enumerate_triangles(train)
    assert got.n == want.n
    assert got.triples.dtype == np.int64 and got.triples.flags.f_contiguous
    assert np.array_equal(got.triples, want.triples)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(graphs(), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32 - 1))
def test_holdout_train_and_test_partition_the_edges(g, fraction, seed):
    try:
        split = split_holdout(g, fraction, seed)
    except DataError:  # nothing left to train on, or a train LCC below 3 nodes
        reject()
    assert len(split.test_pairs) == max(1, round(fraction * g.m))
    assert_partition(g, split)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(loeto_cases())
def test_loeto_holds_out_exactly_the_wedge_edges(case):
    g, _, (u, v) = case
    lab = g.labels
    wedge = set(g.neighbors(u).tolist()) & set(g.neighbors(v).tolist())
    held = {frozenset((lab[x], lab[w])) for x in (u, v) for w in wedge}
    split = split_loeto(g, (u, v))
    assert {frozenset(p) for p in split.test_pairs} == held
    assert_partition(g, split)


def lexsort_rank(values, candidates, truth) -> int:
    """Rank of the best truth node by a full sort: score descending, then
    node index ascending."""
    order = candidates[np.lexsort((candidates, -values[candidates]))].tolist()
    return next((r for r, c in enumerate(order, 1) if c in truth), -1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_best_truth_rank_equals_lexsort_rank(data):
    # Few distinct scores (with -0.0 == 0.0) force ties; a node permutation
    # moves which tied node has the lower index.
    n = data.draw(st.integers(1, 12))
    values = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
                                         min_size=n, max_size=n)))
    candidates = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
    truth = data.draw(st.frozensets(st.integers(0, n - 1)))
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    moved = np.empty(n)
    moved[perm] = values
    for vals, cands, tr in ((values, candidates, truth),
                            (moved, perm[candidates], frozenset(perm[list(truth)].tolist()))):
        for order in (np.sort(cands), cands):
            assert _best_truth_rank(vals, order, tr) == lexsort_rank(vals, order, tr)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(graphs(), st.data())
def test_pair_seed_is_the_mean_of_its_single_seeds(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda w: w != u))
    pair = pair_seeded_pagerank(g, u, v)
    mean = (single_seeded_pagerank(g, u) + single_seeded_pagerank(g, v)) / 2.0
    assert np.abs(pair - mean).max() <= 1e-12


# int() reads 1, 01 and +1 as one number, and 10 and 1_0 as another; each must
# stay its own label.
TOKENS = ("0", "1", "01", "-1", "1_0", "10", "+1", "a")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(TOKENS)), min_size=1, max_size=20))
def test_edge_list_labels_round_trip_through_a_graph(pairs):
    want = {frozenset(p) for p in pairs if p[0] != p[1]}
    assume(want)
    g = build_graph(load_edge_list(io.StringIO("".join(f"{u} {v}\n" for u, v in pairs))))
    edges = to_edge_list(g).pairs
    assert len(edges) == len(want)
    assert {frozenset(map(str, p)) for p in edges} == want
    assert sorted(map(str, g.labels)) == sorted(set().union(*want))
    # Written out and read back, every label keeps its type and value.
    text = "".join(f"{u} {v}\n" for u, v in edges)
    again = to_edge_list(build_graph(load_edge_list(io.StringIO(text)))).pairs
    assert {frozenset(p) for p in again} == {frozenset(p) for p in edges}


# A few levels, so ties are common; -0.0 and 0.0 are one value.
TIED = st.sampled_from([-2.5, -0.0, 0.0, 0.125, 1.0, 3.0])


def bits(*xs: float) -> bytes:
    return np.array(xs, dtype=np.float64).tobytes()


@st.composite
def score_pairs(draw):
    n = draw(st.integers(2, 200))
    elements = draw(st.sampled_from([TIED, FINITE]))
    return draw(arrays(np.float64, n, elements=elements)), draw(arrays(np.float64, n, elements=elements))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(score_pairs())
@example((np.array([0.0, -0.0, 1.0]), np.array([-0.0, 1.0, 0.0])))
@example((np.array([1.0, 2.0]), np.array([2.0, 1.0])))
@example((np.array([1.0, 1.0]), np.array([2.0, 1.0])))
def test_rank_statistics_equal_scipy_bit_for_bit(case):
    a, b = case
    assert _ranks(a)[0].tobytes() == oracles.scipy_ranks(a).tobytes()
    assert bits(*rank_stability(a, b)) == bits(*oracles.scipy_rank_stats(a, b))


@PROPERTY
@given(st.data())
def test_untied_short_rank_statistics_equal_scipy(data):
    # Up to 33 untied values, scipy's kendalltau takes its exact p-value path.
    n = data.draw(st.integers(2, 33))
    a, b = (np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n, unique=True))) for _ in "ab")
    assert bits(*rank_stability(a, b)) == bits(*oracles.scipy_rank_stats(a, b))


@st.composite
def path_forests(draw):
    """Disjoint paths under shuffled labels and edge order, so components'
    dense indices interleave: many small ones, sometimes one long path, and
    sometimes two largest of one size."""
    sizes = draw(st.lists(st.integers(2, 30), min_size=1, max_size=40))
    sizes += draw(st.sampled_from([[], [3000]]))
    if draw(st.booleans()):
        sizes.append(max(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = rng.permutation(sum(sizes)).tolist()
    pairs, start = [], 0
    for size in sizes:
        path = names[start : start + size]
        pairs += zip(path[:-1], path[1:])
        start += size
    return build_graph(EdgeList(tuple(pairs[i] for i in rng.permutation(len(pairs)))))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(path_forests())
def test_largest_component_equals_scipy(g):
    lcc = largest_connected_component(g)
    assert lcc.labels == tuple(g.labels[i] for i in oracles.scipy_lcc_nodes(g))


@st.composite
def edge_list_texts(draw):
    """An edge-list text and whether its records carry timestamps: '#' and
    '%' lines, blank lines, CRLF and LF endings, spaces and tabs, self
    loops, repeated and reversed records, the tokens of TOKENS, and now and
    then a line with a wrong field count or a timestamp that is no int."""
    timed = draw(st.booleans())
    token = st.sampled_from(TOKENS)
    sep = st.sampled_from([" ", "\t", " \t ", "  "])
    kinds = ["record"] * 6 + ["repeat", "reverse", "comment", "blank"]
    records: list[tuple[str, str]] = []
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        if kind == "comment":
            lines.append(draw(st.sampled_from(["#", "%", "# 1 2", "%1 2"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            if kind == "record" or not records:
                u, v = draw(token), draw(token)
            else:
                u, v = draw(st.sampled_from(records))
                if kind == "reverse":
                    u, v = v, u
            records.append((u, v))
            stamp = draw(sep) + str(draw(st.integers(-3, 3))) if timed else ""
            lines.append(u + draw(sep) + v + stamp)
    bad = draw(st.sampled_from([None] * 8 + ["1", "1 2 3 4", "a b x", "1 2 1.5"]))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "".join(draw(st.sampled_from(["", " "])) + ln + draw(st.sampled_from(["\n", "\r\n"])) for ln in lines), timed


def _csr(g):
    return g.indptr.tolist(), g.indices.tolist(), g.labels


def _outcome(fn):
    """What ``fn()`` returns, or the type and text of the DataError it raises."""
    try:
        return fn()
    except DataError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edge_list_texts())
def test_loading_matches_the_reference_loops(case):
    # load_edge_list reads a file into index arrays, and build_graph builds
    # from them. The records and the graph are the reference loops', or the
    # same error text.
    text, timed = case
    want_edges = _outcome(lambda: oracles.load_edge_list(io.StringIO(text), timed))
    assert _outcome(lambda: load_edge_list(io.StringIO(text), timed)) == want_edges
    assert _outcome(lambda: load_edge_list(io.BytesIO(text.encode()), timed)) == want_edges
    if isinstance(want_edges, EdgeList):
        want = _outcome(lambda: oracles.build_csr(want_edges.pairs))
    else:
        want = want_edges
    assert _outcome(lambda: _csr(build_graph(load_edge_list(io.StringIO(text), timed)))) == want


@st.composite
def timed_edge_lists(draw):
    """Timestamped records on int and str labels whose reprs sort apart
    from their values ('10' before '2', "'1'" after '1'): repeated and
    reversed records at other or equal times, ties in time, self loops."""
    label = st.sampled_from([0, 1, 2, 10, -3, "1", "a", "b", "10"])
    records: list[tuple] = []
    for kind in draw(st.lists(st.sampled_from(["record"] * 5 + ["repeat", "reverse", "loop"]),
                              min_size=8, max_size=40)):
        if kind == "loop":
            u = v = draw(label)
        elif kind == "record" or not records:
            u, v = draw(label), draw(label)
        else:
            u, v = draw(st.sampled_from(records))
            if kind == "reverse":
                u, v = v, u
        records.append((u, v))
    times = draw(st.lists(st.integers(-2, 6), min_size=len(records), max_size=len(records)))
    return EdgeList(tuple(records), tuple(times))


def _split_outcome(split, *args):
    """The train CSR, labels and test pairs of ``split(*args)``, or the
    class of the error it raises."""
    try:
        s = split(*args)
    except (DataError, ValueError) as exc:
        return type(exc)
    return _csr(s.train), s.test_pairs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(timed_edge_lists(), st.sampled_from([0.4, 0.6, 0.7, 0.8, 0.95]))
def test_temporal_split_matches_the_reference_loop(edges, fraction):
    got = _split_outcome(split_temporal, edges, fraction)
    assert got == _split_outcome(oracles.temporal_split, edges, fraction)
    if not isinstance(got, type):
        assert_index_map(edges.labels, split_temporal(edges, fraction))
