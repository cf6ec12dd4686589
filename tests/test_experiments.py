from __future__ import annotations

import numpy as np
import pytest

from trilink import (
    DEFAULT_PAIRWISE_METHODS,
    DataError,
    DiffusionParams,
    EdgeList,
    EvalPolicy,
    GpaParams,
    auc,
    build_graph,
    candidate_nodes,
    enumerate_triangles,
    generate_gpa,
    ground_truth,
    largest_connected_component,
    make_seed,
    pagerank,
    pair_seeded_pagerank,
    rank_stability,
    run_pairwise_experiment,
    run_standard_linkpred,
    score_all_nodes,
    single_seeded_pagerank,
    split_holdout,
    split_loeto,
    split_temporal,
    success_probability,
    trpr,
)
from trilink.experiments import (
    LINKPRED_METHODS,
    PAIRWISE_METHODS,
    TrialContext,
    _best_truth_rank,
    _eligible_seed_edges,
)
from trilink.local import LOCAL_METHODS
from trilink.triangles import subgraph_triangles, triangle_edges

import oracles


def small_gpa(seed=2, steps=500, p=0.6):
    return generate_gpa(GpaParams(p_edge=p, steps=steps, rng_seed=seed))


# --- policy ------------------------------------------------------------------


def test_policy_validation_and_rule():
    with pytest.raises(ValueError):
        EvalPolicy(k=0)
    with pytest.raises(ValueError):
        EvalPolicy(truth_mode="xor")
    with pytest.raises(ValueError):
        EvalPolicy(candidate_rule="some")
    assert EvalPolicy(truth_mode="and").rule == "either"
    assert EvalPolicy(truth_mode="or").rule == "both"
    assert EvalPolicy(truth_mode="or", candidate_rule="either").rule == "either"


# --- splits ------------------------------------------------------------------


def test_holdout_counts_and_determinism():
    g = small_gpa()
    split = split_holdout(g, 0.3, 123)
    assert len(split.test_pairs) == round(0.3 * g.m)
    again = split_holdout(g, 0.3, 123)
    assert split.test_pairs == again.test_pairs
    other = split_holdout(g, 0.3, 124)
    assert split.test_pairs != other.test_pairs


def test_holdout_fraction_to_zero_limit():
    g = small_gpa(steps=100)
    split = split_holdout(g, 1e-9, 5)
    assert len(split.test_pairs) == 1


def test_holdout_split_soundness():
    g = small_gpa(steps=200)
    split = split_holdout(g, 0.3, 7)
    orig = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edge_array()}
    test = {frozenset(p) for p in split.test_pairs}
    train_full = orig - test
    # the train graph may have lost nodes to the component reduction, but
    # never gained edges, and test/train never overlap
    tr = split.train
    got_train = {frozenset((tr.labels[u], tr.labels[v])) for u, v in tr.edge_array()}
    assert got_train <= train_full
    assert not (got_train & test)
    assert test | train_full == orig


def test_holdout_errors():
    g = small_gpa(steps=50)
    with pytest.raises(ValueError):
        split_holdout(g, 0.0, 1)
    with pytest.raises(ValueError):
        split_holdout(g, 1.0, 1)


def test_temporal_basic_ordering():
    el = EdgeList((("a", "b"), ("b", "c"), ("a", "c")), (1, 2, 3))
    split = split_temporal(el, 2 / 3)
    tr = split.train
    assert {frozenset((tr.labels[u], tr.labels[v])) for u, v in tr.edge_array()} == {
        frozenset(("a", "b")),
        frozenset(("b", "c")),
    }
    assert [frozenset(p) for p in split.test_pairs] == [frozenset(("a", "c"))]


def test_temporal_dedup_first_occurrence():
    el = EdgeList((("a", "b"), ("b", "c"), ("a", "b"), ("a", "c")), (1, 2, 9, 3))
    split = split_temporal(el, 2 / 3)
    # unique edges: ab@1, bc@2, ac@3 -> cut at ceil(2/3*3)=2
    assert len(split.test_pairs) == 1
    assert frozenset(split.test_pairs[0]) == frozenset(("a", "c"))


def test_temporal_requires_timestamps():
    with pytest.raises(DataError):
        split_temporal(EdgeList((("a", "b"),)), 0.5)


def test_temporal_is_pure():
    pairs = tuple((i % 7, (i * 3 + 1) % 7) for i in range(20) if i % 7 != (i * 3 + 1) % 7)
    el = EdgeList(pairs, tuple(range(len(pairs))))
    a = split_temporal(el, 0.6)
    b = split_temporal(el, 0.6)
    assert a.test_pairs == b.test_pairs
    tr_a = {frozenset((a.train.labels[u], a.train.labels[v])) for u, v in a.train.edge_array()}
    tr_b = {frozenset((b.train.labels[u], b.train.labels[v])) for u, v in b.train.edge_array()}
    assert tr_a == tr_b


def test_temporal_train_count_ceil():
    pairs = tuple((i, i + 1) for i in range(40))
    el = EdgeList(pairs, tuple(range(40)))
    split = split_temporal(el, 0.8)
    kept = {frozenset(p) for p in split.test_pairs}
    assert len(kept) == 40 - int(np.ceil(0.8 * 40))


def test_loeto_k4(k4):
    ix = k4.label_index
    split = split_loeto(k4, (ix[1], ix[2]))
    assert {frozenset(p) for p in split.test_pairs} == {
        frozenset((1, 3)),
        frozenset((2, 3)),
        frozenset((1, 4)),
        frozenset((2, 4)),
    }
    # remaining edges {(1,2),(3,4)} tie at size 2; the component holding the
    # smallest dense index wins
    assert set(split.train.labels) == {1, 2}
    # the wedge nodes fell out of the train component: trial is invalid
    policy = EvalPolicy(k=5)
    tr_ix = split.train.label_index
    assert ground_truth(split, (tr_ix[1], tr_ix[2]), policy) == frozenset()


def test_loeto_triangle_discard(triangle_pendant):
    # remove both wedge edges of the only triangle; candidate 3 is unreachable
    ix = triangle_pendant.label_index
    split = split_loeto(triangle_pendant, (ix[1], ix[2]))
    assert {frozenset(p) for p in split.test_pairs} == {frozenset((1, 3)), frozenset((2, 3))}
    assert 3 not in split.train.labels or split.train.n == 2


def test_loeto_couple_component_check(couple):
    ix = couple.label_index
    split = split_loeto(couple, (ix["b1"], ix["b2"]))
    assert len(split.test_pairs) == 12
    # the hub pair is cut off; the big component is the outside node's star
    assert "b1" not in split.train.label_index
    assert split.train.n == 7


def test_loeto_requires_triangle(path3):
    with pytest.raises(ValueError):
        split_loeto(path3, (0, 1))
    with pytest.raises(ValueError):
        split_loeto(path3, (0, 2))


def assert_same_split(got, want):
    assert np.array_equal(got.train.indptr, want.train.indptr)
    assert np.array_equal(got.train.indices, want.train.indices)
    assert got.train.labels == want.train.labels
    assert got.test_pairs == want.test_pairs
    assert (got.protocol, got.rng_seed, got.meta) == (want.protocol, want.rng_seed, want.meta)
    assert got.unusable_test_edges == want.unusable_test_edges


def test_splits_match_label_pair_rebuild():
    for gseed in (2, 3, 4):
        g = small_gpa(seed=gseed, steps=300)
        for rseed in (0, 1, 7):
            assert_same_split(split_holdout(g, 0.3, rseed), oracles.holdout_split(g, 0.3, rseed))
        seeds = sorted({(int(a), int(b)) for a, b, _ in enumerate_triangles(g).triples})
        rng = np.random.default_rng(gseed)
        for i in rng.choice(len(seeds), size=8, replace=False):
            u, v = seeds[i]
            assert_same_split(split_loeto(g, (u, v)), oracles.loeto_split(g, u, v))


def test_splits_match_label_pair_rebuild_when_lcc_drops_nodes(couple, triangle_pendant):
    ix = couple.label_index
    split = split_loeto(couple, (ix["b1"], ix["b2"]))
    assert split.train.n < couple.n and split.unusable_test_edges > 0
    assert_same_split(split, oracles.loeto_split(couple, ix["b1"], ix["b2"]))
    ix = triangle_pendant.label_index
    split = split_loeto(triangle_pendant, (ix[1], ix[2]))
    assert split.train.n < triangle_pendant.n
    assert_same_split(split, oracles.loeto_split(triangle_pendant, ix[1], ix[2]))
    for rseed in range(6):
        for g in (couple, triangle_pendant):
            assert_same_split(split_holdout(g, 0.5, rseed), oracles.holdout_split(g, 0.5, rseed))


def assert_loeto_triangles_from_parent(g, ts, u, v):
    split = split_loeto(g, (u, v))
    got = subgraph_triangles(ts, g, split.train)
    want = enumerate_triangles(split.train)
    assert got.n == want.n == split.train.n
    assert got.triples.dtype == np.int64
    assert got.triples.flags.c_contiguous and not got.triples.flags.writeable
    assert np.array_equal(got.triples, want.triples)
    return split, got


def test_loeto_triangles_from_parent_list():
    for gseed in (2, 3, 4):
        g = small_gpa(seed=gseed, steps=300)
        ts = enumerate_triangles(g)
        seeds = triangle_edges(ts)
        rng = np.random.default_rng(gseed)
        for i in rng.choice(len(seeds), size=8, replace=False):
            _, got = assert_loeto_triangles_from_parent(g, ts, *seeds[i])
            assert 0 < got.count < ts.count


def test_loeto_triangles_from_parent_list_when_lcc_drops_nodes(couple, triangle_pendant):
    # K4 on 1..4, plus node 5 on 4 and 6, and a triangle {6, 7, 8}: the seed
    # edge (4, 5) holds out (4, 6) and (5, 6), which cuts the triangle
    # {6, 7, 8} off, and the LCC step drops it.
    k4_and_triangle = build_graph(EdgeList(tuple(
        [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        + [(4, 5), (5, 6), (4, 6), (6, 7), (6, 8), (7, 8)]
    )))
    ix = k4_and_triangle.label_index
    split, got = assert_loeto_triangles_from_parent(
        k4_and_triangle, enumerate_triangles(k4_and_triangle), ix[4], ix[5]
    )
    assert set(split.train.labels) == {1, 2, 3, 4, 5}
    assert got.count == 4
    for g in (couple, triangle_pendant, k4_and_triangle):
        ts = enumerate_triangles(g)
        sizes = [assert_loeto_triangles_from_parent(g, ts, u, v)[0].train.n
                 for u, v in triangle_edges(ts)]
        assert min(sizes) < g.n


def test_loeto_derives_triangles_only_when_a_method_reads_them(monkeypatch):
    import trilink.experiments as ex

    enumerated, derived = [], []

    def enumerating(graph):
        enumerated.append(graph.n)
        return enumerate_triangles(graph)

    def deriving(ts, g, sub):
        derived.append(sub.n)
        return subgraph_triangles(ts, g, sub)

    monkeypatch.setattr(ex, "enumerate_triangles", enumerating)
    monkeypatch.setattr(ex, "subgraph_triangles", deriving)
    g = small_gpa(steps=400)
    run_pairwise_experiment(g, "loeto", ["pairseed"], trials=10, rng_seed=6)
    assert enumerated == [g.n] and derived == []
    enumerated.clear()
    res = run_pairwise_experiment(g, "loeto", ["trpr", "trprw"], trials=10, rng_seed=6)
    assert enumerated == [g.n] and len(derived) == res.metadata["trials_completed"]
    # the reports equal those of a run that enumerates every train graph
    monkeypatch.setattr(ex, "subgraph_triangles", lambda ts, g, sub: enumerate_triangles(sub))
    fresh = run_pairwise_experiment(g, "loeto", ["trpr", "trprw"], trials=10, rng_seed=6)
    assert fresh.details == res.details and fresh.metadata == res.metadata


# --- ground truth and candidates ---------------------------------------------


def holdout_like_split(train_pairs, test_pairs):
    from trilink.experiments import SplitDataset

    train = largest_connected_component(build_graph(EdgeList(tuple(train_pairs))))
    return SplitDataset(train=train, test_pairs=tuple(test_pairs), protocol="holdout")


def test_ground_truth_and_mode():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4), (4, 1)], [(1, 4), (2, 4)])
    # wait: (1,4) is in train; use a clean setup below instead
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    ix = split.train.label_index
    got = ground_truth(split, (ix[1], ix[2]), EvalPolicy(truth_mode="and"))
    assert got == frozenset({ix[4]})


def test_ground_truth_or_mode():
    split = holdout_like_split([(1, 2), (2, 4), (4, 3)], [(1, 4)])
    ix = split.train.label_index
    assert ground_truth(split, (ix[1], ix[2]), EvalPolicy(truth_mode="or")) == frozenset({ix[4]})
    assert ground_truth(split, (ix[1], ix[2]), EvalPolicy(truth_mode="and")) == frozenset()


def test_ground_truth_or_requires_other_edge_in_train():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4)])
    ix = split.train.label_index
    # (2,4) is neither in train nor test
    assert ground_truth(split, (ix[1], ix[2]), EvalPolicy(truth_mode="or")) == frozenset()


def test_eligible_seed_edges_equal_the_per_edge_ground_truth():
    # One sparse product lists the train edges with nonempty ground truth, in
    # edge_array order, since trials index into the list. The temporal split
    # holds out a self-loop record, which ground truth never counts.
    g = small_gpa(seed=4, steps=600)
    pairs = [(g.labels[u], g.labels[v]) for u, v in g.edge_array()] + [(g.labels[0], g.labels[0])]
    timed = EdgeList(tuple(pairs), tuple(np.random.default_rng(3).permutation(g.m).tolist()) + (g.m,))
    for split in [split_holdout(g, 0.3, 1), split_holdout(g, 0.3, 2), split_temporal(timed, 0.7)]:
        for mode in ("and", "or"):
            policy = EvalPolicy(truth_mode=mode)
            want = [(u, v) for u, v in split.train.edge_array().tolist() if ground_truth(split, (u, v), policy)]
            assert want and _eligible_seed_edges(split, policy) == want


def _truth_oracle_splits() -> list:
    g = small_gpa(seed=5, steps=200)
    lab = g.labels
    splits = [split_holdout(g, 0.3, seed) for seed in (1, 2)]
    tri = triangle_edges(enumerate_triangles(g))
    splits += [split_loeto(g, tri[i]) for i in np.random.default_rng(8).choice(len(tri), 3, replace=False)]
    # Temporal records, in time order after a random order of the edges: a
    # 2-node component that trains outside the largest one; then, held out,
    # a self-loop record, reversed duplicates of the last two edges, and
    # pairs with a node outside the train component.
    pairs = [(lab[u], lab[v]) for u, v in g.edge_array().tolist()]
    order = np.random.default_rng(9).permutation(len(pairs)).tolist()
    (a, b), (c, d) = pairs[order[-1]], pairs[order[-2]]
    late = [(lab[0], lab[0]), (b, a), (d, c), ("new", lab[0]), ("new", "newer"), ("iso", lab[1])]
    timed = [("iso", "lone")] + [pairs[i] for i in order] + late
    splits.append(split_temporal(EdgeList(tuple(timed), tuple(range(len(timed)))), 0.7))
    # A hand-built split whose test pairs repeat an edge in both orientations.
    test_pairs = [(1, 3), (3, 1), (2, 4), (4, 1), (4, 4), (1, 9)]
    splits.append(holdout_like_split([(1, 2), (2, 3), (3, 4), (1, 5)], test_pairs))
    return splits


def test_ground_truth_and_eligible_seed_edges_match_the_set_algebra_oracle():
    rng = np.random.default_rng(10)
    for split in _truth_oracle_splits():
        train = split.train
        edges = [tuple(e) for e in train.edge_array().tolist()]
        others = [tuple(rng.choice(train.n, 2, replace=False).tolist()) for _ in range(10)]
        for mode in ("and", "or"):
            policy = EvalPolicy(truth_mode=mode)
            want = {e: oracles.truth_oracle(split, e, mode) for e in edges + others}
            assert {e: ground_truth(split, e, policy) for e in want} == want
            assert _eligible_seed_edges(split, policy) == [e for e in edges if want[e]]


@pytest.mark.parametrize("mode", ["and", "or"])
@pytest.mark.parametrize("seed_edge", [(9, 0), (-1, 0), (0, -1)])
def test_ground_truth_rejects_out_of_range_seed_nodes(mode, seed_edge):
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    assert split.train.n == 4
    with pytest.raises(IndexError):
        ground_truth(split, seed_edge, EvalPolicy(truth_mode=mode))


def test_loeto_refuses_or_truth():
    # loeto holds out both wedge edges of every triangle on the seed edge, so
    # no node keeps one of them in train and 'or' truth is always empty.
    g = small_gpa(steps=300)
    for u, v in triangle_edges(enumerate_triangles(g))[::10]:
        split = split_loeto(g, (u, v))
        idx = split.train.label_index
        if g.labels[u] in idx and g.labels[v] in idx:
            seed_edge = (idx[g.labels[u]], idx[g.labels[v]])
            assert oracles.truth_oracle(split, seed_edge, "or") == frozenset()
    with pytest.raises(ValueError, match="'or' truth"):
        run_pairwise_experiment(g, "loeto", ["pairseed"], trials=3, truth_mode="or")


def test_loeto_refuses_allow_empty_truth():
    # loeto discards and redraws every draw with empty truth, so the flag
    # could only be recorded in the metadata, never take effect.
    with pytest.raises(ValueError, match="redraws every seed edge with empty truth"):
        run_pairwise_experiment(small_gpa(steps=300), "loeto", ["pairseed"], trials=3,
                                allow_empty_truth=True)


def test_candidate_rules(couple):
    ix = couple.label_index
    u, v = ix["b1"], ix["b2"]
    either = candidate_nodes(couple, u, v, "either")
    # every friend is adjacent to both hubs; only the outside node is left
    assert list(either) == [ix["r"]]
    both = candidate_nodes(couple, u, v, "both")
    assert set(both) == {ix["r"]}
    with pytest.raises(ValueError):
        candidate_nodes(couple, u, v, "none-of-it")


# --- success probability and auc ----------------------------------------------


def test_scoring_functions_return_plain_arrays():
    # Every predictor returns its n scores as one float64 array, which the
    # metrics take as it is.
    split = holdout_like_split([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)], [(1, 5), (2, 5)])
    g = split.train
    u, v = g.label_index[1], g.label_index[2]
    pair = make_seed(g, "pair", u, v)
    ts = enumerate_triangles(g)
    outs = {
        "pagerank": pagerank(g, pair),
        "single": single_seeded_pagerank(g, u),
        "pairseed": pair_seeded_pagerank(g, u, v),
        "trpr": trpr(g, ts, pair),
        "trprw": trpr(g, ts, pair, weighted=True),
        **{m: score_all_nodes(g, (u, v), m) for m in LOCAL_METHODS},
    }
    policy = EvalPolicy(k=1)
    truth = ground_truth(split, (u, v), policy)
    cands = candidate_nodes(g, u, v, policy.rule)
    assert truth == {g.label_index[5]} and len(cands) == 3
    for name, x in outs.items():
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (g.n,), name
        rep = success_probability(x, split, (u, v), policy)
        assert rep.method == "scores" and rep.best_rank >= 1, name
        assert 0.0 <= auc(x, truth, cands) <= 1.0, name
        rho, tau = rank_stability(x, outs["pagerank"])
        assert -1.0 <= rho <= 1.0 and -1.0 <= tau <= 1.0, name


def test_success_probability_examples():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4), (4, 5)], [(1, 5), (2, 5)])
    ix = split.train.label_index
    policy = EvalPolicy(k=1)
    vals = np.zeros(split.train.n)
    vals[ix[5]] = 1.0
    rep = success_probability(vals, split, (ix[1], ix[2]), policy)
    assert (rep.sp, rep.best_rank) == (1, 1)
    # push the truth below the cutoff
    vals2 = np.zeros(split.train.n)
    vals2[ix[4]] = 1.0
    rep2 = success_probability(vals2, split, (ix[1], ix[2]), policy)
    assert rep2.sp == 0
    assert rep2.best_rank > 1


def test_success_probability_empty_truth_errors():
    split = holdout_like_split([(1, 2), (2, 3)], [])
    ix = split.train.label_index
    with pytest.raises(ValueError):
        success_probability(np.zeros(3), split, (ix[1], ix[2]), EvalPolicy())


def test_success_probability_checks_its_scores():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4), (4, 5)], [(1, 5), (2, 5)])
    ix = split.train.label_index
    seed_edge = (ix[1], ix[2])
    with pytest.raises(ValueError, match=r"shape \(8,\), expected \(5,\)"):
        success_probability(np.arange(split.train.n + 3.0), split, seed_edge, EvalPolicy())
    vals = np.zeros(split.train.n)
    vals[ix[5]] = np.nan  # the best (and only) truth node
    with pytest.raises(ValueError, match="NaN scores"):
        success_probability(vals, split, seed_edge, EvalPolicy())


def test_success_probability_js_composition(triangle_pendant):
    # hold out the wedge over the triangle edge; JS puts the pendant first
    ix = triangle_pendant.label_index
    split = split_loeto(triangle_pendant, (ix[1], ix[2]))
    # that split drops node 3; rebuild a holdout-style case instead
    split = holdout_like_split([(1, 2), (1, 3), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    tix = split.train.label_index
    sv = score_all_nodes(split.train, (tix[1], tix[2]), "js")
    rep = success_probability(sv, split, (tix[1], tix[2]), EvalPolicy(k=1))
    assert rep.best_rank == 1 and rep.sp == 1


def test_sp_matches_oracle_random():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        values = rng.random(n)
        cands = np.array(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)))
        truth = frozenset(int(x) for x in rng.choice(cands, size=int(rng.integers(1, len(cands) + 1)), replace=False))
        k = int(rng.integers(1, 8))
        best = _best_truth_rank(values, cands, truth)
        want_best, want_hit = oracles.sp_oracle(values, cands, truth, k)
        assert best == want_best
        assert int(0 < best <= k) == want_hit


def test_sp_tie_break_ascending_index():
    values = np.array([0.5, 0.5, 0.5, 0.5])
    cands = np.array([0, 1, 2, 3])
    assert _best_truth_rank(values, cands, frozenset({2})) == 3


def test_auc_examples():
    cands = np.arange(4)
    # perfectly separated
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), {0, 1}, cands) == pytest.approx(1.0)
    # all tied
    assert auc(np.ones(4), {0, 1}, cands) == pytest.approx(0.5)
    # positives at ranks 1 and 3 with a tie across classes
    scores = np.array([0.9, 0.7, 0.7, 0.1])
    assert auc(scores, {0, 2}, cands) == pytest.approx(0.875)
    with pytest.raises(ValueError):
        auc(scores, set(), cands)
    with pytest.raises(ValueError):
        auc(scores, {0, 1, 2, 3}, cands)
    with pytest.raises(ValueError):
        auc(scores, {0, 9}, cands)


def test_auc_checks_its_scores():
    cands = np.arange(4)
    with pytest.raises(ValueError, match=r"1-D, got shape \(4, 2\)"):
        auc(np.ones((4, 2)), {0, 1}, cands)
    # A NaN candidate score is no error: the AUC is undefined.
    assert np.isnan(auc(np.array([0.9, np.nan, 0.2, 0.1]), {0, 1}, cands))


def test_auc_matches_brute_force():
    rng = np.random.default_rng(66)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        # draw from few distinct values so ties actually occur
        values = rng.choice([0.1, 0.2, 0.3, 0.9], size=n)
        cands = np.arange(n)
        npos = int(rng.integers(1, n))
        pos = set(int(x) for x in rng.choice(n, size=npos, replace=False))
        got = auc(values, pos, cands)
        want = oracles.auc_pairs(values, pos, cands)
        assert got == pytest.approx(want, abs=1e-12)


# --- pairwise harness ----------------------------------------------------------


def test_pairwise_oracle_bounds_all_protocols(couple):
    g = small_gpa(steps=400, p=0.65)
    for protocol, data in (("holdout", g), ("loeto", g)):
        res = run_pairwise_experiment(
            data, protocol, ["oracle", "antioracle"], k_values=(5,), trials=15, rng_seed=3
        )
        by = {(r.method, r.k): r for r in res.summary}
        assert by[("oracle", 5)].mean_sp == 1.0
        assert by[("antioracle", 5)].mean_sp == 0.0
    # temporal graph where two late nodes close triangles over the hub edge
    edges = [("a", "b")]
    edges += [(h, c) for c in ("c1", "c2", "c3") for h in ("a", "b")]
    edges += [("w1", "c1"), ("w2", "c2")]
    edges += [("a", "w1"), ("b", "w1"), ("a", "w2"), ("b", "w2")]
    el = EdgeList(tuple(edges), tuple(range(len(edges))))
    res = run_pairwise_experiment(
        el, "temporal", ["oracle"], k_values=(5,), trials=10, rng_seed=3, fraction=9 / 13
    )
    assert res.summary[0].mean_sp == 1.0


def test_pairwise_schema_and_monotonicity():
    g = small_gpa(steps=400)
    methods = ["pairseed", "trpr", "trprw", "aa", "js", "pa"]
    res = run_pairwise_experiment(g, "holdout", methods, k_values=(5, 25), trials=25, rng_seed=9)
    assert len(res.summary) == len(methods) * 2
    by = {(r.method, r.k): r.mean_sp for r in res.summary}
    for m in methods:
        assert by[(m, 25)] >= by[(m, 5)]
    # detail rows: trials x methods x k
    assert len(res.details) == 25 * len(methods) * 2
    for r in res.details:
        assert r.sp == int(0 < r.best_rank <= r.k)
        assert r.truth_count >= 1


def test_pairwise_deterministic_and_thread_independent():
    g = small_gpa(steps=300)
    kw = dict(k_values=(5, 25), trials=20, rng_seed=77)
    a = run_pairwise_experiment(g, "holdout", ["pairseed", "trpr"], **kw)
    b = run_pairwise_experiment(g, "holdout", ["pairseed", "trpr"], **kw)
    assert a.summary == b.summary
    assert a.details == b.details
    assert a.metadata["trial_digests"] == b.metadata["trial_digests"]


def test_pairwise_methods_see_identical_context():
    g = small_gpa(steps=300)
    seen: dict[str, list] = {"a": [], "b": []}

    def probe(tag):
        def fn(ctx):
            seen[tag].append(
                (ctx.train.n, ctx.u, ctx.v, tuple(ctx.candidates), tuple(sorted(ctx.truth)))
            )
            return np.zeros(ctx.train.n)

        return fn

    run_pairwise_experiment(
        g, "holdout", [("a", probe("a")), ("b", probe("b"))], k_values=(5,), trials=10, rng_seed=1
    )
    assert seen["a"] == seen["b"]
    assert len(seen["a"]) == 10


def test_pairwise_loeto_on_couple(couple):
    # Drawing the hub edge removes every wedge and disconnects the hubs, so
    # such draws are discarded; all other triangle edges give valid trials.
    res = run_pairwise_experiment(
        couple, "loeto", ["trpr", "oracle"], k_values=(1,), trials=30, rng_seed=13
    )
    by = {r.method: r for r in res.summary}
    assert by["oracle"].trials == 30
    assert by["oracle"].mean_sp == 1.0
    assert by["trpr"].mean_sp == 1.0  # the lone wedge node tops every ranking
    for r in res.details:
        assert r.truth_count >= 1


def test_pairwise_allow_empty_truth():
    g = small_gpa(steps=300)
    res = run_pairwise_experiment(
        g, "holdout", ["pairseed"], k_values=(5,), trials=10, rng_seed=5, allow_empty_truth=True
    )
    assert res.summary[0].trials == 10


def test_pairwise_unknown_method_errors():
    g = small_gpa(steps=100)
    with pytest.raises(ValueError):
        run_pairwise_experiment(g, "holdout", ["katz"], trials=2)
    with pytest.raises(ValueError):
        run_pairwise_experiment(g, "nope", ["pairseed"], trials=2)


# --- standard link prediction ----------------------------------------------------


def test_linkpred_identical_method_zero_distance():
    g = small_gpa(steps=400)

    def clone_baseline(ctx):
        return ctx.singles([ctx.node])[ctx.node]

    res = run_standard_linkpred(
        g, num_nodes=10, methods=["single", ("clone", clone_baseline)], rng_seed=4
    )
    by = {r.method: r for r in res.summary}
    assert by["clone"].mean_delta_vs_baseline == pytest.approx(0.0, abs=1e-15)
    assert by["clone"].mean_dist_to_diag == pytest.approx(0.0, abs=1e-15)


def test_linkpred_custom_baseline_is_not_doubled():
    # a custom method named "single" is the baseline; none is added beside it
    g = small_gpa(steps=400)

    def clone_baseline(ctx):
        return ctx.singles([ctx.node])[ctx.node]

    res = run_standard_linkpred(g, num_nodes=10, methods=[("single", clone_baseline), "oracle"], rng_seed=4)
    ref = run_standard_linkpred(g, num_nodes=10, methods=["single", "oracle"], rng_seed=4)
    assert res.summary == ref.summary and res.nodes == ref.nodes


def test_linkpred_oracle_perfect():
    g = small_gpa(steps=400)
    res = run_standard_linkpred(g, num_nodes=10, methods=["single", "oracle"], rng_seed=4)
    aucs = [r.auc for r in res.nodes if r.method == "oracle"]
    assert aucs and all(a == 1.0 for a in aucs)


def test_linkpred_sum_equals_weighted_star_seed():
    g = small_gpa(steps=300)
    split = split_holdout(g, 0.2, np.random.SeedSequence(4).spawn(1)[0])
    train = split.train
    node = int(np.argmax(train.degrees))
    vecs = [pair_seeded_pagerank(train, node, int(j)) for j in train.neighbors(node)]
    agg = np.sum(vecs, axis=0)
    agg = agg / agg.sum()
    direct = pagerank(train, oracles.weighted_star_seed(train, node))
    assert np.abs(agg - direct).max() <= 1e-9


def test_linkpred_solves_each_column_once(monkeypatch):
    # The built-in methods declare what they read, so the harness solves the
    # scored nodes' singles in one batch, then their neighbours in blocks:
    # each node of the scored closed neighbourhoods once, none of the
    # skipped nodes', and no lone pagerank solve. Only the scored nodes'
    # vectors stay cached. max and max-singles equal their definitions on
    # lone solves and the scores of a context solved when it asks; star and
    # sum score with the node's single vector, and get the AUCs of lone
    # solves of their own star and weighted-star seeds.
    import trilink.diffusion as dif
    import trilink.experiments as ex

    lone, solved = [], []
    names = ("single", "sum", "max", "max-singles", "star", "trpr")
    seen: dict[str, list] = {name: [] for name in names if name != "trpr"}
    batch = ex.pagerank_many
    monkeypatch.setattr(dif, "pagerank", lambda *a, **kw: lone.append(a) or pagerank(*a, **kw))
    monkeypatch.setattr(ex, "pagerank_many",
                        lambda g, s, p: solved.append(s.indices.tolist()) or batch(g, s, p))

    def recording(name):
        fn = ex.LINKPRED_METHODS[name]

        def rec(ctx):
            vals = fn(ctx)
            seen[name].append((ctx, vals))
            return vals

        rec.__dict__.update(vars(fn))  # keep what fn declares
        return rec

    for name in seen:
        monkeypatch.setitem(ex.LINKPRED_METHODS, name, recording(name))
    res = run_standard_linkpred(small_gpa(steps=400), num_nodes=30, methods=names, rng_seed=4)
    monkeypatch.undo()
    assert lone == []

    train = seen["single"][0][0].train
    scored = [ctx.node for ctx, _ in seen["single"]]
    cohort = np.lexsort((np.arange(train.n), -train.degrees))[:30]
    assert len(cohort) - len(scored) == res.metadata["nodes_skipped_no_positives"]

    def closed_singles(nodes):
        return {j for i in nodes for j in [i, *train.neighbors(i).tolist()]}

    columns = [j for block in solved for j in block]
    assert len(closed_singles(cohort)) > len(closed_singles(scored))
    assert len(columns) == len(set(columns)) == len(closed_singles(scored))
    assert set(columns) == closed_singles(scored)
    assert solved[0] == scored and len(solved) > 2
    assert all(len(block) <= dif._block_width(train.n) for block in solved[1:])
    cache = seen["single"][0][0].cache
    assert {key for key in cache if isinstance(key, int)} == set(scored)

    for name in ("max", "max-singles"):
        assert [ctx.node for ctx, _ in seen[name]] == scored
        for ctx, vals in seen[name]:
            x_i = pagerank(train, make_seed(train, "single", ctx.node))
            x_nbrs = [pagerank(train, make_seed(train, "single", j)) for j in train.neighbors(ctx.node)]
            if name == "max":
                want = np.maximum.reduce([(x_i + x_j) / 2.0 for x_j in x_nbrs])
            else:
                want = np.maximum.reduce([x_i, *x_nbrs])
            assert np.array_equal(vals, want)
            lazy = LINKPRED_METHODS[name](TrialContext(train, ctx.params, node=ctx.node))
            assert np.array_equal(vals, lazy)
    reported = {(r.node, r.method): r.auc for r in res.nodes}
    seeds = {"star": lambda i: make_seed(train, "star", i),
             "sum": lambda i: oracles.weighted_star_seed(train, i)}
    for name, seed in seeds.items():
        assert [ctx.node for ctx, _ in seen[name]] == scored
        for (ctx, vals), (_, single) in zip(seen[name], seen["single"]):
            assert np.array_equal(vals, single)
            direct = pagerank(train, seed(ctx.node))
            assert auc(direct, ctx.truth, ctx.candidates) == reported[train.labels[ctx.node], name]


def test_linkpred_neighbourhood_max_holds_no_neighbour_vectors(monkeypatch):
    # max and max-singles read every neighbour's single vector of 100 cohort
    # nodes, about 900 vectors here. The run holds two cohort x n arrays
    # (the cohort's singles and one running max per node), one block solve
    # (its output and three n x width arrays) and less than 1 MiB of graphs
    # and bookkeeping, never the neighbours' vectors. The contexts hold no
    # candidates when the vectors are solved: each node's are listed when it
    # is scored.
    import tracemalloc

    import trilink.diffusion as dif
    import trilink.experiments as ex

    held = []
    solve = ex._solve_declared

    def recording(named, contexts):
        held.append(sum(ctx.candidates.nbytes for ctx in contexts if ctx.candidates is not None))
        return solve(named, contexts)

    monkeypatch.setattr(ex, "_solve_declared", recording)
    g = generate_gpa(GpaParams(p_edge=0.5, steps=3000, rng_seed=1))
    tracemalloc.start()
    try:
        res = run_standard_linkpred(g, num_nodes=100, methods=["max", "max-singles"], rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, cohort = res.metadata["train_nodes"], res.metadata["cohort_size"]
    assert cohort == 100
    assert held == [0]
    assert peak < 2 * 8 * cohort * n + 4 * 8 * n * dif._block_width(n) + 2**20


def test_linkpred_rows_and_cohort_shrink():
    g = small_gpa(steps=200)
    res = run_standard_linkpred(g, num_nodes=10_000, rng_seed=3)
    assert res.metadata["cohort_size"] < 10_000
    methods = {r.method for r in res.nodes}
    assert methods == {"single", "sum", "max", "star", "trpr"}
    # per node, every method reports once
    from collections import Counter

    counts = Counter(r.node for r in res.nodes)
    assert set(counts.values()) == {5}


def test_linkpred_thread_independent():
    g = small_gpa(steps=300)
    a = run_standard_linkpred(g, num_nodes=8, rng_seed=11)
    b = run_standard_linkpred(g, num_nodes=8, rng_seed=11)
    assert a.nodes == b.nodes
    assert a.summary == b.summary


# --- method output validation ----------------------------------------------


def _short_output(ctx):
    return np.zeros(ctx.train.n - 1)


def _nan_output(ctx):
    vals = np.zeros(ctx.train.n)
    vals[0] = np.nan
    return vals


def test_pairwise_rejects_wrong_length_output():
    g = small_gpa(steps=300)
    with pytest.raises(ValueError, match="'short'.*shape"):
        run_pairwise_experiment(g, "holdout", ["pairseed", ("short", _short_output)], trials=2)


def test_pairwise_rejects_nan_output():
    g = small_gpa(steps=300)
    with pytest.raises(ValueError, match="'nan'.*NaN"):
        run_pairwise_experiment(g, "holdout", ["pairseed", ("nan", _nan_output)], trials=2)


def test_linkpred_rejects_wrong_length_output():
    g = small_gpa(steps=300)
    with pytest.raises(ValueError, match="'short'.*shape"):
        run_standard_linkpred(g, num_nodes=3, methods=["single", ("short", _short_output)])


def test_linkpred_rejects_nan_output():
    g = small_gpa(steps=300)
    with pytest.raises(ValueError, match="'nan'.*NaN"):
        run_standard_linkpred(g, num_nodes=3, methods=["single", ("nan", _nan_output)])


# --- the shared single-seed basis ---------------------------------------------


@pytest.mark.parametrize("protocol", ["holdout", "loeto"])
def test_pairseed_rows_independent_of_other_methods(protocol, monkeypatch):
    import trilink.experiments as ex

    scored = []
    pairseed = ex.PAIRWISE_METHODS["pairseed"]

    def recording(ctx):
        vals = pairseed(ctx)
        scored.append((ctx.train, ctx.u, ctx.v, vals))
        return vals

    monkeypatch.setitem(ex.PAIRWISE_METHODS, "pairseed", recording)
    g = small_gpa(steps=400)
    kw = dict(k_values=(5, 25), trials=12, rng_seed=21)
    alone = run_pairwise_experiment(g, protocol, ["pairseed"], **kw)
    full = run_pairwise_experiment(g, protocol, DEFAULT_PAIRWISE_METHODS, **kw)
    assert alone.details == [r for r in full.details if r.method == "pairseed"]
    assert len(scored) == 24
    # Same scores either way: the mean of the endpoints' lone pagerank solves.
    for train, u, v, vals in scored:
        x_u = pagerank(train, make_seed(train, "single", u))
        x_v = pagerank(train, make_seed(train, "single", v))
        assert np.array_equal(vals, (x_u + x_v) / 2.0)


def test_pairseed_bits_independent_of_how_singles_were_requested(monkeypatch):
    # A custom method that asks for both endpoints in one call, ahead of
    # pairseed, must not change pairseed's vectors.
    import trilink.experiments as ex

    scored: dict[str, list] = {"alone": [], "after": []}
    pairseed = ex.PAIRWISE_METHODS["pairseed"]
    g = small_gpa(steps=3000)
    kw = dict(k_values=(5,), trials=30, rng_seed=4)

    def both_endpoints(ctx):
        vecs = ctx.singles([ctx.u, ctx.v])
        return vecs[ctx.u] + vecs[ctx.v]

    def recording(tag):
        def fn(ctx):
            vals = pairseed(ctx)
            scored[tag].append(vals)
            return vals

        return fn

    for tag, methods in (("alone", ["pairseed"]), ("after", [("both", both_endpoints), "pairseed"])):
        monkeypatch.setitem(ex.PAIRWISE_METHODS, "pairseed", recording(tag))
        run_pairwise_experiment(g, "holdout", methods, **kw)
    assert len(scored["alone"]) == len(scored["after"]) == 30
    for a, b in zip(scored["alone"], scored["after"]):
        assert np.array_equal(a, b)


def _count_batches(monkeypatch) -> list[int]:
    # The column count of each pagerank_many call the harnesses make.
    import trilink.experiments as ex

    batches = []
    batch = ex.pagerank_many
    monkeypatch.setattr(ex, "pagerank_many", lambda g, s, p: batches.append(s.shape[1]) or batch(g, s, p))
    return batches


def _timestamped(g):
    # g's edges as a timestamped edge list, in a shuffled time order.
    lab = g.labels
    edges = g.edge_array()[np.random.default_rng(5).permutation(g.m)]
    return EdgeList(tuple((lab[u], lab[v]) for u, v in edges.tolist()), tuple(range(g.m)))


@pytest.mark.parametrize("protocol", ["holdout", "temporal", "loeto"])
def test_planned_solves_score_as_lazy_ones(protocol, monkeypatch):
    # The built-in methods by name have their seeds solved in one planned
    # batch; the same functions as custom (name, fn) pairs are solved when
    # they ask. Both give the same rows and trials.
    import trilink.experiments as ex

    g = small_gpa(steps=400)
    data = _timestamped(g) if protocol == "temporal" else g
    names = ["ss", "pairseed", "ss-high", "max", "mul", "js", "oracle"]
    wrapped = [(name, lambda ctx, fn=ex.PAIRWISE_METHODS[name]: fn(ctx)) for name in names]
    kw = dict(k_values=(5, 25), trials=12, rng_seed=21)
    batches = _count_batches(monkeypatch)
    planned = run_pairwise_experiment(data, protocol, names, **kw)
    planned_batches = list(batches)
    lazy = run_pairwise_experiment(data, protocol, wrapped, **kw)
    assert len(batches) - len(planned_batches) > len(planned_batches)
    assert planned.details == lazy.details
    assert planned.summary == lazy.summary
    assert planned.metadata == lazy.metadata


@pytest.mark.parametrize("protocol, allow_empty_truth",
                         [("holdout", False), ("holdout", True), ("loeto", False)])
def test_pairwise_solves_each_train_graphs_endpoints_in_one_batch(protocol, allow_empty_truth, monkeypatch):
    # holdout: one pagerank_many call on its train graph, one column per
    # distinct endpoint of the scored trials (a trial with empty truth is
    # not scored, so its endpoints are not solved). loeto: one two-column
    # call per trial.
    batches = _count_batches(monkeypatch)
    res = run_pairwise_experiment(small_gpa(steps=400), protocol, DEFAULT_PAIRWISE_METHODS, trials=40,
                                  rng_seed=7, allow_empty_truth=allow_empty_truth)
    if protocol == "loeto":
        assert batches == [2] * res.metadata["trials_completed"]
        return
    read = {x for r in res.details if r.truth_count for x in (r.seed_u, r.seed_v)}
    assert batches == [len(read)]
    assert any(r.truth_count == 0 for r in res.details) == allow_empty_truth


def test_builtin_under_another_name_is_planned(monkeypatch):
    # A method is planned by the seeds it carries, not by its name: the
    # pairseed built-in passed as ("mine", fn) is solved in one batch, one
    # column per distinct endpoint of the scored trials.
    batches = _count_batches(monkeypatch)
    res = run_pairwise_experiment(small_gpa(steps=400), "holdout", [("mine", PAIRWISE_METHODS["pairseed"])],
                                  trials=40, rng_seed=7)
    read = {x for r in res.details if r.truth_count for x in (r.seed_u, r.seed_v)}
    assert batches == [len(read)]


DECLARED = [
    ("pairwise", "pairseed"), ("pairwise", "ss"), ("pairwise", "ss-high"), ("pairwise", "max"),
    ("pairwise", "mul"), ("linkpred", "single"), ("linkpred", "sum"), ("linkpred", "max"),
    ("linkpred", "max-singles"), ("linkpred", "star"),
]
TABLES = {"pairwise": PAIRWISE_METHODS, "linkpred": LINKPRED_METHODS}


def test_seeds_are_declared_for_every_pagerank_builtin():
    carried = [(registry, name) for registry, methods in TABLES.items()
               for name, fn in methods.items() if hasattr(fn, "seeds")]
    assert sorted(carried) == sorted(DECLARED)


def _declared_context_fields(registry: str, train, split) -> dict:
    # A holdout trial's seed edge (pairwise) or the top-degree cohort node
    # with held-out partners (linkpred).
    if registry == "pairwise":
        policy = EvalPolicy()
        u, v = _eligible_seed_edges(split, policy)[0]
        return dict(u=u, v=v, truth=ground_truth(split, (u, v), policy), candidates=candidate_nodes(train, u, v))
    node = next(int(i) for i in np.argsort(-train.degrees, kind="stable") if split.test_graph.degree(i))
    return dict(node=node, truth=frozenset(split.test_graph.neighbors(node).tolist()))


@pytest.mark.parametrize("registry, name", DECLARED)
def test_declared_seeds_are_the_seeds_read(registry, name, monkeypatch):
    # After the planned solves, scoring a built-in solves nothing more and
    # reads exactly the seeds and the maxima it declares, and the cache
    # holds nothing else: a max keeps none of the vectors folded into it.
    # Its scores equal those of an unplanned context, solved when it asks.
    import trilink.experiments as ex

    split = split_holdout(small_gpa(steps=400), 0.3, 5)
    train = split.train
    fn = TABLES[registry][name]
    kw = _declared_context_fields(registry, train, split)
    ctx = TrialContext(train, DiffusionParams(), **kw)
    ex._solve_declared([(name, fn)], [ctx])
    declared = fn.seeds(ctx)
    groups = [fn.maxed(ctx)] if hasattr(fn, "maxed") else []
    assert set(ctx.cache) == {*declared, *(("max", *group) for group in groups)}
    assert (registry == "linkpred" and name in ("max", "max-singles")) == bool(groups)

    batches = _count_batches(monkeypatch)
    read, read_groups = [], []
    singles, maxima = TrialContext.singles, TrialContext.maxima

    def recording(self, nodes):
        nodes = list(nodes)
        read.extend(nodes)
        return singles(self, nodes)

    def recording_maxima(self, groups):
        groups = list(groups)
        read_groups.extend(groups)
        return maxima(self, groups)

    monkeypatch.setattr(TrialContext, "singles", recording)
    monkeypatch.setattr(TrialContext, "maxima", recording_maxima)
    planned = fn(ctx)
    assert batches == [] and read == declared and read_groups == groups
    monkeypatch.undo()

    lazy = fn(TrialContext(train, DiffusionParams(), **kw))
    assert np.array_equal(planned, lazy)


def test_triangles_enumerated_once_per_train_graph(monkeypatch):
    import trilink.experiments as ex

    calls = []

    def counting(graph):
        calls.append(graph.n)
        return enumerate_triangles(graph)

    monkeypatch.setattr(ex, "enumerate_triangles", counting)
    g = small_gpa(steps=400)
    run_pairwise_experiment(g, "holdout", ["trpr", "trprw"], trials=15, rng_seed=6)
    assert len(calls) == 1
    calls.clear()
    res = run_pairwise_experiment(g, "loeto", ["trpr", "trprw"], trials=15, rng_seed=6)
    # loeto lists the parent's triangles once; each trial takes its own from
    # that list.
    assert len(calls) == 1
    assert res.metadata["trials_completed"] == 15


def test_context_singles_bit_equal_to_pagerank():
    g = small_gpa(steps=400)
    train = split_holdout(g, 0.3, 5).train
    params = DiffusionParams(alpha=0.8)
    ctx = TrialContext(train, params)
    for i in (0, 7, train.n // 2, train.n - 1):
        want = pagerank(train, make_seed(train, "single", i), params)
        assert np.array_equal(ctx.singles([i])[i], want)


def test_context_solves_each_seed_once(monkeypatch):
    import trilink.experiments as ex

    batches = []
    batch = ex.pagerank_many
    monkeypatch.setattr(ex, "pagerank_many", lambda g, s, p: batches.append(s.shape[1]) or batch(g, s, p))
    train = split_holdout(small_gpa(steps=400), 0.3, 5).train
    ctx = TrialContext(train, DiffusionParams())
    vecs = ctx.singles([3, 3])
    assert batches == [1] and list(vecs) == [3]
    assert list(ctx.singles([5, 3, 7, 5])) == [5, 3, 7]
    assert batches == [1, 2]
    assert ctx.singles([3])[3] is vecs[3]
