from __future__ import annotations

import numpy as np
import pytest

from trilink import (
    DEFAULT_PAIRWISE_METHODS,
    DataError,
    DiffusionParams,
    EdgeList,
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
    trpr,
)
from trilink.experiments import (
    CANDIDATE_RULES,
    LINKPRED_METHODS,
    PAIRWISE_METHODS,
    TrialContext,
    _best_truth_rank,
    _eligible_seed_edges,
)
from trilink.local import LOCAL_METHODS
from trilink.triangles import subgraph_triangles, triangles_per_edge

import oracles


def small_gpa(seed=2, steps=500, p=0.6):
    return generate_gpa(GpaParams(p_edge=p, steps=steps, rng_seed=seed))


# --- policy ------------------------------------------------------------------


def test_policy_validation_and_rule():
    # The truth mode is the whole evaluation policy: ground_truth refuses an
    # unknown mode, and the harness refuses a top-k cutoff below 1.
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    with pytest.raises(ValueError, match="truth_mode must be 'and' or 'or'"):
        ground_truth(split, (0, 1), "xor")
    with pytest.raises(ValueError, match="k must be >= 1"):
        run_pairwise_experiment(small_gpa(steps=100), "holdout", ["pairseed"], k_values=(0, 5), trials=3)


@pytest.mark.parametrize("protocol", ["holdout", "temporal", "loeto"])
def test_harness_refuses_an_unknown_truth_mode_before_it_splits(protocol, monkeypatch):
    import trilink.experiments as ex

    def no_split(*args):
        raise AssertionError("split before the truth mode was checked")

    for name in ("split_holdout", "split_temporal", "split_loeto", "build_graph"):
        monkeypatch.setattr(ex, name, no_split)
    g = small_gpa(steps=100)
    pairs = tuple((g.labels[u], g.labels[v]) for u, v in g.edge_array().tolist())
    data = EdgeList(pairs, tuple(range(len(pairs)))) if protocol == "temporal" else g
    with pytest.raises(ValueError, match="truth_mode must be 'and' or 'or'"):
        run_pairwise_experiment(data, protocol, ["pairseed"], trials=3, truth_mode="xor")


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
    tr_ix = split.train.label_index
    assert ground_truth(split, (tr_ix[1], tr_ix[2]), "and").tolist() == []


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
    assert np.array_equal(got.test_rows, want.test_rows) and np.array_equal(got.to_train, want.to_train)
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
    got = subgraph_triangles(ts, split.to_train, split.train)
    want = enumerate_triangles(split.train)
    assert got.n == want.n == split.train.n
    assert got.triples.dtype == np.int64
    assert got.triples.flags.f_contiguous and not got.triples.flags.writeable
    assert np.array_equal(got.triples, want.triples)
    return split, got


def test_loeto_triangles_from_parent_list():
    for gseed in (2, 3, 4):
        g = small_gpa(seed=gseed, steps=300)
        ts = enumerate_triangles(g)
        seeds = g.edge_array()[triangles_per_edge(g, ts) > 0].tolist()
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
                 for u, v in g.edge_array()[triangles_per_edge(g, ts) > 0].tolist()]
        assert min(sizes) < g.n


def test_loeto_derives_triangles_only_when_a_method_reads_them(monkeypatch):
    import trilink.experiments as ex

    enumerated, derived = [], []

    def enumerating(graph):
        enumerated.append(graph.n)
        return enumerate_triangles(graph)

    def deriving(ts, to_sub, sub):
        derived.append(sub.n)
        return subgraph_triangles(ts, to_sub, sub)

    monkeypatch.setattr(ex, "enumerate_triangles", enumerating)
    monkeypatch.setattr(ex, "subgraph_triangles", deriving)
    g = small_gpa(steps=400)
    run_pairwise_experiment(g, "loeto", ["pairseed"], trials=10, rng_seed=6)
    assert enumerated == [g.n] and derived == []
    enumerated.clear()
    res = run_pairwise_experiment(g, "loeto", ["trpr", "trprw"], trials=10, rng_seed=6)
    assert enumerated == [g.n] and len(derived) == res.metadata["trials_completed"]
    # the reports equal those of a run that enumerates every train graph
    monkeypatch.setattr(ex, "subgraph_triangles", lambda ts, to_sub, sub: enumerate_triangles(sub))
    fresh = run_pairwise_experiment(g, "loeto", ["trpr", "trprw"], trials=10, rng_seed=6)
    assert fresh.details == res.details and fresh.metadata == res.metadata


# --- ground truth and candidates ---------------------------------------------


def holdout_like_split(train_pairs, test_pairs):
    train = largest_connected_component(build_graph(EdgeList(tuple(train_pairs))))
    labels = tuple(dict.fromkeys(w for pair in [*train_pairs, *test_pairs] for w in pair))
    return oracles.pack_split(labels, train, test_pairs)


def test_ground_truth_and_mode():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    ix = split.train.label_index
    got = ground_truth(split, (ix[1], ix[2]), "and")
    assert got.tolist() == [ix[4]]


def test_ground_truth_or_mode():
    split = holdout_like_split([(1, 2), (2, 4), (4, 3)], [(1, 4)])
    ix = split.train.label_index
    assert ground_truth(split, (ix[1], ix[2]), "or").tolist() == [ix[4]]
    assert ground_truth(split, (ix[1], ix[2]), "and").tolist() == []


def test_ground_truth_or_requires_other_edge_in_train():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4)])
    ix = split.train.label_index
    # (2,4) is neither in train nor test
    assert ground_truth(split, (ix[1], ix[2]), "or").tolist() == []


def test_eligible_seed_edges_equal_the_per_edge_ground_truth():
    # One sparse product lists the train edges with nonempty ground truth, in
    # edge_array order, since trials index into the list. The temporal split
    # holds out a self-loop record, which ground truth never counts.
    for split in _eligibility_splits():
        for mode in ("and", "or"):
            want = [(u, v) for u, v in split.train.edge_array().tolist() if len(ground_truth(split, (u, v), mode))]
            assert want and [tuple(r) for r in _eligible_seed_edges(split, mode).tolist()] == want


def _eligibility_splits() -> list:
    g = small_gpa(seed=4, steps=600)
    pairs = [(g.labels[u], g.labels[v]) for u, v in g.edge_array()] + [(g.labels[0], g.labels[0])]
    timed = EdgeList(tuple(pairs), tuple(np.random.default_rng(3).permutation(g.m).tolist()) + (g.m,))
    return [split_holdout(g, 0.3, 1), split_holdout(g, 0.3, 2), split_temporal(timed, 0.7)]


def test_truth_nodes_are_candidates_under_the_modes_rule():
    # The candidate rule follows from the truth mode because, for every
    # eligible seed edge, it strikes none of that edge's truth nodes.
    for split in _eligibility_splits():
        for mode, rule in CANDIDATE_RULES.items():
            for u, v in _eligible_seed_edges(split, mode).tolist():
                truth = ground_truth(split, (u, v), mode)
                assert set(truth.tolist()) <= set(candidate_nodes(split.train, u, v, rule).tolist()), (mode, u, v)


def _truth_oracle_splits() -> list:
    g = small_gpa(seed=5, steps=200)
    lab = g.labels
    splits = [split_holdout(g, 0.3, seed) for seed in (1, 2)]
    tri = g.edge_array()[triangles_per_edge(g, enumerate_triangles(g)) > 0].tolist()
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
            want = {e: oracles.truth_oracle(split, e, mode) for e in edges + others}
            assert {e: ground_truth(split, e, mode).tolist() for e in want} == {e: sorted(t) for e, t in want.items()}
            assert [tuple(r) for r in _eligible_seed_edges(split, mode).tolist()] == [e for e in edges if want[e]]


@pytest.mark.parametrize("mode", ["and", "or"])
def test_ground_truth_is_a_read_only_sorted_int64_array(mode):
    # Sorted and without repeats across both pairs of 'or' truth, and
    # read-only, so a method that writes to ctx.truth fails loudly.
    lengths = []
    for split in _truth_oracle_splits():
        for u, v in split.train.edge_array().tolist():
            truth = ground_truth(split, (u, v), mode)
            assert truth.dtype == np.int64 and truth.ndim == 1 and not truth.flags.writeable
            assert np.all(np.diff(truth) > 0)
            lengths.append(len(truth))
    assert max(lengths) >= 2 and min(lengths) == 0


@pytest.mark.parametrize("mode", ["and", "or"])
@pytest.mark.parametrize("seed_edge", [(9, 0), (-1, 0), (0, -1)])
def test_ground_truth_rejects_out_of_range_seed_nodes(mode, seed_edge):
    split = holdout_like_split([(1, 2), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    assert split.train.n == 4
    with pytest.raises(IndexError):
        ground_truth(split, seed_edge, mode)


def test_loeto_refuses_or_truth():
    # loeto holds out both wedge edges of every triangle on the seed edge, so
    # no node keeps one of them in train and 'or' truth is always empty.
    g = small_gpa(steps=300)
    for u, v in g.edge_array()[triangles_per_edge(g, enumerate_triangles(g)) > 0][::10].tolist():
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


def test_candidate_rule_is_required(couple):
    # No rule suits both truth modes: the 'and' rule strikes every 'or'
    # truth node, so a caller names it, as CANDIDATE_RULES gives it.
    ix = couple.label_index
    with pytest.raises(TypeError):
        candidate_nodes(couple, ix["b1"], ix["b2"])


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
    truth = ground_truth(split, (u, v), "and")
    cands = candidate_nodes(g, u, v, CANDIDATE_RULES["and"])
    assert truth.tolist() == [g.label_index[5]] and len(cands) == 3
    for name, x in outs.items():
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (g.n,), name
        assert _best_truth_rank(x, cands, truth) >= 1, name
        assert 0.0 <= auc(x, truth, cands) <= 1.0, name
        rho, tau = rank_stability(x, outs["pagerank"])
        assert -1.0 <= rho <= 1.0 and -1.0 <= tau <= 1.0, name


def _sp_at_1(values, split, seed_edge) -> tuple[int, int]:
    # A harness trial's scoring step at k = 1 under 'and' truth: the hit
    # indicator and the best truth rank.
    truth = ground_truth(split, seed_edge, "and")
    best = _best_truth_rank(values, candidate_nodes(split.train, *seed_edge, CANDIDATE_RULES["and"]), truth)
    return int(0 < best <= 1), best


def test_success_probability_examples():
    split = holdout_like_split([(1, 2), (2, 3), (3, 4), (4, 5)], [(1, 5), (2, 5)])
    ix = split.train.label_index
    vals = np.zeros(split.train.n)
    vals[ix[5]] = 1.0
    assert _sp_at_1(vals, split, (ix[1], ix[2])) == (1, 1)
    # push the truth below the cutoff
    vals2 = np.zeros(split.train.n)
    vals2[ix[4]] = 1.0
    sp, best = _sp_at_1(vals2, split, (ix[1], ix[2]))
    assert sp == 0
    assert best > 1


def test_success_probability_js_composition():
    # hold out the wedge over the triangle edge; JS puts the pendant first
    split = holdout_like_split([(1, 2), (1, 3), (2, 3), (3, 4)], [(1, 4), (2, 4)])
    tix = split.train.label_index
    sv = score_all_nodes(split.train, (tix[1], tix[2]), "js")
    assert _sp_at_1(sv, split, (tix[1], tix[2])) == (1, 1)


def test_sp_matches_oracle_random():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        values = rng.random(n)
        cands = np.array(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)))
        truth = frozenset(int(x) for x in rng.choice(cands, size=int(rng.integers(1, len(cands) + 1)), replace=False))
        k = int(rng.integers(1, 8))
        best = _best_truth_rank(values, cands, np.array(sorted(truth), dtype=np.int64))
        want_best, want_hit = oracles.sp_oracle(values, cands, truth, k)
        assert best == want_best
        assert int(0 < best <= k) == want_hit


def test_sp_tie_break_ascending_index():
    values = np.array([0.5, 0.5, 0.5, 0.5])
    cands = np.array([0, 1, 2, 3])
    assert _best_truth_rank(values, cands, np.array([2])) == 3


def test_best_truth_rank_refuses_a_python_set():
    # np.isin reads a set as one object and would find no truth: best rank -1.
    values, cands = np.array([0.5, 0.5, 0.5, 0.5]), np.array([0, 1, 2, 3])
    for truth in ({2}, frozenset({2})):
        with pytest.raises(ValueError, match="integer arrays"):
            _best_truth_rank(values, cands, truth)


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
        return ctx.singles([ctx.u])[ctx.u]

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
        return ctx.singles([ctx.u])[ctx.u]

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
    # The built-in methods declare what they read, so the harness solves, in
    # one batch, the scored nodes' singles that some neighbourhood lists,
    # then the neighbours in blocks, then the other scored nodes' singles in
    # blocks: each node of the scored closed neighbourhoods once, none of the
    # skipped nodes', and no lone pagerank solve. Each scored node's vector
    # is dropped once the node is scored, so none stays cached. max and
    # max-singles equal their definitions on lone solves and the scores of a
    # context solved when it asks; star and sum score with the node's single
    # vector, and get the AUCs of lone solves of their own star and
    # weighted-star seeds.
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
    scored = [ctx.u for ctx, _ in seen["single"]]
    cohort = np.lexsort((np.arange(train.n), -train.degrees))[:30]
    assert len(cohort) - len(scored) == res.metadata["nodes_skipped_no_positives"]

    def closed_singles(nodes):
        return {j for i in nodes for j in [i, *train.neighbors(i).tolist()]}

    columns = [j for block in solved for j in block]
    assert len(closed_singles(cohort)) > len(closed_singles(scored))
    assert len(columns) == len(set(columns)) == len(closed_singles(scored))
    assert set(columns) == closed_singles(scored)
    grouped = {j for i in scored for j in train.neighbors(i).tolist()}
    assert solved[0] == [i for i in scored if i in grouped] and len(solved) > 2
    assert all(len(block) <= dif._block_width(train.n) for block in solved[1:])
    cache = seen["single"][0][0].cache
    assert not any(isinstance(key, int) for key in cache)

    for name in ("max", "max-singles"):
        assert [ctx.u for ctx, _ in seen[name]] == scored
        for ctx, vals in seen[name]:
            x_i = pagerank(train, make_seed(train, "single", ctx.u))
            x_nbrs = [pagerank(train, make_seed(train, "single", j)) for j in train.neighbors(ctx.u)]
            if name == "max":
                want = np.maximum.reduce([(x_i + x_j) / 2.0 for x_j in x_nbrs])
            else:
                want = np.maximum.reduce([x_i, *x_nbrs])
            assert np.array_equal(vals, want)
            lazy = LINKPRED_METHODS[name](TrialContext(train, ctx.params, u=ctx.u, v=ctx.u))
            assert np.array_equal(vals, lazy)
    reported = {(r.node, r.method): r.auc for r in res.nodes}
    seeds = {"star": lambda i: make_seed(train, "star", i),
             "sum": lambda i: oracles.weighted_star_seed(train, i)}
    for name, seed in seeds.items():
        assert [ctx.u for ctx, _ in seen[name]] == scored
        for (ctx, vals), (_, single) in zip(seen[name], seen["single"]):
            assert np.array_equal(vals, single)
            direct = pagerank(train, seed(ctx.u))
            assert auc(direct, ctx.truth, ctx.candidates) == reported[train.labels[ctx.u], name]


def test_linkpred_neighbourhood_max_holds_no_neighbour_vectors(monkeypatch):
    # max and max-singles read every neighbour's single vector of 100 cohort
    # nodes, about 900 vectors here. The run holds at most two cohort x n
    # arrays (the cohort's singles and one running max per node), one block
    # solve (its output and three n x width arrays) and less than 1 MiB of
    # graphs and bookkeeping, never the neighbours' vectors. A node's
    # candidates are listed only while it is scored: right before its
    # methods are called, and after every solve the maxima need.
    import tracemalloc

    import trilink.diffusion as dif
    import trilink.experiments as ex

    events = []
    listing, batch = ex.candidate_nodes, ex.pagerank_many
    monkeypatch.setattr(ex, "candidate_nodes",
                        lambda g, u, v, rule: events.append(("list", u)) or listing(g, u, v, rule))
    monkeypatch.setattr(ex, "pagerank_many", lambda g, s, p: events.append(("solve", None)) or batch(g, s, p))

    def recording(name):
        fn = ex.LINKPRED_METHODS[name]

        def rec(ctx):
            events.append(("score", ctx.u))
            return fn(ctx)

        rec.__dict__.update(vars(fn))  # keep what fn declares
        return rec

    for name in ("max", "max-singles"):
        monkeypatch.setitem(ex.LINKPRED_METHODS, name, recording(name))
    g = generate_gpa(GpaParams(p_edge=0.5, steps=3000, rng_seed=1))
    tracemalloc.start()
    try:
        res = run_standard_linkpred(g, num_nodes=100, methods=["max", "max-singles"], rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, cohort = res.metadata["train_nodes"], res.metadata["cohort_size"]
    assert cohort == 100
    assert peak < 2 * 8 * cohort * n + 4 * 8 * n * dif._block_width(n) + 2**20
    # The maxima are solved before any node's candidates are listed; the
    # solves after that (blocks of the singles that no neighbourhood lists)
    # are left out of the order checked last.
    first = next(k for k, (kind, _) in enumerate(events) if kind == "list")
    assert events[0][0] == "solve" and all(kind == "solve" for kind, _ in events[:first])
    scored = [(kind, node) for kind, node in events[first:] if kind != "solve"]
    nodes = [node for kind, node in scored if kind == "list"]
    assert len(nodes) == len(set(nodes)) == cohort - res.metadata["nodes_skipped_no_positives"]
    assert scored == [event for i in nodes for event in (("list", i), ("score", i), ("score", i))]


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


def test_holdout_holds_the_live_vectors_plus_one_block():
    # A declared vector is solved when the first trial that declares it is
    # scored, in a block of _block_width(n) columns in first-use order, and
    # dropped after the last trial that declares it. So while trial t is
    # scored, the cache holds the vectors declared both at or before t and
    # at or after t, plus at most one block solved ahead, not every vector
    # of the run.
    from trilink.diffusion import _block_width

    seen = []

    def probe(ctx):
        seen.append((ctx.u, ctx.v, sum(isinstance(key, int) for key in ctx.cache)))
        return np.zeros(ctx.train.n)

    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=20000, rng_seed=1)))
    res = run_pairwise_experiment(g, "holdout", ["pairseed", ("probe", probe)], k_values=(5,), trials=200,
                                  rng_seed=1)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for t, (u, v, _) in enumerate(seen):
        for x in (u, v):
            first.setdefault(x, t)
            last[x] = t
    live = [sum(first[x] <= t <= last[x] for x in first) for t in range(len(seen))]
    held = [h for _, _, h in seen]
    width = _block_width(res.metadata["train_nodes"])
    assert len(seen) == 200
    assert all(h <= n_live + width for h, n_live in zip(held, live))
    assert max(held) <= max(live) + width < len(first)


def test_loeto_keeps_one_trial_alive(couple, monkeypatch):
    # Each loeto trial has its own train graph, cache and vectors. When the
    # next split is built, no earlier split's train graph is alive, whether
    # it was scored or discarded (the couple graph's hub edge is): neither
    # the harness nor the scoring loop holds a trial past its scoring.
    import weakref

    import trilink.experiments as ex

    trains = []

    def splitting(g, seed_edge):
        assert all(ref() is None for ref in trains)
        split = split_loeto(g, seed_edge)
        trains.append(weakref.ref(split.train))
        return split

    monkeypatch.setattr(ex, "split_loeto", splitting)
    discards = []
    for g in (small_gpa(steps=400), couple):
        trains.clear()
        res = run_pairwise_experiment(g, "loeto", [*DEFAULT_PAIRWISE_METHODS, "oracle"], trials=15, rng_seed=6)
        assert res.metadata["trials_completed"] == 15
        assert len(trains) == 15 + res.metadata["discards"]
        discards.append(res.metadata["discards"])
    assert discards[-1] > 0


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
        u, v = _eligible_seed_edges(split, "and")[0].tolist()
        return dict(u=u, v=v, truth=ground_truth(split, (u, v), "and"), candidates=candidate_nodes(train, u, v, "either"))
    node = next(int(i) for i in np.argsort(-train.degrees, kind="stable") if split.test_graph.degree(i))
    return dict(u=node, v=node, truth=split.test_graph.neighbors(node))


@pytest.mark.parametrize("registry, name", DECLARED)
def test_declared_seeds_are_the_seeds_read(registry, name, monkeypatch):
    # When the scoring loop calls a built-in, what it declares is solved and
    # the cache holds nothing else: a max keeps none of the vectors folded
    # into it. The call solves nothing more and reads exactly the seeds and
    # the maxima it declares. Once the context is scored, its declared
    # vectors are dropped. Its scores equal those of an unplanned context,
    # solved when it asks.
    import trilink.experiments as ex

    split = split_holdout(small_gpa(steps=400), 0.3, 5)
    train = split.train
    fn = TABLES[registry][name]
    kw = _declared_context_fields(registry, train, split)
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

    calls = []

    def probe(ctx):
        before = len(batches), set(ctx.cache)
        read.clear()
        read_groups.clear()
        vals = fn(ctx)
        calls.append((before, len(batches), list(read), list(read_groups), fn.seeds(ctx),
                       [fn.maxed(ctx)] if hasattr(fn, "maxed") else []))
        return vals

    probe.__dict__.update(vars(fn))  # keep what fn declares
    monkeypatch.setattr(TrialContext, "singles", recording)
    monkeypatch.setattr(TrialContext, "maxima", recording_maxima)
    ctx = TrialContext(train, DiffusionParams(), **kw)
    [(scored, values)] = ex._score_contexts([(name, probe)], [ctx], "either", lambda x, cands, truth: x)
    monkeypatch.undo()

    [((solved, cached), after, read, read_groups, declared, groups)] = calls
    assert cached == {*declared, *(("max", *group) for group in groups)}
    assert (registry == "linkpred" and name in ("max", "max-singles")) == bool(groups)
    assert after == solved and read == declared and read_groups == groups
    assert set(scored.cache) == {("max", *group) for group in groups}

    lazy = fn(TrialContext(train, DiffusionParams(), **kw))
    assert np.array_equal(values[name], lazy)


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
