from __future__ import annotations

import math

import numpy as np
import pytest

from trilink import EdgeList, build_graph, score_all_nodes, top_k_indices
from trilink.local import LOCAL_METHODS

import oracles


def test_node_scores_disjoint_neighborhoods():
    # path a-b-c-d: neighborhoods of a and b are disjoint, so against the
    # edge (b, c) the MUL scores of a are zero; a shares b with c, so its
    # JS-MAX is js(a, c) = 1/2
    g = build_graph(EdgeList((("a", "b"), ("b", "c"), ("c", "d"))))
    ix = g.label_index
    nb = oracles.neighbor_sets(g)
    assert oracles.js_sets(nb[ix["a"]], nb[ix["b"]]) == 0.0
    assert oracles.aa_sets(g, nb[ix["a"]], nb[ix["b"]]) == 0.0
    e = (ix["b"], ix["c"])
    assert score_all_nodes(g, e, "js-mul")[ix["a"]] == 0.0
    assert score_all_nodes(g, e, "aa-mul")[ix["a"]] == 0.0
    assert score_all_nodes(g, e, "js-max")[ix["a"]] == pytest.approx(1 / 2)


def test_node_scores_triangle_pendant(triangle_pendant):
    ix = triangle_pendant.label_index
    nb = oracles.neighbor_sets(triangle_pendant)
    # against the edge (2, 3), node 1 scores js 1/3 with 2 (common neighbor
    # 3 of the union {1, 2, 3}) and 1/4 with 3 (common neighbor 2 of
    # {1, 2, 3, 4}); its AA scores are 1/log(3) with 2 (node 3 has degree 3)
    # and 1/log(2) with 3 (node 2 has degree 2)
    e = (ix[2], ix[3])
    assert oracles.js_sets(nb[ix[1]], nb[ix[2]]) == pytest.approx(1 / 3)
    assert oracles.aa_sets(triangle_pendant, nb[ix[1]], nb[ix[2]]) == pytest.approx(1 / math.log(3))
    assert score_all_nodes(triangle_pendant, e, "js-max")[ix[1]] == pytest.approx(1 / 3)
    assert score_all_nodes(triangle_pendant, e, "js-mul")[ix[1]] == pytest.approx(1 / 12)
    assert score_all_nodes(triangle_pendant, e, "aa-max")[ix[1]] == pytest.approx(1 / math.log(2))
    want = 1 / (math.log(2) * math.log(3))
    assert score_all_nodes(triangle_pendant, e, "aa-mul")[ix[1]] == pytest.approx(want)
    # pa against the edge (1, 2), whose neighborhood is {3}: degree(w) * 1
    pa = score_all_nodes(triangle_pendant, (ix[1], ix[2]), "pa")
    assert pa[ix[3]] == 3.0 and pa[ix[4]] == 1.0


def test_edge_scores_triangle_pendant(triangle_pendant):
    ix = triangle_pendant.label_index
    js = score_all_nodes(triangle_pendant, (ix[1], ix[2]), "js")
    assert js[ix[4]] == 1.0
    assert js[ix[3]] == 0.0
    assert js[ix[1]] == js[ix[2]] == -np.inf


def test_edge_scores_k2(k2):
    # empty edge neighborhood: everything is zero; but there is no third
    # node in K2, so check on a 2-component graph instead
    g = build_graph(EdgeList(((0, 1), (2, 3))))
    for method in ("js", "aa", "pa"):
        assert score_all_nodes(g, (0, 1), method)[2] == 0.0


def test_combined_scores(triangle_pendant):
    # MUL annihilates when either endpoint score is zero: on the path
    # 0-1-2-3, node 3 scores 1/2 against 1 but 0 against 0
    g2 = build_graph(EdgeList(((0, 1), (1, 2), (2, 3))))
    nb = oracles.neighbor_sets(g2)
    assert oracles.js_sets(nb[3], nb[0]) == 0.0
    assert oracles.js_sets(nb[3], nb[1]) == pytest.approx(1 / 2)
    assert score_all_nodes(g2, (0, 1), "js-mul")[3] == 0.0
    assert score_all_nodes(g2, (0, 1), "js-max")[3] == pytest.approx(1 / 2)
    ix = triangle_pendant.label_index
    e = (ix[1], ix[2])
    # AA-MAX: node 4 shares neighbor 3 with both endpoints
    aa_max = score_all_nodes(triangle_pendant, e, "aa-max")[ix[4]]
    assert aa_max == pytest.approx(1 / math.log(3))
    assert aa_max == pytest.approx(0.91024, abs=1e-5)
    with pytest.raises(ValueError):
        score_all_nodes(triangle_pendant, e, "pa-max")
    with pytest.raises(ValueError):
        score_all_nodes(triangle_pendant, e, "js-plus")


def test_score_all_nodes_two_node_graph(k2):
    # empty edge neighborhood: nothing to rank, endpoints are struck out
    for method in ("js", "aa", "pa", "js-mul", "aa-max"):
        vals = score_all_nodes(k2, (0, 1), method)
        assert vals.shape == (2,)
        assert np.isneginf(vals).all()


def test_score_all_nodes_sentinels(k5):
    sv = score_all_nodes(k5, (0, 1), "js")
    assert sv[0] == -np.inf and sv[1] == -np.inf
    top = top_k_indices(sv, 3)
    assert 0 not in top and 1 not in top


def test_score_all_nodes_ranking(triangle_pendant):
    ix = triangle_pendant.label_index
    sv = score_all_nodes(triangle_pendant, (ix[1], ix[2]), "js")
    assert sv[ix[4]] > sv[ix[3]]


def test_score_all_unknown_method(k5):
    with pytest.raises(ValueError):
        score_all_nodes(k5, (0, 1), "katz")


def test_symmetry_in_endpoints():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = oracles.random_graph(rng)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        for method in ("js", "aa", "pa", "js-max", "js-mul", "aa-max", "aa-mul"):
            a = score_all_nodes(g, (u, v), method)
            b = score_all_nodes(g, (v, u), method)
            assert np.allclose(a, b, atol=1e-12)


def test_ranges_and_pa_identity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = oracles.random_graph(rng)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        js = score_all_nodes(g, (u, v), "js")
        aa = score_all_nodes(g, (u, v), "aa")
        pa = score_all_nodes(g, (u, v), "pa")
        others = [w for w in range(g.n) if w not in (u, v)]
        size = len(oracles.edge_nbhd_sets(g, u, v))
        for w in others:
            assert 0.0 <= js[w] <= 1.0
            assert aa[w] >= 0.0
            assert pa[w] == g.degree(w) * size


def test_all_methods_match_set_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        g = oracles.random_graph(rng)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        for method in LOCAL_METHODS:
            dense = score_all_nodes(g, (u, v), method)
            for w in range(g.n):
                if w in (u, v):
                    assert dense[w] == -np.inf
                    continue
                # the -max and -mul oracles combine js_sets or aa_sets of w
                # against each endpoint's neighborhood
                want = oracles.local_oracle(g, w, u, v, method)
                assert dense[w] == pytest.approx(want, abs=1e-12)
                # js and pa divide and multiply exact integer counts, so
                # they have the oracle's bits
                if not method.startswith("aa"):
                    assert dense[w] == want


def test_edge_variant_reduces_to_node_score():
    # whenever the second neighborhood adds nothing, the edge neighborhood
    # collapses to the first endpoint's neighborhood minus the other endpoint
    rng = np.random.default_rng(41)
    seen = 0
    for _ in range(200):
        g = oracles.random_graph(rng)
        nb = oracles.neighbor_sets(g)
        for u in range(g.n):
            for v in range(g.n):
                if u == v or not nb[v] <= (nb[u] | {u}):
                    continue
                seen += 1
                want = nb[u] - {v}
                assert oracles.edge_nbhd_sets(g, u, v) == want
                got = score_all_nodes(g, (u, v), "js")
                for w in range(g.n):
                    if w in (u, v):
                        continue
                    assert got[w] == pytest.approx(oracles.js_sets(nb[w], want), abs=1e-12)
        if seen > 30:
            break
    assert seen > 0


# One function per local method: an edge endpoint outside [0, n) is an
# IndexError, a repeated endpoint a ValueError.
@pytest.mark.parametrize("fn", [
    lambda g, e: score_all_nodes(g, e, "js"), lambda g, e: score_all_nodes(g, e, "aa"),
    lambda g, e: score_all_nodes(g, e, "pa"), lambda g, e: score_all_nodes(g, e, "js-max"),
    lambda g, e: score_all_nodes(g, e, "js-mul"), lambda g, e: score_all_nodes(g, e, "aa-max"),
    lambda g, e: score_all_nodes(g, e, "aa-mul"),
])
def test_scalar_functions_reject_nodes_out_of_range(k5, fn):
    for w in (-1, k5.n):
        for edge in ((w, 0), (0, w)):
            with pytest.raises(IndexError):
                fn(k5, edge)
    with pytest.raises(ValueError):
        fn(k5, (2, 2))
