from __future__ import annotations

import math

import numpy as np
import pytest

from trilink import (
    aa_edge,
    aa_node,
    js_edge,
    js_node,
    local_combined,
    pa_edge,
    pa_node,
    score_all_nodes,
    top_k_indices,
)

import oracles


def test_node_scores_disjoint_neighborhoods():
    # path a-b-c-d: neighborhoods of a and b are disjoint
    from trilink import EdgeList, build_graph

    g = build_graph(EdgeList((("a", "b"), ("b", "c"), ("c", "d"))))
    ix = g.label_index
    assert js_node(g, ix["a"], ix["b"]) == 0.0
    assert aa_node(g, ix["a"], ix["b"]) == 0.0


def test_node_scores_triangle_pendant(triangle_pendant):
    ix = triangle_pendant.label_index
    # common neighbor of 1 and 2 is node 3, degree 3
    assert aa_node(triangle_pendant, ix[1], ix[2]) == pytest.approx(1 / math.log(3))
    assert pa_node(triangle_pendant, ix[3], ix[4]) == 3.0
    assert js_node(triangle_pendant, ix[1], ix[2]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        js_node(triangle_pendant, ix[1], ix[1])


def test_edge_scores_triangle_pendant(triangle_pendant):
    ix = triangle_pendant.label_index
    e = (ix[1], ix[2])
    assert js_edge(triangle_pendant, ix[4], e) == 1.0
    assert js_edge(triangle_pendant, ix[3], e) == 0.0
    with pytest.raises(ValueError):
        js_edge(triangle_pendant, ix[1], e)


def test_edge_scores_k2(k2):
    # empty edge neighborhood: everything is zero; but there is no third
    # node in K2, so check on a 2-component graph instead
    from trilink import EdgeList, build_graph

    g = build_graph(EdgeList(((0, 1), (2, 3))))
    assert js_edge(g, 2, (0, 1)) == 0.0
    assert aa_edge(g, 2, (0, 1)) == 0.0
    assert pa_edge(g, 2, (0, 1)) == 0.0


def test_combined_scores(triangle_pendant):
    from trilink import EdgeList, build_graph

    # MUL annihilates when either endpoint score is zero: on the path
    # 0-1-2-3, node 3 scores 1/3 against 1 but 0 against 0
    g2 = build_graph(EdgeList(((0, 1), (1, 2), (2, 3))))
    assert js_node(g2, 3, 0) == 0.0
    assert js_node(g2, 3, 1) == pytest.approx(1 / 2)
    assert local_combined(g2, 3, (0, 1), "js", "mul") == 0.0
    assert local_combined(g2, 3, (0, 1), "js", "max") == pytest.approx(1 / 2)
    ix = triangle_pendant.label_index
    e = (ix[1], ix[2])
    # AA-MAX: node 4 shares neighbor 3 with both endpoints
    want = 1 / math.log(3)
    assert local_combined(triangle_pendant, ix[4], e, "aa", "max") == pytest.approx(want)
    assert local_combined(triangle_pendant, ix[4], e, "aa", "max") == pytest.approx(0.91024, abs=1e-5)
    with pytest.raises(ValueError):
        local_combined(triangle_pendant, ix[4], e, "pa", "max")
    with pytest.raises(ValueError):
        local_combined(triangle_pendant, ix[4], e, "js", "plus")


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
        scalar = {
            "js": lambda w: js_edge(g, w, (u, v)),
            "aa": lambda w: aa_edge(g, w, (u, v)),
            "pa": lambda w: pa_edge(g, w, (u, v)),
            "js-max": lambda w: local_combined(g, w, (u, v), "js", "max"),
            "js-mul": lambda w: local_combined(g, w, (u, v), "js", "mul"),
            "aa-max": lambda w: local_combined(g, w, (u, v), "aa", "max"),
            "aa-mul": lambda w: local_combined(g, w, (u, v), "aa", "mul"),
        }
        for method, fn in scalar.items():
            dense = score_all_nodes(g, (u, v), method)
            for w in range(g.n):
                if w in (u, v):
                    assert dense[w] == -np.inf
                    continue
                want = oracles.local_oracle(g, w, u, v, method)
                assert fn(w) == pytest.approx(want, abs=1e-12)
                assert dense[w] == pytest.approx(want, abs=1e-12)
                # the scalar function reads its entry of the all-node vector
                if method.startswith("aa"):
                    assert fn(w) == pytest.approx(dense[w], abs=1e-12)
                else:
                    assert fn(w) == dense[w]
        for w in set(range(g.n)) - {u, v}:
            for base, node in (("js", js_node), ("aa", aa_node)):
                a, b = node(g, w, u), node(g, w, v)
                assert max(a, b) == score_all_nodes(g, (u, v), f"{base}-max")[w]
                assert a * b == score_all_nodes(g, (u, v), f"{base}-mul")[w]
            assert pa_node(g, w, u) == g.degree(w) * g.degree(u)


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
                for w in range(g.n):
                    if w in (u, v):
                        continue
                    got = js_edge(g, w, (u, v))
                    assert got == pytest.approx(oracles.js_sets(nb[w], want), abs=1e-12)
        if seen > 30:
            break
    assert seen > 0


@pytest.mark.parametrize("fn", [
    lambda g, w: js_node(g, w, 0), lambda g, w: aa_node(g, w, 0), lambda g, w: pa_node(g, w, 0),
    lambda g, w: js_edge(g, w, (0, 1)), lambda g, w: aa_edge(g, w, (0, 1)),
    lambda g, w: pa_edge(g, w, (0, 1)), lambda g, w: local_combined(g, w, (0, 1), "aa", "mul"),
])
def test_scalar_functions_reject_nodes_out_of_range(k5, fn):
    for w in (-1, k5.n):
        with pytest.raises(IndexError):
            fn(k5, w)
