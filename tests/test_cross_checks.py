"""Cross-checks against networkx, an independent implementation.

For undirected graphs networkx's personalized PageRank solves the same
system as ours (its row-stochastic iteration transposes into the
column-stochastic one when A is symmetric), and its triangle and local
similarity routines share our definitions, so agreement here is a strong
second opinion. Skipped when networkx is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from trilink import (
    DiffusionParams,
    GpaParams,
    aa_node,
    enumerate_triangles,
    generate_gpa,
    js_node,
    largest_connected_component,
    make_seed,
    pa_node,
    pagerank,
    pair_seeded_pagerank,
)

import oracles


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((int(u), int(v)) for u, v in g.edge_array())
    return h


@pytest.fixture(scope="module")
def medium():
    return generate_gpa(GpaParams(p_edge=0.6, steps=800, rng_seed=23))


def test_pagerank_matches_networkx(medium):
    h = to_nx(medium)
    params = DiffusionParams(alpha=0.85, tolerance=1e-14)
    for node in (0, 3, medium.n - 1):
        mine = pagerank(medium, make_seed(medium, "single", node), params)
        theirs = nx.pagerank(h, alpha=0.85, personalization={node: 1.0}, tol=1e-14, max_iter=10_000)
        gap = max(abs(mine[i] - theirs[i]) for i in range(medium.n))
        assert gap <= 1e-9


def test_pair_seeded_matches_networkx(medium):
    h = to_nx(medium)
    u, v = (int(x) for x in medium.edge_array()[7])
    mine = pair_seeded_pagerank(medium, u, v, DiffusionParams(tolerance=1e-14))
    theirs = nx.pagerank(h, alpha=0.85, personalization={u: 0.5, v: 0.5}, tol=1e-14, max_iter=10_000)
    gap = max(abs(mine[i] - theirs[i]) for i in range(medium.n))
    assert gap <= 1e-9


def test_triangle_count_matches_networkx():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = oracles.random_graph(rng)
        assert enumerate_triangles(g).count == sum(nx.triangles(to_nx(g)).values()) // 3
    big = generate_gpa(GpaParams(p_edge=0.8, steps=1500, rng_seed=5))
    assert enumerate_triangles(big).count == sum(nx.triangles(to_nx(big)).values()) // 3


def test_node_similarities_match_networkx():
    rng = np.random.default_rng(88)
    for _ in range(15):
        g = largest_connected_component(oracles.random_graph(rng))
        if g.n < 3:
            continue
        h = to_nx(g)
        w, u = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        ((_, _, js),) = nx.jaccard_coefficient(h, [(w, u)])
        assert js_node(g, w, u) == pytest.approx(js, abs=1e-12)
        ((_, _, aa),) = nx.adamic_adar_index(h, [(w, u)])
        assert aa_node(g, w, u) == pytest.approx(aa, abs=1e-12)
        ((_, _, pa),) = nx.preferential_attachment(h, [(w, u)])
        assert pa_node(g, w, u) == pytest.approx(pa, abs=1e-12)
