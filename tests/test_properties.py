"""Property tests for the identities the tensor contraction relies on.

Small random graphs and vectors drawn by Hypothesis; derandomized, so every
run draws the same examples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trilink import (
    EdgeList,
    build_graph,
    enumerate_triangles,
    largest_connected_component,
    make_seed,
    tensor_bilinear,
    tensor_row_sums,
    trpr_iterates,
)
from trilink.diffusion import SEED_KINDS

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
