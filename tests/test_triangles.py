from __future__ import annotations

import math

import numpy as np
import pytest

from trilink import (
    EdgeList,
    TriangleSet,
    build_graph,
    enumerate_triangles,
    reinforced_matrix_apply,
    tensor_bilinear,
    tensor_row_sums,
)
from trilink import triangles as triangles_mod
from trilink.triangles import subgraph_triangles, triangle_edges

import oracles


def single_triangle():
    return build_graph(EdgeList(((0, 1), (1, 2), (0, 2))))


def test_k5_count(k5):
    assert enumerate_triangles(k5).count == 10


def test_path_no_triangles(path3):
    ts = enumerate_triangles(path3)
    assert ts.count == 0
    assert ts.triples.shape == (0, 3)


def test_couple_triangles(couple):
    ts = enumerate_triangles(couple)
    assert ts.count == 6
    ix = couple.label_index
    blues = {ix["b1"], ix["b2"]}
    red = ix["r"]
    for a, b, c in ts.triples:
        tri = {int(a), int(b), int(c)}
        assert blues < tri
        assert red not in tri


def test_canonical_unique_and_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = oracles.random_graph(rng)
        ts = enumerate_triangles(g)
        assert all(a < b < c for a, b, c in ts.triples)
        got = [tuple(int(x) for x in row) for row in ts.triples]
        assert len(set(got)) == len(got)
        assert got == oracles.brute_triangles(g)


def test_tiny_wedge_chunks_match_brute_force(monkeypatch):
    # Chunks of 3 wedges split rows mid-way, and most edges have more wedges
    # than one chunk holds.
    monkeypatch.setattr(triangles_mod, "_BLOCK", 3)
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = oracles.random_graph(rng)
        got = [tuple(int(x) for x in row) for row in enumerate_triangles(g).triples]
        assert got == oracles.brute_triangles(g)


@pytest.mark.parametrize("block", [3, triangles_mod._BLOCK])
def test_star_with_chords_hub_first(monkeypatch, block):
    # Hub 0 joined to 1..9, plus the chords (1,2), (2,3), (5,7), (8,9): all
    # 36 wedges sit on the hub's forward list, and edge (0, 1) alone has 8.
    monkeypatch.setattr(triangles_mod, "_BLOCK", block)
    pairs = [(0, i) for i in range(1, 10)] + [(1, 2), (2, 3), (5, 7), (8, 9)]
    g = build_graph(EdgeList(tuple(pairs)))
    assert g.labels[0] == 0
    want = [(0, 1, 2), (0, 2, 3), (0, 5, 7), (0, 8, 9)]
    assert [tuple(map(int, row)) for row in enumerate_triangles(g).triples] == want
    assert oracles.brute_triangles(g) == want


def test_complete_graph_counts():
    for n in (3, 4, 7, 12):
        g = build_graph(EdgeList(tuple((i, j) for i in range(n) for j in range(i + 1, n))))
        assert enumerate_triangles(g).count == math.comb(n, 3)


def test_triangle_free_shape_and_dtype():
    # K_{3,4}: many wedges, none closed.
    g = build_graph(EdgeList(tuple((i, j) for i in range(3) for j in range(3, 7))))
    ts = enumerate_triangles(g)
    assert ts.triples.shape == (0, 3)
    assert ts.triples.dtype == np.int64
    assert triangle_edges(ts) == []


def test_triples_sorted_contiguous_readonly():
    rng = np.random.default_rng(41)
    iu, ju = np.triu_indices(120, k=1)
    keep = rng.random(len(iu)) < 0.3
    g = build_graph(EdgeList(tuple(zip(iu[keep].tolist(), ju[keep].tolist()))))
    t = enumerate_triangles(g).triples
    assert t.dtype == np.int64 and t.flags.f_contiguous and not t.flags.writeable
    assert np.all((t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2]))
    assert np.array_equal(np.lexsort(t.T[::-1]), np.arange(len(t)))


def test_enumeration_holds_the_result_twice_at_most():
    # The chunks' closed triples are kept as (3, hits) stacks and joined
    # once, so the peak is the stacks and their join (twice the result),
    # five words per edge (the (m, 2) edge array, the keys, the wedge ends
    # and starts) and four words per wedge of one chunk.
    import tracemalloc

    g = oracles.gnp_graph(600, 0.1, rng_seed=5)
    tracemalloc.start()
    try:
        ts = enumerate_triangles(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.count > 30_000
    assert peak < 2 * ts.triples.nbytes + 5 * 8 * g.m + 4 * 8 * triangles_mod._BLOCK


def test_per_node_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    h = nx.gnp_random_graph(200, 0.1, seed=3)
    g = build_graph(EdgeList(tuple(h.edges())))
    ts = enumerate_triangles(g)
    per_node = np.bincount(ts.triples.ravel(), minlength=g.n)
    want = nx.triangles(h)
    assert ts.count > 0
    assert [int(per_node[i]) for i in range(g.n)] == [want[lab] for lab in g.labels]


def test_triangle_edges_match_triples():
    rng = np.random.default_rng(9)
    for _ in range(30):
        g = oracles.random_graph(rng)
        want = set()
        for a, b, c in oracles.brute_triangles(g):
            want |= {(a, b), (a, c), (b, c)}
        got = triangle_edges(enumerate_triangles(g))
        assert got == sorted(want)
        assert all(type(u) is int and type(v) is int for u, v in got)


def test_subgraph_triangles_drop_rows_with_a_corner_outside_the_subgraph():
    # Nodes 2 and 3 are not in the subgraph. The parent triangle (3, 4, 6)
    # keeps the edge (4, 6), and with n = 5 the key of the pair (x, missing)
    # is x*n - 1, which is also the key of the real edge (x - 1, n - 1): only
    # the corner check drops the row.
    g = build_graph(EdgeList(((0, 1), (1, 4), (1, 5), (4, 5), (4, 6), (4, 3), (5, 6), (2, 6), (6, 3))))
    sub = build_graph(EdgeList(((0, 1), (1, 5), (4, 5), (4, 6), (5, 6))))
    to_sub = np.array([sub.label_index.get(w, -1) for w in g.labels], dtype=np.int64)
    got = subgraph_triangles(enumerate_triangles(g), to_sub, sub)
    assert got.n == sub.n
    assert np.array_equal(got.triples, enumerate_triangles(sub).triples)
    assert [sorted(sub.labels[i] for i in row) for row in got.triples.tolist()] == [[4, 5, 6]]


def test_bilinear_single_triangle_ones():
    g = single_triangle()
    ts = enumerate_triangles(g)
    ones = np.ones(3)
    assert np.array_equal(tensor_bilinear(ts, ones, ones), [2, 2, 2])


def test_bilinear_zero_vector(k5):
    ts = enumerate_triangles(k5)
    assert np.array_equal(tensor_bilinear(ts, np.zeros(5), np.ones(5)), np.zeros(5))


def test_bilinear_k4_ones(k4):
    ts = enumerate_triangles(k4)
    ones = np.ones(4)
    t = oracles.dense_tensor(ts.triples, 4)
    expected = oracles.dense_bilinear(t, ones, ones)
    assert np.array_equal(expected, [6, 6, 6, 6])
    assert np.array_equal(tensor_bilinear(ts, ones, ones), expected)


def test_row_sums_examples():
    g = single_triangle()
    ts = enumerate_triangles(g)
    assert np.array_equal(tensor_row_sums(ts, np.ones(3)), [2, 2, 2])
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert np.array_equal(tensor_row_sums(ts, e1), [0, 1, 1])


def test_row_sums_empty(path3):
    ts = enumerate_triangles(path3)
    assert np.array_equal(tensor_row_sums(ts, np.ones(3)), np.zeros(3))


def test_length_mismatch_errors(k5):
    ts = enumerate_triangles(k5)
    with pytest.raises(ValueError):
        tensor_bilinear(ts, np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        tensor_row_sums(ts, np.ones(6))


def test_reinforced_apply_gamma_zero(couple):
    ts = enumerate_triangles(couple)
    rng = np.random.default_rng(0)
    x, y = rng.random(couple.n), rng.random(couple.n)
    got = reinforced_matrix_apply(couple, ts, x, y, 0.0)
    assert np.allclose(got, couple.adjacency @ y)


def test_reinforced_apply_single_triangle():
    g = single_triangle()
    ts = enumerate_triangles(g)
    ones = np.ones(3)
    assert np.array_equal(reinforced_matrix_apply(g, ts, ones, ones, 1.0), [4, 4, 4])


def test_reinforced_apply_matches_dense(couple):
    ts = enumerate_triangles(couple)
    t = oracles.dense_tensor(ts.triples, couple.n)
    a = oracles.adjacency_dense(couple)
    rng = np.random.default_rng(3)
    for gamma in (0.5, 1.0, 2.5):
        x, y = rng.random(couple.n), rng.random(couple.n)
        want = (gamma * oracles.dense_tx(t, x) + a) @ y
        assert np.allclose(reinforced_matrix_apply(couple, ts, x, y, gamma), want, atol=1e-12)
    with pytest.raises(ValueError):
        reinforced_matrix_apply(couple, ts, x, y, -1.0)


def test_bilinear_matches_dense_and_is_bilinear():
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = oracles.random_graph(rng)
        ts = enumerate_triangles(g)
        t = oracles.dense_tensor(ts.triples, g.n)
        x, y = rng.normal(size=g.n), rng.normal(size=g.n)
        assert np.allclose(tensor_bilinear(ts, x, y), oracles.dense_bilinear(t, x, y), atol=1e-12)
        assert np.allclose(tensor_row_sums(ts, x), oracles.dense_tx(t, x).sum(axis=1), atol=1e-12)
        # bilinearity in each argument
        a, b = rng.normal(), rng.normal()
        x2 = rng.normal(size=g.n)
        lhs = tensor_bilinear(ts, a * x + b * x2, y)
        rhs = a * tensor_bilinear(ts, x, y) + b * tensor_bilinear(ts, x2, y)
        assert np.allclose(lhs, rhs, atol=1e-10)
        lhs = tensor_bilinear(ts, x, a * y + b * x2)
        rhs = a * tensor_bilinear(ts, x, y) + b * tensor_bilinear(ts, x, x2)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_tx_matrix_is_symmetric():
    # probe T[x] entries through the bilinear form: e_i' T[x] e_j == e_j' T[x] e_i
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = oracles.random_graph(rng, max_n=8)
        ts = enumerate_triangles(g)
        x = rng.random(g.n)
        for i in range(g.n):
            ei = np.zeros(g.n)
            ei[i] = 1.0
            col = tensor_bilinear(ts, x, ei)
            for j in range(g.n):
                ej = np.zeros(g.n)
                ej[j] = 1.0
                assert abs(col[j] - tensor_bilinear(ts, x, ej)[i]) < 1e-12


@pytest.fixture(scope="module")
def gnp300():
    g = oracles.gnp_graph(300, 0.2, rng_seed=5)
    return g, enumerate_triangles(g).triples


@pytest.mark.parametrize("block", [7, 4096])
def test_contractions_bit_equal_to_blockwise_reference(monkeypatch, gnp300, block):
    g, triples = gnp300
    monkeypatch.setattr(triangles_mod, "_BLOCK", block)
    ts = TriangleSet(g.n, triples)
    rng = np.random.default_rng(29)
    vectors = [
        rng.random(g.n),
        rng.normal(size=2 * g.n)[::2],  # non-contiguous view
        rng.integers(-3, 9, size=g.n),  # integer dtype
    ]
    for x, y in zip(vectors, vectors[1:] + vectors[:1]):
        want = oracles.blockwise_row_sums(triples, g.n, x, block)
        assert np.array_equal(tensor_row_sums(ts, x), want)
        want = oracles.blockwise_bilinear(triples, g.n, x, y, block)
        assert np.array_equal(tensor_bilinear(ts, x, y), want)


def assert_scatter_lists_corners(scatter, block, n):
    # Row i of the scatter lists, ascending, the positions whose corner is i
    # in the block's corner columns joined as a|b|c.
    joined = block.T.ravel()
    assert scatter.shape == (n, len(joined))
    for i in range(n):
        row = scatter.indices[scatter.indptr[i] : scatter.indptr[i + 1]]
        assert np.array_equal(row, np.flatnonzero(joined == i))
    assert scatter.indices.dtype == scatter.indptr.dtype == np.int32
    assert not scatter.indices.flags.writeable and not scatter.indptr.flags.writeable
    assert np.all(scatter.data == 1.0)


def test_corner_index_is_cached_per_triangle_set(monkeypatch, k5):
    ts = enumerate_triangles(k5)
    tensor_row_sums(ts, np.ones(k5.n))
    index = ts._corner_index
    tensor_bilinear(ts, np.ones(k5.n), np.ones(k5.n))
    assert ts._corner_index is index
    (scatter,) = index
    assert_scatter_lists_corners(scatter, ts.triples, k5.n)
    # In blocks of 4 the 10 triangles make three blocks, the last one short.
    monkeypatch.setattr(triangles_mod, "_BLOCK", 4)
    blocks = TriangleSet(k5.n, ts.triples)._corner_index
    assert len(blocks) == 3
    ones = blocks[0].data.base
    for lo, scatter in zip(range(0, ts.count, 4), blocks):
        assert_scatter_lists_corners(scatter, ts.triples[lo : lo + 4], k5.n)
        assert scatter.data.base is ones
    assert not ones.flags.writeable


def test_corner_index_holds_only_the_scatter(k5):
    # The corners are read from ``triples``; the cache adds S's int32
    # indices (12 bytes per triangle), a row pointer per block and the
    # shared ones. 4 kB covers the Python objects. A second int64 copy of
    # the corners would add 24 bytes per triangle.
    import tracemalloc

    enumerate_triangles(k5)._corner_index  # scipy's first-use allocations
    g = oracles.gnp_graph(600, 0.1, rng_seed=5)
    ts = enumerate_triangles(g)
    tracemalloc.start()
    try:
        blocks = ts._corner_index
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 2
    ones = blocks[0].data.base
    assert held <= 12 * ts.count + ones.nbytes + len(blocks) * 4 * (g.n + 1) + 4096


def test_contractions_gather_from_the_triples(monkeypatch, gnp300):
    g, triples = gnp300
    monkeypatch.setattr(triangles_mod, "_BLOCK", 4096)
    ts = TriangleSet(g.n, triples)
    blocks = list(triangles_mod._blocks(ts))
    assert len(blocks) == -(-ts.count // 4096) > 1
    for columns, scatter in blocks:
        for col in columns:
            assert col.flags.c_contiguous and np.shares_memory(col, ts.triples)


def test_triangle_set_from_c_order_rows_contracts_to_the_same_bits(monkeypatch, gnp300):
    g, triples = gnp300
    rows = np.ascontiguousarray(triples)
    assert rows.flags.c_contiguous and not rows.flags.f_contiguous
    monkeypatch.setattr(triangles_mod, "_BLOCK", 4096)
    ts = TriangleSet(g.n, rows)
    assert ts.triples.flags.f_contiguous and not ts.triples.flags.writeable
    assert np.array_equal(ts.triples, triples)
    rng = np.random.default_rng(31)
    x, y = rng.random(g.n), rng.normal(size=g.n)
    want = oracles.blockwise_bilinear(triples, g.n, x, y, 4096)
    assert np.array_equal(tensor_bilinear(ts, x, y), want)
    assert np.array_equal(tensor_bilinear(ts, x, y), tensor_bilinear(TriangleSet(g.n, triples), x, y))
    assert np.array_equal(tensor_row_sums(ts, x), oracles.blockwise_row_sums(triples, g.n, x, 4096))


def test_empty_triangle_set_contracts_to_zeros():
    ts = TriangleSet(4, np.empty((0, 3), dtype=np.int64))
    x, y = np.array([1.0, -2.0, np.inf, -0.0]), np.arange(4.0)
    for got, want in [
        (tensor_row_sums(ts, x), oracles.blockwise_row_sums(ts.triples, 4, x, 7)),
        (tensor_bilinear(ts, x, y), oracles.blockwise_bilinear(ts.triples, 4, x, y, 7)),
    ]:
        np.testing.assert_array_equal(got, np.zeros(4))
        np.testing.assert_array_equal(got, want)
    assert ts._corner_index == ()


def test_contractions_bit_equal_to_blockwise_reference_on_edge_values(monkeypatch):
    # K5 plus node 5, which is in no triangle. Its 10 triangles in blocks of
    # 7 make one full block and a short last one.
    g = build_graph(EdgeList(tuple((i, j) for i in range(5) for j in range(i + 1, 5)) + ((4, 5),)))
    monkeypatch.setattr(triangles_mod, "_BLOCK", 7)
    ts = enumerate_triangles(g)
    assert ts.count == 10 and 5 not in ts.triples
    rng = np.random.default_rng(3)
    vectors = [
        rng.normal(size=g.n),  # mixed signs
        np.array([-0.0, 1.5, -0.0, -2.0, 0.0, 3.0]),
        np.array([np.inf, -1.0, 2.0, -0.0, 1e308, -1e308]),
        np.array([-np.inf, 0.0, -0.0, np.inf, -5.0, 7.0]),
    ]
    # inf - inf, 0 * inf and 1e308 * 2 are meant here: NaN must match NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for x in vectors:
            for y in vectors:
                want = oracles.blockwise_row_sums(ts.triples, g.n, x, 7)
                np.testing.assert_array_equal(tensor_row_sums(ts, x), want)
                want = oracles.blockwise_bilinear(ts.triples, g.n, x, y, 7)
                got = tensor_bilinear(ts, x, y)
                np.testing.assert_array_equal(got, want)
                assert got[5] == 0.0
