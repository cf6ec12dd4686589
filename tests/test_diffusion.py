from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from trilink import (
    DiffusionParams,
    EdgeList,
    Graph,
    SeedVector,
    TriangleSet,
    build_graph,
    convergence_trace,
    enumerate_triangles,
    generate_gpa,
    GpaParams,
    largest_connected_component,
    make_seed,
    pagerank,
    pagerank_many,
    pair_seeded_pagerank,
    rank_stability,
    seed_columns,
    single_seeded_pagerank,
    tensor_row_sums,
    top_k_indices,
    trpr,
    trpr_iterates,
)
from trilink import diffusion as dif
from trilink import triangles as triangles_mod

import oracles


def cycle(n: int) -> Graph:
    return build_graph(EdgeList(tuple((i, (i + 1) % n) for i in range(n))))


def test_params_validation():
    with pytest.raises(ValueError):
        DiffusionParams(alpha=1.0)
    with pytest.raises(ValueError):
        DiffusionParams(alpha=0.0)
    with pytest.raises(ValueError):
        DiffusionParams(iterations=0)
    with pytest.raises(ValueError):
        DiffusionParams(tolerance=0.0)


def test_seed_validation():
    with pytest.raises(ValueError):
        SeedVector({})
    with pytest.raises(ValueError):
        SeedVector({0: -0.5, 1: 1.5})
    with pytest.raises(ValueError):
        SeedVector({0: 0.4, 1: 0.4})
    s = SeedVector({0: 0.5, 2: 0.5})
    assert np.array_equal(s.dense(3), [0.5, 0, 0.5])


def test_make_seed_kinds(star4):
    ix = star4.label_index
    c = ix["c"]
    assert make_seed(star4, "single", c).entries == {c: 1.0}
    pair = make_seed(star4, "pair", c, ix["a"])
    assert pair.entries == {c: 0.5, ix["a"]: 0.5}
    star = make_seed(star4, "star", c)
    assert set(star.entries) == {c, ix["a"], ix["b"], ix["x"], ix["y"]}
    assert all(abs(w - 0.2) < 1e-15 for w in star.entries.values())
    ws = make_seed(star4, "weighted-star", c)
    assert ws.entries[c] == 0.5
    assert all(abs(ws.entries[ix[t]] - 1 / 8) < 1e-15 for t in "abxy")
    with pytest.raises(ValueError):
        make_seed(star4, "pair", c, c)
    with pytest.raises(ValueError):
        make_seed(star4, "frob", c)


def test_weighted_star_three_leaf():
    g = build_graph(EdgeList((("c", "a"), ("c", "b"), ("c", "x"))))
    ws = make_seed(g, "weighted-star", g.label_index["c"])
    # normalize (3,1,1,1): center 1/2, each leaf 1/6
    assert abs(ws.entries[g.label_index["c"]] - 0.5) < 1e-15
    assert abs(ws.entries[g.label_index["a"]] - 1 / 6) < 1e-15


def test_star_seed_isolated_node_errors():
    g = Graph(indptr=np.array([0, 0]), indices=np.array([], dtype=np.int64), labels=("x",))
    with pytest.raises(ValueError):
        make_seed(g, "star", 0)


def test_pagerank_k2_closed_form(k2):
    for alpha in (0.5, 0.85, 0.99):
        x = pagerank(k2, make_seed(k2, "single", 0), DiffusionParams(alpha=alpha))
        assert abs(x[0] - 1 / (1 + alpha)) < 1e-12
        assert abs(x[1] - alpha / (1 + alpha)) < 1e-12


def test_pagerank_uniform_seed_vertex_transitive():
    g = cycle(6)
    seed = SeedVector({i: 1 / 6 for i in range(6)})
    x = pagerank(g, seed)
    assert np.allclose(x, 1 / 6, atol=1e-12)


def test_pagerank_pair_seed_k2_symmetric(k2):
    x = pair_seeded_pagerank(k2, 0, 1)
    assert np.allclose(x, 0.5, atol=1e-12)


def test_pagerank_mass_and_sign(couple):
    x = pagerank(couple, make_seed(couple, "single", 0))
    assert abs(x.sum() - 1.0) < 1e-9
    assert (x >= 0).all()


def test_pagerank_zero_degree_errors():
    g = Graph(
        indptr=np.array([0, 1, 2, 2]),
        indices=np.array([1, 0], dtype=np.int64),
        labels=(0, 1, 2),
    )
    with pytest.raises(ValueError):
        pagerank(g, SeedVector({0: 1.0}))


def test_pagerank_matches_direct_solve():
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = oracles.random_graph(rng)
        from trilink import largest_connected_component

        g = largest_connected_component(g)
        u = int(rng.integers(g.n))
        got = pagerank(g, make_seed(g, "single", u))
        want = oracles.pagerank_direct(g, make_seed(g, "single", u).dense(g.n), 0.85)
        assert np.allclose(got, want, atol=1e-10)


def test_pagerank_residual_guarantee(couple):
    params = DiffusionParams(alpha=0.85, tolerance=1e-13)
    seed = make_seed(couple, "pair", 0, 1)
    x = pagerank(couple, seed, params)
    deg = couple.degrees.astype(float)
    fixed_point = 0.15 * seed.dense(couple.n) + 0.85 * (couple.adjacency @ (x / deg))
    assert np.abs(fixed_point - x).sum() <= 1e-13


def test_pagerank_many_matches_single(couple):
    seeds = np.zeros((couple.n, 3))
    seeds[0, 0] = 1.0
    seeds[1, 1] = 1.0
    seeds[[0, 1], 2] = 0.5
    sols = pagerank_many(couple, seeds)
    assert np.allclose(sols[:, 0], pagerank(couple, SeedVector({0: 1.0})), atol=1e-12)
    assert np.allclose(sols[:, 2], pair_seeded_pagerank(couple, 0, 1), atol=1e-12)


def test_pagerank_many_blocks_match_single_solves():
    # 150 columns span the 64-column blocks; pair and star seeds put several
    # teleport entries in one column.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    kinds = ("single", "pair", "star")
    seeds = []
    for c in range(150):
        u = c % g.n
        v = int(g.neighbors(u)[0])
        seeds.append(make_seed(g, kinds[c % 3], u, v if kinds[c % 3] == "pair" else None))
    s = np.column_stack([seed.dense(g.n) for seed in seeds])
    sols = pagerank_many(g, s)
    tol = 1e-15 * g.n
    deg = g.degrees.astype(float)
    for c, seed in enumerate(seeds):
        x = sols[:, c]
        assert np.abs(x - pagerank(g, seed)).max() <= 1e-12
        fixed_point = 0.15 * s[:, c] + 0.85 * (g.adjacency @ (x / deg))
        assert np.abs(fixed_point - x).sum() <= tol


def test_pagerank_many_columns_bit_equal_to_lone_solves():
    # Each column stops on its own steps, so solving it in a batch changes
    # no bit: 150 single, pair and star columns span three 64-column blocks.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    kinds = ("single", "pair", "star")
    seeds = []
    for c in range(150):
        u = c % g.n
        v = int(g.neighbors(u)[0])
        seeds.append(make_seed(g, kinds[c % 3], u, v if kinds[c % 3] == "pair" else None))
    sols = pagerank_many(g, np.column_stack([seed.dense(g.n) for seed in seeds]))
    for c, seed in enumerate(seeds):
        assert np.array_equal(sols[:, c], pagerank(g, seed)), c


def test_pagerank_column_ignores_its_companions():
    # On this graph a single seed on node 9 stops after 82 steps and one on
    # node 238 after 109. The degree distribution is the walk's fixed point,
    # so its column stops after one.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    x = make_seed(g, "single", 9).dense(g.n)
    fast = g.degrees / g.degrees.sum()
    slow = make_seed(g, "single", 238).dense(g.n)
    alone = pagerank(g, SeedVector({9: 1.0}))
    for other in (fast, slow):
        assert np.array_equal(pagerank_many(g, np.column_stack([x, other]))[:, 0], alone)
        assert np.array_equal(pagerank_many(g, np.column_stack([other, x]))[:, 1], alone)


def test_pagerank_many_sparse_seeds_bit_equal_to_dense_without_a_dense_copy():
    # 500 sparse seed columns give the dense input's bits, and the solve
    # holds its n x k output and a few n x 64 blocks, never an n x k copy of
    # the seeds (that alone would be 7.8 blocks here).
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    kinds = ("single", "pair", "star", "weighted-star")
    seeds = []
    for c in range(500):
        u = c % g.n
        kind = kinds[c % 4]
        seeds.append(make_seed(g, kind, u, int(g.neighbors(u)[0]) if kind == "pair" else None))
    s = seed_columns(g.n, seeds)
    want = pagerank_many(g, np.column_stack([seed.dense(g.n) for seed in seeds]))
    tracemalloc.start()
    try:
        got = pagerank_many(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (g.n, 500) and np.array_equal(got, want)
    assert got[:, 499].flags["C_CONTIGUOUS"]
    assert peak < got.nbytes + 8 * g.n * 64 * 8


def test_pagerank_many_logs_one_summary_line(caplog):
    # The steps of the columns of test_pagerank_column_ignores_its_companions;
    # at a tolerance no step reaches, every column stops on the rounding floor.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    s = np.column_stack([make_seed(g, "single", 9).dense(g.n), g.degrees / g.degrees.sum(),
                         make_seed(g, "single", 238).dense(g.n)])
    for params, tail in ((DiffusionParams(), "min 1 median 82 max 109, 0 floor hits"),
                         (DiffusionParams(tolerance=1e-300), "3 floor hits")):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="trilink"):
            pagerank_many(g, s, params)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pagerank_many")]
        assert len(lines) == 1 and lines[0].startswith("pagerank_many: 3 columns in 1 blocks")
        assert lines[0].endswith(tail)


def test_pagerank_many_summary_counts_blocks_of_the_real_width(monkeypatch, caplog):
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    s = seed_columns(g.n, [make_seed(g, "single", i) for i in (9, 238, 5)])
    for width, head in ((2, "3 columns in 2 blocks of width 2,"), (64, "3 columns in 1 blocks of width 3,")):
        monkeypatch.setattr(dif, "_BLOCK_BYTES", 8 * g.n * width)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="trilink"):
            pagerank_many(g, s)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pagerank_many")]
        assert len(lines) == 1 and lines[0].startswith("pagerank_many: " + head)


def test_pagerank_many_stops_where_the_lone_sum_says():
    # numpy adds a column of an n x B block row by row, and a lone column
    # pairwise, so the two L1 sums of one step can differ in the last bit.
    # With the tolerance between them, the batch must still stop where the
    # lone solve stops.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    s = make_seed(g, "single", 9).dense(g.n)[:, None]
    scale = (0.85 / g.degrees)[:, None]
    x = s
    for _ in range(200):
        x_next = g.adjacency @ (x * scale)
        x_next[9] += 1.0 - 0.85
        step = np.abs(x_next - x)
        lone, in_block = step.sum(axis=0)[0], np.column_stack([step, step]).sum(axis=0)[0]
        if lone != in_block:
            break
        x = x_next
    else:
        pytest.skip("the two summation orders agree on every step here")
    params = DiffusionParams(tolerance=min(lone, in_block))
    alone = pagerank(g, SeedVector({9: 1.0}), params)
    assert np.array_equal(pagerank_many(g, np.column_stack([s, s]), params)[:, 0], alone)


def test_pagerank_many_stops_where_the_lone_sum_says_under_the_einsum_screen():
    # The block screen adds each column with einsum, in another order than
    # a lone column's pairwise sum. With the tolerance between the two sums
    # of one step, the batch must still stop where the pairwise sum says:
    # at that step if it is within the tolerance, later if not.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    s = make_seed(g, "single", 9).dense(g.n)[:, None]
    scale = (0.85 / g.degrees)[:, None]
    x = s
    for k in range(1, 201):
        x_next = g.adjacency @ (x * scale)
        x_next[9] += 1.0 - 0.85
        step = np.abs(x_next - x)
        lone, screen = step[:, 0].sum(), np.einsum("ij->j", np.column_stack([step, step]))[0]
        if lone != screen:
            break
        x = x_next
    else:
        pytest.skip("the two summation orders agree on every step here")
    for tolerance in (min(lone, screen), max(lone, screen)):
        params = DiffusionParams(tolerance=tolerance)
        alone = pagerank(g, SeedVector({9: 1.0}), params)
        sols, taken, _ = dif._pagerank_columns(g, seed_columns(g.n, [SeedVector({9: 1.0})] * 2), params)
        assert np.array_equal(sols[:, 0], alone)
        assert taken[0] == k if lone <= tolerance else taken[0] > k


def _mixed_seeds(g: Graph, count: int) -> list[SeedVector]:
    kinds = ("single", "pair", "star", "weighted-star")
    seeds = []
    for c in range(count):
        u, kind = c % g.n, kinds[c % 4]
        seeds.append(make_seed(g, kind, u, int(g.neighbors(u)[0]) if kind == "pair" else None))
    return seeds


@pytest.mark.parametrize("width", [1, 2, 3, 7, 64])
def test_pagerank_block_width_changes_no_bit(monkeypatch, width):
    # The block width follows n; whatever it is, each single, pair, star and
    # weighted-star column takes the steps and has the bits of its lone solve.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    seeds = _mixed_seeds(g, 150)
    params = DiffusionParams()
    lone = [dif._pagerank_columns(g, seed_columns(g.n, [seed]), params) for seed in seeds]
    monkeypatch.setattr(dif, "_BLOCK_BYTES", 8 * g.n * width)
    assert dif._block_width(g.n) == width
    sols, steps, floored = dif._pagerank_columns(g, seed_columns(g.n, seeds), params)
    for c, (x, taken, _) in enumerate(lone):
        assert np.array_equal(sols[:, c], x[:, 0]) and steps[c] == taken[0], c
    assert not floored.any()


def test_pagerank_block_width_follows_n():
    # Three n x width blocks stay within 1.5 MiB, and the width is 1 to 64.
    assert [dif._block_width(n) for n in (10, 1024, 2171, 7850, 10068, 10**6)] == [64, 64, 30, 8, 6, 1]


@pytest.mark.parametrize("width", [16, 64])
def test_pagerank_many_holds_three_block_arrays(monkeypatch, width):
    # Past its n x k output, a solve holds three n x width arrays (the
    # iterate, its step and the step before) plus its scaled copy of the
    # adjacency's values and a little slack: no fresh step array per step,
    # and nothing left over from the previous block.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=3000, rng_seed=3)))
    s = seed_columns(g.n, _mixed_seeds(g, 150))
    pagerank_many(g, s)
    monkeypatch.setattr(dif, "_BLOCK_BYTES", 8 * g.n * width)
    tracemalloc.start()
    try:
        got = pagerank_many(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + 3 * 8 * g.n * width + 8 * g.adjacency.nnz + 64 * 1024


def test_pagerank_tight_tolerance_stops_at_the_rounding_floor(caplog):
    # No step can reach 1e-300, so every column stops where rounding floors
    # its step, and says so once at debug level.
    g = largest_connected_component(generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=3)))
    deg = g.degrees.astype(float)
    for alpha in (0.85, 0.99):
        params = DiffusionParams(alpha=alpha, tolerance=1e-300)
        seed = make_seed(g, "pair", 0, int(g.neighbors(0)[0]))
        caplog.clear()
        with caplog.at_level("DEBUG", logger="trilink"):
            x = pagerank(g, seed, params)
        floored = [r for r in caplog.records if "floored" in r.getMessage()]
        assert len(floored) == 1
        fixed_point = (1 - alpha) * seed.dense(g.n) + alpha * (g.adjacency @ (x / deg))
        assert np.abs(fixed_point - x).sum() <= 1e-14


def test_pair_seed_linearity(couple):
    for u, v in couple.edge_array():
        u, v = int(u), int(v)
        pair = pair_seeded_pagerank(couple, u, v)
        xu = single_seeded_pagerank(couple, u)
        xv = single_seeded_pagerank(couple, v)
        assert np.abs(2 * pair - xu - xv).max() <= 1e-9


def test_pair_ranking_triangle_pendant(triangle_pendant):
    ix = triangle_pendant.label_index
    x = pair_seeded_pagerank(triangle_pendant, ix[1], ix[2])
    want = oracles.pagerank_direct(
        triangle_pendant, make_seed(triangle_pendant, "pair", ix[1], ix[2]).dense(4), 0.85
    )
    assert np.allclose(x, want, atol=1e-10)
    assert x[ix[4]] < x[ix[3]]
    assert want[ix[4]] < want[ix[3]]


# --- reinforced iteration ---------------------------------------------------


def test_trpr_couple_scores(couple):
    ix = couple.label_index
    ts = enumerate_triangles(couple)
    seed = make_seed(couple, "pair", ix["b1"], ix["b2"])
    x = trpr(couple, ts, seed)
    assert abs(x[ix["r"]] - 0.120) < 0.005
    assert abs(x[ix["k1"]] - 0.062) < 0.005
    assert abs(x[ix["b1"]] - 0.252) < 0.005
    # top three: the two hubs, then the outside node
    top = top_k_indices(x, 3)
    assert {int(t) for t in top[:2]} == {ix["b1"], ix["b2"]}
    assert int(top[2]) == ix["r"]


def test_trpr_couple_scores_lower_alpha(couple):
    # second worked data point for the same fixture at a different walk
    # probability; guards the fixture reconstruction from two directions
    ix = couple.label_index
    ts = enumerate_triangles(couple)
    seed = make_seed(couple, "pair", ix["b1"], ix["b2"])
    x = trpr(couple, ts, seed, DiffusionParams(alpha=0.8, iterations=10))
    assert abs(x[ix["r"]] - 0.102) < 0.005
    assert abs(x[ix["k1"]] - 0.063) < 0.005
    assert abs(x[ix["b1"]] - 0.257) < 0.005


def test_trpr_matches_dense_reference(couple):
    ix = couple.label_index
    ts = enumerate_triangles(couple)
    seed = make_seed(couple, "pair", ix["b1"], ix["b2"])
    for weighted in (False, True):
        got = trpr(couple, ts, seed, weighted=weighted)
        want = oracles.trpr_dense(
            couple, ts.triples, seed.dense(couple.n), 0.85, 10, weighted=weighted
        )
        assert np.allclose(got, want, atol=1e-12)


def test_trpr_matches_dense_reference_random_graphs():
    rng = np.random.default_rng(71)
    from trilink import largest_connected_component

    checked = 0
    while checked < 25:
        g = largest_connected_component(oracles.random_graph(rng))
        if g.n < 3:
            continue
        checked += 1
        ts = enumerate_triangles(g)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        seed = make_seed(g, "pair", u, v)
        params = DiffusionParams(alpha=0.85, iterations=7)
        for weighted in (False, True):
            got = trpr(g, ts, seed, params, weighted=weighted)
            want = oracles.trpr_dense(g, ts.triples, seed.dense(g.n), 0.85, 7, weighted=weighted)
            assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_trpr_iterates_bit_equal_to_blockwise_reference(monkeypatch, weighted):
    # 4096-triangle blocks: nine blocks on this graph, the last one short.
    monkeypatch.setattr(triangles_mod, "_BLOCK", 4096)
    g = oracles.gnp_graph(300, 0.2, rng_seed=5)
    ts = TriangleSet(g.n, enumerate_triangles(g).triples)
    seed = make_seed(g, "pair", 0, int(g.neighbors(0)[0]))
    want = oracles.blockwise_trpr_iterates(
        g, ts.triples, seed.dense(g.n), 0.85, 50, 4096, weighted=weighted
    )
    got = trpr_iterates(g, ts, seed, weighted=weighted, iterations=50)
    steps = 0
    for (_, x, gamma, delta), (x_ref, gamma_ref, delta_ref) in zip(got, want):
        assert np.array_equal(x, x_ref)
        assert gamma == gamma_ref and delta == delta_ref
        steps += 1
    assert steps == 50


def test_trpr_rejects_triangle_set_of_another_graph(couple, k5):
    seed = make_seed(couple, "pair", 0, 1)
    with pytest.raises(ValueError, match=f"{k5.n} nodes.*graph has {couple.n}"):
        next(trpr_iterates(couple, enumerate_triangles(k5), seed))


def test_trpr_zero_triangles_is_power_iteration(path3):
    ts = enumerate_triangles(path3)
    seed = make_seed(path3, "pair", 0, 1)
    for weighted in (False, True):
        got = trpr(path3, ts, seed, weighted=weighted)
        want = oracles.power_steps(path3, seed.dense(3), 0.85, 10)
        assert np.abs(got - want).max() <= 1e-12


def test_trpr_mass_conserved_every_iteration(couple):
    ts = enumerate_triangles(couple)
    seed = make_seed(couple, "pair", 0, 1)
    for _, x, _, _ in trpr_iterates(couple, ts, seed):
        assert abs(x.sum() - 1.0) < 1e-9
        assert (x >= 0).all()


def test_trprw_gamma_balances_weights(couple):
    ts = enumerate_triangles(couple)
    seed = make_seed(couple, "pair", 0, 1)
    sum_a = 2.0 * couple.m
    prev = seed.dense(couple.n)
    for _, x, gamma, _ in trpr_iterates(couple, ts, seed, weighted=True):
        reinforced_total = gamma * tensor_row_sums(ts, prev).sum()
        assert abs(reinforced_total - sum_a) <= 1e-9 * sum_a
        prev = x


# --- diagnostics ---------------------------------------------------------------


def test_convergence_trace_zero_triangles(path3):
    ts = enumerate_triangles(path3)
    seed = make_seed(path3, "pair", 0, 1)
    trace = convergence_trace(path3, ts, seed, max_iters=15)
    # reduction: deltas equal plain power-iteration deltas
    prev = seed.dense(3)
    for i, delta in trace:
        cur = oracles.power_steps(path3, seed.dense(3), 0.85, i)
        assert abs(delta - np.abs(cur - prev).sum()) < 1e-12
        prev = cur
    assert trace[0][1] == pytest.approx(
        np.abs(oracles.power_steps(path3, seed.dense(3), 0.85, 1) - seed.dense(3)).sum()
    )


def test_convergence_trace_decays(couple):
    ts = enumerate_triangles(couple)
    seed = make_seed(couple, "pair", 0, 1)
    trace = convergence_trace(couple, ts, seed, max_iters=60)
    deltas = [d for _, d in trace]
    assert all(np.isfinite(d) for d in deltas)
    assert deltas[-1] < deltas[0] * 1e-3


def test_rank_stability_examples():
    assert rank_stability(np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.4, 0.3, 0.2, 0.1])) == (
        1.0,
        1.0,
    )
    rho, tau = rank_stability(np.array([1.0, 2.0, 3.0, 4.0]), np.array([4.0, 3.0, 2.0, 1.0]))
    assert (rho, tau) == (-1.0, -1.0)
    rho, tau = rank_stability(np.array([1, 2, 3, 4]), np.array([1, 3, 2, 4]))
    assert abs(rho - 0.8) < 1e-12
    assert abs(tau - 2 / 3) < 1e-12


def test_rank_stability_top_k_union():
    a = np.array([10.0, 9.0, 1.0, 2.0, 0.0])
    b = np.array([10.0, 9.0, 2.0, 1.0, 0.0])
    # top-2 sets agree and are concordant, full vectors are not
    rho_full, _ = rank_stability(a, b)
    rho_top, tau_top = rank_stability(a, b, top_k=2)
    assert rho_full < 1.0
    assert rho_top == pytest.approx(1.0)
    assert tau_top == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rank_stability(a, b, top_k=1)
    with pytest.raises(ValueError):
        rank_stability(a, np.array([1.0, 2.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_stability_constant_input_is_nan(caplog):
    # A constant vector has no ranking: both statistics are nan, with one
    # DEBUG line per call and no warning.
    ramp = np.arange(5.0)
    cases = [
        (np.full(5, 0.2), ramp, None),
        (ramp, np.array([0.0, -0.0, 0.0, -0.0, 0.0]), None),
        (np.array([3.0, 3.0, 1.0, 0.0, 0.0]), ramp[::-1], 2),  # constant on the top-2 union
        (np.full(2, 0.5), np.full(2, 0.5), None),
    ]
    with caplog.at_level("DEBUG", logger="trilink"):
        for a, b, top in cases:
            rho, tau = rank_stability(a, b, top_k=top)
            assert math.isnan(rho) and math.isnan(tau)
    lines = [r.getMessage() for r in caplog.records if r.name == "trilink"]
    assert len(lines) == len(cases)
    assert all("constant or NaN input" in line for line in lines)


def test_rank_stability_converged_iterates():
    g = generate_gpa(GpaParams(p_edge=0.5, steps=600, rng_seed=9))
    ts = enumerate_triangles(g)
    e = g.edge_array()[0]
    seed = make_seed(g, "pair", int(e[0]), int(e[1]))
    iterates = {i: x for i, x, _, _ in trpr_iterates(g, ts, seed, iterations=200)}
    rho, tau = rank_stability(iterates[10], iterates[200], top_k=100)
    assert tau >= 0.9
    assert rho >= 0.9


def test_star_and_weighted_star_are_affine_in_the_single_vector():
    # On an undirected graph P x_i = (x_i - (1 - alpha) e_i) / alpha, so the
    # star vector is ((1 + d/alpha) x_i - d (1 - alpha)/alpha e_i) / (d + 1)
    # and the weighted-star vector (x_i + (x_i - (1 - alpha) e_i)/alpha) / 2:
    # away from node i both are positive multiples of x_i, and rank every
    # candidate as the single vector does.
    g = generate_gpa(GpaParams(p_edge=0.5, steps=800, rng_seed=21))
    params = DiffusionParams(alpha=0.85)
    a = params.alpha
    for i in np.argsort(-g.degrees, kind="stable")[:8].tolist():
        d = g.degree(i)
        x = single_seeded_pagerank(g, i, params)
        e = np.zeros(g.n)
        e[i] = 1.0
        star = pagerank(g, make_seed(g, "star", i), params)
        wstar = pagerank(g, make_seed(g, "weighted-star", i), params)
        assert np.abs(star - ((1 + d / a) * x - d * (1 - a) / a * e) / (d + 1)).max() < 1e-10
        assert np.abs(wstar - (x + (x - (1 - a) * e) / a) / 2).max() < 1e-10
