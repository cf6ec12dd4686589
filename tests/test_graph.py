from __future__ import annotations

import io
import re

import numpy as np
import pytest

from trilink import (
    DataError,
    EdgeList,
    ParseError,
    build_graph,
    edge_neighborhood,
    largest_connected_component,
    load_edge_list,
    to_edge_list,
    write_edge_list,
)

import oracles


def test_load_plain():
    el = load_edge_list(io.StringIO("1 2\n2 3\n"))
    assert el.pairs == ((1, 2), (2, 3))
    assert el.times is None


def test_load_drops_self_loops():
    el = load_edge_list(io.StringIO("1 1\n1 2\n"))
    assert el.pairs == ((1, 2),)
    assert el.self_loops_dropped == 1


def test_load_timestamps_and_string_ids():
    el = load_edge_list(io.StringIO("a b 5\nb c 7\n"), has_timestamps=True)
    assert el.pairs == (("a", "b"), ("b", "c"))
    assert el.times == (5, 7)


def test_load_comments_blank_lines_crlf():
    el = load_edge_list(io.StringIO("# header\r\n% other\n\n1 2\r\n2 3\n"))
    assert el.pairs == ((1, 2), (2, 3))


def test_load_bytes_stream():
    el = load_edge_list(io.BytesIO(b"1 2\n3 4\n"))
    assert el.pairs == ((1, 2), (3, 4))


def test_load_whitespace_variants():
    el = load_edge_list(io.StringIO("1\t2\n 3   4 \n5 6\t\n"))
    assert el.pairs == ((1, 2), (3, 4), (5, 6))


def test_load_mixed_tokens_and_negative_ids():
    el = load_edge_list(io.StringIO("-1 2\nnode_a 7\n"))
    assert el.pairs == ((-1, 2), ("node_a", 7))


def test_load_keeps_distinct_numeric_spellings():
    # Only an int's canonical spelling becomes an int; "01" and "1_0" would
    # otherwise merge into nodes 1 and 10.
    el = load_edge_list(io.StringIO("01 1\n1_0 10\n-1 01\n"))
    assert el.pairs == (("01", 1), ("1_0", 10), (-1, "01"))
    g = build_graph(el)
    assert g.n == 5
    assert set(g.labels) == {"01", 1, "1_0", 10, -1}


def test_load_from_path(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("# comment\n10 20\n20 30\n", encoding="utf-8")
    el = load_edge_list(p)
    assert el.pairs == ((10, 20), (20, 30))
    el2 = load_edge_list(str(p))
    assert el2.pairs == el.pairs


def test_load_wrong_field_count():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list(io.StringIO("1 2\n1 2 3\n"))


def test_load_bad_timestamp():
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list(io.StringIO("1 2 x\n"), has_timestamps=True)


def test_build_collapses_reversed_duplicates():
    g = build_graph(EdgeList(((1, 2), (2, 1), (2, 3))))
    assert (g.n, g.m) == (3, 2)


def test_build_single_edge():
    g = build_graph(EdgeList((("a", "b"),)))
    assert (g.n, g.m) == (2, 1)
    assert g.labels == ("a", "b")
    assert list(g.neighbors(0)) == [1]


def test_build_k5(k5):
    assert (k5.n, k5.m) == (5, 10)
    assert all(k5.degree(i) == 4 for i in range(5))


def test_build_empty_errors():
    with pytest.raises(DataError):
        build_graph(EdgeList(()))


def test_first_appearance_indexing():
    g = build_graph(EdgeList(((7, 3), (3, 9))))
    assert g.labels == (7, 3, 9)


def test_first_appearance_skips_self_loops():
    # 5's first record is a self loop, and 8 is on no other record.
    g = build_graph(((5, 5), (1, 2), (8, 8), (2, 5), (5, 1)))
    assert g.labels == (1, 2, 5)
    assert (g.n, g.m) == (3, 3)
    with pytest.raises(DataError, match="no usable edges"):
        build_graph(((1, 1), (2, 2)))


@pytest.mark.parametrize(
    "pairs, bad",
    [
        (((1, 2), (True, 3)), True),
        (((1, 2), (1.0, 3)), 1.0),
        (((1, 2), (np.float64(1.0), 3)), np.float64(1.0)),
        (((1, 2), (np.bool_(True), 3)), np.bool_(True)),
        (((1, 2), (True, 3), (1.0, 4), (np.int64(1), 5)), True),
    ],
)
def test_build_refuses_bool_and_float_labels(pairs, bad):
    # Each equals the int label 1 and would merge into its node, yet be
    # written apart. The check sees every label, not only the distinct ones.
    with pytest.raises(DataError, match=re.escape(f"label {bad!r}")):
        build_graph(pairs)


def test_build_stores_numpy_integers_as_int():
    g = build_graph(((np.int64(1), 2), (1, 5), (np.int32(7), np.int64(2))))
    assert g.labels == (1, 2, 5, 7)
    assert [type(w) for w in g.labels] == [int, int, int, int]
    assert g.m == 3


def test_cli_load_holds_no_record_tuples(tmp_path):
    # The CLI parses a file into one int64 pair per record and builds the
    # graph with numpy. Its peak is a dozen 8-byte words per edge: the
    # records, the doubled edge keys and their sort, the graph's arrays. A
    # Python tuple per record alone costs more than that.
    import argparse
    import tracemalloc

    from trilink.cli import _load_graph

    g = oracles.gnp_graph(600, 0.1, rng_seed=5)
    path = tmp_path / "gnp.tsv"
    write_edge_list(path, g)
    args = argparse.Namespace(input=str(path), timestamps=False)
    tracemalloc.start()
    try:
        loaded = _load_graph(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    public = largest_connected_component(build_graph(load_edge_list(path)))
    assert loaded.labels == public.labels and np.array_equal(loaded.indices, public.indices)
    assert peak < 12 * 8 * g.m


def test_library_load_holds_no_record_tuples(tmp_path):
    # load_edge_list keeps the records as index arrays, and build_graph
    # builds from them, so the library path peaks as the CLI's does. G(1500,
    # 0.08), the diagnose benchmark's graph, has 89,949 records; a Python
    # tuple per record took its peak to 12.8 MiB.
    import tracemalloc

    rng = np.random.default_rng(41)
    iu, ju = np.triu_indices(1500, k=1)
    keep = rng.random(len(iu)) < 0.08
    path = tmp_path / "gnp1500.tsv"
    path.write_text("".join(f"{i} {j}\n" for i, j in zip(iu[keep].tolist(), ju[keep].tolist())))
    tracemalloc.start()
    try:
        g = build_graph(load_edge_list(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(load_edge_list(path)), g.n) == (89_949, 1500)
    assert peak < 9 * 2**20


def test_load_refuses_timestamps_outside_int64():
    # Timestamps are kept as int64, so one that does not fit is a parse error.
    el = load_edge_list(io.StringIO(f"1 2 {2**63 - 1}\n2 3 {-2**63}\n"), has_timestamps=True)
    assert el.times == (2**63 - 1, -2**63)
    with pytest.raises(ParseError, match=re.escape(f"line 2: timestamp '{2**63}' is outside the int64 range")):
        load_edge_list(io.StringIO(f"1 2 0\n2 3 {2**63}\n"), has_timestamps=True)
    with pytest.raises(ParseError, match="line 1: timestamp"):
        load_edge_list(io.StringIO(f"1 1 {-2**63 - 1}\n"), has_timestamps=True)


def _label_edges(g):
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edge_array()}


def test_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = oracles.random_graph(rng)
        h = build_graph(to_edge_list(g))
        assert set(h.labels) == set(g.labels)
        assert (h.n, h.m) == (g.n, g.m)
        assert _label_edges(h) == _label_edges(g)


@pytest.mark.parametrize(
    "edges, bad",
    [
        (build_graph([("1", 2), (1, 3)]), "1"),  # would merge into int 1
        (build_graph([(1, "#a"), (2, "#a")]), "#a"),  # edge (#a, 2) is written "#a 2", a comment
        (build_graph([(2, "%b"), (3, "%b")]), "%b"),
        (EdgeList(((1, "a b"),)), "a b"),  # one label, two fields
        (EdgeList(((1, "a\tb"),)), "a\tb"),
        (EdgeList((("", 2),)), ""),
        (EdgeList(((1, 2), (1.0, 3))), 1.0),  # equals the label 1, but is written "1.0"
        (EdgeList(((np.int64(1), 2), (True, 3))), True),  # equals np.int64(1), written "True"
    ],
    ids=["str-int-merge", "hash", "percent", "space", "tab", "empty", "float-equals-int", "bool-equals-int"],
)
def test_write_refuses_labels_that_would_not_read_back(tmp_path, edges, bad):
    path = tmp_path / "edges.tsv"
    with pytest.raises(DataError, match=re.escape(f"label {bad!r}")):
        write_edge_list(path, edges)
    assert not path.exists()


# Stamps are int64, so 2**63 and -2**63 - 1 would not load either.
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "7", np.float64(3.0), 2**63, -2**63 - 1], ids=repr)
def test_write_refuses_timestamps_that_would_not_read_back(tmp_path, bad):
    path = tmp_path / "edges.tsv"
    with pytest.raises(DataError, match=re.escape(f"timestamp {bad!r}")):
        write_edge_list(path, EdgeList(((1, 2), (2, 3)), (bad, 2)))
    assert not path.exists()
    write_edge_list(path, EdgeList(((1, 2), (2, 3)), (np.int64(-4), 2**63 - 1)))
    assert load_edge_list(path, has_timestamps=True).times == (-4, 2**63 - 1)


def test_write_read_round_trip_keeps_every_label(tmp_path):
    el = EdgeList(((1, "01"), ("01", "node_a"), (-3, "1_0"), (10, 1), ("x#", "y%")), (5, 4, 3, 2, 1))
    write_edge_list(tmp_path / "el.tsv", el)
    assert load_edge_list(tmp_path / "el.tsv", has_timestamps=True) == el
    g = build_graph(el)
    write_edge_list(tmp_path / "g.tsv", g)
    h = build_graph(load_edge_list(tmp_path / "g.tsv"))
    assert set(h.labels) == set(g.labels)
    assert _label_edges(h) == _label_edges(g)


def test_degrees_and_neighbors(path3):
    mid = path3.label_index[2]
    nbrs = [path3.labels[j] for j in path3.neighbors(mid)]
    assert sorted(nbrs) == [1, 3]
    with pytest.raises(IndexError):
        path3.degree(99)
    with pytest.raises(IndexError):
        path3.neighbors(-1)


def test_couple_degrees(couple):
    ix = couple.label_index
    # hubs: each other plus the six mutual friends
    assert couple.degree(ix["b1"]) == 7
    assert couple.degree(ix["b2"]) == 7
    assert couple.degree(ix["r"]) == 6
    assert couple.degree(ix["k1"]) == 3


def test_lcc_picks_largest():
    # two disjoint triangles plus a disjoint edge -> one triangle survives
    g = build_graph(EdgeList(((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8))))
    lcc = largest_connected_component(g)
    assert (lcc.n, lcc.m) == (3, 3)
    assert set(lcc.labels) == {1, 2, 3}


def test_lcc_connected_graph_identity(couple):
    lcc = largest_connected_component(couple)
    assert lcc.labels == couple.labels
    assert np.array_equal(lcc.edge_array(), couple.edge_array())


def test_lcc_tie_break_smallest_index():
    # components of sizes {4, 4}: the one holding the smallest dense index wins
    g = build_graph(
        EdgeList((("p", "q"), ("q", "r"), ("r", "s"), ("w", "x"), ("x", "y"), ("y", "z")))
    )
    lcc = largest_connected_component(g)
    assert set(lcc.labels) == {"p", "q", "r", "s"}
    # cross-check both components with a BFS oracle
    assert oracles.bfs_nodes(g, 0) == {g.label_index[t] for t in ("p", "q", "r", "s")}
    assert oracles.bfs_nodes(g, g.label_index["w"]) == {
        g.label_index[t] for t in ("w", "x", "y", "z")
    }


def test_lcc_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = oracles.random_graph(rng)
        lcc = largest_connected_component(g)
        assert oracles.bfs_nodes(lcc, 0) == set(range(lcc.n))
        # no discarded component is strictly larger
        comp_sizes = []
        seen: set[int] = set()
        for i in range(g.n):
            if i not in seen:
                comp = oracles.bfs_nodes(g, i)
                seen |= comp
                comp_sizes.append(len(comp))
        assert lcc.n == max(comp_sizes)


def test_lcc_matches_the_induced_slice():
    # disjoint unions of random graphs, edges shuffled so the components'
    # dense indices interleave; every other graph repeats one component
    # under new labels, so the two largest tie on size
    rng = np.random.default_rng(53)
    for trial in range(40):
        parts = [oracles.random_graph(rng, max_n=8) for _ in range(int(rng.integers(2, 5)))]
        if trial % 2:
            parts.append(parts[int(np.argmax([p.n for p in parts]))])
        pairs = []
        for c, part in enumerate(parts):
            pairs += [(f"{c}:{part.labels[i]}", f"{c}:{part.labels[j]}") for i, j in part.edge_array()]
        g = build_graph(EdgeList(tuple(pairs[i] for i in rng.permutation(len(pairs)))))
        got, want = largest_connected_component(g), oracles.largest_component_slice(g)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.indptr.dtype == got.indices.dtype == np.int64
        assert got.labels == want.labels


def test_edge_neighborhood_examples(triangle_pendant, k2, star4):
    ix = triangle_pendant.label_index
    nbhd = edge_neighborhood(triangle_pendant, ix[1], ix[2])
    assert [triangle_pendant.labels[i] for i in nbhd] == [3]
    assert len(edge_neighborhood(k2, 0, 1)) == 0
    sx = star4.label_index
    got = {star4.labels[i] for i in edge_neighborhood(star4, sx["c"], sx["a"])}
    assert got == {"b", "x", "y"}


def test_edge_neighborhood_properties():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = oracles.random_graph(rng)
        u, v = rng.choice(g.n, size=2, replace=False)
        a = edge_neighborhood(g, int(u), int(v))
        b = edge_neighborhood(g, int(v), int(u))
        assert np.array_equal(a, b)
        assert set(int(x) for x in a) == oracles.edge_nbhd_sets(g, int(u), int(v))
        assert int(u) not in a and int(v) not in a
    with pytest.raises(ValueError):
        edge_neighborhood(g, 0, 0)
