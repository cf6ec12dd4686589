from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from trilink import (
    DiffusionParams,
    EdgeList,
    GpaParams,
    build_graph,
    enumerate_triangles,
    generate_gpa,
    largest_connected_component,
    load_edge_list,
    make_seed,
    rank_stability,
    trpr_iterates,
    write_edge_list,
)
from trilink.cli import main


@pytest.fixture(scope="module")
def gpa_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "gpa.tsv"
    write_edge_list(path, generate_gpa(GpaParams(p_edge=0.6, steps=400, rng_seed=13)))
    return path


def read(path: Path) -> bytes:
    return Path(path).read_bytes()


def test_pairwise_files_and_schema(gpa_file, tmp_path):
    rc = main(
        [
            "pairwise",
            "--input", str(gpa_file),
            "--protocol", "holdout",
            "--fraction", "0.3",
            "--methods", "pairseed,trpr,trprw,aa,js,pa",
            "--k", "5,25",
            "--trials", "12",
            "--seed", "7",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    summary = (tmp_path / "pairwise_summary.csv").read_text().splitlines()
    assert summary[0] == "method,k,trials,discards,mean_sp"
    assert len(summary) == 1 + 6 * 2
    detail = (tmp_path / "pairwise_detail.csv").read_text().splitlines()
    assert detail[0] == "method,k,seed_u,seed_v,truth_count,best_rank,sp"
    meta = json.loads((tmp_path / "pairwise_metadata.json").read_text())
    assert meta["rng_seed"] == 7 and meta["trials_requested"] == 12


def test_pairwise_byte_identical_across_threads(gpa_file, tmp_path):
    outs = []
    for i, threads in enumerate(("1", "3", "1")):
        out = tmp_path / f"run{i}"
        rc = main(
            [
                "pairwise", "--input", str(gpa_file), "--trials", "10",
                "--methods", "pairseed,trpr,aa", "--seed", "21",
                "--threads", threads, "--out-dir", str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    for name in ("pairwise_summary.csv", "pairwise_detail.csv", "pairwise_metadata.json"):
        blobs = [read(o / name) for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]


def test_linkpred_files(gpa_file, tmp_path):
    rc = main(
        [
            "linkpred", "--input", str(gpa_file), "--num-nodes", "8",
            "--seed", "3", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    nodes = (tmp_path / "linkpred_nodes.csv").read_text().splitlines()
    assert nodes[0] == "node,degree,method,auc"
    summary = (tmp_path / "linkpred_summary.csv").read_text().splitlines()
    assert summary[0] == "method,mean_auc,mean_delta_vs_baseline,mean_dist_to_diag"
    assert len(summary) == 1 + 5


def test_diagnose_schema(gpa_file, tmp_path):
    rc = main(
        [
            "diagnose", "--input", str(gpa_file), "--max-iters", "30",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "diagnose.csv").read_text().splitlines()
    assert lines[0] == "iter,l1_delta,spearman_full,kendall_full,spearman_top100,kendall_top100"
    assert len(lines) == 1 + 30 + 1
    assert lines[-1].startswith("10v30,")
    meta = json.loads((tmp_path / "diagnose_metadata.json").read_text())
    assert meta["max_iters"] == 30 and len(meta["seed_edge"]) == 2


def test_diagnose_rows_match_stored_iterates(gpa_file, tmp_path):
    # Reference: keep every iterate, then compare consecutive pairs and the
    # reference iterate against the last one.
    import numpy as np

    rc = main(["diagnose", "--input", str(gpa_file), "--max-iters", "15", "--iterations", "6",
               "--top-k", "20", "--out-dir", str(tmp_path)])
    assert rc == 0
    g = largest_connected_component(build_graph(load_edge_list(gpa_file)))
    ts = enumerate_triangles(g)
    meta = json.loads((tmp_path / "diagnose_metadata.json").read_text())
    u, v = (g.label_index[w] for w in meta["seed_edge"])
    seed = make_seed(g, "pair", u, v)
    params = DiffusionParams(alpha=0.85, iterations=6)
    its = [seed.dense(g.n)] + [x for _, x, _, _ in trpr_iterates(g, ts, seed, params, iterations=15)]
    deltas = [d for _, _, _, d in trpr_iterates(g, ts, seed, params, iterations=15)]
    want = ["iter,l1_delta,spearman_full,kendall_full,spearman_top20,kendall_top20"]
    for i in range(1, 16):
        stats = rank_stability(its[i - 1], its[i]) + rank_stability(its[i - 1], its[i], top_k=20)
        want.append(",".join([str(i), repr(deltas[i - 1])] + [repr(x) for x in stats]))
    stats = rank_stability(its[6], its[-1]) + rank_stability(its[6], its[-1], top_k=20)
    gap = float(np.abs(its[-1] - its[6]).sum())
    want.append(",".join(["6v15", repr(gap)] + [repr(x) for x in stats]))
    assert (tmp_path / "diagnose.csv").read_text().splitlines() == want


def test_diagnose_zero_triangles(tmp_path):
    path = tmp_path / "path.tsv"
    path.write_text("1 2\n2 3\n3 4\n")
    rc = main(["diagnose", "--input", str(path), "--max-iters", "12", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "diagnose.csv").read_text().splitlines()
    # reduces to plain power iteration: deltas match an independent run
    import numpy as np

    import oracles

    g = build_graph(load_edge_list(path))
    seed = np.zeros(4)
    # the default seed edge is the first canonical edge
    e = g.edge_array()[0]
    seed[[e[0], e[1]]] = 0.5
    prev = seed.copy()
    for i in range(1, 5):
        cur = oracles.power_steps(g, seed, 0.85, i)
        delta = float(np.abs(cur - prev).sum())
        got = float(lines[i].split(",")[1])
        assert got == pytest.approx(delta, abs=1e-12)
        prev = cur


def _diagnose_edge_reference(g, ts):
    # Dict loop over every triangle's corner pairs; smallest pair wins ties.
    if ts.count == 0:
        e = g.edge_array()[0]
        return int(e[0]), int(e[1])
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in ts.triples:
        for e in ((int(a), int(b)), (int(a), int(c)), (int(b), int(c))):
            counts[e] = counts.get(e, 0) + 1
    return min(counts, key=lambda e: (-counts[e], e))


def _diagnose_default_edge(path: Path, out_dir: Path) -> list:
    assert main(["diagnose", "--input", str(path), "--max-iters", "1", "--out-dir", str(out_dir)]) == 0
    return json.loads((out_dir / "diagnose_metadata.json").read_text())["seed_edge"]


def test_default_diagnose_edge_matches_reference(tmp_path):
    import numpy as np

    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(30):
        n = int(rng.integers(6, 40))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < rng.uniform(0.1, 0.6)
        if not keep.any():
            continue
        path = tmp_path / "g.tsv"
        write_edge_list(path, EdgeList(tuple(zip(iu[keep].tolist(), ju[keep].tolist()))))
        g = largest_connected_component(build_graph(load_edge_list(path)))
        ts = enumerate_triangles(g)
        u, v = _diagnose_edge_reference(g, ts)
        assert _diagnose_default_edge(path, tmp_path) == [g.labels[u], g.labels[v]]
        counts = Counter(e for a, b, c in ts.triples.tolist() for e in ((a, b), (a, c), (b, c)))
        ties += list(counts.values()).count(max(counts.values(), default=0)) > 1
    assert ties >= 5
    path = tmp_path / "path.tsv"
    write_edge_list(path, EdgeList(((3, 1), (1, 2), (2, 0))))
    g = build_graph(load_edge_list(path))
    ts = enumerate_triangles(g)
    assert ts.count == 0
    u, v = _diagnose_edge_reference(g, ts)
    assert _diagnose_default_edge(path, tmp_path) == [g.labels[u], g.labels[v]]


def test_diagnose_edge_keeps_leading_zero_labels(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("01 1\n1 b\n01 b\nb c\n")
    rc = main(["diagnose", "--input", str(path), "--edge", "01,1", "--max-iters", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "diagnose_metadata.json").read_text())
    assert meta["seed_edge"] == ["01", 1]


@pytest.mark.parametrize("edge", ["1,3", "1,1"])
def test_diagnose_edge_must_be_an_edge(tmp_path, capsys, edge):
    # Two nodes of the component that are not adjacent, or one node twice,
    # are a data error and write nothing.
    path = tmp_path / "path.tsv"
    path.write_text("1 2\n2 3\n3 4\n")
    out = tmp_path / "out"
    assert main(["diagnose", "--input", str(path), "--edge", edge, "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert "is not an edge" in capsys.readouterr().err


def test_triangles_command(gpa_file, capsys):
    rc = main(["triangles", str(gpa_file)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    from trilink import enumerate_triangles

    g = build_graph(load_edge_list(gpa_file))
    assert int(out) == enumerate_triangles(g).count


def test_triangles_list(tmp_path, capsys):
    path = tmp_path / "tri.tsv"
    path.write_text("7 8\n8 9\n7 9\n")
    rc = main(["triangles", str(path), "--list"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1"
    assert out[1].split("\t") == ["7", "8", "9"]


def test_gen_gpa_roundtrip(tmp_path):
    out = tmp_path / "g.tsv"
    rc = main(["gen-gpa", "--steps", "50", "--p-edge", "0.4", "--seed", "5", "--out", str(out)])
    assert rc == 0
    g = build_graph(load_edge_list(out))
    assert g.m == 10 + 50
    meta = json.loads((tmp_path / "g.tsv.meta.json").read_text())
    assert meta["rng_seed"] == 5 and meta["steps"] == 50
    out2 = tmp_path / "g2.tsv"
    main(["gen-gpa", "--steps", "50", "--p-edge", "0.4", "--seed", "5", "--out", str(out2)])
    assert read(out) == read(out2)


def test_exit_codes(tmp_path, gpa_file):
    # usage: missing required flag
    assert main(["pairwise"]) == 1
    # data error: file does not exist
    assert main(["pairwise", "--input", str(tmp_path / "nope.tsv"), "--trials", "2",
                 "--out-dir", str(tmp_path)]) == 2
    # data error: malformed line
    bad = tmp_path / "bad.tsv"
    bad.write_text("1 2\n1 2 3 4\n")
    assert main(["triangles", str(bad)]) == 2
    # data error: no triangles for loeto
    path = tmp_path / "p.tsv"
    path.write_text("1 2\n2 3\n")
    assert (
        main(["pairwise", "--input", str(path), "--protocol", "loeto", "--trials", "2",
              "--out-dir", str(tmp_path)]) == 2
    )
    # invalid value: negative diagnose step count, no file written
    out = tmp_path / "neg"
    assert main(["diagnose", "--input", str(gpa_file), "--max-iters", "-3",
                 "--out-dir", str(out)]) == 3
    assert not out.exists()
    # invalid value: diagnose top-k below 2, rejected before any work
    for top_k in ("0", "-5", "1"):
        out = tmp_path / f"top{top_k}"
        assert main(["diagnose", "--input", str(gpa_file), "--top-k", top_k,
                     "--out-dir", str(out)]) == 3
        assert not out.exists()



@pytest.mark.parametrize("argv, offender", [
    (["linkpred", "--num-nodes", "0"], "num_nodes"),
    (["linkpred", "--num-nodes", "-3"], "num_nodes"),
    (["linkpred", "--methods", "single,single"], "'single' given twice"),
    (["linkpred", "--methods", ","], "no method"),
    (["pairwise", "--trials", "3", "--methods", "pairseed,pairseed"], "'pairseed' given twice"),
    (["pairwise", "--trials", "3", "--methods", ","], "no method"),
    (["pairwise", "--trials", "3", "--k", "5,5"], "k value 5 given twice"),
    (["pairwise", "--trials", "3", "--k", ","], "no k value"),
    (["pairwise", "--trials", "3", "--protocol", "loeto", "--truth-mode", "or"], "'or' truth"),
    (["pairwise", "--trials", "3", "--protocol", "loeto", "--allow-empty-truth"], "empty truth"),
    (["pairwise", "--trials", "3", "--k", "0,5"], "k must be >= 1"),
    (["diagnose", "--top-k", "1"], "top_k must be >= 2"),
])
def test_bad_cohort_methods_and_k_values_write_nothing(gpa_file, tmp_path, capsys, argv, offender):
    out = tmp_path / "out"
    assert main([*argv, "--input", str(gpa_file), "--out-dir", str(out)]) == 3
    assert not out.exists()
    assert offender in capsys.readouterr().err


def test_linkpred_that_scores_no_node_is_a_data_error(tmp_path, capsys):
    # On a 5-cycle one edge is held out, so the top-3 degree nodes are the
    # inner nodes of the train path, none of which has a held-out partner.
    path = tmp_path / "cycle.tsv"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    out = tmp_path / "out"
    assert main(["linkpred", "--input", str(path), "--num-nodes", "3", "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert "no cohort node has both held-out partners and negatives (3 skipped)" in capsys.readouterr().err


def test_candidate_rule_is_no_option(gpa_file, tmp_path, capsys):
    # The truth mode fixes the candidate rule: no flag or config key sets it.
    out = tmp_path / "flag"
    assert main(["pairwise", "--input", str(gpa_file), "--trials", "3", "--candidate-rule", "either",
                 "--out-dir", str(out)]) == 1
    assert not out.exists()
    assert "unrecognized arguments: --candidate-rule" in capsys.readouterr().err
    cfg = tmp_path / "rule.json"
    cfg.write_text(json.dumps({"candidate_rule": "both"}))
    out = tmp_path / "config"
    assert main(["pairwise", "--input", str(gpa_file), "--trials", "3", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert "'candidate_rule' names no flag" in capsys.readouterr().err


def test_config_file_defaults_and_override(gpa_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 4, "methods": "pairseed", "k": "5"}))
    out = tmp_path / "a"
    rc = main(["pairwise", "--input", str(gpa_file), "--config", str(cfg),
               "--out-dir", str(out)])
    assert rc == 0
    meta = json.loads((out / "pairwise_metadata.json").read_text())
    assert meta["trials_requested"] == 4
    assert meta["methods"] == ["pairseed"]
    # explicit flag beats the config value
    out2 = tmp_path / "b"
    rc = main(["pairwise", "--input", str(gpa_file), "--config", str(cfg),
               "--trials", "6", "--out-dir", str(out2)])
    assert rc == 0
    meta2 = json.loads((out2 / "pairwise_metadata.json").read_text())
    assert meta2["trials_requested"] == 6


def test_config_both_spellings_agree(gpa_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-iters": 3}))
    spellings = {"sep": ["--config", str(cfg)], "eq": [f"--config={cfg}"]}
    for name, flag in spellings.items():
        rc = main(["diagnose", "--input", str(gpa_file), *flag, "--out-dir", str(tmp_path / name)])
        assert rc == 0
    rows = (tmp_path / "sep" / "diagnose.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 + 1
    for name in ("diagnose.csv", "diagnose_metadata.json"):
        assert read(tmp_path / "sep" / name) == read(tmp_path / "eq" / name)


def test_abbreviated_flags_are_usage_errors(gpa_file, tmp_path, capsys):
    # argparse would take --conf for --config, but only the full spelling
    # has its config file read, so the run would silently use the defaults.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 4, "methods": "pairseed"}))
    for flag in (["--conf", str(cfg)], [f"--conf={cfg}"], ["--tri", "4"]):
        out = tmp_path / "abbrev"
        rc = main(["pairwise", "--input", str(gpa_file), *flag, "--out-dir", str(out)])
        assert rc == 1, flag
        assert not out.exists()
        assert "unrecognized arguments" in capsys.readouterr().err
    for name, flag in {"sep": ["--config", str(cfg)], "eq": [f"--config={cfg}"]}.items():
        rc = main(["pairwise", "--input", str(gpa_file), *flag, "--out-dir", str(tmp_path / name)])
        assert rc == 0
        meta = json.loads((tmp_path / name / "pairwise_metadata.json").read_text())
        assert (meta["trials_requested"], meta["methods"]) == (4, ["pairseed"])


def test_config_unknown_key_is_a_data_error(gpa_file, tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"max-iter": 3}))
    out = tmp_path / "out"
    rc = main(["diagnose", "--input", str(gpa_file), "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "'max-iter'" in capsys.readouterr().err


def test_config_values_checked_like_flags(gpa_file, tmp_path, capsys):
    # A bad config value is a usage error, as the same value on the command
    # line would be, and nothing is written.
    cases = [
        ("pairwise", {"protocol": "bogus"}),
        ("diagnose", {"weighted": "yes"}),
        ("diagnose", {"log-level": "loud"}),
        ("diagnose", {"alpha": True}),
    ]
    for i, (command, values) in enumerate(cases):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / f"out{i}"
        rc = main([command, "--input", str(gpa_file), "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 1, values
        assert not out.exists()
        assert "error" in capsys.readouterr().err
    # A true store_true value sets the flag.
    cfg = tmp_path / "weighted.json"
    cfg.write_text(json.dumps({"weighted": True, "max-iters": 2}))
    assert main(["diagnose", "--input", str(gpa_file), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "w")]) == 0
    assert json.loads((tmp_path / "w" / "diagnose_metadata.json").read_text())["weighted"] is True


def test_config_shared_across_subcommands(gpa_file, tmp_path):
    # "trials" is a pairwise flag, "max_iters" a diagnose flag: one file
    # serves both commands.
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"max_iters": 3, "trials": 5, "methods": "pairseed"}))
    rc = main(["diagnose", "--input", str(gpa_file), "--config", str(cfg),
               "--out-dir", str(tmp_path / "d")])
    assert rc == 0
    assert len((tmp_path / "d" / "diagnose.csv").read_text().splitlines()) == 1 + 3 + 1
    rc = main(["pairwise", "--input", str(gpa_file), "--config", str(cfg),
               "--out-dir", str(tmp_path / "p")])
    assert rc == 0
    assert json.loads((tmp_path / "p" / "pairwise_metadata.json").read_text())["trials_requested"] == 5


def test_log_level_routes_debug_messages_to_stderr(gpa_file, tmp_path, capsys):
    path = tmp_path / "dup.tsv"
    path.write_text(gpa_file.read_text() + "".join(gpa_file.read_text().splitlines(True)[:1]))
    message = "build_graph removed 0 self-loop(s), 1 duplicate(s)"
    handlers = list(logging.getLogger("trilink").handlers)
    assert main(["triangles", str(path)]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    for _ in range(2):
        assert main(["triangles", str(path), "--log-level", "debug"]) == 0
        loud = capsys.readouterr()
        assert loud.err.count(message) == 1
        assert loud.out == quiet.out
    assert logging.getLogger("trilink").handlers == handlers
    # replay files and stdout do not depend on the level
    outs = {}
    for level in ("warning", "debug"):
        out = tmp_path / level
        assert main(["pairwise", "--input", str(path), "--trials", "4", "--methods", "pairseed,trpr",
                     "--protocol", "loeto", "--log-level", level, "--out-dir", str(out)]) == 0
        outs[level] = capsys.readouterr()
    assert outs["debug"].err.count(message) == 1
    stdout = outs["debug"].out.replace(str(tmp_path / "debug"), str(tmp_path / "warning"))
    assert stdout == outs["warning"].out
    for name in ("pairwise_summary.csv", "pairwise_detail.csv", "pairwise_metadata.json"):
        assert read(tmp_path / "warning" / name) == read(tmp_path / "debug" / name)


def test_pairwise_temporal_or_mode(tmp_path):
    edges = [("a", "b")]
    edges += [(h, c) for c in ("c1", "c2", "c3") for h in ("a", "b")]
    edges += [("w1", "c1"), ("w2", "c2"), ("a", "w1"), ("b", "w2")]
    path = tmp_path / "temporal.tsv"
    path.write_text("".join(f"{u} {v} {t}\n" for t, (u, v) in enumerate(edges)))
    rc = main(
        [
            "pairwise", "--input", str(path), "--protocol", "temporal",
            "--fraction", str(9 / 13), "--truth-mode", "or", "--methods", "pairseed,js",
            "--k", "5", "--trials", "6", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "pairwise_metadata.json").read_text())
    assert meta["truth_mode"] == "or"
    assert meta["candidate_rule"] == "both"
    assert meta["trials_completed"] == 6


def test_console_script_entrypoint(gpa_file):
    proc = subprocess.run(
        [sys.executable, "-m", "trilink.cli", "triangles", str(gpa_file)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().isdigit()


# Run in a fresh interpreter: the test process itself imports scipy.stats for
# the oracles.
IMPORT_GUARD = """
import json, sys
from trilink.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.sparse.csgraph", "scipy.linalg")))))
"""


def test_subcommands_never_import_scipy_stats_csgraph_or_linalg(gpa_file, tmp_path):
    # trilink uses scipy only for scipy.sparse; scipy.stats alone takes
    # about 0.8 s to import.
    common = ["--input", str(gpa_file), "--seed", "1"]
    runs = [
        ["pairwise", "--protocol", "holdout", "--trials", "3", "--out-dir", str(tmp_path / "h"), *common],
        ["pairwise", "--protocol", "loeto", "--trials", "2", "--out-dir", str(tmp_path / "l"), *common],
        ["linkpred", "--num-nodes", "5", "--out-dir", str(tmp_path / "p"), *common],
        ["diagnose", "--max-iters", "5", "--out-dir", str(tmp_path / "d"), *common],
    ]
    src = str(Path(main.__code__.co_filename).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(runs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert all((tmp_path / d).is_dir() for d in "hlpd")
