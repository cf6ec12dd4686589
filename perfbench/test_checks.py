"""The output checks accept real CLI outputs and reject deliberately wrong ones.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_outputs, same_files  # noqa: E402
from workloads import InputSpec, Workload  # noqa: E402
from worker import gen  # noqa: E402

SEED = 3
GPA = InputSpec("gpa-small", "gpa", 1500, 0.5, 2)
GNP = InputSpec("gnp-small", "gnp", 120, 0.15, 5)
SMALL = {
    "holdout": Workload("holdout-small", "holdout", GPA, 12),
    "loeto": Workload("loeto-small", "loeto", GPA, 5),
    "linkpred": Workload("linkpred-small", "linkpred", GPA, 20),
    "diagnose": Workload("diagnose-small", "diagnose", GNP, 30),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(workload, input path, output dir) per kind, from real CLI runs."""
    from trilink.cli import main

    base = tmp_path_factory.mktemp("bench")
    inputs = {}
    for spec in (GPA, GNP):
        inputs[spec.name] = str(base / f"{spec.name}.txt")
        gen(spec, inputs[spec.name])
    out = {}
    for kind, w in SMALL.items():
        d = base / kind
        assert main(w.argv(inputs[w.input.name], str(d), SEED)) == 0
        out[kind] = (w, inputs[w.input.name], d)
    return out


def _mutant(outputs, kind, tmp_path) -> tuple[Workload, str, Path]:
    w, path, d = outputs[kind]
    copy = tmp_path / kind
    shutil.copytree(d, copy)
    return w, path, copy


def _edit_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _set_rank(row: dict, rank: int) -> None:
    row["best_rank"] = str(rank)
    row["sp"] = str(int(0 < rank <= int(row["k"])))


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_real_outputs_pass(outputs, kind):
    w, path, d = outputs[kind]
    assert check_outputs(w, path, SEED, str(d)) == []


def test_holdout_wrong_rank_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "holdout", tmp_path)

    def shift(rows):
        for r in rows[: len(rows) // w.count]:
            if r["method"] == "pairseed":
                _set_rank(r, int(r["best_rank"]) + 7)

    _edit_csv(d / "pairwise_detail.csv", shift)
    assert any("pairseed best_rank" in e for e in check_outputs(w, path, SEED, str(d)))


def test_holdout_truth_count_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "holdout", tmp_path)

    def bump(rows):
        for r in rows[len(rows) // w.count : 2 * len(rows) // w.count]:
            r["truth_count"] = str(int(r["truth_count"]) + 1)

    _edit_csv(d / "pairwise_detail.csv", bump)
    assert any("truth_count" in e for e in check_outputs(w, path, SEED, str(d)))


def test_holdout_inconsistent_sp_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "holdout", tmp_path)

    def flip(rows):
        rows[0]["sp"] = str(1 - int(rows[0]["sp"]))

    _edit_csv(d / "pairwise_detail.csv", flip)
    assert check_outputs(w, path, SEED, str(d))


def test_loeto_truth_count_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "loeto", tmp_path)

    def bump(rows):
        for r in rows[: len(rows) // w.count]:
            r["truth_count"] = str(int(r["truth_count"]) + 1)

    _edit_csv(d / "pairwise_detail.csv", bump)
    assert any("(A²)_uv" in e for e in check_outputs(w, path, SEED, str(d)))


def test_linkpred_perturbed_auc_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "linkpred", tmp_path)

    def perturb(rows):
        a = float(rows[0]["auc"])
        rows[0]["auc"] = repr(a - 0.01 if a > 0.5 else a + 0.01)

    _edit_csv(d / "linkpred_nodes.csv", perturb)
    assert any("single AUC" in e for e in check_outputs(w, path, SEED, str(d)))


def test_linkpred_baseline_delta_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "linkpred", tmp_path)

    def shift(rows):
        rows[0]["mean_delta_vs_baseline"] = "0.001"

    _edit_csv(d / "linkpred_summary.csv", shift)
    assert any("delta" in e for e in check_outputs(w, path, SEED, str(d)))


def test_diagnose_wrong_seed_edge_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "diagnose", tmp_path)
    meta_path = d / "diagnose_metadata.json"
    meta = json.loads(meta_path.read_text())
    edges = [[int(t) for t in line.split()] for line in Path(path).read_text().splitlines()[:2]]
    meta["seed_edge"] = edges[1] if edges[0] == meta["seed_edge"] else edges[0]
    meta_path.write_text(json.dumps(meta))
    assert any("seed edge" in e for e in check_outputs(w, path, SEED, str(d)))


def test_diagnose_perturbed_delta_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "diagnose", tmp_path)

    def perturb(rows):
        rows[2]["l1_delta"] = repr(float(rows[2]["l1_delta"]) * (1 + 1e-6))

    _edit_csv(d / "diagnose.csv", perturb)
    assert any("l1_delta" in e for e in check_outputs(w, path, SEED, str(d)))


def test_diagnose_correlation_out_of_range_fails(outputs, tmp_path):
    w, path, d = _mutant(outputs, "diagnose", tmp_path)

    def bad(rows):
        rows[5]["kendall_top100"] = "1.5"

    _edit_csv(d / "diagnose.csv", bad)
    assert any("correlation" in e for e in check_outputs(w, path, SEED, str(d)))


def test_changed_byte_breaks_identity(outputs, tmp_path):
    _, _, d = _mutant(outputs, "holdout", tmp_path)
    assert same_files(str(outputs["holdout"][2]), str(d))
    meta = d / "pairwise_metadata.json"
    meta.write_bytes(meta.read_bytes().replace(b'"rng_seed": 3', b'"rng_seed": 4'))
    assert not same_files(str(outputs["holdout"][2]), str(d))
