import json
import hashlib

import pytest

from cavitree.cli import main


def run(tmp_path, *argv):
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_table_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "t.csv"
    code = run(tmp_path, "table", "--rule", "bayesian", "--d", "3",
               "--noise", "0.15", "--rounds", "2", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rule,d,noise,round,error_prob"
    assert len(lines) == 4
    assert lines[1].startswith("bayesian,3,0.15,0,1.49999999999999994e-01")
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["sha256"] == digest
    assert manifest["config"]["rounds"] == 2
    assert "instability_flags" not in manifest


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "t.csv"
    args = ("table", "--rule", "majority", "--d", "3", "--noise", "0.3",
            "--rounds", "3", "--out", str(out))
    assert run(tmp_path, *args) == 0
    first = out.read_bytes()
    assert run(tmp_path, *args) == 0
    assert out.read_bytes() == first


def test_curve_columns_consistent(tmp_path):
    import math

    out = tmp_path / "c.csv"
    assert run(tmp_path, "curve", "--d", "3,5", "--noise", "0.3",
               "--rounds", "2", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        parts = row.split(",")
        p = float(parts[3])
        assert abs(float(parts[4]) - math.log(-math.log(p))) <= 1e-9


def test_bounds_csv(tmp_path):
    out = tmp_path / "b.csv"
    assert run(tmp_path, "bounds", "--variant", "undirected", "--d", "5",
               "--delta0", "0.15", "--rounds", "4", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "variant,d,delta0,t,value"
    delta1 = float(rows[2].split(",")[4])
    assert delta1 == pytest.approx(0.10951875, abs=1e-12)


def test_verify_small_passes(tmp_path):
    assert run(tmp_path, "verify", "--max-nodes", "4", "--max-t", "2") == 0


def test_conjecture_runs(tmp_path):
    out = tmp_path / "cj.csv"
    assert run(tmp_path, "conjecture", "--d", "3", "--noise", "0.15",
               "--rounds", "3", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith(",1") for row in rows)


def test_simulate_digest_stable(tmp_path):
    args = ("simulate", "--tree", "3:2", "--rule", "majority", "--noise", "0.15",
            "--rounds", "1", "--samples", "5000", "--seed", "1", "--out", "sim")
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "sim.csv").read_bytes()
    manifest1 = json.loads((tmp_path / "sim.manifest.json").read_text())
    assert run(tmp_path, *args) == 0
    assert (tmp_path / "sim.csv").read_bytes() == first
    manifest2 = json.loads((tmp_path / "sim.manifest.json").read_text())
    assert ([o["sha256"] for o in manifest1["outputs"]]
            == [o["sha256"] for o in manifest2["outputs"]])


def test_simulate_bayesian_tree(tmp_path):
    assert run(tmp_path, "simulate", "--tree", "3:2", "--rule", "bayesian",
               "--noise", "0.15", "--rounds", "1", "--samples", "2000",
               "--seed", "2", "--out", "simb") == 0
    doc = json.loads((tmp_path / "simb.json").read_text())
    rate0 = doc["errors"][0][0] / doc["samples"]
    assert abs(rate0 - 0.15) < 0.03


def test_configuration_error_exit_code(tmp_path):
    assert run(tmp_path, "table", "--noise", "0.7", "--rounds", "1") == 2
    assert run(tmp_path, "simulate", "--rule", "majority", "--rounds", "1",
               "--samples", "10") == 2
    assert run(tmp_path, "table", "--rounds", "-1") == 2
    assert run(tmp_path, "simulate", "--tree", "3:2", "--samples", "0") == 2
    assert run(tmp_path, "table", "--condition", "5") == 2
    (tmp_path / "empty.json").write_text("{}")
    assert run(tmp_path, "simulate", "--graph", "empty.json") == 2
    (tmp_path / "flat.json").write_text('{"n": 2, "edges": [0, 1]}')
    assert run(tmp_path, "simulate", "--graph", "flat.json") == 2
    (tmp_path / "list.json").write_text("[1, 2]")
    assert run(tmp_path, "table", "--model", "list.json") == 2
    assert run(tmp_path, "verify", "--max-t", "-1") == 2
    assert run(tmp_path, "verify", "--max-nodes", "1") == 2
    assert run(tmp_path, "simulate", "--tree", "3:2", "--threads", "0") == 2


def test_budget_exit_code(tmp_path):
    assert run(tmp_path, "table", "--d", "5", "--rounds", "12") == 3


def test_model_file_flag(tmp_path):
    model_doc = {"noise": 0.3, "tie_break": "own_signal"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    out = tmp_path / "m.csv"
    assert run(tmp_path, "table", "--model", str(path), "--d", "3",
               "--rounds", "1", "--out", str(out)) == 0
    first = float(out.read_text().strip().splitlines()[1].split(",")[4])
    assert abs(first - 0.3) < 1e-12
