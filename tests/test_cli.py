import json
import hashlib

import pytest

import cavitree.cavity.engine as engine_module
import cavitree.cli as cli
from cavitree.cli import main
from cavitree.model import SignalModel


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


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """In-process calls share one parser: a run, a configuration error and
    a second run build it once between them, with the same exit codes."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        argv = ("bounds", "--d", "5", "--rounds", "2", "--out", "b.csv")
        assert run(tmp_path, *argv) == 0
        assert run(tmp_path, "table", "--rounds", "-1") == 2
        assert run(tmp_path, *argv) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_verify_small_passes(tmp_path, capsys):
    """`verify --out` saves the check lines it prints, and its manifest names
    the report with its sha256."""
    assert run(tmp_path, "verify", "--max-nodes", "4", "--max-t", "2",
               "--out", "r.txt") == 0
    *checks, summary = capsys.readouterr().out.splitlines()
    report = (tmp_path / "r.txt").read_bytes()
    assert checks and all(line.startswith("PASS") for line in checks)
    assert report.decode().splitlines() == checks
    assert summary.startswith("OK")
    manifest = json.loads((tmp_path / "r.txt.manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == [
        {"path": "r.txt", "sha256": hashlib.sha256(report).hexdigest()}]


def test_conjecture_runs(tmp_path):
    out = tmp_path / "cj.csv"
    assert run(tmp_path, "conjecture", "--d", "3", "--noise", "0.15",
               "--rounds", "3", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith(",1") for row in rows)


def test_conjecture_csv_carries_the_verdict(tmp_path):
    """At d=5, noise 0.15 the two round-1 errors differ in the last bits,
    Bayesian above majority: a tie to the verdict, so every row holds."""
    out = tmp_path / "cj.csv"
    assert run(tmp_path, "conjecture", "--d", "5", "--noise", "0.15",
               "--rounds", "2", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3
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


@pytest.mark.parametrize("option", [("--d", "7"), ("--condition", "banana")],
                         ids=["d", "condition"])
def test_simulate_refuses_options_it_does_not_read(tmp_path, capsys, option):
    """`simulate` takes its degrees from --tree or --graph and averages over
    the state, so --d and --condition are unknown options there."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "simulate", "--tree", "3:2", "--rounds", "1",
            "--samples", "10", *option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (("simulate", "--tree", "3", "--samples", "10"), "--tree"),
    (("simulate", "--tree", "3:x", "--samples", "10"), "--tree"),
    (("simulate", "--tree", "3:2:1", "--samples", "10"), "--tree"),
    (("curve", "--d", "3,x"), "--d"),
    (("curve", "--d", ","), "--d"),
], ids=["tree-one-part", "tree-not-int", "tree-three-parts", "d-not-int",
        "d-empty"])
def test_unparsable_option_is_named_in_the_one_line_error(tmp_path, capsys,
                                                          argv, option):
    """A --tree or --d that does not parse exits 2 with one line that names
    the option and the form it takes."""
    assert run(tmp_path, *argv, "--rounds", "1") == 2
    err = capsys.readouterr().err.strip().splitlines()
    form = "d:depth" if option == "--tree" else "comma-separated integers"
    assert len(err) == 1 and f"{option} takes {form}" in err[0]


@pytest.mark.parametrize("command, option, doc, message", [
    ("simulate", "--graph", {"n": 3, "edge": [[0, 1], [1, 2]]},
     "field 'edge'"),
    ("simulate", "--graph", {"n": 3, "edges": [[0, 1]], "hub": [2]},
     "field 'hub'"),
    ("table", "--model", {"noise": 0.2, "tie": "uniform"}, "field 'tie'"),
    ("table", "--model", {"noise": 0.1, "likelihood": [[0.6, 0.4],
                                                      [0.3, 0.7]]},
     "noise or likelihood, not both"),
    ("table", "--model", {"noise": 0.1, "states": 3}, "declared state count"),
    ("table", "--model", {"noise": "0.1"}, "JSON number"),
    ("table", "--model", {"prior": [0.5, 0.5],
                          "likelihood": [[float("nan"), 0.5], [0.5, 0.5]]},
     "must be finite"),
    ("table", "--model", {"noise": 0.2, "prior": [float("nan"), 0.5]},
     "must be finite"),
], ids=["graph-edge", "graph-hub", "model-tie", "model-noise-and-likelihood",
        "model-noise-states", "model-string-noise", "model-nan-likelihood",
        "model-nan-prior"])
def test_document_it_does_not_read_exactly_exits_2(tmp_path, capsys, command,
                                                   option, doc, message):
    """A graph or model document with a misspelt field, a likelihood beside
    its noise level, a count it does not have, a number as a string or a NaN
    probability (which Python's JSON reader takes) is a configuration error
    that says which, not a run on the defaults nor a traceback."""
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert run(tmp_path, command, option, "doc.json", "--rounds", "1") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("value", ["\u00b2", "\u0661"],
                         ids=["superscript-two", "arabic-indic-one"])
def test_condition_takes_ascii_digits_only(tmp_path, capsys, value):
    """A Unicode digit is not a state index: it exits 2 with the option's
    own message, not int()'s, and is never read as a state."""
    assert run(tmp_path, "table", "--rounds", "1", "--condition", value) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert (len(err) == 1 and "--condition must be 'average' or a state index"
            in err[0])


def test_budget_exit_code(tmp_path, capsys):
    assert run(tmp_path, "table", "--d", "5", "--rounds", "12") == 3
    capsys.readouterr()
    # Refused before the first core step, not when the step is reached.
    assert run(tmp_path, "simulate", "--tree", "3:2", "--rounds", "12") == 3
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_even_degree_majority_runs_on_the_homogeneous_engine(tmp_path,
                                                             monkeypatch):
    """Majority at even degree runs through tie-coin rows; the coins double
    the rows each round, so round 7 is refused before any core step."""
    assert run(tmp_path, "table", "--rule", "majority", "--d", "4",
               "--rounds", "4") == 0
    assert run(tmp_path, "conjecture", "--d", "4", "--rounds", "4") == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a core step ran before the budget check")

    for name in ("cavity_step_general", "decision_step_general"):
        monkeypatch.setattr(engine_module, name, refuse)
    assert run(tmp_path, "table", "--rule", "majority", "--d", "4",
               "--rounds", "7") == 3


@pytest.mark.parametrize("argv", [
    ("--variant", "undirected", "--d", "2000", "--rounds", "1"),
    ("--variant", "directed", "--d", "2000", "--rounds", "1"),
    ("--variant", "chernoff", "--delta0", "nan"),
    ("--variant", "chernoff", "--d", "4"),
], ids=["undirected-large-d", "directed-large-d", "chernoff-nan-delta0",
        "chernoff-small-d"])
def test_bounds_bad_input_exit_code(tmp_path, capsys, argv):
    """A degree whose binomial coefficients overflow a float, a delta0 that
    is not a probability and a degree below a bound's range are
    configuration errors."""
    assert run(tmp_path, "bounds", *argv) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--tree", "3:2", "--rule", "majority", "--seed", "-1"),
     "seed"),
    (("simulate", "--tree", "3:2", "--rule", "majority", "--seed",
      str(1 << 64)), "seed"),
    (("table", "--d", "0"), "degree"),
], ids=["negative-seed", "seed-past-64-bits", "table-degree-0"])
def test_out_of_range_input_exits_2_with_one_line(tmp_path, capsys, argv,
                                                  message):
    """A seed outside 0..2**64 - 1 would replay another seed's draws under
    its own name, and a degree below 1 has no tree: each is refused."""
    assert run(tmp_path, *argv, "--rounds", "1") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not list(tmp_path.iterdir())


def test_simulate_checks_its_counts_before_building_tables(tmp_path, capsys,
                                                          monkeypatch):
    """A refused seed or sample count exits 2 before the Bayesian tables
    are built."""
    def refuse(*args, **kwargs):
        raise AssertionError("tables built before the counts were checked")

    monkeypatch.setattr(cli, "FiniteTreeEngine", refuse)
    for option, value in (("--seed", "-1"), ("--samples", "0")):
        assert run(tmp_path, "simulate", "--tree", "5:5", "--rounds", "4",
                   option, value) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and option[2:] in err[0]


def test_model_file_flag(tmp_path):
    model_doc = {"noise": 0.3, "tie_break": "own_signal"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    out = tmp_path / "m.csv"
    assert run(tmp_path, "table", "--model", str(path), "--d", "3",
               "--rounds", "1", "--out", str(out)) == 0
    first = float(out.read_text().strip().splitlines()[1].split(",")[4])
    assert abs(first - 0.3) < 1e-12


def test_model_file_runs_report_no_noise_level(tmp_path):
    """A run on a model file writes an empty noise column and names the file
    and its hash in the manifest, not the unused --noise default."""
    doc = {"prior": [0.5, 0.5], "likelihood": [[0.7, 0.3], [0.3, 0.7]]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    digest = SignalModel(**doc).config_hash()
    for command in ("table", "curve"):
        out = tmp_path / f"{command}.csv"
        assert run(tmp_path, command, "--model", str(path), "--d", "3",
                   "--rounds", "2", "--out", str(out)) == 0
        header, *rows = out.read_text().strip().splitlines()
        column = header.split(",").index("noise")
        assert rows and all(row.split(",")[column] == "" for row in rows)
        config = json.loads(
            (tmp_path / f"{command}.csv.manifest.json").read_text())["config"]
        assert config["noise"] is None
        assert (config["model"], config["model_hash"]) == (str(path), digest)


@pytest.mark.parametrize("command", ["table", "curve", "conjecture"])
def test_manifest_records_the_condition(tmp_path, command):
    """A state-conditioned run's manifest says which state it conditions on,
    so its config does not read like an averaged run's."""
    out = tmp_path / f"{command}.csv"
    assert run(tmp_path, command, "--d", "3", "--rounds", "2",
               "--condition", "1", "--out", str(out)) in (0, 1)
    config = json.loads(
        (tmp_path / f"{command}.csv.manifest.json").read_text())["config"]
    assert config["condition"] == "1"
