"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Reference values come from the published error tables; each value must match
to two significant figures (10% relative tolerance).  Two published entries
are errata: exact-rational recomputation gives 2.19e-14 where 1.4e-12 is
printed, and 2.10e-3 where 3.4e-3 is printed.  The tables below hold the exact
values and ``PUBLISHED_ERRATA`` keeps the printed ones; the exact computation
is ``tests/exact_reference.py`` and ``tests/test_exact_reference.py`` ties
both records to it.
"""

import math
import time

import numpy as np
import pytest

from cavitree.bounds import (
    conjecture_check,
    doubling_slope,
    noise_threshold,
    undirected_bound_sequence,
)
from cavitree.cavity import (
    ActiveEdgeEngine,
    ConfigModelEngine,
    FiniteTreeEngine,
    RegularTreeEngine,
    posterior_with_hubs,
)
from cavitree.cli import main as cli_main
from cavitree.model import SignalModel, UpdateRule
from cavitree.oracle import feasible_set, unroll
from cavitree.sim import simulate
from cavitree.trees import DegreeDistribution, TreeGraph, regular_tree
from cavitree.verify import invariant_suite, oracle_equivalence_suite

RTOL = 0.10

TABLE1_BAYES = [0.15, 2.7e-2, 7.6e-4, 2.8e-7, 2.2e-14]
TABLE1_MAJ = [0.15, 2.7e-2, 1.7e-3, 8.4e-6, 2.5e-10]
TABLE2_BAYES = [0.15, 6.1e-2, 1.5e-2, 3.0e-3, 3.4e-4, 2.7e-5, 2.2e-6, 1.4e-7]
TABLE2_MAJ = [0.15, 6.1e-2, 3.0e-2, 1.6e-2, 9.2e-3, 5.5e-3, 3.4e-3, 2.1e-3]
TABLE4 = {3: [0.30, 0.22, 0.13, 7.8e-2, 3.8e-2, 1.7e-2, 5.7e-3, 1.5e-3],
          5: [0.30, 0.16, 5.1e-2, 4.1e-3, 1.6e-5],
          7: [0.30, 0.13, 1.3e-2, 4.4e-6]}

# Published entries that exact-rational arithmetic shows to be wrong by more
# than RTOL, keyed by (rule, d, noise, round) and holding (published, exact).
# The Bayesian entry sits where the original computation ran out of
# floating-point precision; the majority entry repeats the round-6 value.
PUBLISHED_ERRATA = {
    ("bayesian", 5, 0.15, 4): (1.4e-12, 2.192383730866e-14),
    ("majority", 3, 0.15, 7): (3.4e-3, 2.098666628445e-3),
}


def _column(rule, d, noise, rounds):
    engine = RegularTreeEngine(SignalModel.binary_symmetric(noise), d,
                               UpdateRule(variant=rule))
    return engine.error_curve(rounds)


@pytest.fixture(scope="module")
def columns():
    t0 = time.monotonic()
    cols = {
        ("bayesian", 5, 0.15): _column("bayesian", 5, 0.15, 4),
        ("majority", 5, 0.15): _column("majority", 5, 0.15, 4),
        ("bayesian", 3, 0.15): _column("bayesian", 3, 0.15, 7),
        ("majority", 3, 0.15): _column("majority", 3, 0.15, 7),
        ("bayesian", 3, 0.3): _column("bayesian", 3, 0.3, 7),
        ("majority", 3, 0.3): _column("majority", 3, 0.3, 7),
        ("bayesian", 5, 0.3): _column("bayesian", 5, 0.3, 4),
        ("majority", 5, 0.3): _column("majority", 5, 0.3, 4),
        ("bayesian", 7, 0.3): _column("bayesian", 7, 0.3, 3),
        ("majority", 7, 0.3): _column("majority", 7, 0.3, 3),
    }
    cols["elapsed"] = time.monotonic() - t0
    return cols


def _compare(got, ref, failures, label):
    for t, (g, r) in enumerate(zip(got, ref)):
        if abs(g - r) > RTOL * r:
            failures.append(f"{label} round {t}: computed {g:.4e} vs published "
                            f"{r:.1e} (off by {abs(g - r) / r:.1%})")


def _errata_note(d, noise):
    return "".join(f"; erratum {rule} round {t}: published {published:.1e}, "
                   f"exact {exact:.6e}"
                   for (rule, d_, noise_, t), (published, exact)
                   in PUBLISHED_ERRATA.items() if (d_, noise_) == (d, noise))


def _report(num, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {num}] {status}" + (f" -- {detail}" if detail else ""))
    assert not failures, f"criterion {num}: " + " | ".join(failures)


def _run_cli(tmp_path, *argv):
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return cli_main(list(argv))
    finally:
        os.chdir(cwd)


def _read_errors(path):
    rows = path.read_text().strip().splitlines()[1:]
    return [float(r.split(",")[4]) for r in rows]


def test_criterion_1_table1(tmp_path, columns):
    failures = []
    t0 = time.monotonic()
    for rule, ref in (("bayesian", TABLE1_BAYES), ("majority", TABLE1_MAJ)):
        out = tmp_path / f"t1_{rule}.csv"
        code = _run_cli(tmp_path, "table", "--rule", rule, "--d", "5",
                        "--noise", "0.15", "--rounds", "4", "--out", str(out))
        if code != 0:
            failures.append(f"cmd_table exit {code}")
            continue
        _compare(_read_errors(out), ref, failures, f"table1 {rule}")
    elapsed = time.monotonic() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s over the 5 minute limit")
    _report(1, failures, f"Table 1 reproduction ({elapsed:.1f}s)"
                         + _errata_note(5, 0.15))


def test_criterion_2_table2(tmp_path, columns):
    failures = []
    t0 = time.monotonic()
    for rule, ref in (("bayesian", TABLE2_BAYES), ("majority", TABLE2_MAJ)):
        out = tmp_path / f"t2_{rule}.csv"
        code = _run_cli(tmp_path, "table", "--rule", rule, "--d", "3",
                        "--noise", "0.15", "--rounds", "7", "--out", str(out))
        if code != 0:
            failures.append(f"cmd_table exit {code}")
            continue
        _compare(_read_errors(out), ref, failures, f"table2 {rule}")
    elapsed = time.monotonic() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.0f}s over the 2 minute limit")
    _report(2, failures, f"Table 2 reproduction ({elapsed:.1f}s)"
                         + _errata_note(3, 0.15))


def test_criterion_3_table4_and_slopes(columns):
    failures = []
    for d, ref in TABLE4.items():
        got = columns[("bayesian", d, 0.3)][:len(ref)]
        _compare(got, ref, failures, f"table4 d={d}")
        diag = doubling_slope(got)
        if not diag["doubly_exponential_consistent"]:
            failures.append(f"d={d} sequence not flagged doubly exponential")
    _report(3, failures, "Table 4 / decay-curve reproduction with slope flags")


def test_criterion_4_oracle_equivalence(tmp_path):
    t0 = time.monotonic()
    code = _run_cli(tmp_path, "verify", "--max-nodes", "8", "--max-t", "3")
    elapsed = time.monotonic() - t0
    failures = [] if code == 0 else [f"cmd_verify exit {code}"]
    report = oracle_equivalence_suite(max_nodes=8, max_t=3)
    failures += [name for name, ok, _ in report.checks if not ok]
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.0f}s over the 2 minute limit")
    _report(4, failures,
            f"cmd_verify + brute-force oracle equivalence ({elapsed:.1f}s)")


def test_criterion_5_invariants():
    report = invariant_suite(ds=(3, 5), noises=(0.15, 0.3), max_t=4)
    failures = [f"{name}: {detail}" for name, ok, detail in report.checks if not ok]
    _report(5, failures, f"cavity-table invariant suite, {len(report.checks)} checks")


def test_criterion_6_bound_domination(columns):
    failures = []
    exact = columns[("majority", 5, 0.15)]
    bound = undirected_bound_sequence(5, 0.15, 4).values
    for t in range(5):
        if exact[t] > bound[t] + 1e-15:
            failures.append(f"round {t}: exact {exact[t]:.3e} above bound "
                            f"{bound[t]:.3e}")
    target = (8 * math.e / 3) ** -3
    if abs(noise_threshold(5) - target) > 1e-12:
        failures.append("noise_threshold(5) mismatch")
    _report(6, failures, "majority bound dominates the exact cavity error")


def test_criterion_7_conjecture(columns):
    failures = []
    for d, noise, rounds in ((5, 0.15, 4), (3, 0.15, 7), (3, 0.3, 7),
                             (5, 0.3, 4), (7, 0.3, 3)):
        report = conjecture_check(columns[("bayesian", d, noise)][:rounds + 1],
                                  columns[("majority", d, noise)][:rounds + 1])
        if not report["holds"]:
            failures.append(f"d={d} noise={noise}: {report['violations']}")
    _report(7, failures, "Bayesian <= majority at every computed round")


def test_criterion_8_monte_carlo(columns):
    t0 = time.monotonic()
    model = SignalModel.binary_symmetric(0.15)
    rule = UpdateRule(variant="bayesian")
    graph = regular_tree(5, 5)
    engine = FiniteTreeEngine(graph, model, rule)
    engine.run(2)
    # Two threads: a chunk's tally does not depend on the thread that ran
    # it, so the tallies are those of one thread, in less wall time.
    result = simulate(graph, model, rule, 2, 10 ** 6, seed=2024,
                      tables=engine, chunk=1 << 14, threads=2)
    failures = []
    for t, quoted in enumerate([0.15, 2.7e-2, 7.6e-4]):
        exact = engine.error_probability(0, t)
        if abs(exact - quoted) > RTOL * quoted:
            failures.append(f"exact value drifted from published at t={t}")
        rate = result.rate(0, t)
        se = max(result.standard_error(0, t),
                 math.sqrt(exact * (1 - exact) / result.samples))
        if abs(rate - exact) > 4 * se:
            failures.append(f"t={t}: empirical {rate:.4e} beyond 4 standard "
                            f"errors of exact {exact:.4e}")
    elapsed = time.monotonic() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s over the 5 minute limit")
    _report(8, failures, f"10^6-sample Monte Carlo vs exact center values "
                         f"({elapsed:.1f}s)")


def test_criterion_9_extensions():
    failures = []
    model = SignalModel.binary_symmetric(0.15)
    rule = UpdateRule(variant="bayesian")

    active = ActiveEdgeEngine(model, 5, rule, p=1.0)
    active.run(2)
    reference = RegularTreeEngine(model, 5, rule)
    reference.run(2)
    if active.error_probability(2) != reference.error_probability(2):
        failures.append("active edges with p=1 did not reproduce the round-2 "
                        "value exactly")

    cfg = ConfigModelEngine(model, DegreeDistribution((5,), np.array([1.0])), rule)
    cfg.run(3)
    reference.run(3)
    for t in range(3):
        if np.max(np.abs(cfg.q[t][0] - reference.q[t][0])) > 1e-12:
            failures.append(f"degenerate degree mixture differs at t={t}")

    triangle = TreeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)), hubs=frozenset({2}))
    loopy = TreeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
    tensor = unroll(loopy, model, rule, 1)
    for x in (0, 1):
        for obs in ((0, 0), (0, 1), (1, 0), (1, 1)):
            post = posterior_with_hubs(triangle, model, rule, 0, x,
                                       {1: obs[0], 2: obs[1]}, 1)
            idx = feasible_set(tensor, 0, x, obs, 0)
            w = model.prior * np.array(
                [tensor.signal_probs[s][idx].sum() for s in (0, 1)])
            if np.max(np.abs(post - w / w.sum())) > 1e-10:
                failures.append(f"hub posterior off at x={x} obs={obs}")
    _report(9, failures, "active-edge, degree-mixture and hub sanity checks")
