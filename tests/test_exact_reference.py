"""Ties the engine and the acceptance tables to the exact-rational reference.

The two published entries recorded in ``PUBLISHED_ERRATA`` are replaced in
the acceptance tables by their exact values; these tests show that the
replacements are what exact arithmetic gives and that the engine reproduces
every round of both columns.
"""

import ast
from pathlib import Path

import pytest

from cavitree.cavity import RegularTreeEngine
from cavitree.model import SignalModel, UpdateRule
from exact_reference import ExactRegularTree
from test_acceptance import PUBLISHED_ERRATA, RTOL, TABLE1_BAYES, TABLE2_MAJ

AGREEMENT = 1e-14  # engine vs exact, relative, at every round: float64 rounding
COLUMNS = (("bayesian", 5, 0.15, 4), ("majority", 3, 0.15, 7))
CORRECTED = {("bayesian", 5, 0.15, 4): TABLE1_BAYES[4],
             ("majority", 3, 0.15, 7): TABLE2_MAJ[7]}


@pytest.fixture(scope="module")
def exact():
    """(reference, exact error curve) per column key (rule, d, noise)."""
    out = {}
    for rule, d, noise, rounds in COLUMNS:
        ref = ExactRegularTree(rule, d, str(noise))
        out[rule, d, noise] = ref, ref.error_curve(rounds)
    return out


@pytest.mark.parametrize("rule,d,noise,rounds", COLUMNS)
def test_engine_matches_exact_every_round(exact, rule, d, noise, rounds):
    engine = RegularTreeEngine(SignalModel.binary_symmetric(noise), d,
                               UpdateRule(variant=rule))
    got = engine.error_curve(rounds)
    want = [float(v) for v in exact[rule, d, noise][1]]
    for t, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= AGREEMENT * w, (
            f"{rule} d={d} round {t}: engine {g:.12e} vs exact {w:.12e}")


def test_corrected_constants_are_exact_to_two_figures(exact):
    assert set(CORRECTED) == set(PUBLISHED_ERRATA)
    for (rule, d, noise, t), value in CORRECTED.items():
        assert value == float(f"{float(exact[rule, d, noise][1][t]):.1e}")


def test_published_errata_are_off_by_more_than_rtol(exact):
    for (rule, d, noise, t), (published, recorded) in PUBLISHED_ERRATA.items():
        value = exact[rule, d, noise][1][t]
        assert abs(published - value) > RTOL * value
        assert abs(recorded - value) <= 1e-12 * value


def test_cavity_columns_sum_to_one(exact):
    for ref, _ in exact.values():
        for t in range(len(ref.q)):
            assert set(ref.cavity_column_sums(t)) == {1}


def test_reference_imports_only_the_standard_library():
    tree = ast.parse(Path(__file__).with_name("exact_reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"fractions", "itertools", "math"}


@pytest.mark.parametrize("rule,d,noise", [
    ("custom", 3, "0.15"),
    ("majority", 4, "0.15"),
    ("bayesian", 0, "0.15"),
    ("bayesian", 3, "0"),
    ("bayesian", 3, "0.5"),
])
def test_reference_rejects_unsupported_inputs(rule, d, noise):
    with pytest.raises(ValueError):
        ExactRegularTree(rule, d, noise)
