"""Verification suites: oracle equivalence and cavity-table invariants.

The oracle-equivalence suite runs the exact engine and the brute-force
forward simulation over a fixed instance family (paths, stars, the depth-2
binary tree) and compares decision tables and error probabilities.  The
invariant suite checks normalization, marginalization, coupling mass, flip
symmetry of the cavity and the decision tables, and error monotonicity on
the homogeneous engine.  Both return a list of (name, passed, detail)
checks; the CLI turns failures into a nonzero exit.

On the symmetric models of the invariant suite the core steps compute
signal 0 only and store one row of each decision table, trusting the
recursion to keep the table its own flip: every reader derives signal 1's
row from row 0 at the complemented input.  The decision-flip check tests
that derivation where a posterior reads it, the own trajectory at t >= 2:
signal 1's posterior at a complemented input must be signal 0's with the
states swapped.  ``tests/test_flip_symmetry.py`` compares the mirrored
tables with the full computation of every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, islice

import numpy as np

from .cavity import CouplingError, FiniteTreeEngine, RegularTreeEngine
from .cavity.core import COUPLING_TOL, error_from_sums
from .model import ModelError, SignalModel, UpdateRule
from .oracle import oracle_decision_tables, oracle_error_probability, unroll
from .trees import TreeGraph, path_graph, rooted_arity_tree, star_graph

ORACLE_TOL = 1e-10
NORM_TOL = 1e-12
FLIP_TOL = 1e-12


@dataclass
class VerifyReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def lines(self) -> list[str]:
        return [f"{'PASS' if passed else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
                for name, passed, detail in self.checks]


def instance_family(max_nodes: int) -> list[tuple[str, TreeGraph]]:
    family = [(f"path{n}", path_graph(n)) for n in range(2, min(max_nodes, 6) + 1)]
    for n in (4, 5):
        if n <= max_nodes:
            family.append((f"star{n}", star_graph(n)))
    if 7 <= max_nodes:
        family.append(("binary2", rooted_arity_tree(2, 2)))
    return family


def oracle_equivalence_suite(max_nodes: int = 8, max_t: int = 3,
                             noise: float = 0.15) -> VerifyReport:
    """Exact engine vs brute force on the fixed family, both update rules."""
    report = VerifyReport()
    model = SignalModel.binary_symmetric(noise)
    for name, graph in instance_family(max_nodes):
        for variant in ("bayesian", "majority"):
            rule = UpdateRule(variant=variant)
            tensor = unroll(graph, model, rule, max_t)
            engine = FiniteTreeEngine(graph, model, rule)
            engine.run(max_t)
            try:
                worst = max(abs(oracle_error_probability(tensor, node, t)
                                - engine.error_probability(node, t))
                            for node in range(graph.n)
                            for t in range(max_t + 1))
                detail = f"max dev {worst:.2e}"
            except CouplingError as exc:
                worst, detail = float("inf"), str(exc)
            report.add(f"oracle-error {name} {variant}", worst <= ORACLE_TOL,
                       detail)
            if tensor.deterministic:
                mismatches = 0
                for node in range(graph.n):
                    for t in range(max_t + 1):
                        for (x, obs), code in oracle_decision_tables(tensor)[node][t].items():
                            kern = engine.decision_kernel(node, t, x, obs)
                            if len(kern) != 1 or kern[0][0] != code:
                                mismatches += 1
                report.add(f"oracle-tables {name} {variant}", mismatches == 0,
                           f"{mismatches} mismatches")
    return report


def _flip_posteriors(engine: RegularTreeEngine, max_t: int,
                     per_round: int = 48) -> tuple[int, int]:
    """Inputs, up to ``per_round`` spread over each round's multisets, at
    which signal 1's posterior at the complemented input is not signal 0's
    reversed (or one of the two is refused), and the inputs checked, over
    rounds 2..max_t, where a posterior reads the own trajectory."""
    mismatched = checked = 0
    for t in range(2, max_t + 1):
        m = engine.channel.size ** t
        inputs = list(combinations_with_replacement(range(m), engine.d))
        for observed in islice(inputs, 0, None, -(-len(inputs) // per_round)):
            pair = []
            for x, codes in ((0, observed), (1, [m - 1 - c for c in observed])):
                try:
                    pair.append(engine.posterior(x, tuple(codes), t))
                except ModelError:
                    pair.append(None)
            checked += 1
            if pair[0] is None or pair[1] is None:
                mismatched += (pair[0] is None) != (pair[1] is None)
            else:
                mismatched += float(np.max(np.abs(pair[1] - pair[0][::-1]))) > FLIP_TOL
    return mismatched, checked


def invariant_suite(ds=(3, 5), noises=(0.15, 0.3),
                    max_t: int = 4) -> VerifyReport:
    """Cavity-table invariants on the homogeneous engine, both rules."""
    report = VerifyReport()
    for d in ds:
        for noise in noises:
            model = SignalModel.binary_symmetric(noise)
            for variant in ("bayesian", "majority"):
                rule = UpdateRule(variant=variant)
                engine = RegularTreeEngine(model, d, rule)
                engine.run(max_t + 1)  # Q through horizon max_t
                label = f"d={d} noise={noise} {variant}"

                drift = max(engine.drifts)
                report.add(f"normalization {label}", drift <= NORM_TOL,
                           f"pre-renorm drift {drift:.2e}")

                worst_marg = 0.0
                for t in range(1, max_t + 1):
                    worst_marg = max(worst_marg, engine.cavity_table(t)
                                     .marginalization_defect(engine.cavity_table(t - 1)))
                report.add(f"marginalization {label}", worst_marg <= NORM_TOL,
                           f"max defect {worst_marg:.2e}")

                # From the sums, so that a coupling fault fails its check
                # here rather than raise CouplingError.
                sums = [error_from_sums(model, g.sums)
                        for g, in engine.g[:max_t + 1]]
                errs = [err for err, _ in sums]
                worst_coupling = max(dev for _, dev in sums[1:])
                report.add(f"coupling {label}", worst_coupling <= COUPLING_TOL,
                           f"max |mass-1| {worst_coupling:.2e}")

                # Complementing every binary code reverses its index, in Q's
                # trajectory axes and in a dense table's inputs.
                worst_flip = max(float(np.max(np.abs(q - q[::-1, ::-1, ::-1])))
                                 for q, in engine.q)
                report.add(f"flip-symmetry {label}", worst_flip <= FLIP_TOL,
                           f"max dev {worst_flip:.2e}")
                mismatched, checked = _flip_posteriors(engine, max_t)
                report.add(f"decision-flip {label}", mismatched == 0,
                           f"{mismatched} of {checked} posteriors mismatched")

                if variant == "bayesian":
                    monotone = all(errs[t + 1] <= errs[t] + 1e-15
                                   for t in range(max_t))
                    report.add(f"error-monotone {label}", monotone,
                               " ".join(f"{e:.2e}" for e in errs))
    return report


def run_verification(max_nodes: int = 8, max_t: int = 3) -> VerifyReport:
    report = oracle_equivalence_suite(max_nodes=max_nodes, max_t=max_t)
    report.checks += invariant_suite().checks
    return report
