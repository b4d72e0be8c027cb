"""Homogeneous trees: the degree-mixture planner of ``engine.py``.

Homogeneity means one cavity table per horizon, and one decision table per
degree, stand for every edge and node; this is what makes the infinite tree
computable.  ``ConfigModelEngine`` plans one node class per degree and one
edge class per round, whose message mixes the per-degree cavity steps under
the edge-perspective law (the unknown-graph recursion), and addresses the
tables by degree.  Every slot reads the same message, so a node's slots
form one group: each decision table is indexed by neighbour multisets (a
one-group ``core.SlotSpace``, the plan's), a cavity step splits the
observer's fixed trajectory off it, ``dense_decisions`` expands a table to
one column per ordered input, and ``vote_table`` serves its votes to the
replay.  On the paper's flip-symmetric model a table stores row 0 only
(a mirrored table, see ``core``), and both read row 1 as the table's
``rows_at`` derives it.  ``RegularTreeEngine`` is the one-point degree
law, and ``ActiveEdgeEngine`` (``active.py``) runs it over the erasure
channel.

The engines take every rule: a stochastic one (majority at even degree,
Bayesian with uniform-random ties) runs through the same tie-coin rows as
on a finite tree, and ``dense_decisions`` and ``decision_table``, whose
arrays have one row per signal, refuse a table with coin rows.  The rows
double each round.  At noise 0.15, on a 2-core x86-64 box, majority at
d=4 reaches round 6 (3.0 s of CPU, 430 MB peak RSS) and uniform-random
Bayesian ties at d=5 round 5 (0.9 s); the preflight refuses the next
round of each, at 22.5 GiB and 10.1 GiB of tables.  Bayesian d=5 with
own-signal ties reaches round 6, its round-6 table one stored row of
10,424,128 inputs.
"""

from __future__ import annotations

import numpy as np

from ..model import ModelError, SignalModel, UpdateRule
from ..trees import DegreeDistribution, edge_perspective
from .engine import CavityEngine, check_address, check_round
from .tables import CavityTable, DecisionTable


class ConfigModelEngine(CavityEngine):
    """Exact calculations for agents who know only the degree law and their degree.

    Node class k is degree ``degrees[k]``, and the one edge class of each
    round is 0.  The error probability can be reported per degree or
    averaged under the node-perspective law.  ``advance`` runs one step of
    the calculation schedule: the cavity table at the next horizon, then
    each decision table one round further.  After k calls the error
    probability is available through round k.
    """

    def __init__(self, model: SignalModel, rho_v: DegreeDistribution,
                 rule: UpdateRule):
        self.rho_v = rho_v
        self.rho_e = edge_perspective(rho_v)
        self.degrees = [d for d in self.rho_e.support]
        rule.check_degrees(self.degrees)
        super().__init__(model, rule, classes=len(self.degrees))

    def _plan_round(self, t: int):
        """The rho_E mixture of the degrees' cavity steps (round 0: one step
        with no slots, since Q^0 does not depend on the degree), and each
        degree's decision step, every slot reading edge class 0 and
        conditioning."""
        mixture = [(p, k, 0, [((0, True), d)]) for k, (d, p)
                   in enumerate(zip(self.degrees, self.rho_e.probs)) if p > 0.0]
        return ([mixture] if t else [[(1.0, 0, None, [])]],
                [(k, [((0, True), d)]) for k, d in enumerate(self.degrees)])

    def advance(self) -> None:
        # FiniteTreeEngine's twin, kept per class: bench/spans.py times
        # each planner's advance by its own name.
        self._step(*self._planned(self.horizon))

    def error_probability(self, t: int, degree: int | None = None,
                          condition_state: int | None = None) -> float:
        if degree is None:
            return float(sum(
                p * self.error_probability(t, degree=d,
                                           condition_state=condition_state)
                for d, p in zip(self.rho_v.support, self.rho_v.probs) if p > 0))
        check_address(t, len(self.g), "error sums", degree, self.degrees)
        return self._error(t, self.degrees.index(degree), condition_state,
                           f"degree {degree}")

    def error_curve(self, rounds: int,
                    condition_state: int | None = None) -> list[float]:
        self.run(rounds)
        return [self.error_probability(t, condition_state=condition_state)
                for t in range(rounds + 1)]

    def posterior(self, x: int, observed: tuple[int, ...], t: int) -> np.ndarray:
        """P(s | x, one observed trajectory through t-1 per neighbor)."""
        check_address(t, len(self.g), "posterior", len(observed), self.degrees)
        return self._posterior(x, tuple(observed), t,
                               self.degrees.index(len(observed)), len(observed))

    def dense_decisions(self, degree: int, t: int) -> np.ndarray:
        """The horizon-t decision table of ``degree`` with one column per
        ordered tuple of observed trajectories, packed as in a dense table;
        a table with tie-coin rows has no such array."""
        check_address(t, len(self.g), "decision table", degree, self.degrees)
        return self._decisions(t, self.degrees.index(degree))

    def cavity_table(self, t: int) -> CavityTable:
        check_round(t, len(self.q), "cavity table")
        return self._cavity_table(t, 0)


class RegularTreeEngine(ConfigModelEngine):
    """Cavity tables and decision tables for the infinite d-regular tree.

    The one-point degree law: one cavity table and one decision table per
    round represent every edge and node.
    """

    def __init__(self, model: SignalModel, d: int, rule: UpdateRule):
        if d < 1:
            raise ModelError("degree must be >= 1")
        super().__init__(model, DegreeDistribution((d,), np.array([1.0])), rule)
        self.d = d

    def decision_table(self, t: int) -> DecisionTable:
        if self.channel.size != self.n_actions:
            raise ModelError("a DecisionTable has one alphabet; these inputs "
                             "are observed over a larger one")
        return DecisionTable(horizon=t, alphabet_size=self.n_actions,
                             degree=self.d, array=self.dense_decisions(self.d, t))
