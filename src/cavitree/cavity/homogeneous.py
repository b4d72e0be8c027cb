"""Exact engine for homogeneous trees: the degree-mixture recursion.

Homogeneity means one cavity table per horizon, and one decision table per
degree, stand for every edge and node; this is what makes the infinite tree
computable.  Every slot reads the same message, so a node's slots form one
group of exchangeable slots: each decision table is indexed by neighbour
multisets (a one-group ``core.SlotSpace``), a cavity step splits the
observer's fixed trajectory off that group, and ``dense_decisions`` expands
a table to one column per ordered input.  ``ConfigModelEngine``
implements the unknown-graph recursion: the child's degree is drawn from
the edge-perspective law, and one shared scope-free cavity table feeds
per-degree decision tables.
``RegularTreeEngine`` is the one-point degree law, and ``ActiveEdgeEngine``
(``active.py``) runs it over the erasure observation channel.
"""

from __future__ import annotations

import numpy as np

from ..model import ModelError, SignalModel, UpdateRule
from ..trees import DegreeDistribution, edge_perspective
from .core import (
    COUPLING_TOL,
    SlotSpace,
    all_active,
    cavity_step_bytes,
    cavity_step_general,
    check_budget,
    check_round,
    decision_step_bytes,
    decision_step_general,
    error_from_sums,
    initial_cavity,
    posterior_general,
    round0_sums,
    round0_table,
)
from .tables import CavityTable, DecisionTable


class CouplingError(RuntimeError):
    """The coupling total-mass runtime check failed (indicates a table bug)."""


def _resolve_actions(model: SignalModel, rule: UpdateRule) -> int:
    if rule.variant == "bayesian" and rule.utility is not None:
        return rule.utility.n_actions
    return model.n_states


class AllActive:
    """Observation channel of edges that fire every round."""

    emit = staticmethod(all_active)

    def __init__(self, n_actions: int):
        self.size = n_actions

    @staticmethod
    def fold(q: np.ndarray, h: int) -> np.ndarray:
        """The slot table of a horizon-h message: the message itself."""
        return q


class ConfigModelEngine:
    """Exact calculations for agents who know only the degree law and their degree.

    Carries one shared cavity table plus a decision table per degree in the
    support, with the error and coupling sums of each decision table in
    ``sums``; the error probability can be reported per degree or averaged
    under the node-perspective law.  ``advance`` runs one step of the
    calculation schedule: the cavity table at the next horizon, then each
    decision table one round further.  After k calls the error probability
    is available through round k.
    """

    def __init__(self, model: SignalModel, rho_v: DegreeDistribution,
                 rule: UpdateRule):
        if rule.variant == "majority" and model.n_states != 2:
            raise ModelError("majority dynamics is defined for binary actions")
        self.model = model
        self.rule = rule
        self.rho_v = rho_v
        self.rho_e = edge_perspective(rho_v)
        self.degrees = [d for d in self.rho_e.support]
        for d in self.degrees:
            if not rule.deterministic_for_degree(d):
                raise ModelError(
                    f"the homogeneous engines need a deterministic rule for "
                    f"degree {d}; use FiniteTreeEngine for stochastic rules")
        self.n_actions = _resolve_actions(model, rule)
        self.channel = AllActive(self.n_actions)
        g0 = round0_table(model, rule, self.n_actions)
        self.decisions: dict[int, list[np.ndarray]] = {d: [g0] for d in self.degrees}
        self.sums = {d: [round0_sums(model, g0)] for d in self.degrees}
        self.q: list[np.ndarray] = []
        self.slot_tables: list[np.ndarray] = []
        self.drifts: list[float] = []
        self.ops: list[int] = []

    @property
    def horizon(self) -> int:
        """Largest round with both tables available (error computable)."""
        return len(self.q)

    def advance(self, extend_decisions: bool = True) -> None:
        t = len(self.q)
        if any(len(g) <= t for g in self.decisions.values()):
            raise ModelError("a previous advance skipped its decision table")
        n_obs, emit = self.channel.size, self.channel.emit
        ops = 0
        if t == 0:
            q_t = initial_cavity(self.model, self.decisions[self.degrees[0]][0],
                                 self.n_actions, n_obs, emit)
            drift = 0.0
        else:
            q_t, drift = None, 0.0
            for d, p in zip(self.rho_e.support, self.rho_e.probs):
                if p == 0.0:
                    continue
                q_d, drift_d, n = cavity_step_general(
                    self.decisions[d][t], t, 0,
                    [(self.slot_tables[t - 1], True, d)],
                    self.model, self.rule, self.n_actions, n_obs, emit)
                ops += n
                drift = max(drift, drift_d)
                q_t = p * q_d if q_t is None else q_t + p * q_d
        self.q.append(q_t)
        self.drifts.append(drift)
        self.slot_tables.append(self.channel.fold(q_t, t))
        if extend_decisions:
            for d in self.degrees:
                g_next, n, *sums = decision_step_general(
                    self.decisions[d][t], t, [(self.slot_tables[t], True, d)],
                    self.model, self.rule, self.n_actions, n_obs)
                ops += n
                self.decisions[d].append(g_next)
                self.sums[d].append(sums)
        self.ops.append(ops)

    def run(self, rounds: int) -> None:
        """Advance through round ``rounds``, refusing up front a run whose
        last cavity or decision step would exceed the table budget."""
        if rounds > self.horizon:
            t, n_obs = rounds - 1, self.channel.size
            n_s, n_x = self.model.likelihood.shape
            for d, p in zip(self.rho_e.support, self.rho_e.probs):
                if t >= 1 and p > 0.0:
                    check_budget(cavity_step_bytes(t, [d], 0, n_obs, n_s))
                check_budget(decision_step_bytes(t, [d], n_obs, n_x))
        while self.horizon < rounds:
            self.advance()

    def error_probability(self, t: int, degree: int | None = None,
                          condition_state: int | None = None) -> float:
        if degree is not None and degree not in self.sums:
            raise ModelError(f"degree {degree} is outside the degree law's "
                             f"support {self.degrees}")
        check_round(t, len(self.sums[self.degrees[0]]), "error sums")
        if degree is None:
            return float(sum(
                p * self.error_probability(t, degree=d,
                                           condition_state=condition_state)
                for d, p in zip(self.rho_v.support, self.rho_v.probs) if p > 0))
        err, coupling_dev = error_from_sums(self.model, self.sums[degree][t],
                                            condition_state)
        if coupling_dev > COUPLING_TOL:
            raise CouplingError(
                f"coupling mass deviates by {coupling_dev:.3e} at t={t}, d={degree}")
        return err

    def error_curve(self, rounds: int,
                    condition_state: int | None = None) -> list[float]:
        self.run(rounds)
        return [self.error_probability(t, condition_state=condition_state)
                for t in range(rounds + 1)]

    def posterior(self, x: int, observed: tuple[int, ...], t: int) -> np.ndarray:
        """P(s | x, one observed trajectory through t-1 per neighbor)."""
        deg = len(observed)
        if deg not in self.decisions:
            raise ModelError(f"no decision tables for {deg} observed trajectories")
        check_round(t, len(self.q) + 1, "posterior")
        if t == 0:
            return posterior_general(x, (), None, 0, [], self.model, self.n_actions)
        return posterior_general(x, tuple(observed), self.decisions[deg][t - 1], t,
                                 [(self.slot_tables[t - 1], True, deg)],
                                 self.model, self.n_actions, self.channel.size)

    def dense_decisions(self, degree: int, t: int) -> np.ndarray:
        """The horizon-t decision table of ``degree`` with one column per
        ordered tuple of observed trajectories, packed as in a dense table."""
        check_round(t, len(self.decisions[degree]), "decision table")
        space = SlotSpace(self.channel.size ** t, [degree])
        return space.expand(self.decisions[degree][t])

    def cavity_table(self, t: int) -> CavityTable:
        check_round(t, len(self.q), "cavity table")
        return CavityTable(horizon=t, alphabet_size=self.channel.size,
                           scope="homogeneous", array=self.q[t],
                           drift=self.drifts[t])


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
                             scope="homogeneous", degree=self.d,
                             array=self.dense_decisions(self.d, t))
