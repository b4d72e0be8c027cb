"""One cavity engine over a class graph, run by two planners.

A tree is a finite description of node and edge classes (the local weak
limits of Dembo and Montanari, *Gibbs measures and phase transitions on
sparse random graphs*, 2010).  ``FiniteTreeEngine`` interns them from a
tree, ``ConfigModelEngine`` plans a node class per degree and an edge
class per round, and only ``CavityEngine`` runs plans and builds tables.
"""

from __future__ import annotations

import numpy as np

from ..model import (ModelError, SignalModel, UpdateRule, action_count,
                     is_index, is_int, signal_posterior)
from ..trees import BudgetError
from .core import (COUPLING_TOL, cavity_step_bytes, cavity_step_general,
                   coin_values, decision_step_bytes, decision_step_general,
                   error_from_sums, posterior_general, round0_table)
from .tables import CavityTable

MEMORY_BUDGET = 4 << 30  # bytes of table workspace allowed per step


class CouplingError(RuntimeError):
    """The coupling total-mass runtime check failed (indicates a table bug)."""


def check_round(t: int, stored: int, what: str):
    """Refuse a round that is not an int among the ``stored`` rounds held."""
    if not is_index(t, stored):
        raise ModelError(f"no {what} for round {t!r} of the {stored} stored")


def check_input(x: int, observed, slots: int, base: int,
                n_signals: int) -> np.ndarray:
    """One table input as a (slots, 1) column of codes: signal ``x`` and one
    observed code below ``base`` per slot, else ``ModelError``."""
    if len(observed) != slots:
        raise ModelError(f"{len(observed)} observed codes for {slots} slots")
    if not is_index(x, n_signals):
        raise ModelError(f"signal {x!r} outside 0..{n_signals - 1}")
    if not all(is_index(code, base) for code in observed):
        raise ModelError(f"observed codes {tuple(observed)} outside "
                         f"0..{base - 1}")
    return np.array(observed, dtype=np.int64).reshape(-1, 1)


def check_budget(need: int):
    """Refuse a step that needs ``need`` bytes of table workspace."""
    if need > MEMORY_BUDGET:
        raise BudgetError(f"table workspace of {need / 2 ** 30:.2f} GiB is "
                          f"over the {MEMORY_BUDGET / 2 ** 30:.2f} GiB budget")


def check_address(t: int, stored: int, what: str, key, keys) -> None:
    """Refuse a round outside the ``stored`` rounds 0.. an engine holds, or
    a node, edge or degree ``key`` that is not among ``keys`` or not made of
    ints."""
    check_round(t, stored, what)
    parts = key if isinstance(key, tuple) else (key,)
    if not all(map(is_int, parts)) or key not in keys:
        raise ModelError(f"no {what} for {key!r}, which is not in this engine")


class AllActive:
    """Observation channel of edges that fire every round."""

    def __init__(self, n_actions: int):
        self.n_actions = self.size = n_actions

    @staticmethod
    def emit(out: np.ndarray, tau: np.ndarray, t: int):
        """An observer sees the action codes ``out`` with weight 1."""
        return [(out, 1.0)]

    @staticmethod
    def fold(q: np.ndarray, h: int) -> np.ndarray:
        """The slot table of a horizon-h message: the message itself."""
        return q


class CavityEngine:
    """Per-round records of a class graph, and the step that extends them.

    ``g[t][c]`` holds node class c's round-t decision table, a
    ``core.StoredTable`` with its slot space and error and coupling sums,
    written by ``core.round0_table`` or a decision step; ``q[t][e]`` edge
    class e's horizon-t message, read through the channel's fold;
    ``drifts[t]`` the largest normalization drift of round t's cavity
    steps, and ``ops[t]`` the terms of all its core steps.  Every advance
    stores a whole round once its last step returns, and none if one raises.

    A subclass's ``_plan_round(t)`` returns round t's plan, and its
    ``advance`` runs it with ``_step``.  Per edge class the plan lists the
    terms of its message, a weighted sum of cavity steps: (weight, node
    class, the observer's group or None, slot groups), each slot group
    ((edge class, conditions), slots); round 0's terms have no slots.
    Per node class at t+1 it lists its class c at t and its slot groups for
    one decision step, which reads g[t][c] in the table's own space.

    Outside the steps only ``_own_codes`` (one input's column, for kernels
    and posteriors) and ``_decisions`` (the dense tables, for
    ``vote_table``, ``dense_decisions`` and ``decision_table``) read a
    table, both through the table's ``rows_at``, which derives row 1 of a
    mirrored table.
    """

    def __init__(self, model: SignalModel, rule: UpdateRule, classes: int = 1):
        if rule.variant == "majority" and model.n_states != 2:
            raise ModelError("majority dynamics is defined for binary actions")
        self.model = model
        self.rule = rule
        self.n_actions = action_count(model, rule)
        self.channel = AllActive(self.n_actions)
        self.g = [[round0_table(model, rule, self.n_actions)] * classes]
        self.q: list[list[np.ndarray]] = []
        self.drifts: list[float] = []
        self.ops: list[int] = []
        self._plans: list[tuple[list, list]] = []
        self._votes: dict[tuple, np.ndarray] = {}

    @property
    def horizon(self) -> int:
        """Largest round whose messages are all computed, plus one."""
        return len(self.q)

    def _planned(self, t: int) -> tuple[list, list]:
        """Round t's plan, planning every earlier round first: the one table
        budget check, which refuses an over-budget step before any runs."""
        while len(self._plans) <= t:
            r = len(self._plans)
            edges, nodes = plan = self._plan_round(r)
            n_obs, n_s = self.channel.size, self.model.n_states
            for terms in edges:
                for _, _, tau_group, groups in terms:
                    check_budget(cavity_step_bytes(
                        r, [size for _, size in groups], tau_group, n_obs, n_s))
            for _, groups in nodes:
                sizes = [size for _, size in groups]
                coins = (1 if self.rule.deterministic_for_degree(sum(sizes))
                         else coin_values(self.n_actions))
                check_budget(decision_step_bytes(
                    r, sizes, n_obs, self.g[0][0].rows * coins ** (r + 1)))
            self._plans.append(plan)
        return self._plans[t]

    def run(self, rounds: int) -> None:
        """Advance through round ``rounds``, planning every round first, so
        that a step over the table budget is refused before any runs."""
        if not is_int(rounds):
            raise ModelError(f"rounds must be an int, not {rounds!r}")
        if rounds > 0:
            self._planned(rounds - 1)
        while self.horizon < rounds:
            self.advance()

    def _step(self, edges, nodes) -> None:
        """Run round t's plan: every edge class's horizon-t message, then
        every node class's next decision table; only then store the round."""
        t = self.horizon
        prev = self.q[t - 1] if t else []
        q_t, drift, ops = [], 0.0, 0
        for terms in edges:
            message = None
            for weight, c, tau_group, groups in terms:
                q, step_drift, n = cavity_step_general(
                    self.g[t][c], t, tau_group,
                    self._messages(prev, groups, t - 1),
                    self.model, self.rule, self.channel)
                drift, ops = max(drift, step_drift), ops + n
                message = weight * q if message is None else message + weight * q
            q_t.append(message)
        steps = [decision_step_general(
            self.g[t][c], t, self._messages(q_t, groups, t), self.model,
            self.rule, self.channel) for c, groups in nodes]
        self.q.append(q_t)
        self.g.append([table for table, _ in steps])
        self.drifts.append(drift)
        self.ops.append(ops + sum(n for _, n in steps))

    def _messages(self, q: list, groups, t: int):
        """The core steps' slot groups: each group's horizon-t message in
        ``q``, folded by the channel into its slot table."""
        return [(self.channel.fold(q[e], t), cond, size)
                for (e, cond), size in groups]

    def _error(self, t: int, c: int, condition_state: int | None,
               where: str) -> float:
        """Node class c's round-t error; ``CouplingError`` if its coupling
        mass is off, which is a table bug, not a small error."""
        err, coupling_dev = error_from_sums(self.model, self.g[t][c].sums,
                                            condition_state)
        if coupling_dev > COUPLING_TOL:
            raise CouplingError(
                f"coupling mass deviates by {coupling_dev:.3e} at {where}, t={t}")
        return err

    def _decisions(self, t: int, c: int, order=None) -> np.ndarray:
        """Node class c's round-t decision table as g[x, dense inputs], one
        row per signal, slot p reading dense slot ``order[p]`` (p by
        default); ``ModelError`` for a table with tie-coin rows."""
        table = self.g[t][c]
        if table.rows != self.model.n_signals:
            raise ModelError("action tables exist for deterministic "
                             "rules only; this table has tie-coin rows")
        return table.dense(order)

    def vote_table(self, t: int, c: int, order=None) -> np.ndarray:
        """Node class c's round-t vote per (signal, packed observations),
        slot p reading observation ``order[p]`` (p by default), built once
        per key and shared; a table with tie-coin rows has none."""
        check_round(t, len(self.g), "action table")
        if not is_index(c, len(self.g[t])):
            raise ModelError(f"no action table for class {c!r} at round {t}")
        key = (t, c, order)
        if key not in self._votes:
            table = self._decisions(t, c, order)
            self._votes[key] = (table // self.n_actions ** t).astype(np.int8)
        return self._votes[key]

    def _own_codes(self, t: int, c: int, x: int, observed, slots: int,
                   order=None) -> np.ndarray:
        """Node class c's round-t trajectory per row of signal x (per coin
        outcome) at ``observed``, checked as ``slots`` codes (0 at t = 0), slot
        p reading ``observed[order[p]]``: the reader of one input's column."""
        table, n_x = self.g[t][c], self.model.n_signals
        codes = check_input(x, observed, slots, table.space.base, n_x)
        return np.concatenate(list(table.rows_at(codes, order)))[x::n_x]

    def _posterior(self, x: int, observed: tuple[int, ...], t: int, c: int,
                   slots: int, order=None) -> np.ndarray:
        """P(s | x, ``observed``) at node class c of round t, whose nodes
        observe ``slots`` neighbours, slot p reading ``observed[order[p]]``,
        from the messages its round-t table was built from.  At t = 0 each
        observed trajectory is empty, code 0, and the posterior is the
        signal's.  Only where one conditions (t >= 2) is the own trajectory
        read, from the class's own round-t table, and refused if signal x's
        rows disagree on it."""
        codes = check_input(x, observed, slots, self.channel.size ** t,
                            self.model.n_signals)
        if t == 0:
            return signal_posterior(self.model, x)
        groups = self._plans[t - 1][1][c][1]
        if order is not None:
            codes = codes[list(order)]
        own_cond = 0
        if t >= 2 and any(cond for (_, cond), _ in groups):
            owns = self._own_codes(t, c, x, codes[:, 0], slots)
            owns %= self.n_actions ** t
            if np.any(owns != owns[0]):
                raise ModelError("own trajectory is not derivable under a "
                                 "stochastic rule; condition on it explicitly")
            own_cond = int(owns[0]) % self.n_actions ** (t - 1)
        return posterior_general(x, codes, own_cond, self._messages(
            self.q[t - 1], groups, t - 1), self.model)

    def _cavity_table(self, t: int, e: int) -> CavityTable:
        return CavityTable(horizon=t, alphabet_size=self.channel.size,
                           array=self.q[t][e])
