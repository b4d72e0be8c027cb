"""Per-edge cavity tables and per-node decision tables on finite trees.

Every directed observation pair (i observes j) carries its own message
Q_{j->i}; a message conditions on the observer's trajectory only when the
observed node observes back (undirected edge).  Deterministic rules run on
the dense vectorized core; stochastic rules (majority with coin-flip ties at
even degree, Bayesian with uniform-random ties) run on an exact dictionary
path where decision tables map inputs to kernels over trajectories.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..model import (
    ModelError,
    SignalModel,
    UpdateRule,
    UtilityTable,
    majority_kernel,
    map_decision,
    resolve_tie,
    round0_kernel,
    round_digit,
)
from ..trees import GraphError, TreeGraph, validate
from .core import (
    COUPLING_TOL,
    cavity_step_general,
    decision_step_general,
    error_from_sums,
    initial_cavity,
    posterior_general,
    round0_sums,
    round0_table,
)
from .homogeneous import CouplingError, _resolve_actions
from .tables import CavityTable


class FiniteTreeEngine:
    """Exact calculation schedule on a finite (possibly directed) tree."""

    def __init__(self, graph: TreeGraph, model: SignalModel, rule: UpdateRule):
        if graph.hubs:
            raise GraphError("hub graphs go through posterior_with_hubs")
        diag = validate(graph)
        if diag is not None:
            raise GraphError(diag)
        self.graph = graph
        self.model = model
        self.rule = rule
        self.n_actions = _resolve_actions(model, rule)
        if rule.variant == "majority" and model.n_states != 2:
            raise ModelError("majority dynamics is defined for binary actions")
        dense = all(rule.deterministic_for_degree(len(o)) for o in graph.observed)
        self._impl = (_DenseFinite(self) if dense else _KernelFinite(self))
        self.dense = dense

    @property
    def horizon(self) -> int:
        return self._impl.horizon

    def advance(self) -> None:
        self._impl.advance()

    def run(self, rounds: int) -> None:
        while self.horizon < rounds:
            self.advance()

    def error_probability(self, node: int, t: int,
                          condition_state: int | None = None) -> float:
        if not 0 <= t <= self.horizon:
            raise ModelError(f"no error for round {t}; the engine is at "
                             f"round {self.horizon}")
        return self._impl.error_probability(node, t, condition_state)

    def posterior(self, node: int, x: int, observed: tuple[int, ...],
                  t: int) -> np.ndarray:
        return self._impl.posterior(node, x, tuple(observed), t)

    def decision_kernel(self, node: int, t: int, x: int,
                        observed: tuple[int, ...]) -> list[tuple[int, float]]:
        """Kernel over the node's trajectory through round t for this input."""
        return self._impl.decision_kernel(node, t, x, tuple(observed))

    def cavity_table(self, j: int, i: int, t: int) -> CavityTable:
        return self._impl.cavity_table(j, i, t)

    def action_table(self, node: int, t: int) -> np.ndarray:
        """Round-t vote per (signal, packed observations); dense rules only."""
        return self._impl.action_table(node, t)

    @property
    def drift(self) -> float:
        return self._impl.worst_drift


def _combined_index(codes, base: int) -> int:
    j = 0
    for k, c in enumerate(codes):
        j += c * base ** k
    return j


def _intern(keys) -> tuple[list[int], list[int]]:
    """Small-int class id per key, and the first position of each class."""
    ids: dict = {}
    classes, firsts = [], []
    for pos, key in enumerate(keys):
        c = ids.setdefault(key, len(ids))
        if c == len(firsts):
            firsts.append(pos)
        classes.append(c)
    return classes, firsts


class _DenseFinite:
    """Tables per structural class, not per node or edge.

    Each round every node and every directed edge gets a class id, interned
    from the classes that fix the inputs of its core step, and each step
    runs once per class; isomorphic subtrees share their tables, as in
    Aho-Hopcroft-Ullman tree hashing.  A node's class at t+1 is its class at
    t with its slot messages' classes at t.  So a sender's class at t fixes
    its table, its degree and its slot messages at t-1, and with the
    observer's slot it fixes every input of the edge's cavity step.
    """

    def __init__(self, owner: FiniteTreeEngine):
        self.o = owner
        obs = owner.graph.observed
        n = owner.graph.n
        self.edges = [(j, i) for i in range(n) for j in obs[i]]
        self.edge_id = {edge: e for e, edge in enumerate(self.edges)}
        # Per edge j->i: the observer's slot in obs[j], if j observes it.
        self._tau_pos = [obs[j].index(i) if i in obs[j] else None
                         for (j, i) in self.edges]
        # Per node i: its slot edges j->i, each with whether it conditions.
        self._slots = [tuple((self.edge_id[(j, i)], i in obs[j]) for j in obs[i])
                       for i in range(n)]
        g0 = round0_table(owner.model, owner.rule, owner.n_actions)
        # Per round: the class id of every node (edge), and the table of
        # every class.
        self.node_class = [[0] * n]
        self.g = [[g0]]
        self.sums = [[round0_sums(owner.model, g0)]]
        self.edge_class: list[list[int]] = []
        self.q: list[list[np.ndarray]] = []
        self._actions: dict[tuple[int, int], np.ndarray] = {}
        self.horizon = 0
        self.worst_drift = 0.0

    def advance(self):
        o = self.o
        t = self.horizon
        nodes = self.node_class[t]
        if t == 0:  # a round-0 message depends on the sender's table only
            keys = [nodes[j] for (j, _) in self.edges]
        else:
            keys = [(nodes[j], tau_pos)
                    for (j, _), tau_pos in zip(self.edges, self._tau_pos)]
        edge_class, firsts = _intern(keys)
        q_t = []
        for e in firsts:
            j = self.edges[e][0]
            if t == 0:
                q_t.append(initial_cavity(o.model, self.g[0][nodes[j]],
                                          o.n_actions))
                continue
            tau_pos = self._tau_pos[e]
            child_qs = [slot for k, slot in enumerate(self._slot_qs(j, t - 1))
                        if k != tau_pos]
            table, drift, _ = cavity_step_general(
                self.g[t][nodes[j]], t, len(self._slots[j]), tau_pos, child_qs,
                o.model, o.n_actions)
            self.worst_drift = max(self.worst_drift, drift)
            q_t.append(table)
        self.edge_class.append(edge_class)
        self.q.append(q_t)

        keys = [(nodes[i], tuple((edge_class[e], cond) for e, cond in slots))
                for i, slots in enumerate(self._slots)]
        node_class, firsts = _intern(keys)
        g_next, sums_next = [], []
        for i in firsts:
            table, _, *sums = decision_step_general(
                self.g[t][nodes[i]], t, len(self._slots[i]),
                self._slot_qs(i, t), o.model, o.rule, o.n_actions)
            g_next.append(table)
            sums_next.append(sums)
        self.node_class.append(node_class)
        self.g.append(g_next)
        self.sums.append(sums_next)
        self.horizon += 1

    def _table(self, node: int, t: int) -> np.ndarray:
        return self.g[t][self.node_class[t][node]]

    def _message(self, e: int, t: int) -> np.ndarray:
        return self.q[t][self.edge_class[t][e]]

    def _slot_qs(self, i: int, t: int):
        return [(self._message(e, t), cond) for e, cond in self._slots[i]]

    def error_probability(self, node, t, condition_state):
        sums = self.sums[t][self.node_class[t][node]]
        err, coupling_dev = error_from_sums(self.o.model, sums, condition_state)
        if coupling_dev > COUPLING_TOL:
            raise CouplingError(
                f"coupling mass deviates by {coupling_dev:.3e} at node {node}, t={t}")
        return err

    def posterior(self, node, x, observed, t):
        if t == 0:
            return posterior_general(x, (), None, 0, [], self.o.model,
                                     self.o.n_actions)
        return posterior_general(x, observed, self._table(node, t - 1), t,
                                 self._slot_qs(node, t - 1), self.o.model,
                                 self.o.n_actions)

    def decision_kernel(self, node, t, x, observed):
        m = self.o.n_actions ** t
        j = _combined_index(observed, m)
        return [(int(self._table(node, t)[x, j]), 1.0)]

    def cavity_table(self, j, i, t):
        return CavityTable(horizon=t, alphabet_size=self.o.n_actions,
                           scope=(j, i),
                           array=self._message(self.edge_id[(j, i)], t))

    def action_table(self, node, t):
        """One array per class: nodes of a class share the same object."""
        key = (t, self.node_class[t][node])
        if key not in self._actions:
            self._actions[key] = (self.g[t][key[1]]
                                  // self.o.n_actions ** t).astype(np.int8)
        return self._actions[key]


class _KernelFinite:
    """Dictionary path: decision tables map inputs to trajectory kernels."""

    def __init__(self, owner: FiniteTreeEngine):
        self.o = owner
        kern0 = round0_kernel(owner.model, owner.rule, owner.n_actions)
        table0 = {(x, 0): tuple((int(a), float(p)) for a, p in kern0[x])
                  for x in range(owner.model.n_signals)}
        self.g = {i: [table0] for i in range(owner.graph.n)}
        self.q: dict[tuple[int, int], list[np.ndarray]] = {
            (j, i): [] for i in range(owner.graph.n)
            for j in owner.graph.observed[i]}
        self.horizon = 0
        self.worst_drift = 0.0

    # -- schedule ----------------------------------------------------------

    def advance(self):
        o = self.o
        t = self.horizon
        for (j, i) in self.q:
            self.q[(j, i)].append(self._edge_step(j, i, t))
        for i in range(o.graph.n):
            self.g[i].append(self._node_step(i, t))
        self.horizon += 1

    def _edge_step(self, j: int, i: int, t: int) -> np.ndarray:
        o = self.o
        model, n_a, n_s = o.model, o.n_actions, o.model.n_states
        obs = o.graph.observed
        if t == 0:
            q0 = np.zeros((n_a, 1, n_s))
            for x in range(model.n_signals):
                for a, p in self.g[j][0][(x, 0)]:
                    q0[a, 0, :] += p * model.likelihood[:, x]
            return q0
        m = n_a ** t
        cond_mod = n_a ** (t - 1)
        n_tau = m if i in obs[j] else 1
        tau_pos = obs[j].index(i) if i in obs[j] else None
        children = [l for l in obs[j] if l != i]
        child_qs = [self.q[(l, j)][t - 1] for l in children]
        child_cond = [j in obs[l] for l in children]
        q_new = np.zeros((n_a ** (t + 1), n_tau, n_s))
        g_j = self.g[j][t]
        for x in range(model.n_signals):
            for combo in itertools.product(range(m), repeat=len(children)):
                for tau in range(n_tau):
                    codes = list(combo)
                    if tau_pos is not None:
                        codes.insert(tau_pos, tau)
                    jdx = _combined_index(codes, m)
                    for sigma, p_sig in g_j[(x, jdx)]:
                        cond = sigma % cond_mod
                        w = model.likelihood[:, x].copy()
                        for k, ql in enumerate(child_qs):
                            w = w * ql[combo[k], cond if child_cond[k] else 0, :]
                        q_new[sigma, tau, :] += p_sig * w
        col = q_new.sum(axis=0)
        self.worst_drift = max(self.worst_drift,
                               float(np.max(np.abs(col - 1.0))))
        return q_new / np.where(col > 0, col, 1.0)

    def _round_kernel(self, i: int, t1: int, x: int, nbr_codes: tuple[int, ...],
                      own: int) -> dict[int, float]:
        """Kernel of node i's round-t1 vote given inputs at horizon t1-1."""
        o = self.o
        model, n_a = o.model, o.n_actions
        if o.rule.variant == "majority":
            votes = [round_digit(c, t1 - 1, n_a) for c in nbr_codes]
            return majority_kernel(votes)
        utility = o.rule.utility or UtilityTable.identity(model.n_states)
        m_prev = n_a ** (t1 - 1)
        weights = model.prior * model.likelihood[:, x]
        obs = o.graph.observed
        for k, j in enumerate(obs[i]):
            q = self.q[(j, i)][t1 - 1]
            cond = (own % m_prev) if i in obs[j] else 0
            weights = weights * q[nbr_codes[k], cond, :]
        total = weights.sum()
        if total <= 0.0:
            dec = resolve_tie(range(utility.n_actions), o.rule.tie_break, x,
                              utility.n_actions)
        else:
            dec = map_decision(weights / total, utility, o.rule.tie_break,
                               own_signal=x)
        return {dec: 1.0} if isinstance(dec, int) else dec

    def _node_step(self, i: int, t: int) -> dict:
        o = self.o
        n_a = o.n_actions
        n_in = n_a ** (t + 1)
        m = n_a ** t
        deg = len(o.graph.observed[i])
        table = {}
        for x in range(o.model.n_signals):
            for combo in itertools.product(range(n_in), repeat=deg):
                jdx = _combined_index(combo, n_in)
                j_prev = _combined_index([c % m for c in combo], m)
                acc: dict[int, float] = {}
                for own, p_own in self.g[i][t][(x, j_prev)]:
                    kern = self._round_kernel(i, t + 1, x, combo, own)
                    for a, pa in kern.items():
                        if pa > 0:
                            code = own + a * n_in
                            acc[code] = acc.get(code, 0.0) + p_own * pa
                table[(x, jdx)] = tuple(sorted(acc.items()))
        return table

    # -- queries -----------------------------------------------------------

    def error_probability(self, node, t, condition_state):
        o = self.o
        model, n_a, n_s = o.model, o.n_actions, o.model.n_states
        if t == 0:
            err = 0.0
            states = range(n_s) if condition_state is None else [condition_state]
            for s in states:
                w = model.prior[s] if condition_state is None else 1.0
                for x in range(model.n_signals):
                    miss = sum(p for a, p in self.g[node][0][(x, 0)] if a != s)
                    err += w * model.likelihood[s, x] * miss
            return err
        obs = o.graph.observed
        deg = len(obs[node])
        m = n_a ** t
        m_prev = n_a ** (t - 1)
        err_sx = np.zeros((n_s, model.n_signals))
        mass_sx = np.zeros((n_s, model.n_signals))
        for x in range(model.n_signals):
            for combo in itertools.product(range(m), repeat=deg):
                j_prev2 = _combined_index([c % m_prev for c in combo], m_prev)
                for own, p_own in self.g[node][t - 1][(x, j_prev2)]:
                    w = np.ones(n_s)
                    for k, j in enumerate(obs[node]):
                        q = self.q[(j, node)][t - 1]
                        cond = (own % m_prev) if node in obs[j] else 0
                        w = w * q[combo[k], cond, :]
                    kern = self._round_kernel(node, t, x, combo, own)
                    miss = np.array([sum(p for a, p in kern.items() if a != s)
                                     for s in range(n_s)])
                    mass_sx[:, x] += p_own * w
                    err_sx[:, x] += p_own * w * miss
        dev = float(np.max(np.abs(mass_sx - 1.0)))
        if dev > COUPLING_TOL:
            raise CouplingError(
                f"coupling mass deviates by {dev:.3e} at node {node}, t={t}")
        err = 0.0
        states = range(n_s) if condition_state is None else [condition_state]
        for s in states:
            w = model.prior[s] if condition_state is None else 1.0
            for x in range(model.n_signals):
                err += w * model.likelihood[s, x] * err_sx[s, x]
        return float(err)

    def posterior(self, node, x, observed, t):
        from ..model import signal_posterior

        if t == 0:
            return signal_posterior(self.o.model, x)
        m_prev = self.o.n_actions ** (t - 1)
        j_prev = _combined_index([c % m_prev for c in observed], m_prev)
        branches = self.g[node][t - 1][(x, j_prev)]
        if len(branches) != 1:
            raise ModelError("own trajectory is not derivable under a "
                             "stochastic rule; condition on it explicitly")
        own = branches[0][0]
        model = self.o.model
        obs = self.o.graph.observed
        weights = model.prior * model.likelihood[:, x]
        for k, j in enumerate(obs[node]):
            q = self.q[(j, node)][t - 1]
            cond = (own % m_prev) if node in obs[j] else 0
            weights = weights * q[observed[k], cond, :]
        total = weights.sum()
        if total <= 0.0:
            raise ModelError("observation has probability zero under every state")
        return weights / total

    def decision_kernel(self, node, t, x, observed):
        m = self.o.n_actions ** t
        jdx = _combined_index(observed, m)
        return list(self.g[node][t][(x, jdx)])

    def cavity_table(self, j, i, t):
        return CavityTable(horizon=t, alphabet_size=self.o.n_actions,
                           scope=(j, i), array=self.q[(j, i)][t])

    def action_table(self, node, t):
        raise ModelError("dense action tables exist for deterministic rules only")
