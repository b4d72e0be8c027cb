"""Per-edge cavity tables and per-node decision tables on finite trees.

Every directed observation pair (i observes j) carries its own message
Q_{j->i}; a message conditions on the observer's trajectory only when the
observed node observes back (undirected edge).  Every rule runs on the
vectorized core: a stochastic one (majority with coin-flip ties at even
degree, Bayesian with uniform-random ties) gives its decision tables coin
rows, one per tie-coin outcome, so a node's trajectory is a function of its
row and inputs and ``decision_kernel`` counts the rows of a signal.
"""

from __future__ import annotations

import numpy as np

from ..model import ModelError, SignalModel, UpdateRule
from ..trees import GraphError, TreeGraph, validate
from .core import (
    COUPLING_TOL,
    DenseSpace,
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


class FiniteTreeEngine:
    """Exact calculation schedule on a finite (possibly directed) tree, with
    tables per structural class, not per node or edge.

    Each round every node and every directed edge gets a class id, interned
    from the classes that fix the inputs of its core step, and each step
    runs once per class; isomorphic subtrees share their tables, as in
    Aho-Hopcroft-Ullman tree hashing.  A node's class at t+1 is its class at
    t with its slot messages' classes at t.  So a sender's class at t fixes
    its table, its degree and its slot messages at t-1, and with the
    observer's slot it fixes every input of the edge's cavity step.
    """

    def __init__(self, graph: TreeGraph, model: SignalModel, rule: UpdateRule):
        if graph.hubs:
            raise GraphError("hub graphs go through posterior_with_hubs")
        diag = validate(graph)
        if diag is not None:
            raise GraphError(diag)
        obs = graph.observed
        n = graph.n
        if rule.variant == "majority":
            if model.n_states != 2:
                raise ModelError("majority dynamics is defined for binary actions")
            if any(len(o) == 0 for o in obs):
                raise ModelError("majority dynamics needs at least one neighbor "
                                 "per node")
        self.graph = graph
        self.model = model
        self.rule = rule
        self.n_actions = _resolve_actions(model, rule)
        self.edges = [(j, i) for i in range(n) for j in obs[i]]
        self.edge_id = {edge: e for e, edge in enumerate(self.edges)}
        # Per edge j->i: the observer's slot in obs[j], if j observes it.
        self._tau_pos = [obs[j].index(i) if i in obs[j] else None
                         for (j, i) in self.edges]
        # Per node i: its slot edges j->i, each with whether it conditions.
        self._slots = [tuple((self.edge_id[(j, i)], i in obs[j]) for j in obs[i])
                       for i in range(n)]
        g0 = round0_table(model, rule, self.n_actions)
        # Per round: the class id of every node (edge), and the table of
        # every class.
        self.node_class = [[0] * n]
        self.g = [[g0]]
        self.sums = [[round0_sums(model, g0)]]
        self.edge_class: list[list[int]] = []
        self.q: list[list[np.ndarray]] = []
        self._actions: dict[tuple[int, int], np.ndarray] = {}
        self.horizon = 0
        self.drift = 0.0

    def advance(self) -> None:
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
                q_t.append(initial_cavity(self.model, self.g[0][nodes[j]],
                                          self.n_actions))
                continue
            tau_pos = self._tau_pos[e]
            child_qs = [slot for k, slot in enumerate(self._slot_qs(j, t - 1))
                        if k != tau_pos]
            table, drift, _ = cavity_step_general(
                self.g[t][nodes[j]], t, len(self._slots[j]), tau_pos, child_qs,
                self.model, self.n_actions)
            self.drift = max(self.drift, drift)
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
                self._slot_qs(i, t), self.model, self.rule, self.n_actions)
            g_next.append(table)
            sums_next.append(sums)
        self.node_class.append(node_class)
        self.g.append(g_next)
        self.sums.append(sums_next)
        self.horizon += 1

    def run(self, rounds: int) -> None:
        while self.horizon < rounds:
            self.advance()

    def _table(self, node: int, t: int) -> np.ndarray:
        return self.g[t][self.node_class[t][node]]

    def _message(self, e: int, t: int) -> np.ndarray:
        return self.q[t][self.edge_class[t][e]]

    def _slot_qs(self, i: int, t: int):
        return [(self._message(e, t), cond) for e, cond in self._slots[i]]

    def error_probability(self, node: int, t: int,
                          condition_state: int | None = None) -> float:
        if not 0 <= t <= self.horizon:
            raise ModelError(f"no error for round {t}; the engine is at "
                             f"round {self.horizon}")
        sums = self.sums[t][self.node_class[t][node]]
        err, coupling_dev = error_from_sums(self.model, sums, condition_state)
        if coupling_dev > COUPLING_TOL:
            raise CouplingError(
                f"coupling mass deviates by {coupling_dev:.3e} at node {node}, t={t}")
        return err

    def posterior(self, node: int, x: int, observed: tuple[int, ...],
                  t: int) -> np.ndarray:
        if t == 0:
            return posterior_general(x, (), None, 0, [], self.model,
                                     self.n_actions)
        return posterior_general(x, tuple(observed), self._table(node, t - 1), t,
                                 self._slot_qs(node, t - 1), self.model,
                                 self.n_actions)

    def decision_kernel(self, node: int, t: int, x: int,
                        observed: tuple[int, ...]) -> list[tuple[int, float]]:
        """Kernel over the node's trajectory through round t for this input:
        the share of signal x's rows (coin outcomes) giving each code."""
        codes = np.array(observed, dtype=np.int64).reshape(-1, 1)
        j = DenseSpace(self.n_actions ** t, len(codes)).rank(codes)[0]
        column = self._table(node, t)[x::self.model.n_signals, j]
        values, counts = np.unique(column, return_counts=True)
        return [(int(v), float(c / len(column))) for v, c in zip(values, counts)]

    def cavity_table(self, j: int, i: int, t: int) -> CavityTable:
        return CavityTable(horizon=t, alphabet_size=self.n_actions,
                           scope=(j, i),
                           array=self._message(self.edge_id[(j, i)], t))

    def action_table(self, node: int, t: int) -> np.ndarray:
        """Round-t vote per (signal, packed observations), one array per
        class: nodes of a class share the same object.  A table with coin
        rows has no such array."""
        key = (t, self.node_class[t][node])
        if key not in self._actions:
            table = self.g[t][key[1]]
            if len(table) != self.model.n_signals:
                raise ModelError("action tables exist for deterministic "
                                 "rules only; this table has tie-coin rows")
            self._actions[key] = (table // self.n_actions ** t).astype(np.int8)
        return self._actions[key]
