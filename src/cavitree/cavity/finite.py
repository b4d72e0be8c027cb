"""Finite trees: the planner that interns the classes of ``engine.py``.

Every directed observation pair (i observes j) carries a message Q_{j->i};
a message conditions on the observer's trajectory only when the observed
node observes back (undirected edge).  Tables are shared per structural
class, one cavity step of weight 1 per edge class, and addressed by node
and edge; a node's slots are sorted once, when its class is interned, so
that the neighbours sending one message share a group of exchangeable
slots, and a node reads its class's table through that stored order.
Every rule runs on the vectorized core: a stochastic one (majority with
coin-flip ties at even degree, Bayesian with uniform-random ties) gives its
decision tables coin rows, one per tie-coin outcome, so a node's trajectory
is a function of its row and inputs and ``decision_kernel`` counts the rows
of a signal.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from ..model import SignalModel, UpdateRule
from ..trees import GraphError, TreeGraph, validate
from .engine import CavityEngine, check_address
from .tables import CavityTable


def _intern(keys) -> tuple[list[int], list[int]]:
    """Class id per key, numbered in sorted key order, and the position of
    one member of each class."""
    ids = {key: c for c, key in enumerate(sorted(set(keys)))}
    classes = [ids[key] for key in keys]
    members = dict(zip(classes, range(len(keys))))
    return classes, [members[c] for c in range(len(ids))]


class FiniteTreeEngine(CavityEngine):
    """Exact calculation schedule on a finite (possibly directed) tree, with
    tables per structural class, not per node or edge.

    Each round every node and every directed edge gets a class id, interned
    from the classes that fix the inputs of its core step, and each step
    runs once per class; isomorphic subtrees share their tables, as in
    Aho-Hopcroft-Ullman tree hashing.  A node's class at t+1 is its class at
    t with the *sorted* (slot class, conditions) pairs of its messages at t:
    slots with equal pairs form a group of exchangeable slots, one multiset
    per group in the class's ``core.SlotSpace``.  The sort's permutation is
    the node's ``slot_order[t+1]``, in which the engine reads the
    ``observed`` codes of its ``action_table``, ``decision_kernel`` and
    ``posterior``.  An edge's class is its sender's class with the class of
    the observer's own message at t-1.  Its key starts with its class at
    t-1 and ids follow sorted keys, so a group at t-1 stays together, in
    order, among the sorted pairs at t: the next decision step ranks its
    truncated inputs in the table's own space, whose groups are runs of
    consecutive groups of the next round.
    """

    def __init__(self, graph: TreeGraph, model: SignalModel, rule: UpdateRule):
        if graph.hubs:
            raise GraphError("hub graphs go through posterior_with_hubs")
        diag = validate(graph)
        if diag is not None:
            raise GraphError(diag)
        obs = graph.observed
        n = graph.n
        rule.check_degrees([len(o) for o in obs])
        super().__init__(model, rule)
        self.graph = graph
        self.edges = [(j, i) for i in range(n) for j in obs[i]]
        self.edge_id = {edge: e for e, edge in enumerate(self.edges)}
        # Per edge j->i: the edge i->j of the observer's message, if any.
        self._reverse = [self.edge_id.get((i, j)) for (j, i) in self.edges]
        # Per node i: its slot edges j->i, each with whether it conditions.
        self._slots = [tuple((self.edge_id[(j, i)], i in obs[j]) for j in obs[i])
                       for i in range(n)]
        # Per round: the class of every node (edge); every node's slot order.
        self.node_class = [[0] * n]
        self.slot_order = [[()] * n]
        self.edge_class: list[list[int]] = []

    def _plan_round(self, t: int):
        """Intern the classes of round t, edges at t and nodes at t+1, whose
        keys need no tables, and plan one core step per class: one sort per
        node gives its key, its slot order and its class's groups."""
        nodes = self.node_class[t]
        prev = self.edge_class[t - 1] if t else [0] * len(self.edges)
        keys = [(prev[e], -1 if rev is None else prev[rev], nodes[j])
                for e, ((j, _), rev) in enumerate(zip(self.edges, self._reverse))]
        edge_class, members = _intern(keys)
        self.edge_class[t:] = [edge_class]  # over a refused plan's classes
        cavity = []
        for e in members:
            j, rev = self.edges[e][0], self._reverse[e]
            groups = self._plans[t - 1][1][nodes[j]][1] if t else []
            tau_group = None if rev is None or not t else [
                pair for pair, _ in groups].index((prev[rev], True))
            cavity.append([(1.0, nodes[j], tau_group, groups)])

        keys, orders, shared = [], [], {}
        for i, slots in enumerate(self._slots):
            pairs = [(edge_class[e], cond) for e, cond in slots]
            order = tuple(sorted(range(len(pairs)), key=pairs.__getitem__))
            orders.append(shared.setdefault(order, order))  # one per order
            keys.append((nodes[i], tuple(pairs[k] for k in order)))
        node_class, members = _intern(keys)
        self.node_class[t + 1:] = [node_class]
        self.slot_order[t + 1:] = [orders]
        return cavity, [(nodes[i], [(pair, len(list(run)))
                                    for pair, run in groupby(keys[i][1])])
                        for i in members]

    def advance(self) -> None:
        self._step(*self._planned(self.horizon))

    def error_probability(self, node: int, t: int,
                          condition_state: int | None = None) -> float:
        check_address(t, len(self.g), "error", node, range(self.graph.n))
        return self._error(t, self.node_class[t][node], condition_state,
                           f"node {node}")

    def posterior(self, node: int, x: int, observed: tuple[int, ...],
                  t: int) -> np.ndarray:
        check_address(t, len(self.g), "posterior", node, range(self.graph.n))
        return self._posterior(x, observed, t, self.node_class[t][node],
                               len(self.graph.observed[node]),
                               self.slot_order[t][node])

    def decision_kernel(self, node: int, t: int, x: int,
                        observed: tuple[int, ...]) -> list[tuple[int, float]]:
        """Kernel over the node's trajectory through round t at one code per
        neighbour (0 at t = 0): the share of signal x's rows giving each."""
        check_address(t, len(self.g), "decision table", node,
                      range(self.graph.n))
        column = self._own_codes(t, self.node_class[t][node], x, observed,
                                 len(self.graph.observed[node]),
                                 self.slot_order[t][node])
        values, counts = np.unique(column, return_counts=True)
        return [(int(v), float(n / len(column))) for v, n in zip(values, counts)]

    def cavity_table(self, j: int, i: int, t: int) -> CavityTable:
        check_address(t, len(self.q), "cavity table", (j, i), self.edge_id)
        return self._cavity_table(t, self.edge_class[t][self.edge_id[(j, i)]])

    def action_table(self, node: int, t: int) -> np.ndarray:
        """Round-t vote per (signal, packed observations in ``observed``
        order), one array per class and permutation: nodes that share both
        share the same object.  A table with coin rows has no such array."""
        check_address(t, len(self.g), "action table", node,
                      range(self.graph.n))
        return self.vote_table(t, self.node_class[t][node],
                               self.slot_order[t][node])
