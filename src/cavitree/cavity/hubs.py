"""Loopy graphs through hub removal: split each hub into leaves.

A graph whose hub set leaves a tree after removal is answered on one tree,
its split: each hub becomes one leaf per agent that observes it, joined to
that agent by an undirected edge, and the tree's ``FiniteTreeEngine``
gives the posterior.  Through round 1 this is exact: an agent sees only
round-0 votes, each depends on its sender's private signal alone, so given
s the observed votes are independent, hub or not, and a leaf's round-0
vote has its hub's law.  A hub the agent does not observe gets no leaf.

From time 2 on a hub's vote depends on its own (loopy) Bayesian
computation, which the removal construction does not specify, so an agent
with a hub within distance t is refused.  Otherwise every leaf lies beyond
the radius-t ball that the posterior reads: it hangs off an agent next to
a hub, so it lies at distance > t from the agent asked, and the split adds
no path between agents.  The engine of the last (graph, model, rule) is
kept, so repeated calls share its tables.
"""

from __future__ import annotations

import numpy as np

from ..model import ModelError, SignalModel, UpdateRule, check_int, is_index
from ..trees import GraphError, TreeGraph, ball, validate
from .finite import FiniteTreeEngine


def _split(graph: TreeGraph) -> tuple[TreeGraph, dict]:
    """The graph's split tree, and the tree node of each agent and of each
    (agent, observed hub) leaf.  Tree nodes keep the graph's node order,
    a hub's leaves in its place, so every agent observes its neighbours in
    the graph's order."""
    hubs, obs = graph.hubs, graph.observed
    node: dict = {}  # agent, or (agent, hub) leaf -> tree node
    for v in range(graph.n):
        if v not in hubs:
            node[v] = len(node)
            continue
        for a in graph.adjacency[v]:
            if a not in hubs and v in obs[a]:
                node[a, v] = len(node)
    edges = [(node[a], node[b]) for a, b in graph.edges if not hubs & {a, b}]
    edges += [(node[key[0]], i) for key, i in node.items()
              if isinstance(key, tuple)]
    directed = tuple((node[a], node[b]) for a, b in graph.directed_edges
                     if not hubs & {a, b})
    return TreeGraph(len(node), tuple(edges), directed), node


_ENGINE: dict = {}


def _engine(graph: TreeGraph, model: SignalModel, rule: UpdateRule):
    """The split tree's engine and tree nodes, kept for the last key only.
    Keyed by the graph, the model's hash and the rule's fields, since the
    model and rule hold arrays."""
    values = None if rule.utility is None else rule.utility.values
    utility = None if values is None else (values.shape, values.tobytes())
    key = (graph, model.config_hash(), rule.variant, rule.tie_break, utility)
    if key not in _ENGINE:
        tree, node = _split(graph)
        engine = FiniteTreeEngine(tree, model, rule)
        _ENGINE.clear()
        _ENGINE[key] = engine, node
    return _ENGINE[key]


def posterior_with_hubs(
    graph: TreeGraph,
    model: SignalModel,
    rule: UpdateRule,
    node: int,
    x: int,
    observed: dict[int, int],
    t: int,
) -> np.ndarray:
    """P(s | x, observations through t-1) on an almost-tree with hubs.

    ``observed`` maps each observed neighbor (tree nodes and hubs alike) to
    its packed trajectory through round t-1 (code 0, the empty trajectory,
    at t = 0), else ``ModelError``.  The split tree's posterior: exact
    through t = 1, and later with no hubs inside the ball.
    """
    diag = validate(graph)
    if diag is not None:
        raise GraphError(diag)
    if not is_index(node, graph.n):
        raise ModelError(f"no posterior for node {node!r}")
    check_int("t", t, 0)
    if node in graph.hubs:
        raise GraphError("posterior at a hub node is not defined by the removal "
                         "construction")
    neighbors = graph.observed[node]
    if set(observed) != set(neighbors):
        raise ModelError("observations must cover exactly the observed neighbors")
    if t >= 2 and graph.hubs & ball(graph, node, t):
        raise ModelError(
            "hubs inside the ball are supported through t = 1: beyond that a "
            "hub's vote needs its own loopy Bayesian computation, which the "
            "removal construction leaves unspecified")
    engine, tree_node = _engine(graph, model, rule)
    engine.run(t)
    return engine.posterior(tree_node[node], x,
                            tuple(observed[j] for j in neighbors), t)
