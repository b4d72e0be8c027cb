"""Loopy graphs through hub removal: average over hub private signals.

A graph whose hub set leaves a tree after removal is handled by running the
tree machinery once per assignment of private signals to the hubs inside the
agent's ball, then averaging with weights P(hub signals | s).  Hubs outside
the ball cannot influence the calculation and are skipped.

Conditioning on a hub's signal pins its round-0 vote, which is all the tree
process needs through time 1.  From time 2 on a hub's vote depends on its
own (loopy) Bayesian computation, which the removal construction does not
specify; those horizons raise instead of guessing.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..model import ModelError, SignalModel, UpdateRule, round0_kernel
from ..trees import GraphError, TreeGraph, ball, validate
from .finite import FiniteTreeEngine
from .homogeneous import _resolve_actions

HUB_CAP = 4


def _tree_without_hubs(graph: TreeGraph) -> tuple[TreeGraph, dict[int, int]]:
    keep = sorted(v for v in range(graph.n) if v not in graph.hubs)
    relabel = {v: k for k, v in enumerate(keep)}
    edges = tuple((relabel[a], relabel[b]) for a, b in graph.edges
                  if a in relabel and b in relabel)
    dedges = tuple((relabel[a], relabel[b]) for a, b in graph.directed_edges
                   if a in relabel and b in relabel)
    return TreeGraph(n=len(keep), edges=edges, directed_edges=dedges), relabel


def posterior_with_hubs(
    graph: TreeGraph,
    model: SignalModel,
    rule: UpdateRule,
    node: int,
    x: int,
    observed: dict[int, int],
    t: int,
    hub_cap: int = HUB_CAP,
) -> np.ndarray:
    """P(s | x, observations through t-1) on an almost-tree with hubs.

    ``observed`` maps each observed neighbor (tree nodes and hubs alike) to
    its packed trajectory through round t-1.  With no hubs inside the ball
    this is exactly the tree posterior.
    """
    diag = validate(graph)
    if diag is not None:
        raise GraphError(diag)
    if node in graph.hubs:
        raise GraphError("posterior at a hub node is not defined by the removal "
                         "construction")
    if set(observed) != set(graph.observed[node]) and t >= 1:
        raise ModelError("observations must cover exactly the observed neighbors")

    active_hubs = sorted(graph.hubs & ball(graph, node, t)) if t >= 1 else []
    if len(active_hubs) > hub_cap:
        raise ModelError(f"{len(active_hubs)} hubs inside the ball exceed the "
                         f"cap of {hub_cap}")
    for h in active_hubs:
        if graph.hubs & set(graph.adjacency[h]):
            raise ModelError("adjacent hubs are not supported")

    tree, relabel = _tree_without_hubs(graph)
    engine = FiniteTreeEngine(tree, model, rule)
    engine.run(max(t, 0))
    tree_node = relabel[node]
    tree_obs = tuple(observed[j] for j in graph.observed[node]
                     if j not in graph.hubs)

    if not active_hubs:
        return engine.posterior(tree_node, x, tree_obs, t)

    if t > 1:
        raise ModelError(
            "hubs inside the ball are supported through t = 1: beyond that a "
            "hub's vote needs its own loopy Bayesian computation, which the "
            "removal construction leaves unspecified")

    n_actions = _resolve_actions(model, rule)
    kern0 = round0_kernel(model, rule, n_actions)
    for kern in kern0:
        if len(kern) != 1:
            raise ModelError("hub averaging needs a deterministic round-0 vote")
    vote0 = [kern[0][0] for kern in kern0]

    hub_neighbors = [h for h in graph.observed[node] if h in graph.hubs]
    weights = np.zeros(model.n_states)
    for s in range(model.n_states):
        base = model.prior[s] * model.likelihood[s, x]
        for j in graph.observed[node]:
            if j in graph.hubs:
                continue
            # Round-0 messages are signal marginals; hub conditioning cannot
            # change them, so one tree engine serves every assignment.
            q0 = engine.cavity_table(relabel[j], tree_node, 0).array
            base *= q0[observed[j], 0, s]
        total = 0.0
        for assignment in itertools.product(range(model.n_signals),
                                            repeat=len(active_hubs)):
            w = 1.0
            consistent = True
            for h, xi in zip(active_hubs, assignment):
                w *= model.likelihood[s, xi]
                if h in hub_neighbors and vote0[xi] != observed[h]:
                    consistent = False
                    break
            if consistent:
                total += w
        weights[s] = base * total
    z = weights.sum()
    if z <= 0.0:
        raise ModelError("observation has probability zero under every state")
    return weights / z
