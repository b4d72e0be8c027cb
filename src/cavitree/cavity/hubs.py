"""Loopy graphs through hub removal: average over hub private signals.

A graph whose hub set leaves a tree after removal is handled by averaging
the tree calculation over the private signals of the hubs inside the
agent's ball, with weights P(hub signals | s).  Through round 1 that
average is a product of round-0 messages: an agent sees only round-0 votes,
and each depends on its sender's private signal alone, so given s the
observed votes are independent, hub or not, and the average over a hub's
signal is its round-0 message Q^0[vote, s].  A hub the agent does not
observe averages to 1.  Hubs outside the ball cannot influence the
calculation and are skipped.

From time 2 on a hub's vote depends on its own (loopy) Bayesian
computation, which the removal construction does not specify; those
horizons raise instead of guessing.
"""

from __future__ import annotations

import numpy as np

from ..model import (ModelError, SignalModel, UpdateRule, action_count,
                     is_index, is_int, signal_posterior)
from ..trees import GraphError, TreeGraph, ball, validate
from .core import cavity_step_general, posterior_general, round0_table
from .engine import AllActive, check_input
from .finite import FiniteTreeEngine


def _tree_without_hubs(graph: TreeGraph) -> tuple[TreeGraph, dict[int, int]]:
    keep = sorted(v for v in range(graph.n) if v not in graph.hubs)
    relabel = {v: k for k, v in enumerate(keep)}
    edges = tuple((relabel[a], relabel[b]) for a, b in graph.edges
                  if a in relabel and b in relabel)
    dedges = tuple((relabel[a], relabel[b]) for a, b in graph.directed_edges
                   if a in relabel and b in relabel)
    return TreeGraph(n=len(keep), edges=edges, directed_edges=dedges), relabel


_ROUND0: dict = {}


def _round0(model: SignalModel, rule: UpdateRule):
    """The channel and Q^0 of (model, rule), built once: they depend on
    nothing else, so callers share the read-only message.  Keyed by the
    model's hash and the rule's fields, since both hold arrays."""
    values = None if rule.utility is None else rule.utility.values
    utility = None if values is None else (values.shape, values.tobytes())
    key = (model.config_hash(), rule.variant, rule.tie_break, utility)
    if key not in _ROUND0:
        channel = AllActive(action_count(model, rule))
        q0 = cavity_step_general(round0_table(model, rule, channel.n_actions),
                                 0, None, [], model, rule, channel)[0]
        q0.flags.writeable = False
        _ROUND0[key] = channel, q0
    return _ROUND0[key]


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
    at t = 0), else ``ModelError``.  Through t = 1 this is the
    product of the neighbors' round-0 messages; later, with no hubs inside
    the ball, it is exactly the tree posterior.
    """
    diag = validate(graph)
    if diag is not None:
        raise GraphError(diag)
    if not (is_index(node, graph.n) and is_int(t) and t >= 0):
        raise ModelError(f"no posterior for node {node!r} at round {t!r}")
    if node in graph.hubs:
        raise GraphError("posterior at a hub node is not defined by the removal "
                         "construction")
    neighbors = graph.observed[node]
    if set(observed) != set(neighbors):
        raise ModelError("observations must cover exactly the observed neighbors")

    if t <= 1:
        channel, q0 = _round0(model, rule)
        codes = check_input(x, [observed[j] for j in neighbors], len(neighbors),
                            channel.size ** t, model.n_signals)
        if t == 0:
            return signal_posterior(model, x)
        return posterior_general(x, codes, 0, [(q0, False, len(neighbors))],
                                 model)

    if graph.hubs & ball(graph, node, t):
        raise ModelError(
            "hubs inside the ball are supported through t = 1: beyond that a "
            "hub's vote needs its own loopy Bayesian computation, which the "
            "removal construction leaves unspecified")
    tree, relabel = _tree_without_hubs(graph)
    engine = FiniteTreeEngine(tree, model, rule)
    engine.run(t)
    return engine.posterior(relabel[node], x,
                            tuple(observed[j] for j in neighbors), t)
