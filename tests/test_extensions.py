"""Degree-mixture recursion, active edges, and hub averaging."""

import dataclasses
import itertools

import numpy as np
import pytest

from cavitree.cavity import (
    ActiveEdgeEngine,
    ConfigModelEngine,
    FiniteTreeEngine,
    RegularTreeEngine,
    posterior_with_hubs,
)
import cavitree.cavity.engine as engine_module
from cavitree.cavity.core import SlotSpace, cavity_step_general
from cavitree.model import ModelError, TieBreak, TieBreakRule, UpdateRule
from cavitree.oracle import feasible_set, unroll
from cavitree.trees import (
    BudgetError,
    DegreeDistribution,
    TreeGraph,
    edge_perspective,
    regular_tree,
)

TRIANGLE = TreeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)), hubs=frozenset({2}))
SIX_NODE = TreeGraph(n=6, edges=((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)),
                     hubs=frozenset({2}))


def test_every_engine_returns_float_errors(model15, bayes):
    """Errors are Python floats, not NumPy scalars, whichever engine and
    whichever way they are asked for."""
    finite = FiniteTreeEngine(regular_tree(3, 2), model15, bayes)
    regular = RegularTreeEngine(model15, 3, bayes)
    mixture = ConfigModelEngine(model15, DegreeDistribution(
        (3, 4), np.array([0.5, 0.5])), bayes)
    active = ActiveEdgeEngine(model15, 3, bayes, p=0.5)
    for engine in (finite, regular, mixture, active):
        engine.run(2)
    errors = [finite.error_probability(0, 2), regular.error_probability(2),
              regular.error_probability(2, degree=3),
              mixture.error_probability(2), mixture.error_probability(2, degree=4),
              active.error_probability(2)]
    assert [type(e) for e in errors] == [float] * len(errors)


# -- configuration model ------------------------------------------------------

def test_degenerate_mixture_equals_homogeneous(model15, bayes):
    cfg = ConfigModelEngine(model15, DegreeDistribution((5,), np.array([1.0])), bayes)
    hom = RegularTreeEngine(model15, 5, bayes)
    cfg.run(3)
    hom.run(3)
    for t in range(3):
        assert np.max(np.abs(cfg.q[t][0] - hom.q[t][0])) <= 1e-12
    assert cfg.error_probability(2) == pytest.approx(hom.error_probability(2),
                                                     abs=1e-15)


def test_round0_is_degree_independent(model15, bayes):
    rho_v = DegreeDistribution((2, 4), np.array([0.5, 0.5]))
    cfg = ConfigModelEngine(model15, rho_v, bayes)
    cfg.advance()
    np.testing.assert_allclose(cfg.q[0][0][:, 0, 0], [0.85, 0.15], rtol=1e-15)


def test_two_point_mixture_is_weighted_average(model15, bayes):
    """Mix the two fixed-degree steps by hand and compare to the mixture op."""
    rho_v = DegreeDistribution((2, 4), np.array([0.5, 0.5]))
    rho_e = edge_perspective(rho_v)
    cfg = ConfigModelEngine(model15, rho_v, bayes)
    cfg.run(2)
    q_prev = cfg.q[0][0]
    by_hand = None
    for d, p in zip(rho_e.support, rho_e.probs):
        # The stored round-1 table, expanded to one group per slot.
        dense = dataclasses.replace(
            cfg.g[1][cfg.degrees.index(d)], codes=cfg.dense_decisions(d, 1),
            space=SlotSpace(cfg.channel.size, [1] * d))
        q_d = cavity_step_general(dense, 1, 0, [(q_prev, True, 1)] * d,
                                  model15, bayes, cfg.channel)[0]
        by_hand = p * q_d if by_hand is None else by_hand + p * q_d
    np.testing.assert_allclose(cfg.q[1][0], by_hand, atol=1e-12)


def test_mixture_columns_normalized(model15, bayes):
    rho_v = DegreeDistribution((2, 3, 5), np.array([0.3, 0.4, 0.3]))
    cfg = ConfigModelEngine(model15, rho_v, bayes)
    cfg.run(3)
    for q, in cfg.q:
        np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-12)
    # degree-averaged error mixes the per-degree values under rho_V
    per_degree = [cfg.error_probability(2, degree=d) for d in (2, 3, 5)]
    avg = cfg.error_probability(2)
    assert avg == pytest.approx(np.dot([0.3, 0.4, 0.3], per_degree), rel=1e-12)


# -- active edges -------------------------------------------------------------

def test_active_p1_reduces_exactly(model15, bayes):
    act = ActiveEdgeEngine(model15, 5, bayes, p=1.0)
    act.run(2)
    hom = RegularTreeEngine(model15, 5, bayes)
    hom.run(2)
    assert len(act.q) == len(hom.q) == 2
    for (q_act,), (q_hom,) in zip(act.q, hom.q):
        assert np.array_equal(q_act, q_hom)
    for t in range(3):
        assert act.error_probability(t) == hom.error_probability(t)


def test_active_round0_split(model15, bayes):
    engine = ActiveEdgeEngine(model15, 3, bayes, p=0.25)
    engine.advance()
    q0 = engine.q[0][0]
    assert q0[2, 0, 0] == pytest.approx(0.75, rel=1e-15)
    assert q0[0, 0, 0] == pytest.approx(0.25 * 0.85, rel=1e-15)
    assert q0[1, 0, 0] == pytest.approx(0.25 * 0.15, rel=1e-15)


def test_active_rejects_dead_edges(model15, bayes):
    with pytest.raises(ModelError):
        ActiveEdgeEngine(model15, 3, bayes, p=0.0)


def test_active_rejects_majority(model15, majority):
    with pytest.raises(ModelError):
        ActiveEdgeEngine(model15, 3, majority, p=0.5)


def test_active_rejects_uniform_ties(model15):
    """Coin rows are not checked on the erasure channel, so a Bayesian rule
    with uniform-random ties is refused."""
    rule = UpdateRule(tie_break=TieBreakRule(TieBreak.UNIFORM_RANDOM))
    with pytest.raises(ModelError, match="deterministic"):
        ActiveEdgeEngine(model15, 3, rule, p=0.5)


def test_active_decision_table_refuses_the_erasure_alphabet(model15, bayes):
    """A DecisionTable reads one alphabet; an erasure channel observes one
    letter more than there are actions."""
    engine = ActiveEdgeEngine(model15, 3, bayes, p=0.5)
    engine.run(1)
    with pytest.raises(ModelError, match="one alphabet"):
        engine.decision_table(1)


def test_active_budget_refuses_horizon_10(model15, bayes, monkeypatch):
    """At d=1, p<1 the horizon-9 cavity step returns 2.3e9 entries, each
    with a float64 accumulator and a float64 copy: over the budget.  No step
    may start."""
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the budget check")

    for name in ("cavity_step_general", "decision_step_general"):
        monkeypatch.setattr(engine_module, name, no_step)
    engine = ActiveEdgeEngine(model15, 1, bayes, p=0.5)
    with pytest.raises(BudgetError):
        engine.run(10)


def test_active_budget_admits_horizon_9(model15, bayes, monkeypatch):
    """The horizon-8 cavity step returns 2.6e8 entries: at 16 bytes each
    they fit the 4 GiB budget, so the preflight lets the first step start."""
    class StepStarted(Exception):
        pass

    def started(*args, **kwargs):
        raise StepStarted

    for name in ("cavity_step_general", "decision_step_general"):
        monkeypatch.setattr(engine_module, name, started)
    with pytest.raises(StepStarted):
        ActiveEdgeEngine(model15, 1, bayes, p=0.5).run(9)


def _enumerate_two_node_active(model, p):
    """Activation-augmented oracle on the 2-node path: enumerate the 4 signal
    pairs and 4 activation patterns of the single edge."""
    lik = model.likelihood
    q = np.zeros((9, 3, 2))  # extended codes, horizon 1 vs horizon 0
    for s in (0, 1):
        for tau_seen in (0, 1, 2):  # what j saw of the zombie at round 0
            for x_j in (0, 1):
                w_x = lik[s, x_j]
                # Round 0: vote the signal.  Round 1 for a degree-1 node:
                # agreement reinforces the signal, disagreement ties back to
                # it, a star adds nothing -- the vote is always the signal.
                vote1 = x_j
                act0 = 0 if tau_seen == 2 else 1  # round-0 activation from tau
                for a1 in (0, 1):  # round-1 activation of the same edge
                    w = w_x * (p if a1 else (1 - p))
                    d0 = x_j if act0 else 2
                    d1 = vote1 if a1 else 2
                    q[d0 + 3 * d1, tau_seen, s] += w
    return q


def test_active_two_node_matches_enumeration(model15, bayes):
    p = 0.5
    engine = ActiveEdgeEngine(model15, 1, bayes, p=p)
    engine.run(2)
    expected = _enumerate_two_node_active(model15, p)
    np.testing.assert_allclose(engine.q[1][0], expected, atol=1e-12)


def test_active_replay_matches_monte_carlo(model15, bayes):
    """Replay the engine's tables on regular_tree(3, 2) with random activations.

    Every undirected edge fires once per round with probability p, and both
    endpoints see the same pattern.  The root's ball of radius 2 is a tree
    with every inner node of degree 3, so its error through round 2 is the
    infinite-tree value.
    """
    d, p, rounds, samples = 3, 0.5, 2, 200_000
    engine = ActiveEdgeEngine(model15, d, bayes, p=p)
    engine.run(rounds)
    graph = regular_tree(d, rounds)
    n_a = engine.n_actions
    e = n_a + 1
    rng = np.random.default_rng(20110207)
    state = (rng.random(samples) >= model15.prior[0]).astype(np.int64)
    lik0 = model15.likelihood[state, 0]
    signals = (rng.random((graph.n, samples)) >= lik0).astype(np.int64)
    active = {edge: rng.random((rounds, samples)) < p for edge in graph.edges}
    depth = {0: 0}
    for i, j in graph.edges:  # level order: parents come first
        depth[j] = depth[i] + 1
    tables = [engine.dense_decisions(d, t) for t in range(rounds + 1)]
    votes = [tables[0][signals, 0].astype(np.int64)]
    for t in range(1, rounds + 1):
        now = np.zeros_like(votes[0])
        for i in (i for i in range(graph.n) if depth[i] <= rounds - t):
            j_idx = np.zeros(samples, dtype=np.int64)
            for k, nbr in enumerate(graph.observed[i]):
                seen = active[tuple(sorted((i, nbr)))]
                code = sum(np.where(seen[r], votes[r][nbr], n_a) * e ** r
                           for r in range(t))
                j_idx += code * (e ** t) ** k
            own = tables[t][signals[i], j_idx]
            now[i] = own // n_a ** t
        votes.append(now)
    for t in range(rounds + 1):
        exact = engine.error_probability(t)
        rate = float(np.mean(votes[t][0] != state))
        se = np.sqrt(exact * (1 - exact) / samples)
        assert abs(rate - exact) <= 4 * se, (t, rate, exact, se)


# -- hubs ---------------------------------------------------------------------

def test_no_hubs_identical_to_tree_posterior(model15, bayes):
    from cavitree.cavity import FiniteTreeEngine
    from cavitree.trees import path_graph

    graph = path_graph(3)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    post_hub = posterior_with_hubs(graph, model15, bayes, 1, 0, {0: 3, 2: 0}, 2)
    np.testing.assert_array_equal(post_hub,
                                  engine.posterior(1, 0, (3, 0), 2))


# (graph, node): every hub lies in the node's ball at t = 1.
HUB_CASES = {
    "triangle": (TRIANGLE, 0),
    "six-node-from-0": (SIX_NODE, 0),
    "six-node-from-1": (SIX_NODE, 1),
    "adjacent-hubs": (TreeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)),
                                hubs=frozenset({1, 2})), 0),
    "unobserved-hub": (TreeGraph(n=3, edges=((0, 1), (1, 2)),
                                 directed_edges=((2, 0),),
                                 hubs=frozenset({2})), 0),
    "two-hubs": (TreeGraph(n=5, edges=((0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                                       (3, 4)), hubs=frozenset({2, 4})), 0),
}


@pytest.mark.parametrize("label", list(HUB_CASES))
def test_triangle_hub_matches_loopy_oracle(model15, bayes, label):
    """Through t = 1 the hub average equals the brute-force posterior on the
    loopy graph, at every signal and observation; at t = 0 every observed
    trajectory is empty, code 0, and any other code is refused."""
    graph, node = HUB_CASES[label]
    loopy = TreeGraph(n=graph.n, edges=graph.edges,
                      directed_edges=graph.directed_edges)
    tensor = unroll(loopy, model15, bayes, 1)
    neighbors = graph.observed[node]
    with pytest.raises(ModelError, match="outside 0..0"):
        posterior_with_hubs(graph, model15, bayes, node, 0,
                            dict.fromkeys(neighbors, 1), 0)
    for t in (0, 1):
        for x in (0, 1):
            for obs in itertools.product((0, 1) if t else (0,),
                                         repeat=len(neighbors)):
                post = posterior_with_hubs(graph, model15, bayes, node, x,
                                           dict(zip(neighbors, obs)), t)
                idx = feasible_set(tensor, node, x, obs if t else None, 0)
                w = model15.prior * np.array(
                    [tensor.signal_probs[s][idx].sum() for s in (0, 1)])
                np.testing.assert_allclose(post, w / w.sum(), atol=1e-10)


def test_hub_outside_ball_is_skipped(model15, bayes):
    # hub hangs off node 3; ball(0, 2) never reaches it
    graph = TreeGraph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (2, 4)),
                      hubs=frozenset({4}))
    tree = TreeGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    from cavitree.cavity import FiniteTreeEngine

    engine = FiniteTreeEngine(tree, model15, bayes)
    engine.run(2)
    post = posterior_with_hubs(graph, model15, bayes, 0, 1, {1: 2}, 2)
    np.testing.assert_allclose(post, engine.posterior(0, 1, (2,), 2), atol=0)


def test_hub_free_tree_keeps_directed_edges(model15, bayes):
    """At t = 2 the hub lies outside node 0's ball, and the split tree
    keeps the directed edge 1 -> 3, so every feasible posterior equals the
    brute-force one on the loopy graph."""
    edges = ((0, 1), (1, 2), (2, 5), (3, 5), (4, 5))
    graph = TreeGraph(n=6, edges=edges, directed_edges=((1, 3),),
                      hubs=frozenset({5}))
    tensor = unroll(TreeGraph(n=6, edges=edges, directed_edges=((1, 3),)),
                    model15, bayes, 1)
    (neighbor,) = graph.observed[0]
    feasible = 0
    for x in (0, 1):
        for code in range(4):
            idx = feasible_set(tensor, 0, x, (code,), 1)
            if idx.size == 0:
                continue
            feasible += 1
            w = model15.prior * np.array(
                [tensor.signal_probs[s][idx].sum() for s in (0, 1)])
            post = posterior_with_hubs(graph, model15, bayes, 0, x,
                                       {neighbor: code}, 2)
            np.testing.assert_allclose(post, w / w.sum(), atol=1e-10)
    assert feasible == 6


def test_hub_beyond_t1_raises(model15, bayes):
    with pytest.raises(ModelError):
        posterior_with_hubs(TRIANGLE, model15, bayes, 0, 0, {1: 0, 2: 0}, 2)


def _count_engines(monkeypatch):
    """Start hub posteriors from an empty engine cache, and return the list
    that records each engine they build."""
    import cavitree.cavity.hubs as hubs_module

    calls = []
    build = hubs_module.FiniteTreeEngine
    monkeypatch.setattr(hubs_module, "_ENGINE", {})
    monkeypatch.setattr(hubs_module, "FiniteTreeEngine",
                        lambda *args: calls.append(args) or build(*args))
    return calls


def test_hub_engine_is_built_once_per_model_and_rule(bayes, majority,
                                                     monkeypatch):
    """Hub posteriors build the split tree's engine once per (graph, model,
    rule), an equal model built anew included, and repeated calls return
    the same posterior bit for bit."""
    from cavitree.model import SignalModel

    calls = _count_engines(monkeypatch)

    def posteriors(model, rule):
        return [posterior_with_hubs(TRIANGLE, model, rule, 0, x,
                                    {1: v, 2: w}, t)
                for t, x, v, w in itertools.product((0, 1), repeat=4)
                if t or v == w == 0]  # round-0 trajectories are empty

    model = SignalModel.binary_symmetric(0.21)
    first = posteriors(model, bayes)
    for same in (model, SignalModel.binary_symmetric(0.21)):
        for got, want in zip(posteriors(same, bayes), first):
            assert got.tobytes() == want.tobytes()
    assert len(calls) == 1
    posteriors(model, majority)
    posteriors(SignalModel.binary_symmetric(0.22), bayes)
    assert len(calls) == 3


def test_hub_calls_past_round_one_share_one_engine(model15, bayes,
                                                   monkeypatch):
    from cavitree.trees import path_graph

    calls = _count_engines(monkeypatch)
    graph = path_graph(6)
    for k in range(50):
        posterior_with_hubs(graph, model15, bayes, 2, k % 2,
                            {1: 0, 3: 0}, 2)
    assert len(calls) == 1


def test_hub_split_gives_each_observer_a_leaf():
    """Each agent keeps its observed count in the split: one leaf per
    (agent, observed hub) pair, none for a hub it does not observe, no
    edge between hubs, and the directed edges between agents."""
    from cavitree.cavity.hubs import _split

    graph = TreeGraph(n=7, edges=((0, 1), (0, 4), (1, 4), (4, 5), (2, 5),
                                  (5, 6)),
                      directed_edges=((1, 2), (3, 6), (6, 0)),
                      hubs=frozenset({4, 5, 6}))
    tree, node = _split(graph)
    agents = [0, 1, 2, 3]
    leaves = {(0, 4), (1, 4), (2, 5), (3, 6)}  # hub 6 observes 0, not back
    assert set(node) == set(agents) | leaves
    assert sorted(node.values()) == list(range(tree.n))
    for a in agents:
        assert [node.get(j, node.get((a, j))) for j in graph.observed[a]] \
            == list(tree.observed[node[a]])
    for a, h in leaves:
        assert tree.observed[node[a, h]] == (node[a],)
        assert (node[a], node[a, h]) in tree.edges
    assert tree.directed_edges == ((node[1], node[2]),)
    assert tree.hubs == frozenset()


def test_refused_hub_run_keeps_the_engine_usable(model15, bayes):
    """The split of a hub-free tree is the tree itself; a run refused for
    its budget leaves the kept engine answering as a fresh one."""
    graph = regular_tree(3, 2)
    with pytest.raises(BudgetError):
        posterior_with_hubs(graph, model15, bayes, 0, 0, {1: 0, 2: 0, 3: 0},
                            12)
    fresh = FiniteTreeEngine(graph, model15, bayes)
    fresh.run(2)
    for t, codes in ((1, (0, 1, 1)), (2, (0, 2, 3))):
        got = posterior_with_hubs(graph, model15, bayes, 0, 1,
                                  dict(zip((1, 2, 3), codes)), t)
        assert got.tobytes() == fresh.posterior(0, 1, codes, t).tobytes()


def test_hub_majority_refuses_an_agent_who_observes_no_one(model15,
                                                           majority):
    """Node 3 observes no one, so the split tree's engine refuses majority
    on the whole graph, as the hub-free engine, the simulator and the
    oracle do."""
    graph = TreeGraph(n=4, edges=((0, 1), (0, 2), (1, 2)),
                      hubs=frozenset({2}))
    with pytest.raises(ModelError, match="at least one neighbor"):
        posterior_with_hubs(graph, model15, majority, 0, 0, {1: 1, 2: 0}, 1)


def test_hub_majority_past_round_one_matches_loopy_oracle(model15, majority):
    """Nodes 3 and 4 observe only the hub, which lies outside node 0's
    radius-2 ball: under majority (coin ties at node 2) each feasible
    posterior is the brute-force one on the loopy graph."""
    edges = ((0, 1), (1, 2), (2, 5), (3, 5), (4, 5))
    graph = TreeGraph(n=6, edges=edges, directed_edges=((1, 3),),
                      hubs=frozenset({5}))
    tensor = unroll(TreeGraph(n=6, edges=edges, directed_edges=((1, 3),)),
                    model15, majority, 1)
    for x, code in itertools.product((0, 1), range(4)):
        seen = ((tensor.signal_digits[0][tensor.vectors] == x)
                & (tensor.trajs[1][1] == code))
        w = model15.prior * np.array(
            [(tensor.weights * tensor.signal_probs[s][tensor.vectors])[seen]
             .sum() for s in (0, 1)])
        post = posterior_with_hubs(graph, model15, majority, 0, x,
                                   {1: code}, 2)
        np.testing.assert_allclose(post, w / w.sum(), atol=1e-12)
