from fractions import Fraction

import numpy as np
import pytest
from exact_reference import ExactRegularTree

import cavitree.cavity.finite as finite
from cavitree.cavity import CouplingError, FiniteTreeEngine
from cavitree.cavity.core import (
    cavity_step_general,
    decision_step_general,
    initial_cavity,
    round0_sums,
    round0_table,
)
from cavitree.model import (
    ModelError,
    SignalModel,
    TieBreak,
    TieBreakRule,
    UpdateRule,
)
from cavitree.oracle import (
    feasible_set,
    oracle_decision_tables,
    oracle_error_probability,
    unroll,
)
from cavitree.trees import (
    GraphError,
    TreeGraph,
    path_graph,
    regular_tree,
    rooted_arity_tree,
    star_graph,
)
from cavitree.verify import instance_family, oracle_equivalence_suite


def test_oracle_equivalence_family():
    report = oracle_equivalence_suite(max_nodes=8, max_t=3)
    assert report.ok, "\n".join(report.lines())


def test_directed_chain_matches_oracle(model15, bayes):
    # 0 observes 1, 1 observes 2; nobody observes back.
    graph = TreeGraph(n=3, directed_edges=((0, 1), (1, 2)))
    tensor = unroll(graph, model15, bayes, 3)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(3)
    for node in range(3):
        for t in range(4):
            assert engine.error_probability(node, t) == pytest.approx(
                oracle_error_probability(tensor, node, t), abs=1e-12)


def test_mixed_direction_tree_matches_oracle(model15, bayes):
    graph = TreeGraph(n=4, edges=((0, 1), (1, 2)), directed_edges=((3, 1),))
    tensor = unroll(graph, model15, bayes, 2)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    for node in range(4):
        for t in range(3):
            assert engine.error_probability(node, t) == pytest.approx(
                oracle_error_probability(tensor, node, t), abs=1e-12)


def test_posterior_matches_oracle_two_node(model15, bayes):
    graph = path_graph(2)
    tensor = unroll(graph, model15, bayes, 3)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(3)
    for t in range(1, 4):
        for x in (0, 1):
            for obs in np.unique(tensor.trajs[t - 1][1]):
                idx = feasible_set(tensor, 0, x, (int(obs),), t - 1)
                if len(idx) == 0:
                    continue
                w = model15.prior * np.array(
                    [tensor.signal_probs[s][idx].sum() for s in (0, 1)])
                np.testing.assert_allclose(engine.posterior(0, x, (int(obs),), t),
                                           w / w.sum(), atol=1e-12)


def test_decision_tables_match_oracle_on_reachable(model15, bayes):
    graph = rooted_arity_tree(2, 2)
    tensor = unroll(graph, model15, bayes, 3)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(3)
    tables = oracle_decision_tables(tensor)
    for node in range(graph.n):
        for t in range(4):
            for (x, obs), code in tables[node][t].items():
                assert engine.decision_kernel(node, t, x, obs) == [(code, 1.0)]


def test_majority_even_degree_has_coin_rows(model15, majority):
    engine = FiniteTreeEngine(path_graph(3), model15, majority)
    engine.run(2)
    # Node 1 (degree 2) flips a coin from round 1 on: 2 signals x 2 x 2 rows.
    assert engine.g[2][engine.node_class[2][1]].shape[0] == 8
    with pytest.raises(ModelError):
        engine.action_table(1, 1)
    # interior node ties when its two neighbors disagree at the prior round
    kern = engine.decision_kernel(1, 1, 0, (0, 1))
    probs = dict(kern)
    assert probs == {0: 0.5, 2: 0.5}  # round-1 coin on top of own round-0 vote


def test_majority_error_matches_oracle_with_coins(model15, majority):
    graph = star_graph(5)  # center degree 4: coin flips on 2-2 splits
    tensor = unroll(graph, model15, majority, 3)
    engine = FiniteTreeEngine(graph, model15, majority)
    engine.run(3)
    for node in range(graph.n):
        for t in range(4):
            assert engine.error_probability(node, t) == pytest.approx(
                oracle_error_probability(tensor, node, t), abs=1e-12)


def test_majority_rejects_node_observing_nobody(model15, majority):
    """A zero margin would flip a coin for a node with no neighbour votes;
    the engine refuses such a graph up front, as the simulator does."""
    graph = TreeGraph(n=3, edges=((0, 1),), directed_edges=((2, 1),))
    assert graph.observed[1] == (0,)
    lonely = TreeGraph(n=2, directed_edges=((0, 1),))
    assert lonely.observed[1] == ()
    FiniteTreeEngine(graph, model15, majority)
    with pytest.raises(ModelError):
        FiniteTreeEngine(lonely, model15, majority)
    with pytest.raises(ModelError):
        FiniteTreeEngine(_MIXED, model15, majority)


@pytest.mark.parametrize("noise", [0.15, 0.3])
def test_uniform_ties_on_two_nodes(noise, uniform_ties):
    """Two Bayesian agents with uniform-random ties: disagreeing round-0
    votes leave a posterior of 1/2, so round 1 errs with probability
    eps^2 + eps(1 - eps) = eps."""
    model = SignalModel.binary_symmetric(noise)
    rule = UpdateRule(variant="bayesian", tie_break=uniform_ties)
    engine = FiniteTreeEngine(path_graph(2), model, rule)
    engine.run(2)
    assert engine.error_probability(0, 1) == pytest.approx(noise, rel=1e-15)
    # Own signal 0, neighbour voted 1: the round-1 vote is a fair coin.
    assert engine.decision_kernel(0, 1, 0, (1,)) == [(0, 0.5), (2, 0.5)]
    assert engine.decision_kernel(0, 1, 0, (0,)) == [(0, 1.0)]
    with pytest.raises(ModelError):
        engine.posterior(0, 0, (1, ), 2)


def test_bench_spans_find_finite_engine_methods():
    """The bench tracer wraps a method only where its class defines it; an
    inherited method lands in the run's absent layers."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [p for module, p, _, _ in spans.TARGETS
               if module == "cavitree.cavity.finite"]
    assert targets
    for target in targets:
        owner, attr = target.split(".")
        assert attr in vars(getattr(finite, owner)), target


def test_error_round_out_of_range(model15, bayes):
    engine = FiniteTreeEngine(path_graph(3), model15, bayes)
    engine.run(2)
    for t in (-1, 3):
        with pytest.raises(ModelError):
            engine.error_probability(0, t)


def test_hub_graph_rejected(model15, bayes):
    graph = TreeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)), hubs=frozenset({2}))
    with pytest.raises(GraphError):
        FiniteTreeEngine(graph, model15, bayes)


def test_loopy_graph_rejected(model15, bayes):
    graph = TreeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GraphError):
        FiniteTreeEngine(graph, model15, bayes)


def test_stochastic_posterior_underivable_raises(model15, majority):
    engine = FiniteTreeEngine(path_graph(3), model15, majority)
    engine.run(2)
    with pytest.raises(ModelError):
        engine.posterior(1, 0, (0, 1), 2)


def test_interior_node_matches_homogeneous(model15, bayes):
    """Interior nodes of a deep finite tree follow the infinite-tree numbers."""
    from cavitree.cavity import RegularTreeEngine
    from cavitree.sim import interior_nodes
    from cavitree.trees import regular_tree

    graph = regular_tree(3, 3)
    assert 0 in interior_nodes(graph, 2)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    hom = RegularTreeEngine(model15, 3, bayes)
    hom.run(2)
    assert engine.error_probability(0, 2) == pytest.approx(
        hom.error_probability(2), abs=1e-12)


def test_inconsistent_cavity_table_raises_coupling_error(model15, bayes,
                                                         monkeypatch):
    step = finite.cavity_step_general

    def scaled(*args, **kwargs):
        q, drift, ops = step(*args, **kwargs)
        return q * (1 + 1e-6), drift, ops

    monkeypatch.setattr(finite, "cavity_step_general", scaled)
    engine = FiniteTreeEngine(path_graph(3), model15, bayes)
    engine.run(2)
    engine.error_probability(1, 1)
    with pytest.raises(CouplingError):
        engine.error_probability(1, 2)


def test_core_steps_run_once_per_structural_class(model15, bayes, monkeypatch):
    """On regular_tree(5, 5) to round 2 the 3410 messages and 1706 decision
    tables per round fall into a handful of classes, one core step each."""
    from cavitree.cavity import RegularTreeEngine
    from cavitree.trees import regular_tree

    calls = []
    for name in ("cavity_step_general", "decision_step_general"):
        step = getattr(finite, name)

        def counted(*args, _step=step, **kwargs):
            calls.append(_step)
            return _step(*args, **kwargs)

        monkeypatch.setattr(finite, name, counted)
    engine = FiniteTreeEngine(regular_tree(5, 5), model15, bayes)
    engine.run(2)
    assert len(calls) <= 24  # one per node and per edge would be 6822
    # The root errors of _per_edge_schedule on this tree, bit for bit; they
    # agree with exact arithmetic to a few ulps (round 2 rounds to ...e61).
    root = ["0x1.3333333333333p-3", "0x1.b4024b33daf8ep-6",
            "0x1.8f6b68a199e64p-11"]
    assert [float(engine.error_probability(0, t)).hex()
            for t in range(3)] == root
    exact = ExactRegularTree("bayesian", 5, Fraction(3, 20))
    for t, pin in enumerate(root):
        assert float.fromhex(pin) == pytest.approx(float(exact.error(t)),
                                                   rel=1e-14)
    # The multiset-indexed engine sums in another order: a few ulps apart.
    hom = RegularTreeEngine(model15, 5, bayes)
    hom.run(2)
    for t in range(3):
        assert engine.error_probability(0, t) == pytest.approx(
            hom.error_probability(t), rel=1e-14)


def test_class_members_share_tables(model15, bayes):
    """Nodes of one class share one action-table object.  At round 1 leaves
    0 and 2 of node 1 are in one class; leaf 5 observes node 1 unobserved,
    so the message it reads does not condition on it and its class differs.
    (At round 2 the messages 1->0 and 1->2 differ in the observer's slot.)"""
    graph = TreeGraph(n=7, edges=((0, 1), (1, 2), (1, 3), (3, 4)),
                      directed_edges=((5, 1), (4, 6)))
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    assert [graph.observed[i] for i in (0, 2, 5)] == [(1,)] * 3
    assert engine.action_table(0, 1) is engine.action_table(2, 1)
    assert engine.action_table(5, 1) is not engine.action_table(0, 1)


def _per_edge_schedule(graph, model, rule, n_actions, rounds):
    """One core step per directed edge and per node, with no sharing: the
    reference that the class schedule must reproduce bit for bit."""
    obs = graph.observed
    g0 = round0_table(model, rule, n_actions)
    g = {i: [g0] for i in range(graph.n)}
    sums = {i: [round0_sums(model, g0)] for i in range(graph.n)}
    q = {(j, i): [] for i in range(graph.n) for j in obs[i]}
    drift = 0.0
    for t in range(rounds):
        for (j, i), tables in q.items():
            if t == 0:
                tables.append(initial_cavity(model, g0, n_actions))
                continue
            tau_pos = obs[j].index(i) if i in obs[j] else None
            children = [(q[(l, j)][t - 1], j in obs[l]) for l in obs[j] if l != i]
            table, step_drift, _ = cavity_step_general(
                g[j][t], t, len(obs[j]), tau_pos, children, model, n_actions)
            drift = max(drift, step_drift)
            tables.append(table)
        for i in range(graph.n):
            slots = [(q[(j, i)][t], i in obs[j]) for j in obs[i]]
            table, _, *step_sums = decision_step_general(
                g[i][t], t, len(obs[i]), slots, model, rule, n_actions)
            g[i].append(table)
            sums[i].append(step_sums)
    return g, q, sums, drift


_MIXED = TreeGraph(n=7, edges=((0, 1), (1, 2), (1, 3), (3, 4)),
                   directed_edges=((5, 1), (4, 6)))
_CLASS_TREES = instance_family(8) + [
    ("mixed", _MIXED), ("regular3", regular_tree(3, 3)),
    ("arity2", rooted_arity_tree(2, 3)),
    ("lopsided", TreeGraph(n=7, edges=((0, 1), (1, 2), (2, 3), (1, 4), (4, 5),
                                       (0, 6))))]


_RULES = {
    "bayesian": UpdateRule(variant="bayesian"),
    "majority": UpdateRule(variant="majority"),
    "uniform": UpdateRule(variant="bayesian", tie_break=TieBreakRule(
        variant=TieBreak.UNIFORM_RANDOM)),
}
# Every (tree, rule) pair, coin rows included; majority needs every node to
# observe someone.
_CLASS_CASES = [(name, graph, label) for name, graph in _CLASS_TREES
                for label in _RULES
                if label != "majority" or all(graph.observed)]


@pytest.mark.parametrize("name, graph, label", _CLASS_CASES,
                         ids=[f"{name}-{label}"
                              for name, _, label in _CLASS_CASES])
def test_class_schedule_matches_per_edge_schedule(model30, name, graph,
                                                  label):
    rule = _RULES[label]
    engine = FiniteTreeEngine(graph, model30, rule)
    engine.run(3)
    g, q, sums, drift = _per_edge_schedule(graph, model30, rule,
                                           engine.n_actions, 3)
    for t in range(4):
        for i in range(graph.n):
            np.testing.assert_array_equal(
                engine.g[t][engine.node_class[t][i]], g[i][t])
            for got, want in zip(engine.sums[t][engine.node_class[t][i]],
                                 sums[i][t]):
                np.testing.assert_array_equal(got, want)
    for (j, i), tables in q.items():
        for t, table in enumerate(tables):
            np.testing.assert_array_equal(engine.cavity_table(j, i, t).array,
                                          table)
    assert engine.drift == drift
