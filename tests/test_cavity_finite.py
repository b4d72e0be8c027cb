import numpy as np
import pytest

import cavitree.cavity.finite as finite
from cavitree.cavity import CouplingError, FiniteTreeEngine
from cavitree.cavity.finite import _KernelFinite
from cavitree.model import ModelError
from cavitree.oracle import (
    feasible_set,
    oracle_decision_tables,
    oracle_error_probability,
    unroll,
)
from cavitree.trees import GraphError, TreeGraph, path_graph, rooted_arity_tree, star_graph
from cavitree.verify import oracle_equivalence_suite


def test_oracle_equivalence_family():
    report = oracle_equivalence_suite(max_nodes=8, max_t=3)
    assert report.ok, "\n".join(report.lines())


def test_kernel_path_agrees_with_dense(model15, bayes):
    """The dictionary path must reproduce the vectorized path exactly."""
    graph = star_graph(4)
    dense = FiniteTreeEngine(graph, model15, bayes)
    dense.run(3)
    kernel = FiniteTreeEngine(graph, model15, bayes)
    kernel._impl = _KernelFinite(kernel)
    kernel.run(3)
    for node in range(graph.n):
        for t in range(4):
            assert dense.error_probability(node, t) == pytest.approx(
                kernel.error_probability(node, t), abs=1e-13)
    for (j, i) in dense._impl.q:
        for t in range(3):
            np.testing.assert_allclose(dense._impl.q[(j, i)][t],
                                       kernel._impl.q[(j, i)][t], atol=1e-13)


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


def test_majority_even_degree_uses_kernel_path(model15, majority):
    engine = FiniteTreeEngine(path_graph(3), model15, majority)
    assert not engine.dense
    engine.run(2)
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
    assert engine.dense
    engine.run(2)
    engine.error_probability(1, 1)
    with pytest.raises(CouplingError):
        engine.error_probability(1, 2)
