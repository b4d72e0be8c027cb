import itertools
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from exact_reference import ExactRegularTree

import cavitree.cavity.core as core
import cavitree.cavity.engine as engine_module
import cavitree.cavity.finite as finite
from cavitree.cavity import (
    ConfigModelEngine,
    CouplingError,
    FiniteTreeEngine,
    RegularTreeEngine,
    posterior_with_hubs,
)
from cavitree.cavity.core import (
    cavity_step_general,
    decision_step_general,
    error_from_sums,
    round0_table,
)
from cavitree.model import (
    ModelError,
    SignalModel,
    TieBreak,
    TieBreakRule,
    UpdateRule,
    UtilityTable,
    map_decision,
)
from cavitree.oracle import (
    feasible_set,
    oracle_decision_tables,
    oracle_error_probability,
    unroll,
)
from cavitree.trees import (
    BudgetError,
    DegreeDistribution,
    GraphError,
    TreeGraph,
    path_graph,
    regular_tree,
    rooted_arity_tree,
    star_graph,
)
from cavitree.verify import instance_family, oracle_equivalence_suite

_TRIANGLE = TreeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)), hubs=frozenset({2}))


def test_oracle_equivalence_family():
    report = oracle_equivalence_suite(max_nodes=8, max_t=3)
    assert report.ok, "\n".join(report.lines())


def test_oracle_equivalence_counts_a_wrong_kernel(monkeypatch):
    """The table check compares codes: a kernel shifted by one code fails
    every oracle-tables check."""
    kernel = FiniteTreeEngine.decision_kernel
    monkeypatch.setattr(FiniteTreeEngine, "decision_kernel",
                        lambda self, *args: [(code + 1, p) for code, p
                                             in kernel(self, *args)])
    report = oracle_equivalence_suite(max_nodes=3, max_t=2)
    tables = [ok for name, ok, _ in report.checks
              if name.startswith("oracle-tables")]
    assert tables and not any(tables)


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


def test_posterior_matches_oracle_in_observed_order(model15, bayes):
    """Posteriors on a tree whose nodes list their neighbours in an order
    other than their class's sorted slot order."""
    graph = TreeGraph(n=7, edges=((0, 1), (1, 2), (2, 3), (1, 4), (4, 5),
                                  (0, 6)))
    tensor = unroll(graph, model15, bayes, 2)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    assert any(engine._layout(i, 2)[0] != sorted(engine._layout(i, 2)[0])
               for i in range(graph.n))
    checked = 0
    for i in range(graph.n):
        for (x, obs), _ in oracle_decision_tables(tensor)[i][2].items():
            idx = feasible_set(tensor, i, x, obs, 1)
            w = model15.prior * np.array(
                [tensor.signal_probs[s][idx].sum() for s in (0, 1)])
            np.testing.assert_allclose(engine.posterior(i, x, obs, 2),
                                       w / w.sum(), atol=1e-12)
            checked += 1
    assert checked > 0


def _posterior_and_vote_cases(model, rule):
    """(posterior(x, codes), vote(x, codes), slots, codes per slot) at each
    round t of a Bayesian engine: the posterior path and the round-t digit
    of the decision table the decision step built."""
    for d, rounds in ((3, 3), (5, 2)):
        engine = RegularTreeEngine(model, d, rule)
        engine.run(rounds)
        for t in range(1, rounds + 1):
            dense, m = engine.dense_decisions(d, t), 2 ** t
            yield (lambda x, c, e=engine, t=t: e.posterior(x, c, t),
                   lambda x, c, g=dense, m=m, t=t:
                   g[x, sum(code * m ** k for k, code in enumerate(c))] >> t,
                   d, m)
    engine = FiniteTreeEngine(regular_tree(3, 2), model, rule)
    engine.run(2)
    for node in range(engine.graph.n):
        for t in (1, 2):
            yield (lambda x, c, node=node, t=t: engine.posterior(node, x, c, t),
                   lambda x, c, node=node, t=t:
                   engine.decision_kernel(node, t, x, c)[0][0] >> t,
                   len(engine.graph.observed[node]), 2 ** t)


def test_posterior_path_decides_as_the_decision_step(model15, bayes):
    """The MAP action of ``posterior_general`` at every feasible input is the
    vote that ``decision_step_general`` wrote into the table."""
    checked = 0
    for posterior, vote, slots, m in _posterior_and_vote_cases(model15, bayes):
        for x in (0, 1):
            for codes in itertools.product(range(m), repeat=slots):
                try:
                    post = posterior(x, codes)
                except ModelError:  # an infeasible input
                    continue
                assert map_decision(post, UtilityTable.identity(2),
                                    TieBreakRule(), x) == vote(x, codes)
                checked += 1
    assert checked > 1000


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
    assert engine.g[2][engine.node_class[2][1]].codes.shape[0] == 8
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


def _bench_spans():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_spans_find_finite_engine_methods():
    """The bench tracer wraps a method only where its class defines it; an
    inherited method lands in the run's absent layers."""
    spans = _bench_spans()
    targets = [p for module, p, _, _ in spans.TARGETS
               if module == "cavitree.cavity.finite"]
    assert targets
    for target in targets:
        owner, attr = target.split(".")
        assert attr in vars(getattr(finite, owner)), target


def test_bench_spans_miss_only_the_known_stale_targets():
    """Installing the bench tracer finds every layer function but five
    targets that no longer exist, so a rename cannot silently zero a layer
    metric."""
    stale = {"cavitree.cavity.core.error_probability_general",
             "cavitree.cavity.homogeneous.RegularTreeEngine.advance",
             "cavitree.cavity.homogeneous.RegularTreeEngine.error_probability",
             "cavitree.cavity.active.ActiveEdgeEngine.advance",
             "cavitree.cavity.active.ActiveEdgeEngine.error_probability"}
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        absent = set(tracer.absent)
    finally:
        tracer.remove()
    assert absent <= stale
    assert engine_module.cavity_step_general is cavity_step_general  # unwrapped


def test_bench_tracer_counts_the_core_steps_and_the_hub_posterior(model15,
                                                                 bayes):
    """The bench counters read the core steps' return tuples (the table's
    bytes and the number of terms), so a changed tuple shows here rather
    than in a broken traced run."""
    import cavitree.cavity.hubs as hubs

    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        RegularTreeEngine(model15, 3, bayes).run(2)
        FiniteTreeEngine(regular_tree(3, 2), model15, bayes).run(2)
        hubs.posterior_with_hubs(_TRIANGLE, model15, bayes, 0, 0,
                                 {1: 0, 2: 1}, 1)
    finally:
        tracer.remove()
    stats = tracer.layer_stats()
    for layer in ("cavity.core.cavity_step", "cavity.core.decision_step"):
        assert stats[layer]["terms"] > 0, layer
        assert stats[layer]["table_mb"] > 0, layer
    assert stats["cavity.hubs.posterior"]["calls"] == 1


def test_run_refuses_an_over_budget_round_before_any_step(model15, bayes,
                                                          majority,
                                                          monkeypatch):
    """Every round is planned first, so the budget of each core step is
    checked before the first one runs.  On the star the centre has even
    degree: majority's coin rows alone put round 7 over budget."""
    def refuse(*args, **kwargs):
        raise AssertionError("a core step ran before the budget check")

    for name in ("cavity_step_general", "decision_step_general"):
        monkeypatch.setattr(engine_module, name, refuse)
    for graph, rule, rounds in ((regular_tree(3, 2), bayes, 12),
                                (star_graph(5), majority, 7)):
        engine = FiniteTreeEngine(graph, model15, rule)
        with pytest.raises(BudgetError):
            engine.run(rounds)
        assert engine.horizon == 0


def _engine_at_round_2(kind, model, rule):
    engine = (FiniteTreeEngine(path_graph(2), model, rule) if kind == "finite"
              else RegularTreeEngine(model, 3, rule))
    engine.run(2)
    return engine


@pytest.mark.parametrize("kind,accessor", [
    pytest.param("finite", lambda e, t: e.posterior(0, 0, (0,), t),
                 id="finite-posterior"),
    pytest.param("finite", lambda e, t: e.decision_kernel(0, t, 0, (0,)),
                 id="finite-decision_kernel"),
    pytest.param("finite", lambda e, t: e.action_table(0, t),
                 id="finite-action_table"),
    pytest.param("finite", lambda e, t: e.cavity_table(1, 0, t),
                 id="finite-cavity_table"),
    pytest.param("regular", lambda e, t: e.dense_decisions(3, t),
                 id="regular-dense_decisions"),
    pytest.param("regular", lambda e, t: e.decision_table(t),
                 id="regular-decision_table"),
    pytest.param("regular", lambda e, t: e.cavity_table(t),
                 id="regular-cavity_table"),
    pytest.param("regular", lambda e, t: e.posterior(0, (0, 0, 0), t),
                 id="regular-posterior"),
])
def test_accessors_refuse_rounds_past_the_horizon(model15, bayes, kind,
                                                  accessor):
    """After run(2) round 3 is past every table, and a negative round is
    refused rather than read from the end of a list."""
    engine = _engine_at_round_2(kind, model15, bayes)
    accessor(engine, 1)
    for t in (-1, 3):
        with pytest.raises(ModelError):
            accessor(engine, t)


def _input_accessor(kind, model, rule):
    """One input accessor at round 2 (the hub posterior at round 1, where
    hubs stop), with its number of slots and of codes per slot, and calls
    of its engine's accessors at a node, edge or degree it does not have.
    On path_graph(3) node -1 would read as leaf 2, so a leaf's input is
    asked there."""
    if kind == "hubs":
        def ask(x, codes, node=0):
            return posterior_with_hubs(_TRIANGLE, model, rule, node, x,
                                       dict(zip((1, 2, 3), codes)), 1)
        return ask, 2, 2, [lambda: ask(0, (0, 0), 3)]
    if kind == "regular":
        engine = RegularTreeEngine(model, 3, rule)
        engine.run(2)
        return (lambda x, codes: engine.posterior(x, codes, 2), 3, 4,
                [lambda: engine.dense_decisions(4, 1),
                 lambda: engine.error_probability(1, degree=4)])
    engine = FiniteTreeEngine(path_graph(3), model, rule)
    engine.run(2)
    if kind == "finite-posterior":
        def ask(x, codes, node=1):
            return engine.posterior(node, x, codes, 2)
        others = [lambda node: engine.error_probability(node, 1)]
        edges = [lambda: engine.cavity_table(0, 2, 1)]
    else:
        def ask(x, codes, node=1):
            return engine.decision_kernel(node, 2, x, codes)
        others = [lambda node: engine.action_table(node, 1)]
        edges = []
    calls = [lambda node: ask(0, (0,), node)] + others
    return ask, 2, 4, edges + [partial(call, node) for node in (-1, 3)
                               for call in calls]


@pytest.mark.parametrize("kind", ["regular", "finite-posterior",
                                  "finite-decision_kernel", "hubs"])
def test_accessors_refuse_inputs_outside_the_table(model15, bayes, kind):
    """A wrong number of codes, a code outside 0..n_obs**t - 1 or a signal
    outside 0..n_signals - 1 raises ModelError; none is misread as another
    input or fails with an IndexError.  So does a signal or code that is
    not an int (a NumPy integer is one): a bool, a float or a string is not
    read as the int it truncates to, nor fails with a TypeError.  So does a
    node, edge or degree the engine does not have: a negative node is not
    read from the end of a list, and none fails with an IndexError or a
    KeyError."""
    ask, slots, base, elsewhere = _input_accessor(kind, model15, bayes)
    zeros = (0,) * (slots - 1)
    np.testing.assert_array_equal(
        ask(np.int64(0), tuple(np.int64(c) for c in zeros + (0,))),
        ask(0, zeros + (0,)))
    for x, codes in [(0, (-1,) + zeros), (0, zeros + (base,)),
                     (0, zeros + (0, 0)), (0, zeros), (2, zeros + (0,)),
                     (-1, zeros + (0,)), (True, zeros + (0,)),
                     (0.0, zeros + (0,)), (0, zeros + (False,)),
                     (0, zeros + (np.False_,)), (0, zeros + (0.5,)),
                     (0, zeros + (0.0,)), (0, zeros + ("0",))]:
        with pytest.raises(ModelError):
            ask(x, codes)
    assert elsewhere
    for call in elsewhere:
        with pytest.raises(ModelError):
            call()


def _round0_posterior(kind, model, rule):
    """A round-0 posterior, as a function of (signal, codes), at a node
    observing three neighbours (regular) or two (finite, hubs)."""
    if kind == "hubs":
        return lambda x, codes: posterior_with_hubs(
            _TRIANGLE, model, rule, 0, x, dict(zip((1, 2, 3), codes)), 0)
    if kind == "regular":
        engine = RegularTreeEngine(model, 3, rule)
        return lambda x, codes: engine.posterior(x, codes, 0)
    engine = FiniteTreeEngine(path_graph(3), model, rule)
    return lambda x, codes: engine.posterior(1, x, codes, 0)


@pytest.mark.parametrize("kind,x,codes", [
    ("regular", 0, (9, 9, 9)), ("regular", 0, (0, 0, 1)),
    ("regular", 2, (0, 0, 0)), ("finite", 0, (5, 7, 9)),
    ("finite", 0, (0, 1)), ("finite", 0, (0,)), ("finite", -1, (0, 0)),
    ("hubs", 0, (0, 1)), ("hubs", 0, (0,)), ("hubs", 0, (0, 0, 0)),
    ("hubs", 2, (0, 0))])
def test_round0_posterior_checks_its_input(model15, bayes, kind, x, codes):
    """At t = 0 every observed trajectory is empty: a posterior takes one
    code 0 per observed neighbour and a valid signal, as at t >= 1, and
    refuses anything else rather than answering the signal's posterior."""
    ask = _round0_posterior(kind, model15, bayes)
    zeros = (0,) * (3 if kind == "regular" else 2)
    np.testing.assert_array_equal(ask(1, zeros), [0.15, 0.85])
    with pytest.raises(ModelError):
        ask(x, codes)


@pytest.mark.parametrize("codes", [(), (0,), (0, 1), (5, 7), (0, 0, 0)])
def test_round0_kernel_takes_the_posterior_input(model15, bayes, codes):
    """A round-0 kernel takes a round-0 posterior's input, one code 0 per
    observed neighbour, and refuses any other, no codes included; the
    oracle keys its round-0 tables by the same input."""
    engine = FiniteTreeEngine(path_graph(3), model15, bayes)
    tables = oracle_decision_tables(unroll(path_graph(3), model15, bayes, 0))
    for x in (0, 1):
        assert engine.decision_kernel(1, 0, x, (0, 0)) == [(x, 1.0)]
        assert engine.decision_kernel(0, 0, x, (0,)) == [(x, 1.0)]
    assert tables[1][0] == {(0, (0, 0)): 0, (1, (0, 0)): 1}
    assert tables[0][0] == {(0, (0,)): 0, (1, (0,)): 1}
    with pytest.raises(ModelError):
        engine.decision_kernel(1, 0, 0, codes)


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


def test_round1_posterior_with_coin_rows(uniform_ties):
    """Signal 1 of this model ties at round 0, so its rows disagree on the
    own round-0 vote; but a round-0 message has no conditioning axis, so a
    round-1 posterior never reads that vote.  By hand: Q0[0, s] = (0.8,
    0.2), so with x = 1 and a neighbour vote 0 the posterior is prior x 0.2
    x Q0[0, s], normalized; on the triangle both votes multiply in."""
    model = SignalModel(prior=np.array([0.5, 0.5]),
                        likelihood=np.array([[.7, .2, .1], [.1, .2, .7]]))
    rule = UpdateRule(variant="bayesian", tie_break=uniform_ties)
    engine = FiniteTreeEngine(path_graph(2), model, rule)
    engine.run(2)
    assert len(engine.g[0][0].codes) > model.n_signals  # coin rows at round 0
    np.testing.assert_allclose(engine.posterior(0, 1, (0,), 1), [0.8, 0.2],
                               rtol=1e-15)
    np.testing.assert_allclose(
        posterior_with_hubs(_TRIANGLE, model, rule, 0, 1, {1: 0, 2: 0}, 1),
        [16 / 17, 1 / 17], rtol=1e-15)


def test_own_trajectory_is_read_only_where_a_message_conditions(
        uniform_ties):
    """On a directed path no message conditions, so a posterior never reads
    the own trajectory, even where node 0's coin rows disagree on it; on an
    undirected edge a round-2 posterior reads it and is refused."""
    model = SignalModel(prior=np.array([0.5, 0.5]),
                        likelihood=np.array([[.7, .2, .1], [.1, .2, .7]]))
    rule = UpdateRule(variant="bayesian", tie_break=uniform_ties)
    engine = FiniteTreeEngine(TreeGraph(n=3, directed_edges=((0, 1), (1, 2))),
                              model, rule)
    engine.run(3)
    assert [len(engine.g[t][engine.node_class[t][0]].codes)
            for t in range(4)] == [
        6, 12, 24, 48]
    assert len(engine.decision_kernel(0, 2, 1, (1,))) > 1  # rows disagree
    np.testing.assert_allclose(engine.posterior(0, 1, (1,), 2), [0.8, 0.2],
                               rtol=1e-15)
    post = engine.posterior(0, 1, (1,), 3)
    assert post.shape == (2,) and abs(post.sum() - 1.0) < 1e-15
    undirected = FiniteTreeEngine(path_graph(2), model, rule)
    undirected.run(3)
    with pytest.raises(ModelError, match="not derivable"):
        undirected.posterior(0, 1, (1,), 2)


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
    step = engine_module.cavity_step_general

    def scaled(g, t, *args, **kwargs):
        q, drift, ops = step(g, t, *args, **kwargs)
        return (q * (1 + 1e-6) if t else q), drift, ops

    monkeypatch.setattr(engine_module, "cavity_step_general", scaled)
    engine = FiniteTreeEngine(path_graph(3), model15, bayes)
    engine.run(2)
    engine.error_probability(1, 1)
    with pytest.raises(CouplingError):
        engine.error_probability(1, 2)


@pytest.mark.parametrize("kind", ["finite", "mixture"])
def test_round_records_sum_the_core_steps(model15, bayes, monkeypatch, kind):
    """Each round's ``ops`` is the sum of the terms its core steps returned,
    and ``drifts[t]`` the largest drift of its cavity steps; round 0 has
    its cavity steps too."""
    steps = []  # (round, terms, drift or None)
    for name, terms in (("cavity_step_general", 2),
                        ("decision_step_general", 1)):
        step = getattr(engine_module, name)

        def spy(*args, _step=step, _terms=terms, **kwargs):
            out = _step(*args, **kwargs)
            steps.append((args[1], out[_terms], out[1] if _terms == 2 else None))
            return out

        monkeypatch.setattr(engine_module, name, spy)
    engine = (FiniteTreeEngine(regular_tree(3, 3), model15, bayes)
              if kind == "finite" else
              ConfigModelEngine(model15, DegreeDistribution(
                  (3, 5), np.array([0.3, 0.7])), bayes))
    engine.run(3)
    assert len(engine.ops) == len(engine.drifts) == 3
    for t in range(3):
        assert engine.ops[t] == sum(n for r, n, _ in steps if r == t), t
        drifts = [d for r, _, d in steps if r == t and d is not None]
        assert drifts, t
        assert engine.drifts[t] == max(drifts), t


@pytest.mark.parametrize("graph", [path_graph(6), regular_tree(3, 3)],
                         ids=["path6", "regular3"])
def test_decision_steps_read_the_stored_tables(model15, bayes, monkeypatch,
                                               graph):
    """Every decision step reads its class's stored round-t table itself, in
    that table's own slot space, even where the class's groups split."""
    read = []  # (round, table passed)
    step = engine_module.decision_step_general

    def spy(*args, **kwargs):
        read.append((args[1], args[0]))
        return step(*args, **kwargs)

    monkeypatch.setattr(engine_module, "decision_step_general", spy)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(3)
    assert {t for t, _ in read} == {0, 1, 2}
    for t, table in read:
        assert any(table is stored for stored in engine.g[t]), t


def test_core_steps_run_once_per_structural_class(model15, bayes, monkeypatch):
    """On regular_tree(5, 5) to round 2 the 3410 messages and 1706 decision
    tables per round fall into a handful of classes, one core step each."""
    graph = regular_tree(5, 5)
    g, _, _ = _per_edge_schedule(graph, model15, bayes, 2, 2, monkeypatch)
    calls = []
    for name in ("cavity_step_general", "decision_step_general"):
        step = getattr(engine_module, name)

        def counted(*args, _step=step, **kwargs):
            calls.append(_step)
            return _step(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counted)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    assert len(calls) <= 24  # one per node and per edge would be 6822
    # Every node's tables equal the per-edge schedule's, its errors agree
    # with them (summed in another order), and the root's with exact
    # arithmetic.
    for i in range(graph.n):
        for t in range(3):
            np.testing.assert_array_equal(_node_table(engine, i, t),
                                          g[i][t].codes)
            want = error_from_sums(model15, g[i][t].sums)[0]
            assert engine.error_probability(i, t) == pytest.approx(
                want, rel=1e-14, abs=0), (i, t)
    exact = ExactRegularTree("bayesian", 5, Fraction(3, 20))
    for t in range(3):
        assert engine.error_probability(0, t) == pytest.approx(
            float(exact.error(t)), rel=1e-14)
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
    The messages 0->1 and 2->1 form one group of node 1's slots, so the
    observer's slot no longer tells 1->0 from 1->2 apart, and 0 and 2 share
    their tables at every round."""
    graph = TreeGraph(n=7, edges=((0, 1), (1, 2), (1, 3), (3, 4)),
                      directed_edges=((5, 1), (4, 6)))
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(3)
    assert [graph.observed[i] for i in (0, 2, 5)] == [(1,)] * 3
    assert graph.observed[1] == (0, 2, 3)
    assert engine.action_table(5, 1) is not engine.action_table(0, 1)
    for t in range(1, 4):
        assert engine.action_table(0, t) is engine.action_table(2, t), t
    # Round-0 messages are all alike; from round 1 on, 3->1 differs.
    assert [size for _, size in engine._layout(1, 1)[1]] == [3]
    for t in (2, 3):
        assert sorted(size for _, size in engine._layout(1, t)[1]) == [1, 2]
    for t in range(3):
        e10, e12 = engine.edge_id[(1, 0)], engine.edge_id[(1, 2)]
        assert engine.edge_class[t][e10] == engine.edge_class[t][e12], t


def test_sorted_slot_class_counts(model15, bayes):
    """Edge classes at t-1 and node classes at t on regular_tree(5, 5) for
    t = 1..4, counted from the keys; with ordered slots they were 1/2, 6/13,
    49/69 and 281/233.  Every member of a node class lists its neighbours
    in one order, so each class has one permutation."""
    engine = FiniteTreeEngine(regular_tree(5, 5), model15, bayes)
    engine.run(4)
    counts = [(len(set(engine.edge_class[t - 1])), len(set(engine.node_class[t])))
              for t in range(1, 5)]
    assert counts == [(1, 2), (2, 3), (4, 4), (6, 5)]
    for t in range(1, 5):
        perms = {(engine.node_class[t][i], tuple(engine._layout(i, t)[0]))
                 for i in range(engine.graph.n)}
        assert len(perms) == counts[t - 1][1], t


def _node_table(engine, i, t):
    """Node i's round-t table over its dense inputs in ``observed`` order,
    every row: the engine's, or, where coin rows leave no action table,
    the stored rows read densely (a table with coin rows is never
    mirrored)."""
    c, order = engine.node_class[t][i], engine._layout(i, t)[0]
    if engine.g[t][c].rows > engine.model.n_signals:
        return engine.g[t][c].dense(order)
    return engine._decisions(t, c, order)


def _per_edge_schedule(graph, model, rule, n_actions, rounds, monkeypatch):
    """One core step per directed edge and per node, with no sharing, each
    slot its own group, in ``observed`` order, and every row computed (no
    step mirrors): the reference whose tables the class schedule must
    reproduce bit for bit."""
    obs = graph.observed
    channel = engine_module.AllActive(n_actions)
    g0 = round0_table(model, rule, n_actions)
    g = {i: [g0] for i in range(graph.n)}
    q = {(j, i): [] for i in range(graph.n) for j in obs[i]}
    drifts = [0.0] * rounds
    with monkeypatch.context() as patch:
        patch.setattr(core, "_flip_symmetric", lambda *a, **k: False)
        for t in range(rounds):
            for (j, i), tables in q.items():
                # Round 0's step has no slots: the sender's round-0 vote alone.
                tau_pos = obs[j].index(i) if t and i in obs[j] else None
                slots = [(q[(l, j)][t - 1], j in obs[l], 1)
                         for l in obs[j]] if t else []
                table, step_drift, _ = cavity_step_general(
                    g[j][t], t, tau_pos, slots, model, rule, channel)
                drifts[t] = max(drifts[t], step_drift)
                tables.append(table)
            for i in range(graph.n):
                slots = [(q[(j, i)][t], i in obs[j], 1) for j in obs[i]]
                g[i].append(decision_step_general(
                    g[i][t], t, slots, model, rule, channel)[0])
    return g, q, drifts


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
                                                  label, monkeypatch):
    """Tables, expanded to each node's ``observed`` order, are bit-identical
    to the per-edge schedule's; messages, sums and errors, summed in
    another order, agree to rounding."""
    rule = _RULES[label]
    engine = FiniteTreeEngine(graph, model30, rule)
    engine.run(3)
    n_a = engine.n_actions
    g, q, drifts = _per_edge_schedule(graph, model30, rule, n_a, 3,
                                      monkeypatch)
    for t in range(4):
        for i in range(graph.n):
            want = g[i][t]
            np.testing.assert_array_equal(_node_table(engine, i, t),
                                          want.codes)
            if t and len(want.codes) == model30.n_signals:
                np.testing.assert_array_equal(engine.action_table(i, t),
                                              want.codes // n_a ** t)
            for a, b in zip(engine.g[t][engine.node_class[t][i]].sums,
                            want.sums):
                np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)
            assert engine.error_probability(i, t) == pytest.approx(
                error_from_sums(model30, want.sums)[0], rel=1e-14, abs=0)
    for (j, i), tables in q.items():
        for t, table in enumerate(tables):
            np.testing.assert_allclose(engine.cavity_table(j, i, t).array,
                                       table, rtol=0, atol=1e-15)
    np.testing.assert_allclose(engine.drifts, drifts, rtol=0, atol=1e-15)
