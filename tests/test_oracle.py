import math

import numpy as np
import pytest

from cavitree import oracle
from cavitree.cavity import FiniteTreeEngine
from cavitree.model import ModelError, SignalModel, UpdateRule, UtilityTable
from cavitree.oracle import (
    feasible_set,
    oracle_decision_tables,
    oracle_error_probability,
    unroll,
)
from cavitree.trees import BudgetError, TreeGraph, path_graph, star_graph
from cavitree.verify import ORACLE_TOL, instance_family

SINGLE = TreeGraph(n=1)


def binom_tail(n, k0, q):
    return sum(math.comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(k0, n + 1))


def test_single_node_round0(model15, bayes):
    tensor = unroll(SINGLE, model15, bayes, 0)
    assert oracle_error_probability(tensor, 0, 0) == pytest.approx(0.15, rel=1e-12)
    # MAP of the own signal is the signal itself
    assert tensor.trajs[0][0, 0] == 0 and tensor.trajs[0][0, 1] == 1


def test_two_node_path_round1(model15, bayes):
    # Disagreement ties resolve to the own signal, so the error stays at noise.
    tensor = unroll(path_graph(2), model15, bayes, 1)
    for node in (0, 1):
        assert oracle_error_probability(tensor, node, 1) == pytest.approx(0.15, rel=1e-12)


def test_star4_center_round1(model15, bayes):
    tensor = unroll(star_graph(4), model15, bayes, 1)
    target = binom_tail(3, 2, 0.15)  # exhaustive enumeration collapses to this
    assert target == pytest.approx(0.06075, abs=1e-9)
    assert oracle_error_probability(tensor, 0, 1) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("state", [-1, 2, True, 0.0])
def test_condition_state_outside_the_states_is_refused(model15, bayes, state):
    """-1 does not wrap to state 1, and 2, a bool or a float are refused."""
    tensor = unroll(path_graph(3), model15, bayes, 2)
    assert oracle_error_probability(tensor, 1, 2, condition_state=1) < 0.5
    with pytest.raises(ModelError, match="condition_state"):
        oracle_error_probability(tensor, 1, 2, condition_state=state)


def test_feasible_set_own_signal_only(model15, bayes):
    graph = path_graph(3)
    tensor = unroll(graph, model15, bayes, 2)
    for x in (0, 1):
        idx = feasible_set(tensor, 1, x, None)
        assert len(idx) == 2 ** (graph.n - 1)
        assert all(tensor.signal_digits[1, y] == x for y in idx)
    idx = feasible_set(tensor, 0, 1, (0,), 0)
    assert all(tensor.signal_digits[0, y] == 1 for y in idx)


def test_feasible_set_two_node_initial_vote(model15, bayes):
    tensor = unroll(path_graph(2), model15, bayes, 1)
    idx = feasible_set(tensor, 0, 0, (1,), 0)
    # x_1 = +, observed sigma_2(0) = -: exactly the signal vector (+, -).
    assert idx.tolist() == [int(np.flatnonzero(
        (tensor.signal_digits[0] == 0) & (tensor.signal_digits[1] == 1))[0])]
    assert len(idx) == 1


@pytest.mark.parametrize("graph", [path_graph(3), path_graph(5), star_graph(5),
                                   path_graph(6)])
def test_feasible_sets_partition(graph, model15, bayes):
    t_max = 3
    tensor = unroll(graph, model15, bayes, t_max)
    n_vec = tensor.signal_digits.shape[1]
    for i in range(graph.n):
        nbrs = graph.observed[i]
        for t in range(t_max + 1):
            for x in (0, 1):
                pool = set(np.flatnonzero(tensor.signal_digits[i] == x).tolist())
                seen = set()
                observed_values = {
                    tuple(int(tensor.trajs[t][j, y]) for j in nbrs)
                    for y in range(n_vec) if tensor.signal_digits[i, y] == x}
                for obs in observed_values:
                    part = set(feasible_set(tensor, i, x, obs, t).tolist())
                    assert part and not (part & seen)
                    seen |= part
                assert seen == pool


def test_error_nonincreasing(model15, bayes):
    for graph in (path_graph(4), star_graph(5)):
        tensor = unroll(graph, model15, bayes, 3)
        for node in range(graph.n):
            errs = [oracle_error_probability(tensor, node, t) for t in range(4)]
            assert all(errs[t + 1] <= errs[t] + 1e-12 for t in range(3))


def test_relabeling_equivariance(model15, bayes):
    graph = TreeGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    relabeled = TreeGraph(n=4, edges=((3, 2), (2, 1), (1, 0)))
    a = unroll(graph, model15, bayes, 2)
    b = unroll(relabeled, model15, bayes, 2)
    for node in range(4):
        assert oracle_error_probability(a, node, 2) == pytest.approx(
            oracle_error_probability(b, 3 - node, 2), rel=1e-12)


def test_majority_branch_weights_normalized(model15, majority):
    """Each signal vector's branches share out its tie coins' mass."""
    tensor = unroll(path_graph(3), model15, majority, 2)
    n_vec = tensor.signal_digits.shape[1]
    assert len(tensor.weights) > n_vec  # the interior node's ties split
    totals = np.bincount(tensor.vectors, weights=tensor.weights, minlength=n_vec)
    np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)


def test_budget_guard(model15, bayes):
    """26 nodes x 3 rounds x 2^26 signal vectors is 5.2e9 steps, over the
    budget: refused before any table is allocated."""
    with pytest.raises(BudgetError):
        unroll(path_graph(26), model15, bayes, 3)


def test_unroll_refuses_a_negative_horizon(model15, bayes):
    """A horizon below 0 simulates no round, so it is refused, not returned
    as a tensor holding one round that never ran."""
    with pytest.raises(ModelError, match="t_max"):
        unroll(path_graph(3), model15, bayes, -1)


@pytest.mark.parametrize("t_max", [1.5, True, "1"])
def test_unroll_refuses_a_horizon_that_is_not_an_int(model15, bayes, t_max):
    """1.5 is not a horizon, and True is not read as 1."""
    with pytest.raises(ModelError, match="t_max"):
        unroll(path_graph(3), model15, bayes, t_max)


@pytest.mark.parametrize("node,t,message", [
    (-1, 1, "node -1 outside 0..2"),  # would read the last node
    (3, 1, "node 3 outside 0..2"),  # would leak an IndexError
    (True, 1, "node True"),
    (0, -1, "no round -1"),  # would read the last round
    (0, 1.0, "no round 1.0")])
def test_queries_refuse_a_node_or_round_not_unrolled(model15, bayes, node,
                                                     t, message):
    """Only nodes 0..n-1 and rounds 0..horizon are read; a negative index
    is not counted from the end."""
    tensor = unroll(path_graph(3), model15, bayes, 1)
    for call in (lambda: oracle_error_probability(tensor, node, t),
                 lambda: feasible_set(tensor, node, 0, (0,), t),
                 lambda: feasible_set(tensor, node, 0, None, t)):
        with pytest.raises(ModelError, match=f"^{message}"):
            call()


@pytest.mark.parametrize("max_nodes", [2.5, True, 1])
def test_instance_family_refuses_a_size_that_is_not_an_int_above_one(
        max_nodes):
    """2.5 used to leak a TypeError from range(), and 1 gave an empty
    family, on which the oracle suite passes with no check."""
    with pytest.raises(ModelError, match="max_nodes must be an int >= 2"):
        instance_family(max_nodes)


def test_unroll_refuses_a_signal_vector_no_state_can_give():
    """On noiseless signals the neighbours' signals (0, 1) have probability
    0 in both states, so the Bayesian update has nothing to condition."""
    model = SignalModel(prior=np.array([0.5, 0.5]), likelihood=np.eye(2))
    with pytest.raises(ModelError, match="empty feasible set"):
        unroll(path_graph(2), model, UpdateRule(), 1)


def test_queries_refuse_what_the_tensor_does_not_hold(model15, bayes,
                                                      majority):
    """Past the horizon, at the wrong arity, on coin-flip branches and,
    for error probabilities, with more actions than states."""
    tensor = unroll(path_graph(3), model15, bayes, 1)
    for call, message in [
            (lambda: feasible_set(tensor, 1, 0, (0, 0), 2), "unrolled"),
            (lambda: feasible_set(tensor, 1, 0, (0,), 1), "arity"),
            (lambda: oracle_error_probability(tensor, 1, 2), "unrolled")]:
        with pytest.raises(ModelError, match=message):
            call()
    coins = unroll(path_graph(3), model15, majority, 1)
    for call in (lambda: feasible_set(coins, 1, 0, (0, 0), 1),
                 lambda: oracle_decision_tables(coins)):
        with pytest.raises(ModelError, match="deterministic rules"):
            call()
    rule = UpdateRule(utility=UtilityTable(np.array(
        [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])))
    three = unroll(path_graph(2), model15, rule, 1)
    with pytest.raises(ModelError, match="identity payoff"):
        oracle_error_probability(three, 0, 1)


def test_group_renumbers_keys_before_they_leave_int64():
    """Three columns of size 2**32 would key (0, 0, 0) and (1, 0, 0) alike,
    1 * 2**64 wrapping to 0, without the renumbering; the groups are the
    distinct rows in sorted order, each with its first branch."""
    top = 2 ** 32 - 1
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, 0],
                     [top, top, top], [0, top, 0], [0, 0, 0]], dtype=np.int64)
    columns = list(rows.T)
    inverse, first = oracle._group(columns, [2 ** 32] * 3)
    _, want_first, want_inverse = np.unique(
        np.stack(columns, 1), axis=0, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(first, want_first)
    np.testing.assert_array_equal(inverse, want_inverse.ravel())


def test_branch_budget_guard(model15, majority, monkeypatch):
    """Ties split branches past the signal-vector count the upfront check
    sees; the split that would pass the budget is refused."""
    graph = path_graph(4)
    monkeypatch.setattr(oracle, "BUDGET", graph.n * 3 * 2 ** graph.n)
    with pytest.raises(BudgetError, match="branches"):
        unroll(graph, model15, majority, 3)


def test_uniform_bayesian_ties_match_engine(model15, uniform_ties):
    """Uniform-random Bayesian ties split branches like majority coins."""
    rule = UpdateRule(variant="bayesian", tie_break=uniform_ties)
    for name, graph in instance_family(8):
        tensor = unroll(graph, model15, rule, 3)
        engine = FiniteTreeEngine(graph, model15, rule)
        engine.run(3)
        for node in range(graph.n):
            for t in range(4):
                assert abs(oracle_error_probability(tensor, node, t)
                           - engine.error_probability(node, t)) <= ORACLE_TOL, (
                    name, node, t)


@pytest.mark.parametrize("variant", ["bayesian", "majority"])
def test_wide_star_matches_engine(model15, variant):
    """A hub observing 11 leaves: 8^11 x 2 possible keys, of which only the
    4096 signal vectors occur, so keys are never laid out densely."""
    graph = star_graph(12)
    rule = UpdateRule(variant=variant)
    tensor = unroll(graph, model15, rule, 3)
    engine = FiniteTreeEngine(graph, model15, rule)
    engine.run(3)
    for node in (0, 1):
        for t in range(4):
            assert abs(oracle_error_probability(tensor, node, t)
                       - engine.error_probability(node, t)) <= ORACLE_TOL


def test_decision_tables_recorded(model15, bayes):
    tensor = unroll(path_graph(2), model15, bayes, 1)
    tables = oracle_decision_tables(tensor)
    assert tables[0][0][(0, (0,))] == 0  # round 0: one empty code, 0
    # round-1 entries hold the full two-round trajectory
    assert tables[0][1][(0, (0,))] == 0  # agree on 0: stay at 0
    assert tables[0][1][(0, (1,))] == 0  # disagree: keep own signal
