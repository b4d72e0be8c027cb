import itertools
import logging

import numpy as np
import pytest

import cavitree.cavity
import cavitree.cavity.core as core
import cavitree.cavity.engine as engine_module
from cavitree.cavity import (ConfigModelEngine, CouplingError,
                             FiniteTreeEngine, RegularTreeEngine)
from cavitree.model import (ModelError, SignalModel, TieBreak, TieBreakRule,
                            UpdateRule)
from cavitree.oracle import unroll
from cavitree.trees import DegreeDistribution, path_graph, regular_tree
from cavitree.verify import invariant_suite, oracle_equivalence_suite


def test_cavity_exports_resolve():
    missing = [name for name in cavitree.cavity.__all__
               if not hasattr(cavitree.cavity, name)]
    assert missing == []


def test_initial_cavity_matches_signal_law(model15, bayes):
    engine = RegularTreeEngine(model15, 5, bayes)
    engine.advance()
    q0 = engine.q[0][0]
    assert engine.drifts[0] == 0.0
    np.testing.assert_allclose(q0[:, 0, 0], [0.85, 0.15], rtol=1e-15)
    np.testing.assert_allclose(q0[:, 0, 1], [0.15, 0.85], rtol=1e-15)


def test_round0_drift_is_recorded(monkeypatch, caplog):
    """Round 0's message comes from the cavity step like every other, so
    its drift is recorded and its columns renormalized: in float64 this
    likelihood's rows sum to 0.9999999999999999.  The drift is each column
    sum's distance from 1, and a drift above ``DRIFT_WARN`` is logged."""
    model = SignalModel(prior=np.array([0.5, 0.5]),
                        likelihood=np.array([[.7, .2, .1], [.1, .2, .7]]))
    lowest = UpdateRule(tie_break=TieBreakRule(TieBreak.LOWEST_INDEX))
    engine = RegularTreeEngine(model, 3, lowest)
    engine.run(1)
    assert engine.drifts[0] > 0
    assert engine.cavity_table(0).normalization_defect() < engine.drifts[0]
    row_drift = np.max(np.abs(model.likelihood.sum(axis=1) - 1.0))
    np.testing.assert_array_max_ulp(engine.drifts[0], row_drift, maxulp=4)

    monkeypatch.setattr(core, "DRIFT_WARN", row_drift / 2)
    with caplog.at_level(logging.WARNING, logger=core.__name__):
        RegularTreeEngine(model, 3, lowest).run(1)
    assert any("cavity step at t=0: normalization drift" in r.getMessage()
               for r in caplog.records)


def test_columns_normalized_every_round(model15, bayes):
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(3)
    for q, in engine.q:
        np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-12)


def test_q1_matches_zombie_enumeration(model15, bayes):
    """Brute-force zombie check of Q^1 for d=5: fix the observer's trajectory,
    enumerate every signal assignment in the depth-1 neighborhood of j."""
    d = 5
    engine = RegularTreeEngine(model15, d, bayes)
    engine.run(2)
    lik = model15.likelihood
    expected = np.zeros_like(engine.q[1][0])
    for s in (0, 1):
        for tau0 in (0, 1):
            for x_j in (0, 1):
                for kids in itertools.product((0, 1), repeat=d - 1):
                    w = lik[s, x_j] * np.prod([lik[s, c] for c in kids])
                    # round 0: vote the signal; round 1: weighted majority of
                    # (own signal, zombie vote, child votes), ties to own signal
                    votes = (tau0,) + kids
                    odds = np.log(0.85 / 0.15) * (
                        (1 if x_j == 0 else -1)
                        + sum(1 if v == 0 else -1 for v in votes))
                    if abs(odds) < 1e-12:
                        vote1 = x_j
                    else:
                        vote1 = 0 if odds > 0 else 1
                    sigma = x_j + 2 * vote1
                    expected[sigma, tau0, s] += w
    np.testing.assert_allclose(engine.q[1][0], expected, atol=1e-13)


def test_posterior_round0_is_signal_posterior(model15, bayes):
    engine = RegularTreeEngine(model15, 5, bayes)
    np.testing.assert_allclose(engine.posterior(0, (0,) * 5, 0), [0.85, 0.15],
                               rtol=1e-15)


def test_posterior_round1_closed_form(model15, bayes):
    engine = RegularTreeEngine(model15, 5, bayes)
    engine.run(1)
    post = engine.posterior(0, (0, 0, 0, 0, 0), 1)
    expected = 0.85 ** 6 / (0.85 ** 6 + 0.15 ** 6)
    assert post[0] == pytest.approx(expected, rel=1e-13)
    assert post[0] == pytest.approx(0.99997, abs=5e-6)


def test_two_node_path_posterior_matches_oracle(model15, bayes):
    """d=1 homogeneous engine against the brute force on the 2-node path."""
    engine = RegularTreeEngine(model15, 1, bayes)
    engine.run(3)
    tensor = unroll(path_graph(2), model15, bayes, 3)
    for t in range(1, 4):
        for x in (0, 1):
            for obs in range(2 ** t):
                idx = np.flatnonzero(
                    (tensor.signal_digits[0] == x)
                    & (tensor.trajs[t - 1][1] == obs))
                if len(idx) == 0:
                    continue  # unreachable zombie observation
                w = model15.prior * np.array(
                    [tensor.signal_probs[s][idx].sum() for s in (0, 1)])
                np.testing.assert_allclose(
                    engine.posterior(x, (obs,), t), w / w.sum(), atol=1e-12)


def test_advance_twice_gives_table1_round2(model15, bayes, assert_rel):
    engine = RegularTreeEngine(model15, 5, bayes)
    engine.advance()
    engine.advance()
    assert_rel(engine.error_probability(2), 7.6e-4, label="round-2 error")


def test_errors_trivial_round0(model15, bayes, majority):
    for rule in (bayes, majority):
        engine = RegularTreeEngine(model15, 3, rule)
        engine.advance()
        assert engine.error_probability(0) == pytest.approx(0.15, rel=1e-14)


def test_majority_d5_round4(model15, majority, assert_rel):
    engine = RegularTreeEngine(model15, 5, majority)
    engine.run(4)
    assert_rel(engine.error_probability(4), 2.5e-10, label="majority round 4")


def test_bayes_d7_noise30_round3(model30, bayes, assert_rel):
    engine = RegularTreeEngine(model30, 7, bayes)
    engine.run(3)
    assert_rel(engine.error_probability(3), 4.4e-6, label="d=7 round 3")


def test_condition_state_flip_symmetric(model15, bayes):
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    a = engine.error_probability(2, condition_state=0)
    b = engine.error_probability(2, condition_state=1)
    avg = engine.error_probability(2)
    assert a == pytest.approx(b, rel=1e-12)
    assert avg == pytest.approx((a + b) / 2, rel=1e-12)


@pytest.mark.parametrize("state", [-1, 2, True, 1.0, "1"])
def test_condition_state_outside_the_states_is_refused(model15, bayes,
                                                       state):
    """A state index is an int in 0..n_states - 1: -1 does not wrap to
    state 1, and 2, a bool, a float or a string are refused alike, on the
    homogeneous and on the finite-tree engine; a NumPy int is a state."""
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    finite = FiniteTreeEngine(path_graph(3), model15, bayes)
    finite.run(2)
    assert (engine.error_probability(2, condition_state=np.int64(1))
            == engine.error_probability(2, condition_state=1))
    assert (finite.error_probability(1, 2, np.int64(0))
            == finite.error_probability(1, 2, 0))
    with pytest.raises(ModelError, match="condition_state"):
        engine.error_probability(2, condition_state=state)
    with pytest.raises(ModelError, match="condition_state"):
        engine.error_probability(2, degree=3, condition_state=state)
    with pytest.raises(ModelError, match="condition_state"):
        finite.error_probability(1, 2, state)


def test_vote_table_refuses_a_class_outside_the_round(model15, bayes):
    """``vote_table``'s class index does not wrap: -1 and one past the last
    class are refused, not read as the last class or an ``IndexError``."""
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    assert engine.vote_table(1, 0).shape == (2, 2 ** 3)
    for c in (-1, 1):
        with pytest.raises(ModelError, match="class"):
            engine.vote_table(1, c)


def test_prefix_consistency_of_decisions(model15, bayes):
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(3)
    for t in range(1, 4):
        cur = engine.decision_table(t)
        prev = engine.decision_table(t - 1)
        assert cur.prefix_consistent_with(prev)


@pytest.mark.parametrize("d, rule", [
    (4, UpdateRule(variant="majority")),
    (3, UpdateRule(tie_break=TieBreakRule(TieBreak.UNIFORM_RANDOM))),
], ids=["majority-d4", "uniform-d3"])
def test_coin_rows_equal_the_finite_tree_root(model15, d, rule):
    """A stochastic rule runs on the homogeneous engine through the same
    tie-coin rows as on a finite tree: through round 4 the root of the
    depth-4 d-regular tree sees the infinite tree, bit for bit."""
    regular = RegularTreeEngine(model15, d, rule)
    finite = FiniteTreeEngine(regular_tree(d, 4), model15, rule)
    regular.run(4)
    finite.run(4)
    assert len(regular.g[4][0].codes) > model15.n_signals  # coin rows were built
    assert ([regular.error_probability(t) for t in range(5)]
            == [finite.error_probability(0, t) for t in range(5)])


def test_majority_refuses_a_degree_zero_class(model15, majority):
    """Majority has no vote to take at degree 0; it is refused, not run on
    coins."""
    rho = DegreeDistribution((0, 3), np.array([0.5, 0.5]))
    with pytest.raises(ModelError, match="at least one neighbor"):
        ConfigModelEngine(model15, rho, majority)


def test_decision_table_refuses_coin_rows(model15, majority):
    """A DecisionTable has one row per signal; an even-degree majority
    table has tie-coin rows from round 1 on."""
    engine = RegularTreeEngine(model15, 4, majority)
    engine.run(1)
    assert engine.decision_table(0).array.shape == (2, 1)
    with pytest.raises(ModelError, match="tie-coin rows"):
        engine.decision_table(1)


def test_error_requires_advance(model15, bayes):
    engine = RegularTreeEngine(model15, 3, bayes)
    with pytest.raises(ModelError):
        engine.error_probability(1)


def test_error_requires_decision_table(model15, bayes):
    """After ``run(2)`` the decision tables reach round 2, so round 3 has
    no error sums and is refused with ModelError."""
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    assert engine.horizon == 2
    with pytest.raises(ModelError):
        engine.error_probability(3)
    with pytest.raises(ModelError):
        engine.error_probability(3, degree=3)
    with pytest.raises(ModelError):
        engine.error_probability(-1)
    assert engine.error_probability(2) > 0.0


def test_a_failed_round_leaves_no_half_round(model15, bayes, monkeypatch):
    """A decision step that raises (say, out of memory) leaves no record of
    its round, so the next advance redoes that round whole."""
    step = engine_module.decision_step_general

    def fail_at_round_2(g, t, *args, **kwargs):
        if t == 2:
            raise MemoryError
        return step(g, t, *args, **kwargs)

    engine = RegularTreeEngine(model15, 3, bayes)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "decision_step_general", fail_at_round_2)
        with pytest.raises(MemoryError):
            engine.run(3)
    assert engine.horizon == 2
    assert (len(engine.g), len(engine.drifts), len(engine.ops)) == (3, 2, 2)
    engine.run(3)
    fresh = RegularTreeEngine(model15, 3, bayes)
    fresh.run(3)
    assert ([engine.error_probability(t) for t in range(4)]
            == [fresh.error_probability(t) for t in range(4)])


def test_a_failed_cavity_step_leaves_no_half_round(model15, bayes, monkeypatch):
    """A cavity step that raises, before any decision step of its round
    runs, leaves no record of the round either."""
    step = engine_module.cavity_step_general

    def fail_at_round_2(g, t, *args, **kwargs):
        if t == 2:
            raise MemoryError
        return step(g, t, *args, **kwargs)

    engine = RegularTreeEngine(model15, 3, bayes)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "cavity_step_general", fail_at_round_2)
        with pytest.raises(MemoryError):
            engine.run(3)
    assert (len(engine.q), len(engine.g), len(engine.drifts),
            len(engine.ops)) == (2, 3, 2, 2)
    engine.run(3)
    fresh = RegularTreeEngine(model15, 3, bayes)
    fresh.run(3)
    assert ([engine.error_probability(t) for t in range(4)]
            == [fresh.error_probability(t) for t in range(4)])


@pytest.mark.parametrize("d", [0, -1])
def test_regular_tree_refuses_a_degree_below_1(model15, bayes, d):
    with pytest.raises(ModelError, match="degree must be"):
        RegularTreeEngine(model15, d, bayes)


def test_majority_refuses_a_model_without_two_actions(majority):
    model = SignalModel(prior=np.full(3, 1 / 3), likelihood=np.array(
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
    with pytest.raises(ModelError, match="binary actions"):
        RegularTreeEngine(model, 3, majority)


def test_error_rejects_degree_outside_support(model15, bayes):
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    with pytest.raises(ModelError):
        engine.error_probability(1, degree=4)


def test_ops_counter_within_complexity_envelope(model15, bayes):
    """Sanity check of the 2^(O(t d)) effort claim via operation counters."""
    d = 3
    engine = RegularTreeEngine(model15, d, bayes)
    engine.run(4)
    base = engine.ops[1] / 2.0 ** (2 * (d + 1))
    for t in range(1, 4):
        bound = 4.0 * base * 2.0 ** ((t + 1) * (d + 1))
        assert engine.ops[t] <= bound


def _scale_cavity_tables(monkeypatch):
    """Make every cavity table after round 0 sum to 1 + 1e-6 per column."""
    step = engine_module.cavity_step_general

    def scaled(g, t, *args, **kwargs):
        q, drift, ops = step(g, t, *args, **kwargs)
        return (q * (1 + 1e-6) if t else q), drift, ops

    monkeypatch.setattr(engine_module, "cavity_step_general", scaled)


def test_verify_reports_a_coupling_fault_as_a_failed_check(monkeypatch):
    """The scaled cavity tables under both verification suites: each
    returns its report with the fault as a failed check, not CouplingError."""
    _scale_cavity_tables(monkeypatch)
    checks = {name: (passed, detail) for name, passed, detail in
              invariant_suite(ds=(3,), noises=(0.15,), max_t=3).checks}
    for variant in ("bayesian", "majority"):
        passed, detail = checks[f"coupling d=3 noise=0.15 {variant}"]
        assert not passed and "max |mass-1| 3.00e-06" in detail
    checks = {name: (passed, detail) for name, passed, detail in
              oracle_equivalence_suite(max_nodes=3, max_t=2).checks}
    passed, detail = checks["oracle-error path3 bayesian"]
    assert not passed and "coupling mass deviates" in detail


def test_inconsistent_cavity_table_raises_coupling_error(model15, bayes,
                                                         monkeypatch):
    """A cavity table whose columns sum to 1 + 1e-6 makes the coupling mass
    of the next decision table deviate; its error must not be reported."""
    _scale_cavity_tables(monkeypatch)
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    engine.error_probability(1)  # reads the unscaled round-0 message
    with pytest.raises(CouplingError):
        engine.error_probability(2)
