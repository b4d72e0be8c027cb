"""The state flip: when both core steps compute signal 0 only, and that
the mirrored tables match the full computation."""

import numpy as np
import pytest

import cavitree.cavity.core as core
from cavitree.cavity import (
    ActiveEdgeEngine,
    ConfigModelEngine,
    FiniteTreeEngine,
    RegularTreeEngine,
)
from cavitree.cavity.core import SlotSpace, _flip_symmetric
from cavitree.model import (
    SignalModel,
    TieBreak,
    TieBreakRule,
    UpdateRule,
    UtilityTable,
)
from cavitree.trees import DegreeDistribution, TreeGraph, regular_tree
from cavitree.verify import FLIP_TOL


def _decision_inputs(engine, t):
    """The arguments of the predicate at the engine's horizon-t decision
    step, before the rule."""
    engine.run(t)
    engine.advance(extend_decisions=False)
    d = engine.degrees[0]
    n_obs = engine.channel.size
    return (engine.model, engine.n_actions, n_obs, engine.decisions[d][t],
            SlotSpace(n_obs ** t, [d]), [(engine.slot_tables[t], True, d)])


def _flips(model, rule, d=3, t=2, p=1.0):
    engine = (RegularTreeEngine(model, d, rule) if p == 1.0
              else ActiveEdgeEngine(model, d, rule, p))
    return _flip_symmetric(*_decision_inputs(engine, t), rule)


def test_predicate_holds_on_the_papers_model(model15, model30, bayes,
                                             majority):
    for model in (model15, model30):
        for d in (3, 5):
            assert _flips(model, bayes, d)
            assert _flips(model, majority, d)
    swapped = UpdateRule(tie_break=TieBreakRule(signal_to_action=(1, 0)))
    assert _flips(model15, swapped)


@pytest.mark.parametrize("label", ["lowest", "uniform", "majority-even",
                                   "constant-map", "utility"])
def test_predicate_rejects_an_asymmetric_rule(model15, label):
    """Symmetric inputs, but a rule whose votes do not commute with ~."""
    rule = {
        "lowest": UpdateRule(tie_break=TieBreakRule(TieBreak.LOWEST_INDEX)),
        "uniform": UpdateRule(tie_break=TieBreakRule(TieBreak.UNIFORM_RANDOM)),
        "majority-even": UpdateRule(variant="majority"),
        "constant-map": UpdateRule(
            tie_break=TieBreakRule(signal_to_action=(0, 0))),
        "utility": UpdateRule(utility=UtilityTable(np.array([[1.0, 0.0],
                                                             [0.0, 2.0]]))),
    }[label]
    args = _decision_inputs(RegularTreeEngine(model15, 4, UpdateRule()), 2)
    assert _flip_symmetric(*args, UpdateRule())
    assert not _flip_symmetric(*args, rule)


def test_predicate_rejects_an_asymmetric_model(model15, bayes):
    assert not _flips(SignalModel.binary_symmetric(0.15, prior=(0.6, 0.4)),
                      bayes)
    assert not _flips(SignalModel(prior=np.array([0.5, 0.5]),
                                  likelihood=np.array([[0.8, 0.2],
                                                       [0.3, 0.7]])), bayes)
    three = SignalModel(prior=np.full(3, 1 / 3),
                        likelihood=np.array([[0.8, 0.1, 0.1],
                                             [0.1, 0.8, 0.1],
                                             [0.1, 0.1, 0.8]]))
    assert not _flips(three, bayes)
    assert not _flips(model15, bayes, p=0.5)  # the erasure channel
    assert _flips(model15, bayes, p=1.0)


def test_predicate_rejects_asymmetric_inputs(model15, bayes):
    """Under a symmetric rule, one changed code or slot entry breaks the
    flip."""
    model, n_a, n_obs, g, space, groups = _decision_inputs(
        RegularTreeEngine(model15, 3, bayes), 3)
    assert _flip_symmetric(model, n_a, n_obs, g, space, groups, bayes)
    broken = g.copy()
    broken[1, 7] ^= 1 << 3  # the round-3 vote of one input
    assert not _flip_symmetric(model, n_a, n_obs, broken, space, groups,
                               bayes)
    q = groups[0][0].copy()
    q[0, 0, 0] = np.nextafter(q[0, 0, 0], 1.0)
    assert not _flip_symmetric(model, n_a, n_obs, g, space, [(q, True, 3)],
                               bayes)
    coin_rows = np.concatenate([g, g])
    assert not _flip_symmetric(model, n_a, n_obs, coin_rows, space, groups,
                               bayes)


def test_lowest_index_takes_the_full_path(model15, bayes, monkeypatch):
    """At d=4 no round-1 input ties, so the lowest-index table equals the
    own-signal one and the round-1 cavity step's inputs are symmetric; the
    lowest-index rule still sums every row, so every sum keeps the full
    path's rounding."""
    lowest = UpdateRule(tie_break=TieBreakRule(TieBreak.LOWEST_INDEX))
    sym, full = _run_homogeneous(lambda: RegularTreeEngine(model15, 4, lowest),
                                 3, monkeypatch)
    inputs = (sym.model, 2, 2, sym.decisions[4][1], SlotSpace(2, [4]),
              [(sym.slot_tables[0], True, 4)])
    assert _flip_symmetric(*inputs, bayes)
    assert not _flip_symmetric(*inputs, lowest)
    assert sum(sym.ops) == sum(full.ops)
    for t in range(4):
        assert np.array_equal(sym.q[t], full.q[t]), t
        for got, want in zip(sym.sums[4][t], full.sums[4][t]):
            assert np.array_equal(got, want), t


def _full_path(monkeypatch):
    monkeypatch.setattr(core, "_flip_symmetric", lambda *a, **k: False)


def _flip(q):
    return q[::-1, ::-1, ::-1]


def _assert_q(q_sym, q_full):
    """Q from both paths agree; the mirrored Q is its own flip bit for bit,
    the full path's to rounding."""
    np.testing.assert_allclose(q_sym, q_full, rtol=0, atol=1e-15)
    assert np.array_equal(q_sym, _flip(q_sym))
    assert np.max(np.abs(q_full - _flip(q_full))) <= FLIP_TOL


def _run_homogeneous(make, rounds, monkeypatch):
    sym = make()
    sym.run(rounds)
    sym.advance(extend_decisions=False)
    with monkeypatch.context() as patch:
        _full_path(patch)
        full = make()
        full.run(rounds)
        full.advance(extend_decisions=False)
    return sym, full


_HOMOGENEOUS = [(variant, d, noise) for variant in ("bayesian", "majority")
                for d in (3, 5) for noise in (0.15, 0.3)]


@pytest.mark.parametrize("variant,d,noise", _HOMOGENEOUS)
def test_symmetric_path_matches_full_path(variant, d, noise, monkeypatch):
    model = SignalModel.binary_symmetric(noise)
    sym, full = _run_homogeneous(
        lambda: RegularTreeEngine(model, d, UpdateRule(variant=variant)), 4,
        monkeypatch)
    # Each step summed the signal-0 rows only.
    assert 2 * sum(sym.ops) == sum(full.ops)
    for t in range(5):
        assert np.array_equal(sym.decisions[d][t], full.decisions[d][t]), t
        for got, want in zip(sym.sums[d][t], full.sums[d][t]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert sym.error_probability(t) == pytest.approx(
            full.error_probability(t), rel=1e-14, abs=0)
        _assert_q(sym.q[t], full.q[t])


def test_symmetric_path_matches_full_path_mixture(model15, bayes,
                                                  monkeypatch):
    rho_v = DegreeDistribution((3, 4), np.array([0.5, 0.5]))
    sym, full = _run_homogeneous(
        lambda: ConfigModelEngine(model15, rho_v, bayes), 3, monkeypatch)
    assert 2 * sum(sym.ops) == sum(full.ops)
    for t in range(4):
        for d in (3, 4):
            assert np.array_equal(sym.decisions[d][t], full.decisions[d][t])
            assert sym.error_probability(t, degree=d) == pytest.approx(
                full.error_probability(t, degree=d), rel=1e-14, abs=0)
        _assert_q(sym.q[t], full.q[t])


@pytest.mark.parametrize("graph", [
    regular_tree(3, 3),
    TreeGraph(n=7, edges=((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6)))],
    ids=["regular3", "lopsided"])
@pytest.mark.parametrize("variant", ["bayesian", "majority"])
def test_symmetric_path_matches_full_path_finite(model30, graph, variant,
                                                 monkeypatch):
    """On the lopsided tree, majority at the degree-2 nodes has coin rows,
    so those nodes and the nodes reading their messages take the full
    path."""
    rule = UpdateRule(variant=variant)
    sym = FiniteTreeEngine(graph, model30, rule)
    sym.run(3)
    with monkeypatch.context() as patch:
        _full_path(patch)
        full = FiniteTreeEngine(graph, model30, rule)
        full.run(3)
    assert sym.node_class == full.node_class
    assert sym.edge_class == full.edge_class
    for t in range(4):
        for got, want in zip(sym.g[t], full.g[t]):
            assert np.array_equal(got, want), t
        for got, want in zip(sym.sums[t], full.sums[t]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for i in range(graph.n):
            assert sym.error_probability(i, t) == pytest.approx(
                full.error_probability(i, t), rel=1e-14, abs=0)
    coins = variant == "majority" and graph.n == 7
    for got_t, want_t in zip(sym.q, full.q):
        for got, want in zip(got_t, want_t):
            if coins:  # some messages mirrored, some not
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            else:
                _assert_q(got, want)
