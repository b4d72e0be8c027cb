"""The state flip: when both core steps compute signal 0 only, and that
the mirrored tables match the full computation."""

import dataclasses
import itertools

import numpy as np
import pytest

import cavitree.cavity.core as core
from cavitree.cavity import (
    ActiveEdgeEngine,
    ConfigModelEngine,
    FiniteTreeEngine,
    RegularTreeEngine,
)
from cavitree.cavity.core import StoredTable, _flip_symmetric
from cavitree.model import (
    ModelError,
    SignalModel,
    TieBreak,
    TieBreakRule,
    UpdateRule,
    UtilityTable,
)
from cavitree.trees import DegreeDistribution, TreeGraph, regular_tree
from cavitree.verify import FLIP_TOL, invariant_suite


def _decision_inputs(engine, t):
    """The arguments of the predicate at the engine's horizon-t decision
    step, before the rule."""
    engine.run(t + 1)
    d = engine.degrees[0]
    return (engine.model, engine.channel, engine.g[t][0].rows,
            [(engine.channel.fold(engine.q[t][0], t), True, d)])


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


def test_predicate_rejects_majority_with_a_constant_round0_vote(model15):
    """Majority's round-0 vote is the signal-to-action map, so a map that
    does not commute with ~ breaks g^0 even on symmetric inputs."""
    args = _decision_inputs(RegularTreeEngine(model15, 3, UpdateRule()), 2)
    assert _flip_symmetric(*args, UpdateRule(variant="majority"))
    constant = UpdateRule(variant="majority",
                          tie_break=TieBreakRule(signal_to_action=(0, 0)))
    assert not _flip_symmetric(*args, constant)


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
    """Under a symmetric rule, one changed slot entry or coin rows break the
    flip."""
    model, channel, rows, groups = _decision_inputs(
        RegularTreeEngine(model15, 3, bayes), 3)
    assert _flip_symmetric(model, channel, rows, groups, bayes)
    q = groups[0][0].copy()
    q[0, 0, 0] = np.nextafter(q[0, 0, 0], 1.0)
    assert not _flip_symmetric(model, channel, rows, [(q, True, 3)], bayes)
    assert not _flip_symmetric(model, channel, 2 * rows, groups, bayes)


def test_verify_flags_a_broken_decision_table(monkeypatch):
    """The predicate reads no table entry; the invariant suite checks that
    the tables are their own flips where a posterior reads them, and fails
    when a table derives row 1 of a mirrored table at the input itself,
    not at its complement."""
    rows_at = StoredTable.rows_at

    def broken(table, digits, order=None):
        rows = list(rows_at(table, digits, order))
        if len(rows) > len(table.codes):
            rows[1] = table.top - table.codes[0, table.space.rank(digits, order)]
        return rows

    checks = {name: passed for name, passed, _ in
              invariant_suite(ds=(3,), noises=(0.15,), max_t=3).checks}
    assert checks["decision-flip d=3 noise=0.15 bayesian"]
    monkeypatch.setattr(StoredTable, "rows_at", broken)
    checks = {name: passed for name, passed, _ in
              invariant_suite(ds=(3,), noises=(0.15,), max_t=3).checks}
    assert not checks["decision-flip d=3 noise=0.15 bayesian"]
    assert not checks["decision-flip d=3 noise=0.15 majority"]


def test_dense_tables_read_row_1_through_rows_at(model15, bayes,
                                                 monkeypatch):
    """The dense tables take a mirrored table's row 1 from the table's
    ``rows_at`` and from no rule of their own: deriving it at the input
    itself, not at its complement, changes ``dense_decisions`` and a fresh
    ``vote_table`` of the d=3 round-2 table."""
    sym, full = _run_homogeneous(lambda: RegularTreeEngine(model15, 3, bayes),
                                 2, monkeypatch)
    assert len(sym.g[2][0].codes) == 1 and len(full.g[2][0].codes) == 2
    dense, votes = full.dense_decisions(3, 2), full.vote_table(2, 0)
    assert np.array_equal(sym.dense_decisions(3, 2), dense)

    def at_the_input(table, digits, order=None):
        j = table.space.rank(digits, order)
        for row in table.codes:
            yield row[j].astype(np.int64)
        if table.rows > len(table.codes):
            yield table.top - table.codes[0, j].astype(np.int64)

    monkeypatch.setattr(StoredTable, "rows_at", at_the_input)
    assert not np.array_equal(sym.dense_decisions(3, 2), dense)
    assert not np.array_equal(sym.vote_table(2, 0), votes)


def test_a_uint8_table_reads_as_its_int32_original(model15, bayes):
    """A uint8 copy of a mirrored table gives ``rows_at`` the same int64
    codes as the int32 table, the derived row ~(row 0 at ~J) = top - row 0
    included, without wrapping, and the dense reader the same values."""
    engine = RegularTreeEngine(model15, 5, bayes)
    engine.run(3)
    table = engine.g[3][0]
    narrow = dataclasses.replace(table, codes=table.codes.astype(np.uint8))
    assert len(table.codes) == 1 and table.codes.dtype == np.int32
    assert table.top == 2 ** 4 - 1
    assert np.array_equal(narrow.codes, table.codes)
    digits = table.space.build(0, table.space.size)[0]
    want = list(table.rows_at(digits))
    got = list(narrow.rows_at(digits))
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert got[1].min() >= 0 and got[1].max() <= table.top
    dense = narrow.dense()
    assert dense.dtype == np.uint8
    assert np.array_equal(dense, table.dense())
    assert np.array_equal(dense, engine.dense_decisions(5, 3))


def test_lowest_index_takes_the_full_path(model15, bayes, monkeypatch):
    """At d=4 no round-1 input ties, so the lowest-index table equals the
    own-signal one and the round-1 cavity step's inputs are symmetric; the
    lowest-index rule still sums every row, so every sum keeps the full
    path's rounding."""
    lowest = UpdateRule(tie_break=TieBreakRule(TieBreak.LOWEST_INDEX))
    sym, full = _run_homogeneous(lambda: RegularTreeEngine(model15, 4, lowest),
                                 3, monkeypatch)
    inputs = (sym.model, sym.channel, sym.g[1][0].rows,
              [(sym.channel.fold(sym.q[0][0], 0), True, 4)])
    assert _flip_symmetric(*inputs, bayes)
    assert not _flip_symmetric(*inputs, lowest)
    assert sum(sym.ops) == sum(full.ops)
    for t in range(4):
        assert np.array_equal(sym.q[t][0], full.q[t][0]), t
        for got, want in zip(sym.g[t][0].sums, full.g[t][0].sums):
            assert np.array_equal(got, want), t


def _full_path(monkeypatch):
    monkeypatch.setattr(core, "_flip_symmetric", lambda *a, **k: False)


def _flip(q):
    return q[::-1, ::-1, ::-1]


def _assert_own_flip(g, t):
    """A dense horizon-t decision table is its own flip: complementing every
    input reverses the column index, and every signal and coin the row
    index."""
    assert np.array_equal(g[::-1, ::-1], 2 ** (t + 1) - 1 - g), t


def _assert_table_matches(sym, full, t, c):
    """Node class c's round-t table is the full path's, whose rows are
    computed apart and make a table that is its own flip.  A table without
    coin rows is compared dense, row 1 derived where the mirrored engine
    stores one row; one with coin rows is stored whole on both paths.
    Returns whether the mirrored engine stores one row."""
    stored = sym.g[t][c]
    if stored.rows > sym.model.n_signals:
        assert np.array_equal(stored.codes, full.g[t][c].codes), t
        _assert_own_flip(stored.dense(), t)
        return False
    want = full._decisions(t, c)
    assert len(full.g[t][c].codes) == 2
    assert np.array_equal(sym._decisions(t, c), want), t
    _assert_own_flip(want, t)
    return len(stored.codes) == 1


def _assert_q(q_sym, q_full):
    """Q from both paths agree; the mirrored Q is its own flip bit for bit,
    the full path's to rounding."""
    np.testing.assert_allclose(q_sym, q_full, rtol=0, atol=1e-15)
    assert np.array_equal(q_sym, _flip(q_sym))
    assert np.max(np.abs(q_full - _flip(q_full))) <= FLIP_TOL


def _run_homogeneous(make, rounds, monkeypatch):
    sym = make()
    sym.run(rounds + 1)
    with monkeypatch.context() as patch:
        _full_path(patch)
        full = make()
        full.run(rounds + 1)
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
        assert _assert_table_matches(sym, full, t, 0) == (t > 0), t
        for got, want in zip(sym.g[t][0].sums, full.g[t][0].sums):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert sym.error_probability(t) == pytest.approx(
            full.error_probability(t), rel=1e-14, abs=0)
        _assert_q(sym.q[t][0], full.q[t][0])


def test_symmetric_path_matches_full_path_mixture(model15, bayes,
                                                  monkeypatch):
    rho_v = DegreeDistribution((3, 4), np.array([0.5, 0.5]))
    sym, full = _run_homogeneous(
        lambda: ConfigModelEngine(model15, rho_v, bayes), 3, monkeypatch)
    assert 2 * sum(sym.ops) == sum(full.ops)
    for t in range(4):
        for k, d in enumerate((3, 4)):
            assert _assert_table_matches(sym, full, t, k) == (t > 0), t
            assert sym.error_probability(t, degree=d) == pytest.approx(
                full.error_probability(t, degree=d), rel=1e-14, abs=0)
        _assert_q(sym.q[t][0], full.q[t][0])


LOPSIDED = TreeGraph(n=7, edges=((0, 1), (1, 2), (2, 3), (1, 4), (4, 5),
                                 (0, 6)))


@pytest.mark.parametrize("graph", [regular_tree(3, 3), LOPSIDED],
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
    coins = variant == "majority" and graph.n == 7
    for t in range(4):
        assert len(sym.g[t]) == len(full.g[t])
        mirrored = [_assert_table_matches(sym, full, t, c)
                    for c in range(len(sym.g[t]))]
        # On the lopsided tree only round 1's degree-1 and 3 nodes mirror.
        assert mirrored == ([t == 1, False, t == 1] if coins and t
                            else [t > 0] * len(mirrored)), t
        for got, want in zip(sym.g[t], full.g[t]):
            np.testing.assert_allclose(got.sums, want.sums, rtol=1e-14,
                                       atol=0)
        for i in range(graph.n):
            assert sym.error_probability(i, t) == pytest.approx(
                full.error_probability(i, t), rel=1e-14, abs=0)
    for got_t, want_t in zip(sym.q, full.q):
        for got, want in zip(got_t, want_t):
            if coins:  # some messages mirrored, some not
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            else:
                _assert_q(got, want)


def _outcome(call):
    """A reader's answer, or the message it refuses with."""
    try:
        return call()
    except ModelError as err:
        return str(err)


def test_derived_rows_match_the_full_path_lopsided(model30, monkeypatch):
    """Majority on the lopsided tree: round 1's degree-1 and degree-3 nodes
    store one row, and the round-2 decision steps of the degree-1 nodes
    read it without mirroring, since the coin rows of their degree-2
    neighbours break the flip.  Those steps, and every reader of a derived
    row at signal 1 through round 3 (kernels, posteriors, action tables),
    agree with the full path."""
    rule = UpdateRule(variant="majority")
    derived = []
    rows_at = StoredTable.rows_at

    def spy(table, *args):
        # Only the rows a step reads: a mirroring step stops after row 0.
        for r, row in enumerate(rows_at(table, *args)):
            derived.append(r >= len(table.codes))
            yield row

    with monkeypatch.context() as patch:
        patch.setattr(StoredTable, "rows_at", spy)
        sym = FiniteTreeEngine(LOPSIDED, model30, rule)
        sym.run(3)
    assert any(derived)
    with monkeypatch.context() as patch:
        _full_path(patch)
        full = FiniteTreeEngine(LOPSIDED, model30, rule)
        full.run(3)
    leaves = [i for i in range(LOPSIDED.n) if len(LOPSIDED.observed[i]) == 1]
    for i in leaves:  # a mirrored round-1 table, a full round-2 one
        c1, c2 = sym.node_class[1][i], sym.node_class[2][i]
        assert len(sym.g[1][c1].codes) == 1 and len(sym.g[2][c2].codes) == 2
        assert np.array_equal(sym._decisions(2, c2), full._decisions(2, c2))
    checked = 0
    for t in range(4):
        for i in range(LOPSIDED.n):
            got = _outcome(lambda: sym.action_table(i, t))
            want = _outcome(lambda: full.action_table(i, t))
            assert type(got) is type(want) and np.array_equal(got, want)
            for obs in itertools.product(range(2 ** t),
                                         repeat=len(LOPSIDED.observed[i])):
                assert (sym.decision_kernel(i, t, 1, obs)
                        == full.decision_kernel(i, t, 1, obs)), (i, t, obs)
                got = _outcome(lambda: sym.posterior(i, 1, obs, t))
                want = _outcome(lambda: full.posterior(i, 1, obs, t))
                if isinstance(want, str):
                    assert got == want, (i, t, obs)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
                    checked += 1
    assert checked > 0
