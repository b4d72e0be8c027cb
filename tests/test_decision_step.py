"""The decision step's chunks and its binary tie test: every engine run in
chunks of an odd size against one-chunk runs, and the two-compare tie test
of two actions against the generic expected-utility argmax."""

import itertools

import numpy as np
import pytest

import cavitree.cavity.core as core
from cavitree.cavity import ActiveEdgeEngine, FiniteTreeEngine, RegularTreeEngine
from cavitree.cavity.core import SlotSpace, StoredTable, _bayesian_actions
from cavitree.model import (
    TIE_TOL,
    SignalModel,
    TieBreak,
    TieBreakRule,
    UpdateRule,
    UtilityTable,
)
from cavitree.trees import regular_tree

# Odd, so that chunks straddle the colex blocks and the groups, and far below
# every space the cases below build.
SMALL_CHUNK = 97
WHOLE = 1 << 30  # every space of the cases below in one chunk

LOWEST = TieBreakRule(TieBreak.LOWEST_INDEX)
UNIFORM = TieBreakRule(TieBreak.UNIFORM_RANDOM)
MODEL = SignalModel.binary_symmetric(0.15)

# (engine factory, rounds): the last round's decision space exceeds
# SMALL_CHUNK in every case.
ENGINES = {
    "flip": (lambda: RegularTreeEngine(MODEL, 5, UpdateRule()), 3),
    "lowest-index": (
        lambda: RegularTreeEngine(MODEL, 3, UpdateRule(tie_break=LOWEST)), 4),
    "uniform-coin-rows": (
        lambda: FiniteTreeEngine(regular_tree(3, 3), MODEL,
                                 UpdateRule(tie_break=UNIFORM)), 3),
    "majority-flip": (
        lambda: RegularTreeEngine(MODEL, 3, UpdateRule("majority")), 4),
    "majority-coin-rows": (
        lambda: FiniteTreeEngine(regular_tree(4, 2), MODEL,
                                 UpdateRule("majority")), 3),
    "erasure": (lambda: ActiveEdgeEngine(MODEL, 3, UpdateRule(), p=0.5), 3),
    "finite-groups": (
        lambda: FiniteTreeEngine(regular_tree(3, 3), MODEL, UpdateRule()), 3),
}


def _run(make, rounds, chunk, monkeypatch):
    """An engine run to ``rounds`` with ``core.CHUNK`` set to ``chunk``, and
    the start rank of every chunk the steps built."""
    starts = []
    build = SlotSpace.build

    def spy_build(self, start, stop):
        starts.append(start)
        return build(self, start, stop)

    with monkeypatch.context() as patch:
        patch.setattr(core, "CHUNK", chunk)
        patch.setattr(SlotSpace, "build", spy_build)
        engine = make()
        engine.run(rounds)
    return engine, starts


@pytest.mark.parametrize("label", list(ENGINES))
def test_chunked_steps_match_one_chunk(label, monkeypatch):
    """Decision tables are equal in value and dtype; the error, coupling and
    cavity sums, which group per chunk, agree within 1e-14 relative."""
    make, rounds = ENGINES[label]
    whole, _ = _run(make, rounds, WHOLE, monkeypatch)
    chunked, starts = _run(make, rounds, SMALL_CHUNK, monkeypatch)
    assert any(start % SMALL_CHUNK == 0 and start > 0 for start in starts)
    if "flip" in label:  # a mirrored table stores row 0 only
        assert all(len(g.codes) == 1 for t in range(1, rounds + 1)
                   for g in chunked.g[t])
    if "coin-rows" in label:
        assert max(len(g.codes) for g in chunked.g[rounds]) > 2
    for t in range(rounds + 1):
        assert len(chunked.g[t]) == len(whole.g[t])
        for got, want in zip(chunked.g[t], whole.g[t]):
            assert got.codes.dtype == want.codes.dtype, t
            assert np.array_equal(got.codes, want.codes), t
            for a, b in zip(got.sums, want.sums):
                np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)
    for t in range(rounds):
        for got, want in zip(chunked.q[t], whole.q[t]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_chunked_expand_matches_one_chunk(monkeypatch):
    """The dense reader gives the same table in chunks as in one, for three
    stored rows and for a one-row (mirrored) table, whose derived row is
    read across the chunk boundaries too."""
    space = SlotSpace(5, [2, 3])
    table = np.random.default_rng(7).integers(0, 64, (3, space.size),
                                              dtype=np.int32)
    order = [3, 0, 4, 1, 2]
    cases = [(stored, slots)
             for stored in (StoredTable(table, space, 63, 3, None),
                            StoredTable(table[:1], space, 63, 2, None))
             for slots in (None, order)]

    def expand(chunk):
        with monkeypatch.context() as patch:
            patch.setattr(core, "CHUNK", chunk)
            return [stored.dense(slots) for stored, slots in cases]

    want, got = expand(WHOLE), expand(SMALL_CHUNK)
    assert 5 ** 5 > SMALL_CHUNK
    assert [len(a) for a in got] == [3, 3, 2, 2]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# -- the binary tie test ------------------------------------------------------

def _adversarial_posteriors() -> np.ndarray:
    """Columns that probe the tie band: exact ties, gaps of TIE_TOL and one
    ulp either side of it in both orders, zero-mass and one-zero columns."""
    rng = np.random.default_rng(11)
    random = rng.random((2, 4000))
    cols = [random / random.sum(axis=0), random]
    tops = np.array([0.5, 1.0, 1.0 - 1e-13, 0.73, 3e-12, 1e-12, TIE_TOL,
                     2 * TIE_TOL, 0.999999, 1e-300])
    edge = tops - TIE_TOL
    gaps = [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
            np.nextafter(np.nextafter(edge, np.inf), np.inf), tops]
    for low in gaps:
        low = np.maximum(low, 0.0)
        cols += [np.stack([tops, low]), np.stack([low, tops])]
    cols.append(np.array([[0.0, 0.0, 1.0, 0.0, TIE_TOL, 0.0],
                          [0.0, 1.0, 0.0, TIE_TOL, 0.0, 0.5 * TIE_TOL]]))
    return np.concatenate(cols, axis=1)


TIE_RULES = {
    "own-signal": TieBreakRule(),
    "own-signal-swapped": TieBreakRule(TieBreak.OWN_SIGNAL, (1, 0)),
    "lowest-index": LOWEST,
    "uniform": UNIFORM,
}


@pytest.mark.parametrize("label", list(TIE_RULES))
def test_binary_tie_test_matches_expected_utility_argmax(label):
    """The identity utility's two-compare test picks the actions of the
    generic path, which an explicit identity utility takes, at every signal
    and coin count."""
    post = _adversarial_posteriors()
    # Every branch of the tie test is reached.
    tied = post >= post.max(axis=0) - TIE_TOL
    assert tied.all(axis=0).any() and not tied.all(axis=0).all()
    assert tied[0].any() and tied[1].any() and not tied[0].all()
    fast = UpdateRule(tie_break=TIE_RULES[label])
    generic = UpdateRule(tie_break=TIE_RULES[label],
                         utility=UtilityTable.identity(2))
    for x, coins in itertools.product((0, 1), (1, 2, 4)):
        got = _bayesian_actions(post, x, fast, UtilityTable.identity(2), coins)
        want = _bayesian_actions(post, x, generic, generic.utility, coins)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(np.asarray(a, dtype=np.int64), b)
