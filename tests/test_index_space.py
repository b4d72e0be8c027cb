"""The index space of the decision tables: the colex block builder against
the greedy unrank, one group against the exact reference's enumeration,
singleton groups against dense packing, a mixed grouping against brute
force, and both core steps run with singleton groups and with one group on
the same slot tables."""

import dataclasses
import itertools
from math import comb, factorial

import numpy as np
import pytest

import cavitree.cavity.core as core
import cavitree.cavity.engine as engine_module
from cavitree.cavity import ActiveEdgeEngine, ConfigModelEngine, RegularTreeEngine
from cavitree.cavity.core import (
    CHUNK,
    SlotSpace,
    StoredTable,
    cavity_step_general,
    decision_step_general,
    error_from_sums,
)
from cavitree.model import ModelError, UpdateRule
from cavitree.trees import DegreeDistribution
from exact_reference import _multisets

SMALL = [(n_codes, size) for n_codes in range(1, 7) for size in range(5)]


def greedy_digits(space: SlotSpace, ranks) -> np.ndarray:
    """Reference unrank: each group's multiset greedily, top slot first, as
    the largest C(b, i + 1) <= the rank left."""
    top = max(space.sizes, default=0)
    binom = np.array([[comb(b, i + 1) for b in range(space.base + top - 1)]
                      for i in range(top)], dtype=np.int64)
    r = np.array(ranks, dtype=np.int64)
    out = np.empty((space.slots, len(r)), dtype=np.int64)
    lo = 0
    for g, k in enumerate(space.sizes):
        n = comb(space.base + k - 1, k)
        r, part = (None, r) if g == len(space.sizes) - 1 else divmod(r, n)
        for i in range(k - 1, -1, -1):
            b = np.searchsorted(binom[i], part, side="right") - 1
            part = part - binom[i].take(b)
            out[lo + i] = b - i
        lo += k
    return out


def multinomial_weights(space: SlotSpace, digits: np.ndarray) -> np.ndarray:
    """Reference weights: the product over groups of k! / prod(run length!)
    of columns sorted within each group."""
    numerator, denominator = 1, np.ones(digits.shape[1], dtype=np.int64)
    lo = 0
    for k in space.sizes:
        numerator *= factorial(k)
        run = 1
        for i in range(lo + 1, lo + k):
            run = np.where(digits[i] == digits[i - 1], run + 1, 1)
            denominator *= run
        lo += k
    return numerator / denominator


def _assert_builds_like_greedy(space: SlotSpace, start: int, stop: int):
    digits, weights = space.build(start, stop)
    want = greedy_digits(space, np.arange(start, stop))
    np.testing.assert_array_equal(digits, want)
    np.testing.assert_array_equal(weights, multinomial_weights(space, want))
    assert digits.dtype == (np.uint8 if space.base + max(space.sizes, default=0)
                            - 1 <= 255 else np.uint16)


BUILT = [(base, sizes) for base in (1, 2, 3, 5)
         for sizes in [(), (1,), (4,), (1, 1, 1), (2, 3), (1, 0, 3), (3, 1),
                       (2, 1, 2)]]
BUILT += [(27, (1, 2)), (27, (3,)), (9, (1, 1, 2)),  # erasure bases 3^t
          (300, (2,)), (256, (1, 1)), (254, (2,)), (255, (2,))]  # uint16 edge


@pytest.mark.parametrize("base,sizes", BUILT)
def test_builder_matches_greedy_unrank(base, sizes):
    """Every rank, as one range and as ranges starting and ending inside a
    block; then the cavity splits of every group."""
    space = SlotSpace(base, sizes)
    _assert_builds_like_greedy(space, 0, space.size)
    for start, stop in [(1, space.size - 1), (space.size // 3, space.size // 2 + 1),
                        (space.size // 2, space.size)]:
        if start < stop:
            _assert_builds_like_greedy(SlotSpace(base, sizes), start, stop)
    for group in range(len(sizes)):
        if sizes[group]:
            _assert_builds_like_greedy(space.cavity(group)[0], 0,
                                       space.cavity(group)[0].size)


def test_builder_matches_greedy_unrank_d5_round6():
    """The d=5 round-6 decision space, C(68, 5) inputs, built chunk by chunk
    as the decision step builds it, on every 9973rd rank."""
    space = SlotSpace(64, [5])
    assert space.size == comb(68, 5) == 10_424_128
    for start in range(0, space.size, CHUNK):
        stop = min(start + CHUNK, space.size)
        digits, weights = space.build(start, stop)
        ranks = np.arange(-start % 9973 + start, stop, 9973)
        want = greedy_digits(space, ranks)
        np.testing.assert_array_equal(digits[:, ranks - start], want)
        np.testing.assert_array_equal(weights[ranks - start],
                                      multinomial_weights(space, want))
        np.testing.assert_array_equal(space.rank(digits[:, ranks - start]), ranks)


@pytest.mark.parametrize("n_codes,size", SMALL)
def test_multiset_space_matches_reference(n_codes, size):
    space = SlotSpace(n_codes, [size])
    want = dict(_multisets(n_codes, size))
    ranks = np.arange(space.size, dtype=np.int64)
    digits, weights = space.build(0, space.size)
    got = [tuple(int(c) for c in column) for column in digits.T]
    assert len(got) == space.size == len(want)
    assert set(got) == set(want)
    np.testing.assert_array_equal(space.rank(digits), ranks)
    assert [want[codes] for codes in got] == weights.tolist()


@pytest.mark.parametrize("n_codes,size", SMALL)
def test_singleton_groups_pack_ordered_tuples(n_codes, size):
    space = SlotSpace(n_codes, [1] * size)
    ranks = np.arange(space.size, dtype=np.int64)
    digits, weights = space.build(0, space.size)
    assert space.size == n_codes ** size
    for k, row in enumerate(digits):
        np.testing.assert_array_equal(row, ranks // n_codes ** k % n_codes)
    np.testing.assert_array_equal(space.rank(digits), ranks)
    np.testing.assert_array_equal(weights, 1)


@pytest.mark.parametrize("n_codes", [1, 2, 3, 4])
def test_mixed_grouping_matches_enumeration(n_codes):
    """Groups (1, 2, 2): each ordered tuple ranks as its group-sorted tuple,
    and each input weighs the ordered tuples that rank to it."""
    sizes = (1, 2, 2)
    space = SlotSpace(n_codes, sizes)
    ordered = np.array(list(itertools.product(range(n_codes), repeat=5)),
                       dtype=np.int64).reshape(-1, 5).T
    ranks = space.rank(ordered)
    grouped = np.concatenate([np.sort(ordered[0:1], axis=0),
                              np.sort(ordered[1:3], axis=0),
                              np.sort(ordered[3:5], axis=0)])
    np.testing.assert_array_equal(ranks, space.rank(grouped))
    inputs = np.arange(space.size, dtype=np.int64)
    digits, weights = space.build(0, space.size)
    np.testing.assert_array_equal(space.rank(digits), inputs)
    np.testing.assert_array_equal(digits[:, ranks], grouped)
    np.testing.assert_array_equal(weights, np.bincount(ranks,
                                                       minlength=space.size))
    assert weights.sum() == n_codes ** 5
    # A cavity step's inputs: the observer split off each group in turn.
    for group in range(len(sizes)):
        observed, order = space.cavity(group)
        cells, counts = observed.build(0, observed.size)
        table = np.array([cells[k] for k in order])
        np.testing.assert_array_equal(space.rank(cells, order),
                                      space.rank(table))
        lo = sum(sizes[:group])
        np.testing.assert_array_equal(table[lo], cells[0])
        assert counts.sum() == n_codes ** 5


@pytest.mark.parametrize("n_codes,size", [(3, 3), (4, 4), (5, 2)])
def test_multiset_rank_sorts_and_expand_agrees(n_codes, size):
    """Every ordered tuple ranks as its sorted tuple, and the dense reader
    takes each dense column from the column of its sorted tuple, in any
    slot order; a one-row (mirrored) table's row 1 from its complement."""
    space = SlotSpace(n_codes, [size])
    dense = SlotSpace(n_codes, [1] * size)
    ordered = dense.build(0, dense.size)[0]
    ranks = space.rank(ordered)
    np.testing.assert_array_equal(ranks, space.rank(np.sort(ordered, axis=0)))
    table = np.arange(2 * space.size, dtype=np.int32).reshape(2, -1)
    top = 2 * space.size - 1
    np.testing.assert_array_equal(
        StoredTable(table, space, top, 2, None).dense(), table[:, ranks])
    np.testing.assert_array_equal(
        StoredTable(table[:1], space, top, 2, None).dense(),
        [table[0, ranks], top - table[0, space.rank(n_codes - 1 - ordered)]])
    mixed = SlotSpace(n_codes, [1, size - 1])
    table = np.arange(2 * mixed.size, dtype=np.int32).reshape(2, -1)
    order = list(range(size))[::-1]
    np.testing.assert_array_equal(
        StoredTable(table, mixed, top, 2, None).dense(order),
        table[:, mixed.rank(ordered[order])])


def _singletons_vs_one_group(engine, degree, rounds, monkeypatch):
    """Run each step of ``engine`` again with every slot its own group on
    its own slot tables, on the full path (every row computed), and compare
    with the one-group step, whose dense table derives a mirrored row."""
    model, rule, channel = engine.model, engine.rule, engine.channel
    monkeypatch.setattr(core, "_flip_symmetric", lambda *a, **k: False)

    def dense(t):
        """The round-t table of ``degree``, expanded to one group per slot."""
        return dataclasses.replace(
            engine.g[t][engine.degrees.index(degree)],
            codes=engine.dense_decisions(degree, t),
            space=SlotSpace(channel.size ** t, [1] * degree))

    for t in range(rounds):
        slots = [(channel.fold(engine.q[t][0], t), True, 1)] * degree
        g_dense, _ = decision_step_general(dense(t), t, slots, model, rule,
                                           channel)
        assert np.array_equal(g_dense.codes,
                              engine.dense_decisions(degree, t + 1)), t
        want = engine.error_probability(t + 1, degree=degree)
        got = error_from_sums(model, g_dense.sums)[0]
        assert got == pytest.approx(want, rel=1e-14, abs=0), t
        if t == 0:
            continue
        q_dense = cavity_step_general(
            dense(t), t, 0,
            [(channel.fold(engine.q[t - 1][0], t - 1), True, 1)] * degree,
            model, rule,
            channel)[0]
        q_multi = cavity_step_general(
            engine.g[t][engine.degrees.index(degree)], t, 0,
            [(channel.fold(engine.q[t - 1][0], t - 1), True, degree)],
            model, rule,
            channel)[0]
        np.testing.assert_allclose(q_multi, q_dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("variant,d,rounds", [("bayesian", 5, 4),
                                              ("bayesian", 3, 6),
                                              ("majority", 3, 6)])
def test_steps_agree_across_spaces(model15, variant, d, rounds, monkeypatch):
    engine = RegularTreeEngine(model15, d, UpdateRule(variant=variant))
    engine.run(rounds)
    _singletons_vs_one_group(engine, d, rounds, monkeypatch)


def test_steps_agree_across_spaces_erasure(model15, bayes, monkeypatch):
    engine = ActiveEdgeEngine(model15, 3, bayes, p=0.5)
    engine.run(3)
    _singletons_vs_one_group(engine, 3, 3, monkeypatch)


def test_steps_agree_across_spaces_mixture(model15, bayes, monkeypatch):
    rho_v = DegreeDistribution((3, 5), np.array([0.5, 0.5]))
    engine = ConfigModelEngine(model15, rho_v, bayes)
    engine.run(3)
    for d in rho_v.support:
        _singletons_vs_one_group(engine, d, 3, monkeypatch)


def test_multiset_budget_admits_d5_round6(model15, bayes, monkeypatch):
    """Dense d=5 round 6 needs 1.07e9 table inputs, over the budget; as
    multisets it needs 1.04e7, so the preflight lets the first step start."""
    class StepStarted(Exception):
        pass

    def started(*args, **kwargs):
        raise StepStarted

    for name in ("cavity_step_general", "decision_step_general"):
        monkeypatch.setattr(engine_module, name, started)
    with pytest.raises(StepStarted):
        RegularTreeEngine(model15, 5, bayes).run(6)


def test_posterior_reads_any_slot_order(model15, bayes):
    engine = RegularTreeEngine(model15, 3, bayes)
    engine.run(2)
    checked = 0
    for observed in itertools.combinations_with_replacement(range(4), 3):
        try:
            want = engine.posterior(1, observed, 2)
        except ModelError:  # an infeasible input
            continue
        checked += 1
        for perm in itertools.permutations(observed):
            np.testing.assert_allclose(engine.posterior(1, perm, 2), want,
                                       rtol=1e-14)
    assert checked > 0
