import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitree.bounds import (
    BoundSequence,
    binomial_tail,
    chernoff_envelope,
    conjecture_check,
    directed_bound_sequence,
    doubling_slope,
    noise_threshold,
    pascal_tail,
    undirected_bound_sequence,
)
from cavitree.model import ModelError


@given(st.integers(1, 20), st.integers(0, 21), st.floats(0.0, 1.0))
def test_binomial_tail_matches_pascal(n, k0, q):
    assert binomial_tail(n, k0, q) == pytest.approx(pascal_tail(n, k0, q),
                                                    abs=1e-14)


def test_undirected_recursion_values():
    seq = undirected_bound_sequence(5, 0.15, 4)
    # direct evaluation: 1 - P(Bin(4,.15) <= 1)
    expected = 1 - (0.85 ** 4 + 4 * 0.15 * 0.85 ** 3)
    assert seq.values[1] == pytest.approx(expected, abs=1e-15)
    assert seq.values[1] == pytest.approx(0.109519, abs=5e-7)


def test_absorbing_at_zero():
    assert undirected_bound_sequence(5, 0.0, 3).values == (0.0,) * 4
    assert directed_bound_sequence(5, 0.0, 3).values == (0.0,) * 4


def test_directed_recursion_values():
    seq = directed_bound_sequence(5, 0.1, 1)
    expected = (math.comb(5, 3) * 0.1 ** 3 * 0.9 ** 2
                + math.comb(5, 4) * 0.1 ** 4 * 0.9 + 0.1 ** 5)
    assert seq.values[1] == pytest.approx(expected, abs=1e-15)
    assert seq.values[1] == pytest.approx(0.00856, abs=5e-6)


def test_directed_no_contraction_at_fair_noise():
    seq = directed_bound_sequence(4, 0.5, 1)
    assert seq.values[1] == pytest.approx(11 / 16, abs=1e-15)
    long = directed_bound_sequence(4, 0.5, 6)
    assert all(v >= 0.5 for v in long.values)


def test_threshold_rounding():
    # d=5: "at least d/2 - 1 = 1.5" means at least 2 of 4.
    assert undirected_bound_sequence(5, 0.5, 1).values[1] == pytest.approx(
        binomial_tail(4, 2, 0.5), abs=1e-15)
    # d=6: the cutoff 2 is already an integer.
    assert undirected_bound_sequence(6, 0.5, 1).values[1] == pytest.approx(
        binomial_tail(5, 2, 0.5), abs=1e-15)


def test_noise_threshold_value():
    assert noise_threshold(5) == pytest.approx((8 * math.e / 3) ** -3, abs=1e-12)
    assert noise_threshold(5) == pytest.approx(2.63e-3, rel=5e-3)
    with pytest.raises(ModelError):
        noise_threshold(4)


def test_envelope_contracts_below_threshold():
    d = 5
    delta0 = noise_threshold(d) / 10
    env = chernoff_envelope(d, delta0, 10)
    logs = -np.log(env.values)
    rate = (d - 2) / 2
    # a doubly exponential floor with fitted positive constant ...
    c = min(logs[t] / rate ** t for t in range(11))
    assert c > 0
    assert all(logs[t] >= c * rate ** t - 1e-12 for t in range(11))
    # ... whose growth ratio climbs monotonically toward the advertised rate
    ratios = [logs[t + 1] / logs[t] for t in range(10)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 1.4 < ratios[-1] < rate
    assert all(env.values[t + 1] < env.values[t] for t in range(10))


def test_envelope_dominates_exact_tail():
    for delta in (0.01, 0.001):
        env_step = (2 * math.e * delta * 4 / 3) ** 1.5
        exact_step = binomial_tail(4, 2, delta)
        assert env_step >= exact_step


def test_undirected_strictly_decreasing_below_threshold():
    for d in (5, 7):
        delta0 = 0.9 * noise_threshold(d)
        seq = undirected_bound_sequence(d, delta0, 6)
        for t in range(1, 6):
            assert seq.values[t + 1] < seq.values[t]


def test_doubling_slope_exact_double_exponential():
    p = [math.exp(-2 ** t) for t in range(6)]
    diag = doubling_slope(p)
    np.testing.assert_allclose(diag["slopes"], math.log(2), rtol=1e-12)
    assert diag["doubly_exponential_consistent"]


def test_doubling_slope_flat_tail_fails_flag():
    diag = doubling_slope([3.4e-3, 3.4e-3])
    assert diag["slopes"][0] == pytest.approx(0.0, abs=1e-15)
    assert not diag["doubly_exponential_consistent"]


def test_doubling_slope_rejects_boundary():
    with pytest.raises(ModelError):
        doubling_slope([0.5, 0.0])
    with pytest.raises(ModelError):
        doubling_slope([1.0, 0.5])


@pytest.mark.parametrize("n,k0,message", [
    (2.5, 1, "n must be an int >= 0"), (True, 1, "n must be an int >= 0"),
    (5, 1.5, "k0 must be an int"), (-1, 0, "n must be an int >= 0")],
    ids=["2.5-1", "True-1", "5-1.5", "-1-0"])
def test_binomial_tail_refuses_counts_that_are_not_ints(n, k0, message):
    """2.5 used to leak a TypeError from math.comb, and True was read as 1."""
    with pytest.raises(ModelError, match=message):
        binomial_tail(n, k0, 0.3)


@pytest.mark.parametrize("fn,d", [(undirected_bound_sequence, 5.0),
                                  (directed_bound_sequence, True),
                                  (chernoff_envelope, "5")])
def test_sequences_refuse_a_degree_that_is_not_an_int(fn, d):
    """directed_bound_sequence(True, ...) used to answer as d = 1."""
    with pytest.raises(ModelError, match="d must be an int"):
        fn(d, 0.15, 2)


@pytest.mark.parametrize("fn,rounds", [(undirected_bound_sequence, 2.5),
                                       (directed_bound_sequence, True),
                                       (chernoff_envelope, -1)])
def test_sequences_refuse_rounds_that_are_not_an_int_from_zero(fn, rounds):
    """2.5 used to leak a TypeError from range(), and -1 answered with
    delta0 alone."""
    with pytest.raises(ModelError, match="rounds must be an int >= 0"):
        fn(5, 0.15, rounds)


def test_noise_threshold_refuses_a_degree_that_is_not_an_int():
    with pytest.raises(ModelError, match="d must be an int"):
        noise_threshold(5.5)


def test_doubling_slope_rejects_nan():
    """NaN passed both boundary tests and gave NaN slopes."""
    with pytest.raises(ModelError, match="strictly inside"):
        doubling_slope([0.1, math.nan])


def test_conjecture_check_weak_inequality():
    report = conjecture_check([0.1, 0.01], [0.1, 0.01])
    assert report["holds"] and not report["violations"]
    report = conjecture_check([0.1, 0.02], [0.1, 0.01])
    assert not report["holds"]
    assert report["violations"][0]["round"] == 1
    with pytest.raises(ModelError):
        conjecture_check([0.1], [0.1, 0.2])


def test_bound_sequence_validation():
    with pytest.raises(ModelError):
        BoundSequence(d=5, delta0=0.2, values=(0.1, 0.05), variant="directed")
    with pytest.raises(ModelError):
        BoundSequence(d=5, delta0=1.5, values=(1.5,), variant="directed")


def test_undirected_dominates_exact_majority(model15, majority, assert_rel):
    """At even d the exact errors come from the engine's tie-coin rows."""
    from cavitree.cavity import RegularTreeEngine

    for d in (4, 5):
        engine = RegularTreeEngine(model15, d, majority)
        engine.run(4)
        bound = undirected_bound_sequence(d, 0.15, 4)
        for t in range(5):
            assert engine.error_probability(t) <= bound.values[t] + 1e-15, (d, t)


@pytest.mark.parametrize("bound, d, message", [
    (undirected_bound_sequence, 2, "d >= 3"),
    (directed_bound_sequence, 0, "d >= 1"),
    (chernoff_envelope, 4, "d >= 5")])
def test_bounds_refuse_degrees_below_their_range(bound, d, message):
    with pytest.raises(ModelError, match=message):
        bound(d, 0.15, 2)
