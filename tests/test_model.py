import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitree.model import (
    ModelError,
    SignalModel,
    TieBreak,
    TieBreakRule,
    UpdateRule,
    UtilityTable,
    majority_kernel,
    map_decision,
    model_from_json,
    round_digit,
    signal_posterior,
)

OWN = TieBreakRule(variant=TieBreak.OWN_SIGNAL)
IDENT2 = UtilityTable.identity(2)


# -- trajectories -----------------------------------------------------------

@pytest.mark.parametrize("alph", [2, 3])
def test_round_trip_exhaustive_horizon_12(alph):
    # round_digit reads the positional encoding back (round 0 is the least
    # significant digit): exhaustive for every horizon <= 12.
    for t in range(13):
        codes = np.arange(alph ** (t + 1), dtype=np.int64)
        digits = [round_digit(codes, r, alph) for r in range(t + 1)]
        assert all(np.all((dig >= 0) & (dig < alph)) for dig in digits)
        rebuilt = sum(dig * alph ** r for r, dig in enumerate(digits))
        assert np.array_equal(rebuilt, codes)
    assert [round_digit(5, r, 2) for r in range(3)] == [1, 0, 1]


def test_prefix_matches_first_entries():
    # The horizon-h prefix of a packed trajectory is its code modulo
    # alph ** (h + 1), the truncation every decision table relies on.
    for alph in (2, 3):
        for t in range(1, 6):
            codes = np.arange(alph ** (t + 1), dtype=np.int64)
            for h in range(t + 1):
                prefix = codes % alph ** (h + 1)
                for r in range(h + 1):
                    assert np.array_equal(round_digit(prefix, r, alph),
                                          round_digit(codes, r, alph))
                assert not np.any(round_digit(prefix, h + 1, alph))


# -- signal model -----------------------------------------------------------

def test_prior_must_normalize():
    with pytest.raises(ModelError):
        SignalModel(prior=np.array([0.6, 0.6]),
                    likelihood=np.array([[0.9, 0.1], [0.2, 0.8]]))


@pytest.mark.parametrize("prior,likelihood", [
    ([np.nan, 0.5], [[0.9, 0.1], [0.2, 0.8]]),
    ([0.5, 0.5], [[np.nan, 0.5], [0.5, 0.5]]),
    ([np.inf, 0.5], [[0.9, 0.1], [0.2, 0.8]]),
    ([0.5, 0.5], [[0.9, 0.1], [np.inf, -np.inf]]),
], ids=["nan-prior", "nan-likelihood", "inf-prior", "inf-likelihood"])
def test_non_finite_probabilities_refused(prior, likelihood):
    """NaN passes every ``< 0`` and ``> tol`` test, so it is refused by
    name, as is an infinity."""
    with pytest.raises(ModelError, match="finite"):
        SignalModel(prior=np.array(prior), likelihood=np.array(likelihood))


def test_signal_posterior_takes_an_int_signal(model15):
    np.testing.assert_array_equal(signal_posterior(model15, np.int64(1)),
                                  signal_posterior(model15, 1))
    for x in (True, 1.0, 0.5, "1"):
        with pytest.raises(ModelError):
            signal_posterior(model15, x)


def test_informative_rows_required():
    with pytest.raises(ModelError):
        SignalModel(prior=np.array([0.5, 0.5]),
                    likelihood=np.array([[0.7, 0.3], [0.7, 0.3]]))


@pytest.mark.parametrize("prior, likelihood, message", [
    ([0.5, 0.5], [0.85, 0.15], "n_states, n_signals"),
    ([[0.5, 0.5]], [[0.85, 0.15], [0.15, 0.85]], "prior must be"),
    ([0.5, 0.5], [[0.85, 0.15, 0.0]], "n_states, n_signals"),
    ([0.5, 0.5], [[0.85, 0.25], [0.15, 0.85]], "likelihood row"),
    ([0.5, 0.5], [[1.1, -0.1], [0.15, 0.85]], "likelihood row")],
    ids=["flat-likelihood", "2d-prior", "rows-not-states", "row-sum",
         "negative-entry"])
def test_malformed_model_refused(prior, likelihood, message):
    with pytest.raises(ModelError, match=message):
        SignalModel(prior=np.array(prior), likelihood=np.array(likelihood))


@pytest.mark.parametrize("values, message", [
    ([1.0, 0.0], "2-d"), ([[1.0, 0.0], [0.0, np.nan]], "finite"),
    ([[1.0, np.inf], [0.0, 1.0]], "finite")])
def test_malformed_utility_refused(values, message):
    with pytest.raises(ModelError, match=message):
        UtilityTable(np.array(values))


def test_signal_posterior_symmetric_noise(model15):
    np.testing.assert_allclose(signal_posterior(model15, 0), [0.85, 0.15])


def test_signal_posterior_noiseless():
    model = SignalModel(prior=np.array([0.5, 0.5]), likelihood=np.eye(2))
    np.testing.assert_allclose(signal_posterior(model, 0), [1.0, 0.0])


def test_signal_posterior_skewed_prior():
    # Direct Bayes evaluation: (0.9 * 0.15, 0.1 * 0.85) normalized.
    model = SignalModel.binary_symmetric(0.15, prior=(0.9, 0.1))
    expected = np.array([0.9 * 0.15, 0.1 * 0.85])
    expected /= expected.sum()
    got = signal_posterior(model, 1)
    np.testing.assert_allclose(got, expected, rtol=1e-15)
    np.testing.assert_allclose(got, [0.6136, 0.3864], atol=5e-5)


def test_signal_posterior_zero_normalizer():
    model = SignalModel(prior=np.array([1.0, 0.0]),
                        likelihood=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ModelError):
        signal_posterior(model, 1)


@given(st.floats(0.01, 0.49))
def test_flip_symmetry_of_posterior(noise):
    model = SignalModel.binary_symmetric(noise)
    for x in (0, 1):
        a = signal_posterior(model, x)
        b = signal_posterior(model, 1 - x)[::-1]
        np.testing.assert_allclose(a, b, rtol=1e-14)


# -- decisions --------------------------------------------------------------

def test_strict_argmax():
    assert map_decision(np.array([0.7, 0.3]), IDENT2, OWN, own_signal=1) == 0


def test_own_signal_tie():
    assert map_decision(np.array([0.5, 0.5]), IDENT2, OWN, own_signal=1) == 1
    assert map_decision(np.array([0.5, 0.5]), IDENT2, OWN, own_signal=0) == 0


def test_uniform_tie_kernel(uniform_ties):
    kern = map_decision(np.array([0.5, 0.5]), IDENT2, uniform_ties, own_signal=0)
    assert kern == {0: 0.5, 1: 0.5}


def test_lowest_index_tie():
    rule = TieBreakRule(variant=TieBreak.LOWEST_INDEX)
    assert map_decision(np.array([0.5, 0.5]), IDENT2, rule) == 0


def test_concentrated_posterior_returns_state():
    for n in (2, 3, 5):
        ident = UtilityTable.identity(n)
        for k in range(n):
            post = np.zeros(n)
            post[k] = 1.0
            assert map_decision(post, ident, OWN, own_signal=0) == k


def test_empty_action_set():
    with pytest.raises(ModelError):
        map_decision(np.array([1.0]), UtilityTable(np.zeros((0, 1))), OWN, 0)


def test_decision_refuses_a_posterior_that_does_not_sum_to_1():
    with pytest.raises(ModelError, match="sum to 1"):
        map_decision(np.array([0.5, 0.6]), IDENT2, OWN, 0)


def test_own_signal_tie_needs_the_signal():
    with pytest.raises(ModelError, match="requires the agent's signal"):
        map_decision(np.array([0.5, 0.5]), IDENT2, OWN)
    assert map_decision(np.array([0.5, 0.5]), IDENT2, OWN, 1) == 1


def test_own_signal_needs_correspondence():
    rule = TieBreakRule(variant=TieBreak.OWN_SIGNAL)
    with pytest.raises(ModelError):
        rule.action_for_signal(5, n_actions=2)


def test_general_payoff_decision():
    # Non-identity payoff: action 1 is safe, action 0 pays only in state 0.
    util = UtilityTable(np.array([[1.0, 0.0], [0.6, 0.6]]))
    assert map_decision(np.array([0.5, 0.5]), util, OWN, 0) == 1
    assert map_decision(np.array([0.9, 0.1]), util, OWN, 0) == 0


# -- rules and kernels ------------------------------------------------------

def test_majority_kernel_examples():
    assert majority_kernel([1, 1, 0]) == {1: 1.0}
    assert majority_kernel([1, 0]) == {0: 0.5, 1: 0.5}
    assert majority_kernel([0, 0, 0, 0, 0]) == {0: 1.0}
    with pytest.raises(ModelError):
        majority_kernel([])


def test_update_rule_validation():
    with pytest.raises(ModelError):
        UpdateRule(variant="mystery")
    assert UpdateRule(variant="majority").deterministic_for_degree(3)
    assert not UpdateRule(variant="majority").deterministic_for_degree(2)


# -- JSON -------------------------------------------------------------------

def test_model_json_round_trip(model15):
    doc = {"states": 2, "signals": 2, "prior": [0.6, 0.4],
           "likelihood": [[0.85, 0.15], [0.15, 0.85]],
           "tie_break": "lowest_index"}
    model, tie = model_from_json(doc)
    np.testing.assert_array_equal(model.prior, [0.6, 0.4])
    np.testing.assert_array_equal(model.likelihood, model15.likelihood)
    assert tie.variant is TieBreak.LOWEST_INDEX


def test_model_json_noise_shorthand():
    model, tie = model_from_json({"noise": 0.2, "tie_break": "uniform"})
    np.testing.assert_allclose(model.likelihood, [[0.8, 0.2], [0.2, 0.8]])
    assert tie.variant is TieBreak.UNIFORM_RANDOM


def test_model_json_bad_tie():
    with pytest.raises(ModelError):
        model_from_json({"noise": 0.2, "tie_break": "coin"})


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"prior": [0.5, 0.5]},
    {"prior": [0.5, 0.5], "likelihood": [[0.9, 0.1], [0.2]]},
    {"noise": [0.1]},
    {"noise": 0.1, "tie_break": ["uniform"]},
    {"prior": [0.5, 0.5], "likelihood": [[0.9, 0.1], [0.2, 0.8]],
     "states": None},
])
def test_model_json_malformed(doc):
    with pytest.raises(ModelError):
        model_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ({"noise": 0.2, "tie": "uniform"}, "unknown model field 'tie'"),
    ({"noise": 0.1, "likelihood": [[0.6, 0.4], [0.3, 0.7]]},
     "noise or likelihood, not both"),
    ({"noise": 0.1, "states": 3}, "declared state count"),
    ({"noise": 0.1, "signals": 3}, "declared signal count"),
], ids=["tie-typo", "noise-and-likelihood", "noise-states", "noise-signals"])
def test_model_json_refuses_fields_it_does_not_read(doc, message):
    """Every field is read or refused, in both forms: an unknown key, a
    likelihood beside a noise level, or a count the model does not have."""
    with pytest.raises(ModelError, match=message):
        model_from_json(doc)


@pytest.mark.parametrize("doc", [
    {"noise": "0.1"},
    {"noise": False},
    {"noise": 0.1, "prior": ["0.5", "0.5"]},
    {"prior": [True, False], "likelihood": [[0.9, 0.1], [0.2, 0.8]]},
    {"prior": [0.5, 0.5], "likelihood": [[1, False], [0.2, 0.8]]},
    {"prior": [0.5, 0.5], "likelihood": [[0.9, "0.1"], [0.2, 0.8]]},
], ids=["string-noise", "bool-noise", "string-prior", "bool-prior",
        "bool-likelihood", "string-likelihood"])
def test_model_json_refuses_non_numbers(doc):
    """Probabilities are JSON numbers: a string is not parsed into one and
    a bool is not read as 1.0 or 0.0."""
    with pytest.raises(ModelError, match="JSON number"):
        model_from_json(doc)


@pytest.mark.parametrize("key, value", [
    ("states", 2.9), ("states", 2.0), ("states", "2"), ("signals", True),
])
def test_model_json_refuses_non_integer_counts(key, value):
    """A declared count is a JSON integer: 2.9 is not read as 2."""
    doc = {"prior": [0.5, 0.5], "likelihood": [[0.9, 0.1], [0.2, 0.8]],
           key: value}
    with pytest.raises(ModelError, match="JSON integer"):
        model_from_json(doc)
