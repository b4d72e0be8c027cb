"""Domain types for the learning process.

States, signals and actions are dense integer indices.  A trajectory (one
agent's vote sequence) is packed into a single base-``|A|`` integer with the
round-0 vote as the least significant digit, so tables indexed by
trajectories are plain dense arrays.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TIE_TOL = 1e-12  # absolute tolerance on expected-utility differences
PROB_TOL = 1e-12  # tolerance for probability-vector validation


class ModelError(ValueError):
    """Invalid model configuration or argument."""


def is_index(value, n: int) -> bool:
    """Whether ``value`` is an int in 0..n-1: a NumPy integer counts, a bool
    or a float does not."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and 0 <= value < n)


@dataclass(frozen=True)
class SignalModel:
    """Prior over world states plus the conditional signal law P(x|s).

    ``prior`` has one entry per state; ``likelihood[s, x]`` is the
    probability of observing signal ``x`` when the state is ``s``.  Signals
    of distinct agents are i.i.d. given the state.
    """

    prior: np.ndarray
    likelihood: np.ndarray

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        lik = np.asarray(self.likelihood, dtype=float)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "likelihood", lik)
        if prior.ndim != 1 or lik.ndim != 2 or lik.shape[0] != prior.shape[0]:
            raise ModelError("prior must be (n_states,), likelihood (n_states, n_signals)")
        if not (np.all(np.isfinite(prior)) and np.all(np.isfinite(lik))):
            raise ModelError("prior and likelihood must be finite")
        if np.any(prior < 0) or abs(prior.sum() - 1.0) > PROB_TOL:
            raise ModelError("prior must be nonnegative and sum to 1")
        if np.any(lik < 0) or np.any(np.abs(lik.sum(axis=1) - 1.0) > PROB_TOL):
            raise ModelError("each likelihood row must be nonnegative and sum to 1")
        for s in range(lik.shape[0]):
            for s2 in range(s + 1, lik.shape[0]):
                if np.all(np.abs(lik[s] - lik[s2]) <= PROB_TOL):
                    raise ModelError(f"signal is uninformative: states {s} and {s2} "
                                     "have identical signal distributions")

    @property
    def n_states(self) -> int:
        return self.prior.shape[0]

    @property
    def n_signals(self) -> int:
        return self.likelihood.shape[1]

    def state_weights(self, condition_state: int | None) -> list[tuple]:
        """The (state, weight) pairs an error sums over: each state at its
        prior, or ``condition_state``, an int in 0..n_states - 1, at 1."""
        if condition_state is None:
            return [(s, self.prior[s]) for s in range(self.n_states)]
        if not is_index(condition_state, self.n_states):
            raise ModelError(f"condition_state {condition_state!r} is not a "
                             f"state in 0..{self.n_states - 1}")
        return [(condition_state, 1.0)]

    @classmethod
    def binary_symmetric(cls, noise: float, prior: Sequence[float] | None = None) -> "SignalModel":
        """Two states, two signals, P(x != s) = noise."""
        if not 0.0 <= noise < 0.5:
            raise ModelError(f"binary symmetric noise must be in [0, 0.5), got {noise}")
        if prior is None:
            prior = (0.5, 0.5)
        lik = np.array([[1.0 - noise, noise], [noise, 1.0 - noise]])
        return cls(prior=np.asarray(prior, dtype=float), likelihood=lik)

    def config_hash(self) -> str:
        payload = json.dumps(
            {"prior": self.prior.tolist(), "likelihood": self.likelihood.tolist()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def signal_posterior(model: SignalModel, x: int) -> np.ndarray:
    """Posterior over states after observing a single private signal.

    Returns the vector proportional to prior(s) * P(x|s), normalized.
    """
    if not is_index(x, model.n_signals):
        raise ModelError(f"signal index {x!r} out of range")
    weights = model.prior * model.likelihood[:, x]
    total = weights.sum()
    if total <= 0.0:
        raise ModelError(f"signal {x} has probability zero under every state")
    return weights / total


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def round_digit(code, t: int, alphabet_size: int):
    """Round-t vote extracted from packed code(s)."""
    return (code // alphabet_size ** t) % alphabet_size


# ---------------------------------------------------------------------------
# Utilities, tie-breaking and decisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtilityTable:
    """u(a, s): payoff of action a in state s.  Default is identity payoff."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ModelError("utility table must be 2-d (actions x states)")
        if not np.all(np.isfinite(vals)):
            raise ModelError("utility values must be finite")

    @property
    def n_actions(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, n: int) -> "UtilityTable":
        return cls(values=np.eye(n))


class TieBreak(enum.Enum):
    OWN_SIGNAL = "own_signal"
    LOWEST_INDEX = "lowest_index"
    UNIFORM_RANDOM = "uniform"


@dataclass(frozen=True)
class TieBreakRule:
    """How exact expected-utility ties are resolved.

    OWN_SIGNAL needs a signal -> action correspondence; identity is assumed
    when the alphabets have equal size and none is given.
    """

    variant: TieBreak = TieBreak.OWN_SIGNAL
    signal_to_action: tuple[int, ...] | None = None

    def action_for_signal(self, x: int, n_actions: int) -> int:
        if self.signal_to_action is not None:
            return self.signal_to_action[x]
        if x >= n_actions:
            raise ModelError("OwnSignal tie-break without a signal->action correspondence")
        return x


def map_decision(
    posterior: np.ndarray,
    utility: UtilityTable,
    tiebreak: TieBreakRule,
    own_signal: int | None = None,
):
    """Myopically optimal action for a posterior over states.

    Returns ``argmax_a sum_s u(a,s) posterior(s)``; with identity payoff this
    is the MAP state.  Expected utilities within TIE_TOL of the maximum are
    treated as exactly tied and resolved by the tie-break rule.  Deterministic
    rules return an action index; the uniform-random rule returns a kernel
    ``{action: probability}`` over the tied set.
    """
    posterior = np.asarray(posterior, dtype=float)
    if utility.n_actions == 0:
        raise ModelError("empty action set")
    if abs(posterior.sum() - 1.0) > 1e-9:
        raise ModelError("posterior does not sum to 1")
    eu = utility.values @ posterior
    tied = [int(a) for a in np.flatnonzero(eu >= eu.max() - TIE_TOL)]
    if len(tied) == 1 or tiebreak.variant is TieBreak.LOWEST_INDEX:
        return tied[0]
    if tiebreak.variant is TieBreak.OWN_SIGNAL:
        if own_signal is None:
            raise ModelError("OwnSignal tie-break requires the agent's signal")
        choice = tiebreak.action_for_signal(own_signal, utility.n_actions)
        return choice if choice in tied else tied[0]
    return {a: 1.0 / len(tied) for a in tied}


# ---------------------------------------------------------------------------
# Update rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateRule:
    """How an agent turns its information into the next vote.

    ``bayesian`` computes the posterior and maximizes expected utility;
    ``majority`` adopts the majority of the neighbors' previous votes with a
    fair coin on ties.
    """

    variant: str = "bayesian"
    tie_break: TieBreakRule = TieBreakRule()
    utility: UtilityTable | None = None

    def __post_init__(self):
        if self.variant not in ("bayesian", "majority"):
            raise ModelError(f"unknown update rule {self.variant!r}")

    def deterministic_for_degree(self, degree: int) -> bool:
        """Whether the rule is a deterministic function for this many neighbors."""
        if self.variant == "bayesian":
            return self.tie_break.variant is not TieBreak.UNIFORM_RANDOM
        return degree % 2 == 1

    def check_degrees(self, degrees) -> None:
        """Refuse majority dynamics for agents with no neighbor to follow,
        given every agent's degree."""
        if self.variant == "majority" and 0 in degrees:
            raise ModelError("majority dynamics needs at least one neighbor "
                             "per node")


def action_count(model: SignalModel, rule: UpdateRule) -> int:
    """The number of actions: the Bayesian utility's, else one per state."""
    if rule.variant == "bayesian" and rule.utility is not None:
        return rule.utility.n_actions
    return model.n_states


def round0_kernel(model: SignalModel, rule: "UpdateRule",
                  n_actions: int) -> list[list[tuple[int, float]]]:
    """Per-signal kernel over the round-0 vote, as [(action, prob), ...]."""
    out = []
    for x in range(model.n_signals):
        if rule.variant == "bayesian":
            utility = rule.utility or UtilityTable.identity(model.n_states)
            dec = map_decision(signal_posterior(model, x), utility,
                               rule.tie_break, own_signal=x)
            out.append([(dec, 1.0)] if isinstance(dec, int) else sorted(dec.items()))
        else:
            out.append([(rule.tie_break.action_for_signal(x, n_actions), 1.0)])
    return out


def majority_kernel(votes: Sequence[int]) -> dict[int, float]:
    """Majority of binary votes; a zero margin yields the fair-coin kernel."""
    if len(votes) == 0:
        raise ModelError("majority update needs at least one neighbor vote")
    ones = sum(1 for v in votes if v == 1)
    margin = 2 * ones - len(votes)
    if margin > 0:
        return {1: 1.0}
    if margin < 0:
        return {0: 1.0}
    return {0: 0.5, 1: 0.5}


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _json_number(value, what: str):
    """``value``, a JSON number or nested lists of them, as floats; a
    string or bool is refused, not parsed."""
    if isinstance(value, list):
        return [_json_number(item, what) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{what} must be a JSON number, not {value!r}")
    return float(value)


def model_from_json(doc: dict) -> tuple[SignalModel, TieBreakRule]:
    """Read a model configuration document.

    Either a full specification (states/signals/prior/likelihood) or the
    shorthand {"noise": delta} for the binary symmetric model, with an
    optional prior; every probability a JSON number.  A document of the
    wrong shape, or with a field it does not read, raises ``ModelError``.
    """
    if not isinstance(doc, dict):
        raise ModelError("a model document is a JSON object")
    unknown = set(doc) - {"noise", "prior", "likelihood", "states",
                          "signals", "tie_break"}
    if unknown:
        raise ModelError(f"unknown model field {min(unknown)!r}")
    if "noise" in doc and "likelihood" in doc:
        raise ModelError("a model document gives noise or likelihood, not both")
    tie_name = doc.get("tie_break", "own_signal")
    if tie_name not in [tie.value for tie in TieBreak]:
        raise ModelError(f"unknown tie_break {tie_name!r}")
    tie = TieBreakRule(variant=TieBreak(tie_name))
    try:
        prior = None
        if "prior" in doc or "noise" not in doc:
            prior = np.asarray(_json_number(doc["prior"], "a prior entry"))
        if "noise" in doc:
            model = SignalModel.binary_symmetric(
                _json_number(doc["noise"], "noise"), prior=prior)
        else:
            model = SignalModel(prior=prior, likelihood=np.asarray(
                _json_number(doc["likelihood"], "a likelihood entry")))
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"model document missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    for key, count, noun, source in (
            ("states", model.n_states, "state", "the prior length"),
            ("signals", model.n_signals, "signal", "the likelihood width")):
        declared = doc.get(key, count)
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise ModelError(f"declared {noun} count must be a JSON integer, "
                             f"not {declared!r}")
        if declared != count:
            raise ModelError(f"declared {noun} count does not match {source}")
    return model, tie
