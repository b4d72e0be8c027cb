"""Analytic convergence machinery for majority dynamics on regular trees.

Binomial-tail recursions for the directed and undirected cases, the Chernoff
envelope with its noise threshold, and the log(-log) slope diagnostic used
to read doubly exponential decay off an error sequence.  Tails are computed
by direct summation of exact binomial coefficients; thresholds of the form
"at least d/2 - 1 successes" act on integers, so half-integer cutoffs round
up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelError, check_int, is_int


@dataclass(frozen=True)
class BoundSequence:
    d: int
    delta0: float
    values: tuple[float, ...]
    variant: str

    def __post_init__(self):
        if any(v < 0 or v > 1 for v in self.values):
            raise ModelError("bound values must be probabilities")
        if self.values and self.values[0] != self.delta0:
            raise ModelError("sequence must start at delta0")


def _check_tail(n: int, k0: int, q: float) -> None:
    """Refuse a tail P(Binomial(n, q) >= k0) whose n is not an int >= 0,
    whose k0 is not an int or whose q is not a probability."""
    check_int("n", n, 0)
    if not is_int(k0):
        raise ModelError(f"k0 must be an int, not {k0!r}")
    if not 0.0 <= q <= 1.0:
        raise ModelError(f"q must be a probability, not {q!r}")


def binomial_tail(n: int, k0: int, q: float) -> float:
    """P(Binomial(n, q) >= k0) by direct summation of exact coefficients."""
    _check_tail(n, k0, q)
    if k0 <= 0:
        return 1.0
    if k0 > n:
        return 0.0
    total = 0.0
    try:
        for k in range(k0, n + 1):
            total += math.comb(n, k) * q ** k * (1.0 - q) ** (n - k)
    except OverflowError:
        raise ModelError(f"binomial coefficients of n={n} exceed the float "
                         f"range") from None
    return min(total, 1.0)


def _check_degree(d: int, least: int, message: str) -> None:
    """Refuse a degree that is not an int >= 0, or one below ``least`` with
    ``message``."""
    check_int("d", d, 0)
    if d < least:
        raise ModelError(message)


def _ceil_threshold(value: float) -> int:
    return math.ceil(value - 1e-12)


def _sequence(d: int, delta0: float, rounds: int, step,
              variant: str) -> BoundSequence:
    """delta0 and ``rounds`` iterates of delta_{t+1} = step(delta_t)."""
    if not 0.0 <= delta0 <= 1.0:
        raise ModelError("delta0 must be a probability")
    check_int("rounds", rounds, 0)
    vals = [delta0]
    for _ in range(rounds):
        vals.append(step(vals[-1]))
    return BoundSequence(d=d, delta0=delta0, values=tuple(vals), variant=variant)


def undirected_bound_sequence(d: int, delta0: float, rounds: int) -> BoundSequence:
    """delta_t = P(Binomial(d-1, delta_{t-1}) >= d/2 - 1), from Lemma-style
    conditioning on a pair of adjacent trajectories; an upper bound on the
    exact majority error at every round."""
    _check_degree(d, 3, "undirected recursion needs d >= 3")
    k0 = _ceil_threshold(d / 2 - 1)
    return _sequence(d, delta0, rounds, lambda p: binomial_tail(d - 1, k0, p),
                     "undirected")


def directed_bound_sequence(d: int, delta0: float, rounds: int) -> BoundSequence:
    """delta_t = P(Binomial(d, delta_{t-1}) >= d/2) on the directed d-ary tree."""
    _check_degree(d, 1, "directed recursion needs d >= 1")
    k0 = _ceil_threshold(d / 2)
    return _sequence(d, delta0, rounds, lambda p: binomial_tail(d, k0, p),
                     "directed")


def chernoff_envelope(d: int, delta0: float, rounds: int) -> BoundSequence:
    """Iterate delta_{t+1} = (2e delta_t (d-1)/(d-2))^((d-2)/2) as an equality."""
    _check_degree(d, 5, "the Chernoff envelope is stated for d >= 5")
    coeff = 2.0 * math.e * (d - 1) / (d - 2)
    expo = (d - 2) / 2.0
    return _sequence(d, delta0, rounds,
                     lambda p: min(1.0, (coeff * p) ** expo),
                     "chernoff-envelope")


def noise_threshold(d: int) -> float:
    """Initial noise below which the envelope contracts:
    (2e(d-1)/(d-2))^(-(d-2)/(d-4)); defined for d > 4."""
    _check_degree(d, 5, "noise threshold formula requires d > 4")
    return (2.0 * math.e * (d - 1) / (d - 2)) ** (-(d - 2) / (d - 4))


def doubling_slope(errors: Sequence[float]) -> dict:
    """Per-step slopes of log(-log p_t) plus a doubly-exponential flag.

    The flag checks that every slope after the first is positive; a flat
    stretch (as in saturated majority sequences) clears it.
    """
    p = np.asarray(errors, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ModelError("slopes need error probabilities strictly inside (0, 1)")
    loglog = np.log(-np.log(p))
    slopes = np.diff(loglog)
    consistent = bool(np.all(slopes[1:] > 0.0)) if len(slopes) > 1 else bool(
        np.all(slopes > 0.0))
    return {
        "loglog": loglog.tolist(),
        "slopes": slopes.tolist(),
        "doubly_exponential_consistent": consistent,
    }


def conjecture_check(bayes_errors: Sequence[float],
                     majority_errors: Sequence[float]) -> dict:
    """Round-by-round weak-inequality report: Bayesian <= majority.

    This is a conjecture check, not a theorem; violations are listed, not
    raised.  Relative gaps below 1e-9 are treated as ties of the exact
    arithmetic: the two rules provably coincide in some rounds and floating
    point may order the equal values either way.
    """
    if len(bayes_errors) != len(majority_errors):
        raise ModelError("sequences must cover the same rounds")
    per_round = [b <= m * (1.0 + 1e-9)
                 for b, m in zip(bayes_errors, majority_errors)]
    violations = [
        {"round": t, "bayesian": float(b), "majority": float(m)}
        for t, (b, m) in enumerate(zip(bayes_errors, majority_errors))
        if not per_round[t]
    ]
    return {
        "kind": "conjecture-check",
        "rounds": len(bayes_errors),
        "holds": not violations,
        "per_round": per_round,
        "violations": violations,
    }


def pascal_tail(n: int, k0: int, q: float) -> float:
    """Independent tail oracle: accumulate the PMF by Pascal recurrence."""
    _check_tail(n, k0, q)
    row = [1.0]
    for m in range(1, n + 1):
        nxt = [0.0] * (m + 1)
        for k, c in enumerate(row):
            nxt[k] += c * (1.0 - q)
            nxt[k + 1] += c * q
        row = nxt
    return float(sum(row[max(k0, 0):]))
