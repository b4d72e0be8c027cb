"""Shared numerics for the cavity recursion and the decision tables.

A node of degree ``deg`` indexes its neighbors by *slots* in canonical order.
A decision table at horizon t is an integer array ``g[r, J]`` over the
``deg`` observed trajectories (horizon t-1, codes < n_obs**t); the value is
the node's own packed action trajectory through round t (code
< n_a**(t+1)).  Row r stands for the private signal r % n_signals and, for
each round whose rule is stochastic, one tie coin: a tie coin is one more
private, state-independent input.  A stochastic round has
``coin_values(n_a)`` coin values, so u % n_tied is uniform over any tied
set; it multiplies the rows, appending its coin as the high row digit.
Every row weighs n_signals / rows, so a deterministic rule keeps one row
per signal, of weight 1.  An *index space* says how J ranks a tuple of slot
codes.  The dense space packs every ordered tuple, slot k contributing
``code_k * (n_obs**t)**k``; it serves slots that carry different tables.
The multiset space ranks sorted tuples only and weights each by the number
of ordered tuples it stands for; it serves exchangeable slots.  The
observed alphabet has ``n_obs`` letters per round: the n_a actions, plus a
star on the erasure channel of ``active.py``.  Cavity tables are arrays
``Q[sigma, tau, s]`` with the conditioning axis one horizon shorter than the
trajectory axis (a round-t vote cannot depend on the observer's round-t
action).  The slot tables the steps read are indexed ``[sigma, a, s]`` by
the node's own action trajectory a; on the all-active channel they are the
cavity tables themselves.

Big sums accumulate in extended precision with per-bucket compensated
segment reduction; every (tau, s) slice is renormalized after a step and the
pre-renormalization drift is reported.  The error sum has no loop of its
own: the decision step that builds a table also sums its cavity product per
(state, signal), and engines weight those sums on request.
"""

from __future__ import annotations

import logging
from math import comb, factorial, lcm

import numpy as np

from ..model import SignalModel, TieBreak, UpdateRule, UtilityTable, TIE_TOL
from ..trees import BudgetError

logger = logging.getLogger(__name__)

CHUNK = 1 << 20
DRIFT_WARN = 1e-9
COUPLING_TOL = 1e-9
MEMORY_BUDGET = 4 << 30  # bytes of table workspace allowed per step


def _sorted_segments(keys: np.ndarray):
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    return order, ks[starts], starts


def _segment_add(acc: np.ndarray, order, uniq, starts, weights: np.ndarray):
    """acc[uniq] += segment sums of weights (accumulated in long double)."""
    ws = weights[order].astype(np.longdouble)
    acc[uniq] += np.add.reduceat(ws, starts)


def check_budget(need: int, budget: int = MEMORY_BUDGET):
    """Refuse a step that needs ``need`` bytes of table workspace."""
    if need > budget:
        raise BudgetError(
            f"table workspace of {need / 2 ** 30:.2f} GiB is over the "
            f"{budget / 2 ** 30:.2f} GiB budget")


# ---------------------------------------------------------------------------
# Index spaces
# ---------------------------------------------------------------------------

class DenseSpace:
    """Every ordered tuple of ``slots`` codes below ``base``, ranked
    sum_k code_k * base**k, each of weight 1."""

    def __init__(self, base: int, slots: int):
        self.base, self.slots = base, slots
        self.size = self.count(base, slots)

    @staticmethod
    def count(base: int, slots: int) -> int:
        return base ** slots

    def digits(self, r: np.ndarray) -> np.ndarray:
        """The (slots, len(r)) codes of the inputs of ranks ``r``."""
        out = np.empty((self.slots, len(r)), dtype=np.int64)
        for k in range(self.slots):
            out[k] = (r // self.base ** k) % self.base
        return out

    def rank(self, digits: np.ndarray) -> np.ndarray:
        j = np.zeros(digits.shape[1], dtype=np.int64)
        for k, code in enumerate(digits):
            j += code * self.base ** k
        return j

    def weights(self, digits: np.ndarray) -> None:
        return None

    def cavity(self, tau_pos: int | None) -> "DenseSpace":
        """The inputs a cavity step sums over: every table input."""
        return self


class MultisetSpace:
    """Sorted tuples c_0 <= ... <= c_{slots-1} of codes below ``base``: one
    input per multiset of exchangeable slots.

    The rank of a multiset is sum_k C(c_k + k, k + 1), the combinatorial
    number system of the combination {c_k + k} (Knuth, TAOCP 7.2.1.3), and
    its weight is the multinomial count of the ordered tuples it stands for.
    """

    def __init__(self, base: int, slots: int):
        self.base, self.slots = base, slots
        self.size = self.count(base, slots)
        # _binom[k, b] = C(b, k + 1) for every b = c_k + k.
        self._binom = np.array([[comb(b, k + 1) for b in range(base + slots - 1)]
                                for k in range(slots)], dtype=np.int64)

    @staticmethod
    def count(base: int, slots: int) -> int:
        return comb(base + slots - 1, slots)

    def digits(self, r: np.ndarray) -> np.ndarray:
        """Unrank greedily, top slot first: the largest C(b, k + 1) <= r."""
        r = np.array(r, dtype=np.int64)
        out = np.empty((self.slots, len(r)), dtype=np.int64)
        for k in range(self.slots - 1, -1, -1):
            b = np.searchsorted(self._binom[k], r, side="right") - 1
            r -= self._binom[k].take(b)
            out[k] = b - k
        return out

    def rank(self, digits: np.ndarray) -> np.ndarray:
        """Rank of each column of ``digits``, which need not be sorted."""
        j = np.zeros(digits.shape[1], dtype=np.int64)
        for k, code in enumerate(_sorted_rows(digits)):
            j += self._binom[k].take(code + k)
        return j

    def weights(self, digits: np.ndarray) -> np.ndarray | None:
        """Multinomial counts slots! / prod(run length!) of sorted columns."""
        if self.slots < 2:
            return None
        run = np.ones(digits.shape[1], dtype=np.int64)
        denominator = np.ones_like(run)
        for k in range(1, self.slots):
            run = np.where(digits[k] == digits[k - 1], run + 1, 1)
            denominator *= run
        return factorial(self.slots) / denominator

    def cavity(self, tau_pos: int | None):
        """The inputs a cavity step sums over: the observer's code in slot 0
        and a multiset of the other slots."""
        if tau_pos != 0:
            raise ValueError("a multiset table keeps its observer in slot 0")
        return _ObservedMultisets(self.base, MultisetSpace(self.base, self.slots - 1))

    def expand(self, table: np.ndarray) -> np.ndarray:
        """The dense table: column J holds the column of sort(J)."""
        dense = DenseSpace(self.base, self.slots)
        out = np.empty((table.shape[0], dense.size), dtype=table.dtype)
        for start in range(0, dense.size, CHUNK):
            r = np.arange(start, min(start + CHUNK, dense.size), dtype=np.int64)
            out[:, start:start + len(r)] = table[:, self.rank(dense.digits(r))]
        return out


class _ObservedMultisets:
    """An observer's code times a multiset of the other slots: rank r holds
    the code r % base and the multiset of rank r // base."""

    def __init__(self, base: int, others: MultisetSpace):
        self.base, self.others = base, others
        self.size = base * others.size

    def digits(self, r: np.ndarray) -> np.ndarray:
        out = np.empty((1 + self.others.slots, len(r)), dtype=np.int64)
        out[0] = r % self.base
        out[1:] = self.others.digits(r // self.base)
        return out

    def weights(self, digits: np.ndarray) -> np.ndarray | None:
        return self.others.weights(digits[1:])


def _sorted_rows(digits: np.ndarray) -> list[np.ndarray]:
    """The rows of ``digits`` sorted within each column (insertion network)."""
    rows = list(digits)
    for i in range(1, len(rows)):
        for k in range(i, 0, -1):
            low = np.minimum(rows[k - 1], rows[k])
            rows[k] = np.maximum(rows[k - 1], rows[k])
            rows[k - 1] = low
    return rows


def cavity_step_bytes(t: int, deg: int, n_obs: int, n_states: int,
                      observer: bool = True, index=DenseSpace) -> int:
    """Bytes of a horizon-t cavity step: 8 per summed term, plus a
    long-double accumulator and a float64 copy per returned entry."""
    m = n_obs ** t
    terms = m * index.count(m, deg - 1) if observer else index.count(m, deg)
    n_out = n_obs ** (t + 1) * (m if observer else 1) * n_states
    return 8 * terms + (np.dtype(np.longdouble).itemsize + 8) * n_out


def decision_step_bytes(t: int, deg: int, n_obs: int, rows: int,
                        index=DenseSpace) -> int:
    """Bytes of the horizon-(t+1) decision table of ``rows`` rows and its
    workspace."""
    return 8 * index.count(n_obs ** (t + 1), deg) * (rows + 2)


def coin_values(n_actions: int) -> int:
    """Coin values of a stochastic round: lcm(1..n_actions), so that
    u % n_tied is uniform over a tied set of any size."""
    return lcm(*range(1, n_actions + 1))


def all_active(out: np.ndarray, tau: np.ndarray, t: int):
    """The all-active channel: an observer sees the action codes, weight 1."""
    return [(out, 1.0)]


# ---------------------------------------------------------------------------
# Round 0
# ---------------------------------------------------------------------------

def round0_table(model: SignalModel, rule: UpdateRule, n_actions: int) -> np.ndarray:
    """g^0: the round-0 vote per row, shape (rows, 1).  A tie at some signal
    adds coin rows: row r's coin r // n_signals picks among the tied votes."""
    from ..model import round0_kernel

    kernels = round0_kernel(model, rule, n_actions)
    coins = 1 if all(len(k) == 1 for k in kernels) else coin_values(n_actions)
    n_x = model.n_signals
    out = np.empty((n_x * coins, 1), dtype=np.int32)
    for r in range(len(out)):
        kern = kernels[r % n_x]
        out[r, 0] = kern[r // n_x % len(kern)][0]
    return out


def initial_cavity(model: SignalModel, g0: np.ndarray, n_actions: int,
                   n_obs: int | None = None, emit=all_active) -> np.ndarray:
    """Q^0[sigma, 0, s] = P(round-0 observation = sigma | s)."""
    q = np.zeros((n_obs or n_actions, 1, model.n_states))
    n_x = model.n_signals
    share = n_x / len(g0)
    for r in range(len(g0)):
        vote = g0[r, :1].astype(np.int64)
        for codes, weight in emit(vote, np.zeros_like(vote), 0):
            q[codes[0], 0, :] += weight * model.likelihood[:, r % n_x] * share
    return q


# ---------------------------------------------------------------------------
# Cavity step
# ---------------------------------------------------------------------------

def cavity_step_general(
    g_flat: np.ndarray,
    t: int,
    deg: int,
    tau_pos: int | None,
    child_qs: list[tuple[np.ndarray, bool]],
    model: SignalModel,
    n_actions: int,
    n_obs: int | None = None,
    emit=all_active,
    index=DenseSpace,
) -> tuple[np.ndarray, float, int]:
    """One application of the cavity recursion for a node of degree ``deg``.

    ``g_flat`` is the node's horizon-t decision table over the ``index``
    space; slot ``tau_pos`` holds the observer's fixed (zombie) trajectory
    and the remaining slots carry child messages ``child_qs`` at horizon
    t-1.  On a multiset table the observer sits in slot 0, the children
    are summed as multisets weighted by their counts, and g is read at the
    rank of sort(tau, children).  ``emit(out, tau, t)`` maps
    the node's action codes through round t, as seen by an observer whose
    trajectory is ``tau``, to (observed code, weight) pairs.  Each row of g
    adds its signal's likelihood times its weight.  Returns the
    horizon-t table Q[sigma, tau, s] (renormalized per (tau, s) slice), the
    maximum pre-renormalization drift |column sum - 1|, and the number of
    summed terms.
    """
    n_s, n_x = model.likelihood.shape
    share = n_x / len(g_flat)
    n_obs = n_obs or n_actions
    m = n_obs ** t
    n_out = n_obs ** (t + 1)
    n_tau = m if tau_pos is not None else 1
    cond_mod = max(n_actions ** (t - 1), 1)
    check_budget(cavity_step_bytes(t, deg, n_obs, n_s, tau_pos is not None,
                                   index))
    table = index(m, deg)
    inputs = table.cavity(tau_pos)

    acc = [np.zeros(n_out * n_tau, dtype=np.longdouble) for _ in range(n_s)]
    colsum = [np.zeros(n_tau, dtype=np.longdouble) for _ in range(n_s)]
    ops = 0
    slots = [k for k in range(deg) if k != tau_pos]
    for start in range(0, inputs.size, CHUNK):
        r = np.arange(start, min(start + CHUNK, inputs.size), dtype=np.int64)
        digits = inputs.digits(r)
        j = table.rank(digits)
        count = inputs.weights(digits)
        tau_digit = digits[tau_pos] if tau_pos is not None else np.zeros_like(j)
        tau_seg = _sorted_segments(tau_digit) if n_tau > 1 else None
        for r, row in enumerate(g_flat):
            out_codes = row[j].astype(np.int64)
            cond = out_codes % cond_mod
            segs = [(_sorted_segments(codes * n_tau + tau_digit), weight)
                    for codes, weight in emit(out_codes, tau_digit, t)]
            for s in range(n_s):
                w = np.full(len(j), model.likelihood[s, r % n_x] * share)
                for k, (q_prev, has_cond) in zip(slots, child_qs):
                    w = w * q_prev[digits[k], cond if has_cond else 0, s]
                if count is not None:
                    w *= count
                for seg, weight in segs:
                    _segment_add(acc[s], *seg, w * weight)
                if tau_seg is None:
                    colsum[s][0] += np.sum(w.astype(np.longdouble))
                else:
                    _segment_add(colsum[s], *tau_seg, w)
                ops += len(j)
    q = np.empty((n_out, n_tau, n_s))
    drift = 0.0
    for s in range(n_s):
        col = colsum[s]
        drift = max(drift, float(np.max(np.abs(col - 1.0))))
        safe = np.where(col > 0, col, 1.0)
        q[:, :, s] = (acc[s].reshape(n_out, n_tau) / safe).astype(np.float64)
    if drift > DRIFT_WARN:
        logger.warning("cavity step at t=%d: normalization drift %.3e "
                       "(renormalized)", t, drift)
    return q, drift, ops


# ---------------------------------------------------------------------------
# Decision step
# ---------------------------------------------------------------------------

def _bayesian_actions(post: np.ndarray, x: int, rule: UpdateRule,
                      utility: UtilityTable, coins: int) -> list[np.ndarray]:
    """Vectorized argmax with tolerance ties: the actions for each coin
    value u, where a uniform tie takes the (u % n_tied)-th tied action."""
    # einsum's own loop, not BLAS: for so few states a BLAS call costs more
    # than it saves and, unpinned, spreads over every core.
    eu = np.einsum("as,sb->ab", utility.values, post)  # (n_actions, batch)
    top = eu.max(axis=0)
    tied = eu >= top - TIE_TOL
    first = np.argmax(tied, axis=0)
    variant = rule.tie_break.variant
    if variant is TieBreak.LOWEST_INDEX:
        return [first]
    n_tied = tied.sum(axis=0)
    if variant is TieBreak.UNIFORM_RANDOM:
        rank = np.cumsum(tied, axis=0)  # 1 for the first tied action
        return [np.argmax(tied & (rank == u % n_tied + 1), axis=0)
                for u in range(coins)]
    choice = rule.tie_break.action_for_signal(x, utility.n_actions)
    use_own = (n_tied > 1) & tied[choice]
    return [np.where(use_own, choice, first)]


def _multiply_slots(products: list[np.ndarray], digits, flats, own_cond):
    """Multiply row s of each array in ``products`` by Q_k[c_k, own, s],
    slot by slot; each slot weight is gathered once for all of them."""
    for digit, (flat, n_cond, has_cond) in zip(digits, flats):
        idx = digit * n_cond + own_cond if has_cond else digit * n_cond
        for s, row in enumerate(flat):
            w = row.take(idx)
            for p in products:
                np.multiply(p[s], w, out=p[s])


def decision_step_general(
    g_prev: np.ndarray,
    t: int,
    deg: int,
    slot_qs: list[tuple[np.ndarray, bool]],
    model: SignalModel,
    rule: UpdateRule,
    n_actions: int,
    n_obs: int | None = None,
    index=DenseSpace,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Extend the decision table to horizon t+1 from slot tables at horizon t.

    Inputs are the ``deg`` observed trajectories at horizon t, ranked in
    the ``index`` space; the output appends the round-(t+1) vote to the
    agent's horizon-t trajectory, which is itself looked up from ``g_prev``
    on the truncated inputs (re-ranked, since truncating a sorted tuple can
    unsort it).  A stochastic rule for this degree multiplies the rows by
    ``coin_values(n_actions)``: new row r extends row r % len(g_prev), and
    its coin u = r // len(g_prev) breaks a majority zero margin (vote u) or a
    uniform Bayesian tie.  Returns the table, the number of posterior
    terms, and the round-(t+1) error and coupling sums: long-double
    (n_states, n_signals) sums of the cavity product prod_k Q_k[c_k, own, s],
    each input weighted by the ordered tuples it stands for and each row by
    its weight, over the inputs whose new vote differs from s, and over all
    inputs (1 on consistent tables).
    """
    n_s, n_x = model.likelihood.shape
    coins = 1 if rule.deterministic_for_degree(deg) else coin_values(n_actions)
    rows_prev = len(g_prev)
    share = n_x / (rows_prev * coins)
    n_obs = n_obs or n_actions
    m = n_obs ** t
    check_budget(decision_step_bytes(t, deg, n_obs, rows_prev * coins, index))
    space, prev = index(n_obs ** (t + 1), deg), index(m, deg)
    total = space.size
    utility = rule.utility or UtilityTable.identity(model.n_states)
    bayesian = rule.variant != "majority"
    # Each slot table as contiguous (n_states, codes * conditions) rows.
    flats = [(np.ascontiguousarray(np.moveaxis(q_t, 2, 0)).reshape(n_s, -1),
              q_t.shape[1], has_cond) for q_t, has_cond in slot_qs]
    g_next = np.empty((rows_prev * coins, total), dtype=np.int32)
    err_acc = np.zeros((n_s, n_x), dtype=np.longdouble)
    mass_acc = np.zeros((n_s, n_x), dtype=np.longdouble)
    ops = 0
    for start in range(0, total, CHUNK):
        digits = space.digits(np.arange(start, min(start + CHUNK, total),
                                        dtype=np.int64))
        count = space.weights(digits)
        j_prev = prev.rank(digits % m)
        cols = slice(start, start + digits.shape[1])
        pure = np.empty((n_s, digits.shape[1]))
        if not bayesian:
            # Round-t votes of the slots (binary), summed into a margin.
            margin = 2 * (digits // m).sum(axis=0) - deg
            majority = [np.where(margin == 0, u, margin > 0)
                        for u in range(coins)]
        for r, row in enumerate(g_prev):
            x = r % n_x
            own = row[j_prev].astype(np.int64)
            own_cond = own % n_actions ** t
            # The cavity product, alone and after prior * likelihood.
            pure[:] = 1.0
            if bayesian:
                like = np.empty_like(pure)
                like[:] = (model.prior * model.likelihood[:, x])[:, None]
            _multiply_slots([pure, like] if bayesian else [pure], digits, flats,
                            own_cond)
            if bayesian:
                total_mass = like.sum(axis=0)
                # In place; where the mass is 0 every row is already 0.
                np.divide(like, total_mass, out=like, where=total_mass > 0)
                del total_mass
                actions = _bayesian_actions(like, x, rule, utility, coins)
                del like
                ops += pure.size
            else:
                actions = majority
            for u, action in enumerate(actions):
                g_next[r + rows_prev * u, cols] = own + action * n_actions ** (t + 1)
            if count is not None:
                pure *= count
            for s in range(n_s):
                wl = pure[s].astype(np.longdouble)
                mass = np.sum(wl)
                for action in actions:
                    mass_acc[s, x] += mass * share
                    err_acc[s, x] += np.sum(wl[action != s]) * share
    return g_next, ops, err_acc, mass_acc


# ---------------------------------------------------------------------------
# Posterior and error probability
# ---------------------------------------------------------------------------

def posterior_general(
    x: int,
    observed: tuple[int, ...],
    g_prev: np.ndarray,
    t: int,
    slot_qs: list[tuple[np.ndarray, bool]],
    model: SignalModel,
    n_actions: int,
    n_obs: int | None = None,
    index=DenseSpace,
) -> np.ndarray:
    """P(s | x, neighbor trajectories through t-1) via the cavity factorization.

    ``observed`` holds one horizon-(t-1) code per slot; ``slot_qs`` the
    horizon-(t-1) slot tables.  The agent's own trajectory is derived from
    the decision table, over the ``index`` space, on the truncated
    observation; ``ModelError`` if the rows of signal x (its coin outcomes)
    disagree on it.
    """
    from ..model import ModelError, signal_posterior

    if t == 0:
        return signal_posterior(model, x)
    m_prev = (n_obs or n_actions) ** (t - 1)
    truncated = np.array(observed, dtype=np.int64).reshape(-1, 1) % m_prev
    j = index(m_prev, len(observed)).rank(truncated)[0]
    owns = g_prev[x::model.n_signals, j]
    if np.any(owns != owns[0]):
        raise ModelError("own trajectory is not derivable under a stochastic "
                         "rule; condition on it explicitly")
    own = int(owns[0])
    own_cond = own % n_actions ** (t - 1)
    weights = model.prior * model.likelihood[:, x]
    for k, (q, has_cond) in enumerate(slot_qs):
        weights = weights * q[observed[k], own_cond if has_cond else 0, :]
    total = weights.sum()
    if total <= 0.0:
        raise ModelError("observation has probability zero under every state "
                         "(inconsistent tables or infeasible input)")
    return weights / total


def round0_sums(model: SignalModel, g0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The round-0 error and coupling sums: no neighbors, a product of 1."""
    n_s, n_x = model.likelihood.shape
    states = np.arange(n_s)[:, None]
    miss = (g0[:, 0][None, :] != states).astype(np.longdouble)
    err = miss.reshape(n_s, -1, n_x).sum(axis=1) * (n_x / len(g0))
    return err, np.ones_like(err)


def error_from_sums(model: SignalModel, sums: tuple[np.ndarray, np.ndarray],
                    condition_state: int | None = None) -> tuple[float, float]:
    """P(vote != state) from a table's error and coupling sums, plus the
    worst |coupling mass - 1|, which callers check against COUPLING_TOL."""
    err_acc, mass_acc = sums
    states = range(model.n_states) if condition_state is None else [condition_state]
    err = 0.0
    for s in states:
        weight = model.prior[s] if condition_state is None else 1.0
        for x in range(model.n_signals):
            err += weight * model.likelihood[s, x] * float(err_acc[s, x])
    return err, float(np.max(np.abs(mass_acc - 1.0)))
