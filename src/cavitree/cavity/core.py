"""Shared numerics for the cavity recursion and the decision tables.

A node of degree ``deg`` indexes its neighbors by *slots*, in groups: the
slots of a group read the same message (edge class and conditioning), so
they are exchangeable.  A decision table at horizon t is a
``StoredTable``: an integer array ``codes[r, J]`` over the ``deg`` observed
trajectories (horizon t-1, codes < n_obs**t), with the index space of J,
its top code, its rows and its sums.  The value is the node's own packed
action trajectory through round t (code < n_a**(t+1)).  Row r stands for
the private signal r % n_signals and, for each round whose rule is
stochastic, one tie coin: a tie coin is one more private,
state-independent input.  A stochastic round has ``coin_values(n_a)`` coin
values, so u % n_tied is uniform over any tied set; it multiplies the rows,
appending its coin as the high row digit.  Every row weighs n_signals /
rows, so a deterministic rule keeps one row per signal, of weight 1.  The
index space ``SlotSpace`` ranks J as one multiset of codes per group, each
input weighted by the ordered tuples it stands for; the steps take their
slot messages as groups and build it.  The homogeneous engines have one
group; groups of one slot each pack every ordered tuple, slot k
contributing ``code_k * (n_obs**t)**k``.  Every step takes the engine's
observation ``channel``: its ``n_actions`` (n_a), its ``size`` (n_obs, the
observed letters per round: the n_a actions, plus a star on the erasure
channel of ``active.py``) and its ``emit``.  Cavity
tables are arrays ``Q[sigma, tau, s]`` with the conditioning axis one
horizon shorter than the trajectory axis (a round-t vote cannot depend on
the observer's round-t action); Q^0 is the cavity step of a node with no
slots.  The slot tables the steps read are indexed ``[sigma, a, s]`` by the
node's own action trajectory a; on the all-active channel they are the
cavity tables themselves.

Every cavity product prod_k Q_k[c_k, own, s] is multiplied in one place,
``_multiply_slots``, over each slot's message laid out by ``_slot_rows`` as
contiguous per-state rows.  The cavity step starts the product from the
row's likelihood times its weight, the decision step from 1, and
``posterior_general`` from prior times likelihood; the decision step's
Bayesian posterior is its product times prior times likelihood, normalized.
A change to the product (rescaling slot factors, bounding its rounding) goes
there.  Numerics only: no function here checks a table input or reads a
stored table at one; ``engine.CavityEngine._own_codes`` does both.

The steps enumerate a space in chunks of ``CHUNK`` consecutive ranks, each
built by ``SlotSpace.build`` from the colex block recursion: no rank is
unranked, and no space is held whole but the one-slot-smaller space its
blocks copy.  A chunk is cache-sized: each float64 row of its temporaries
(a state's product or posterior, the mass, a slot's gather) is 512 KiB,
small enough to stay in cache between the passes over it.  Digits are uint8
(uint16 past 255 codes), so what is computed from them widens first:
``_multiply_slots`` indexes in int64 (a narrow digit times the condition
count would wrap), the majority margin sums in int64, and a rank reads its
colex table with the digits as they are.  A chunk holds the same ranks
however it is built, so every product and every table entry is the same bit
for bit whatever ``CHUNK`` is.  The error, coupling and cavity sums group
per chunk (a pairwise sum within it, added to the running total), so
another ``CHUNK`` moves them within rounding only.

Every float is a float64.  Each cavity, error and coupling quantity is a
sum of n nonnegative terms, summed pairwise (``np.add.reduceat`` over terms
sorted by output key, ``np.sum`` per row), which keeps it within about
log2(n) ulps (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 4).  Each (tau, s) slice is divided by its own column sum in the
cavity step's one sum array, and the largest distance of a column sum from
1 is reported as the step's drift.  The error sum has no loop of its own:
the decision step that builds a table also sums its cavity product per
(state, signal) into the table's ``sums``, and engines weight those sums
on request.

The state flip ~ swaps the two states of a binary model and complements
every signal, vote and code.  On the paper's model (a uniform prior, a
binary symmetric signal, a symmetric utility and own-signal ties) the
tables commute with it: g[1, ~J] = ~g[0, J] and Q[~sigma, ~tau, 1 - s] =
Q[sigma, tau, s].  Where ``_flip_symmetric`` finds a step's model, channel
and rule exactly symmetric, one row per signal and every slot message its
own flip, both steps run their row loop over signal 0 only.  The decision
step then stores row 0 alone, a *mirrored* table of two rows, and mirrors
the error and coupling sums; the cavity step takes its column sums, then
adds the sum array and its column sums each to itself reversed on every
axis, so every Q it returns is its own flip bit for bit.  Any other step
runs every row: lowest-index or uniform-random ties, coin rows, the
erasure channel, an asymmetric prior, likelihood or utility, and more than
two states.  A lowest-index table with no tie equals the own-signal one,
and the steps still run it in full, so its sums keep their rounding.  One
reader, ``StoredTable.rows_at``, yields a table's rows as int64 codes, a
mirrored row 1 at J as ~(row 0 at ~J), to both steps, ``StoredTable.dense``
and ``engine``.

The predicate reads no table entry: every table commutes with ~ by
induction.  g^0 does once the rule check passes, its vote being the
signal-to-action map (majority) or a symmetric argmax (Bayesian).  A
mirrored table's row 1 is ~row 0 by definition.  A majority step forced
onto the full path by a coin-row neighbour's message decides by integer
margins, so its table still commutes with ~ exactly.  ``StoredTable.dense``
and the mixture's weighted sum of cavity tables keep tables symmetric.
``verify.invariant_suite`` checks, off the hot path, that the posteriors
reading a derived row are signal 0's flipped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import comb, lcm, prod

import numpy as np

from ..model import (ModelError, SignalModel, TieBreak, UpdateRule,
                     UtilityTable, TIE_TOL, round0_kernel)

logger = logging.getLogger(__name__)

CHUNK = 1 << 16
DRIFT_WARN = 1e-9
COUPLING_TOL = 1e-9


def _sorted_segments(keys: np.ndarray, n_keys: int):
    """Sort keys below ``n_keys`` in their narrowest dtype (NumPy radix
    sorts up to 16 bits), and find where each key's run starts."""
    keys = keys.astype(np.min_scalar_type(n_keys - 1))
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    return order, ks[starts], starts


def _segment_add(acc: np.ndarray, order, uniq, starts, weights: np.ndarray):
    """acc[uniq] += the pairwise sum of each key's run of weights."""
    acc[uniq] += np.add.reduceat(weights[order], starts)


# ---------------------------------------------------------------------------
# Index space
# ---------------------------------------------------------------------------

class SlotSpace:
    """Inputs of a table whose slots fall into groups of exchangeable slots:
    group g holds ``sizes[g]`` consecutive slots, each reading a code below
    ``base``, and an input is one multiset of codes per group.

    A group's sorted codes c_0 <= ... <= c_{k-1} rank as sum_i C(c_i + i,
    i + 1), the combinatorial number system of the combination {c_i + i}
    (Knuth, TAOCP 7.2.1.3), so a one-slot group ranks its code.  An input
    ranks in mixed radix over its groups' ranks, group 0 least significant,
    and weighs the ordered tuples it stands for: the product of its groups'
    multinomial counts.

    ``build`` enumerates a rank range by the colex block recursion, with no
    unranking.  Take the top slot, the last slot of the last group with
    slots: its group has k slots and the groups before it ``below`` inputs
    in all.  The inputs whose top code is c form one rank block, from
    C(c + k - 1, k) * below on, and their other slots run through the first
    C(c + k - 1, k - 1) * below inputs of the *lower* space, this one with
    the top slot removed; the last C(c + k - 2, k - 2) * below of those end
    in c as well (none if k = 1: block c is the whole lower space).  So a
    block copies a prefix of the lower space's digits and appends c, and its
    weight is the lower weight times k over the run length of c.  The lower
    space is built whole, once per space and by the same recursion; the
    space itself never is.  Digits and runs are the narrowest unsigned
    dtype holding base + top - 1, top the largest group: uint8 for every
    space of the paper's tables, else uint16 (or wider).
    """

    def __init__(self, base: int, sizes):
        self.base, self.sizes = base, tuple(sizes)
        self.slots = sum(self.sizes)
        self.size = self.count(base, self.sizes)
        # (first slot, size, number of multisets) per group.
        self._groups = [(sum(self.sizes[:g]), k, comb(base + k - 1, k))
                        for g, k in enumerate(self.sizes)]
        self.dtype = np.min_scalar_type(base + max(self.sizes, default=0) - 1)
        # The group of the top slot: the last group with slots.
        self._top = max((g for g, k in enumerate(self.sizes) if k), default=0)

    @cached_property
    def _colex(self) -> list[np.ndarray]:
        """_colex[i][c] = C(c + i, i + 1), slot i's share of a rank: row i
        is the running sum of row i - 1 (the hockey-stick identity)."""
        rows = [np.arange(self.base, dtype=np.int64)]
        for _ in range(1, max(self.sizes, default=0)):
            rows.append(np.cumsum(rows[-1]))
        return rows

    @staticmethod
    def count(base: int, sizes) -> int:
        return prod(comb(base + k - 1, k) for k in sizes)

    def build(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The (slots, stop - start) codes of the inputs of ranks [start,
        stop), sorted within each group, and their weights, as new arrays."""
        digits, weights, _ = self._build(start, stop)
        return digits, weights

    def _build(self, start: int, stop: int):
        """``build``, plus the run length of each input's top code."""
        n = stop - start
        digits = np.empty((self.slots, n), dtype=self.dtype)
        if self.slots <= 1:  # no slot, or one that ranks its code
            digits[:] = np.arange(start, stop)
            return digits, np.ones(n), np.ones(n, dtype=self.dtype)
        k = self.sizes[self._top]
        below = prod(n_g for *_, n_g in self._groups[:self._top])
        low_digits, low_weights, low_runs = self._lower
        # Per block c in the range: its lower inputs [lo, hi), of which those
        # from ``tail`` on end in c (none if the top group has one slot).
        blocks, first = [], 0
        for c in range(self.base):
            length = comb(c + k - 1, k - 1) * below
            if first + length > start:
                lo, hi = max(start - first, 0), min(stop - first, length)
                tail = length - (comb(c + k - 2, k - 2) * below if k > 1 else 0)
                blocks.append((c, lo, min(max(lo, tail), hi), hi))
                if first + length >= stop:
                    break
            first += length
        np.concatenate([low_digits[:, lo:hi] for _, lo, _, hi in blocks],
                       axis=1, out=digits[:-1])
        digits[-1] = np.repeat(np.array([c for c, *_ in blocks], self.dtype),
                               [hi - lo for _, lo, _, hi in blocks])
        one = np.ones(n, dtype=self.dtype)
        runs = np.concatenate([part for _, lo, tail, hi in blocks
                               for part in (one[:tail - lo],
                                            low_runs[tail:hi])])
        weights = np.concatenate([low_weights[lo:hi]
                                  for _, lo, _, hi in blocks])
        weights *= k
        weights /= runs
        return digits, weights, runs

    @cached_property
    def _lower(self):
        """Digits, weights and top runs plus one of every input of the lower
        space, this one without its top slot: an input whose top code
        repeats its lower input's top code has that run."""
        sizes = list(self.sizes)
        sizes[self._top] -= 1
        lower = SlotSpace(self.base, sizes)
        digits, weights, runs = lower._build(0, lower.size)
        return (digits.astype(self.dtype, copy=False), weights,
                np.add(runs, 1, dtype=self.dtype))

    def rank(self, digits: np.ndarray, order=None) -> np.ndarray:
        """Rank of each column of ``digits``, whose row order[p] holds slot
        p's codes (row p by default); a group's rows need not be sorted."""
        rows = list(digits) if order is None else [digits[k] for k in order]
        return self._rank_sorted(
            [row for lo, k, _ in self._groups
             for row in _sorted_rows(rows[lo:lo + k])], digits.shape[1])

    def _rank_sorted(self, rows: list[np.ndarray], n: int) -> np.ndarray:
        """Rank of ``n`` inputs whose slot rows are sorted within groups."""
        j = np.zeros(n, dtype=np.int64)
        for lo, k, size in reversed(self._groups):
            j *= size
            for i in range(k):
                j += self._colex[i].take(rows[lo + i])
        return j

    def cavity(self, group: int | None):
        """The inputs a cavity step sums over, and per slot of this space
        the row of their digits it reads: the observer's slot splits off
        ``group`` as a first group of its own (None: no observer)."""
        if group is None:
            return self, None
        lo = self._groups[group][0]
        sizes = [k - (g == group) for g, k in enumerate(self.sizes)]
        return (SlotSpace(self.base, [1] + sizes),
                [*range(1, lo + 1), 0, *range(lo + 1, self.slots)])


def _sorted_rows(digits) -> list[np.ndarray]:
    """The rows of ``digits`` sorted within each column (insertion network)."""
    rows = list(digits)
    for i in range(1, len(rows)):
        for k in range(i, 0, -1):
            low = np.minimum(rows[k - 1], rows[k])
            rows[k] = np.maximum(rows[k - 1], rows[k])
            rows[k - 1] = low
    return rows


def cavity_step_bytes(t: int, sizes, tau_group: int | None, n_obs: int,
                      n_states: int) -> int:
    """Bytes of a horizon-t cavity step over slot groups ``sizes``, the
    observer in group ``tau_group``: 8 per summed term, plus a float64
    accumulator and a float64 copy per returned entry."""
    m = n_obs ** t
    n_tau = 1 if tau_group is None else m
    terms = n_tau * SlotSpace.count(m, [k - (g == tau_group)
                                        for g, k in enumerate(sizes)])
    return 8 * terms + 16 * n_obs ** (t + 1) * n_tau * n_states


def decision_step_bytes(t: int, sizes, n_obs: int, rows: int) -> int:
    """Bytes of the horizon-(t+1) decision table over slot groups ``sizes``
    of ``rows`` rows and its workspace.  It counts every row, also row 1 of
    a mirrored table, which is not stored: an overestimate of such a step."""
    return 8 * SlotSpace.count(n_obs ** (t + 1), sizes) * (rows + 2)


@dataclass(frozen=True, eq=False)
class StoredTable:
    """One stored decision table at horizon t: ``codes[r, J]``, its stored
    rows over the inputs J of ``space``; ``top``, the largest code
    n_a**(t+1) - 1; the ``rows`` it stands for; and ``sums``, the error and
    coupling sums of the step that wrote it.  A flip-symmetric decision
    step stores row 0 alone and stands for two: a *mirrored* table."""

    codes: np.ndarray
    space: SlotSpace
    top: int
    rows: int
    sums: tuple[np.ndarray, np.ndarray]

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes

    def rows_at(self, digits: np.ndarray, order=None):
        """Each row the table stands for, in turn, as int64 codes at the
        inputs ``digits`` of its space (slot p reading row order[p]): one
        gather at a time, however many coin rows.  A mirrored table's row 1
        at input J is ~(row 0 at ~J), ~ complementing every code: ~c = top
        - c, in int64."""
        j = self.space.rank(digits, order)
        for row in self.codes:
            yield row[j].astype(np.int64)
        if self.rows > len(self.codes):
            flipped = self.space.rank(self.space.base - 1 - digits, order)
            yield np.subtract(self.top, self.codes[0, flipped], dtype=np.int64)

    def dense(self, order=None) -> np.ndarray:
        """``rows_at`` over the dense space of one slot per slot, chunk by
        chunk, in the codes' dtype: slot p of the table reads dense slot
        order[p] (slot p by default)."""
        dense = SlotSpace(self.space.base, [1] * self.space.slots)
        out = np.empty((self.rows, dense.size), self.codes.dtype)
        for start in range(0, dense.size, CHUNK):
            digits = dense.build(start, min(start + CHUNK, dense.size))[0]
            for r, row in enumerate(self.rows_at(digits, order)):
                out[r, start:start + len(row)] = row
        return out


def _slot_rows(groups, skip: int | None = None):
    """Each slot's message as contiguous (n_states, codes * conditions)
    rows, with its number of conditions and whether it conditions, group by
    group, with one slot fewer in group ``skip``."""
    out = []
    for g, (q, has_cond, size) in enumerate(groups):
        rows = np.ascontiguousarray(np.moveaxis(q, 2, 0)).reshape(q.shape[2], -1)
        out += [(rows, q.shape[1], has_cond)] * (size - (g == skip))
    return out


def _multiply_slots(product: np.ndarray, digits, slot_rows, own_cond):
    """Multiply row s of ``product`` by Q_k[c_k, own, s], slot by slot: the
    cavity product, where slot k reads codes ``digits[k]`` and a message
    that conditions reads the node's own trajectory ``own_cond``."""
    for digit, (rows, n_cond, has_cond) in zip(digits, slot_rows):
        # Widened first: a narrow digit times n_cond would wrap.
        idx = np.multiply(digit, n_cond, dtype=np.int64)
        if has_cond:
            idx += own_cond
        for s, row in enumerate(rows):
            np.multiply(product[s], row.take(idx), out=product[s])


def _low_digits(a: np.ndarray, m: int) -> np.ndarray:
    """a % m for an array of ints >= 0, computed as a - a // m * m in one
    new array: the same integers, since NumPy's % costs several times more
    than a floor division and a multiply, on narrow ints most of all."""
    low = a // m
    low *= m
    return np.subtract(a, low, out=low)


def coin_values(n_actions: int) -> int:
    """Coin values of a stochastic round: lcm(1..n_actions), so that
    u % n_tied is uniform over a tied set of any size."""
    return lcm(*range(1, n_actions + 1))


def _flip_symmetric(model: SignalModel, channel, rows: int, groups,
                    rule: UpdateRule) -> bool:
    """Whether a core step commutes with the state flip ~, so that it may
    compute signal 0 only and mirror signal 1: exactly two states, signals
    and actions on the all-active ``channel``, a uniform prior and a
    likelihood equal to its flip; a rule whose signal-to-action map commutes
    with ~, deterministic for the degree of ``groups`` unless there are no
    slots (round 0's cavity step, which adds no coin rows; majority refuses
    a node with no neighbours, so none of its decision steps has none), and
    majority, or Bayesian with a utility equal to its flip and own-signal
    ties; a table of ``rows`` == 2, one per signal; and every slot message
    Q of ``groups`` equal to its flip Q[~sigma, ~tau, 1 - s]."""
    tie = rule.tie_break
    if not (model.n_states == model.n_signals == channel.n_actions
            == channel.size == 2
            and rows == 2
            and (not groups or rule.deterministic_for_degree(
                sum(k for *_, k in groups)))
            and model.prior[0] == model.prior[1]
            and np.array_equal(model.likelihood, model.likelihood[::-1, ::-1])
            and tie.action_for_signal(1, 2) == 1 - tie.action_for_signal(0, 2)
            and all(np.array_equal(q, q[::-1, ::-1, ::-1])
                    for q, *_ in groups)):
        return False
    values = (rule.utility or UtilityTable.identity(2)).values
    return rule.variant == "majority" or (
        np.array_equal(values, values[::-1, ::-1])
        and tie.variant is TieBreak.OWN_SIGNAL)


# ---------------------------------------------------------------------------
# Round 0
# ---------------------------------------------------------------------------

def round0_table(model: SignalModel, rule: UpdateRule,
                 n_actions: int) -> StoredTable:
    """g^0: the round-0 vote per row over one input, with its error and
    coupling sums (no neighbours, a product of 1).  A tie at some signal
    adds coin rows: row r's coin r // n_signals picks among the tied votes."""
    kernels = round0_kernel(model, rule, n_actions)
    coins = 1 if all(len(k) == 1 for k in kernels) else coin_values(n_actions)
    n_s, n_x = model.likelihood.shape
    codes = np.empty((n_x * coins, 1), dtype=np.int32)
    for r in range(len(codes)):
        kern = kernels[r % n_x]
        codes[r, 0] = kern[r // n_x % len(kern)][0]
    miss = (codes[:, 0][None, :] != np.arange(n_s)[:, None]).astype(np.float64)
    err = miss.reshape(n_s, -1, n_x).sum(axis=1) * (n_x / len(codes))
    return StoredTable(codes, SlotSpace(1, []), n_actions - 1, len(codes),
                       (err, np.ones_like(err)))


# ---------------------------------------------------------------------------
# Cavity step
# ---------------------------------------------------------------------------

def cavity_step_general(
    g: StoredTable,
    t: int,
    tau_group: int | None,
    groups: list[tuple[np.ndarray, bool, int]],
    model: SignalModel,
    rule: UpdateRule,
    channel,
) -> tuple[np.ndarray, float, int]:
    """One application of the cavity recursion for a node.

    ``groups`` holds the node's slot groups as (horizon-(t-1) message,
    whether it conditions on the node's trajectory, number of slots), and
    ``g`` is the node's horizon-t decision table over their ``SlotSpace``;
    round 0's step has no slots and reads g^0, so Q^0 is the law of the
    round-0 vote.  One slot of group ``tau_group`` holds the
    observer's fixed (zombie) trajectory tau (None: the observer is not
    observed back); every other slot carries its group's message, summed as
    multisets per group weighted by their counts.  ``channel.emit(out, tau,
    t)`` maps the node's action codes through round t, as seen by an
    observer whose trajectory is ``tau``, to (observed code, weight) pairs
    of its ``channel.size``-letter alphabet.  Each row of g adds its
    signal's likelihood times its weight.  ``rule``, the rule that built
    ``g``, lets a flip-symmetric step sum signal 0 only.  Returns the
    horizon-t table Q[sigma, tau, s], each (tau, s) slice divided by its own
    column sum over sigma in the accumulated table, the maximum drift
    |column sum - 1|, and the number of summed terms.
    """
    n_s, n_x = model.likelihood.shape
    share = n_x / g.rows
    n_obs = channel.size
    m = n_obs ** t
    n_out = n_obs ** (t + 1)
    n_tau = m if tau_group is not None else 1
    cond_mod = max(channel.n_actions ** (t - 1), 1)
    inputs, order = SlotSpace(m, [size for *_, size in groups]).cavity(
        tau_group)
    # Input row 0 holds the observer's slot, if any; the other rows are summed.
    first = int(tau_group is not None)
    slot_rows = _slot_rows(groups, tau_group)
    flip = _flip_symmetric(model, channel, g.rows, groups, rule)

    acc = np.zeros((n_s, n_out, n_tau))
    ops = 0
    for start in range(0, inputs.size, CHUNK):
        digits, count = inputs.build(start, min(start + CHUNK, inputs.size))
        n = len(count)
        tau_digit = digits[0] if first else np.zeros(n, dtype=np.int64)
        outs = g.rows_at(digits, order)
        for r, out_codes in zip(range(1 if flip else g.rows), outs):
            cond = _low_digits(out_codes, cond_mod)
            segs = [(_sorted_segments(codes * n_tau + tau_digit, n_out * n_tau),
                     weight)
                    for codes, weight in channel.emit(out_codes, tau_digit, t)]
            product = np.repeat(model.likelihood[:, r % n_x, None] * share,
                                n, axis=1)
            _multiply_slots(product, digits[first:], slot_rows, cond)
            product *= count
            for s, w in enumerate(product):
                for seg, weight in segs:
                    _segment_add(acc[s].reshape(-1), *seg, w * weight)
                ops += n
    col = acc.sum(axis=1)
    if flip:
        # Row 1: row 0's sums of the other state at (~sigma, ~tau).
        acc = acc + acc[::-1, ::-1, ::-1]
        col = col + col[::-1, ::-1]
    drift = float(np.max(np.abs(col - 1.0)))
    q = np.moveaxis(acc / np.where(col > 0, col, 1.0)[:, None, :], 0, -1)
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
    if rule.utility is None and len(post) == 2:
        return _binary_actions(post, x, rule, coins)
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


def _binary_actions(post: np.ndarray, x: int, rule: UpdateRule,
                    coins: int) -> list[np.ndarray]:
    """``_bayesian_actions`` for two states under the identity utility, whose
    expected utilities are the posterior rows themselves, bit for bit.
    Action a ties where post[a] >= post[1 - a] - TIE_TOL: the same test as
    against max(post) - TIE_TOL, since the larger row passes either way."""
    tied0 = post[0] >= post[1] - TIE_TOL
    tied1 = post[1] >= post[0] - TIE_TOL
    # The first tied action is 1 where only action 1 ties (True > False), the
    # last tied action 1 where action 1 ties.
    first, last = np.greater(tied1, tied0), tied1
    variant = rule.tie_break.variant
    if variant is TieBreak.LOWEST_INDEX:
        return [first]
    if variant is TieBreak.UNIFORM_RANDOM:
        # u % n_tied picks the first tied action for even u, else the last.
        return [last if u % 2 else first for u in range(coins)]
    choice = rule.tie_break.action_for_signal(x, 2)
    return [np.where(tied0 & tied1, choice, last)]


def decision_step_general(
    g_prev: StoredTable,
    t: int,
    groups: list[tuple[np.ndarray, bool, int]],
    model: SignalModel,
    rule: UpdateRule,
    channel,
) -> tuple[StoredTable, int]:
    """Extend the decision table to horizon t+1 from slot tables at horizon t.

    ``groups`` holds the slot groups as (horizon-t slot table, conditions,
    slots).  Inputs are one observed trajectory at horizon t per slot,
    ranked in the groups' ``SlotSpace``; the output appends the round-(t+1)
    vote to the agent's horizon-t trajectory, read from ``g_prev`` at the
    truncated inputs, which it ranks in its own space (whose groups are
    runs of consecutive groups of ``groups``, or which has no slot at round
    0), since truncating a sorted tuple can unsort it.  A stochastic rule
    for this degree multiplies the rows by ``coin_values(n_actions)``: new
    row r extends row r % rows, ``rows`` being g_prev's, and its coin u =
    r // rows breaks a majority zero margin (vote u) or a uniform Bayesian
    tie.  Returns the new table and the number of posterior terms.  The
    table holds row 0 alone where the step mirrors, a new ``SlotSpace``
    (the built one holds its lower space), and the round-(t+1) error and
    coupling sums: the (n_states, n_signals) sums of the cavity product
    prod_k Q_k[c_k, own, s], each input weighted by the ordered tuples it
    stands for and each row by its weight, over the inputs whose new vote
    differs from s, and over all inputs (1 on consistent tables).
    """
    n_s, n_x = model.likelihood.shape
    sizes = [size for *_, size in groups]
    deg = sum(sizes)
    n_actions, n_obs = channel.n_actions, channel.size
    coins = 1 if rule.deterministic_for_degree(deg) else coin_values(n_actions)
    rows_prev = g_prev.rows
    share = n_x / (rows_prev * coins)
    m = n_obs ** t
    space = SlotSpace(n_obs ** (t + 1), sizes)
    total = space.size
    utility = rule.utility or UtilityTable.identity(model.n_states)
    bayesian = rule.variant != "majority"
    slot_rows = _slot_rows(groups)
    flip = _flip_symmetric(model, channel, rows_prev, groups, rule)
    g_next = np.empty((1 if flip else rows_prev * coins, total), dtype=np.int32)
    err_acc = np.zeros((n_s, n_x))
    mass_acc = np.zeros((n_s, n_x))
    ops = 0
    # One product, posterior and mass buffer for every chunk and row, written
    # in place, so that the step's resident memory follows its tables.
    width = min(CHUNK, total)
    buffers = np.empty((n_s, width)), np.empty((n_s, width)), np.empty(width)
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        digits, count = space.build(start, stop)
        owns = g_prev.rows_at(_low_digits(digits, m))
        cols = slice(start, stop)
        product, post, total_mass = (buf[..., :stop - start] for buf in buffers)
        if not bayesian:
            # Round-t votes of the slots (binary), summed into a signed margin.
            margin = 2 * (digits // m).sum(axis=0, dtype=np.int64) - deg
            majority = [np.where(margin == 0, u, margin > 0)
                        for u in range(coins)]
        for r, own in zip(range(1 if flip else rows_prev), owns):
            x = r % n_x
            own_cond = _low_digits(own, n_actions ** t)
            product[:] = 1.0
            _multiply_slots(product, digits, slot_rows, own_cond)
            if bayesian:
                np.multiply(product, model.prior[:, None]
                            * model.likelihood[:, x, None], out=post)
                post.sum(axis=0, out=total_mass)
                # Where the mass is 0 every row is already 0.
                np.divide(post, total_mass, out=post, where=total_mass > 0)
                actions = _bayesian_actions(post, x, rule, utility, coins)
                ops += product.size
            else:
                actions = majority
            for u, action in enumerate(actions):
                g_next[r + rows_prev * u, cols] = own + action * n_actions ** (t + 1)
            product *= count
            for s, w in enumerate(product):
                mass = np.sum(w)
                for action in actions:
                    mass_acc[s, x] += mass * share
                    err_acc[s, x] += np.sum(w[action != s]) * share
    if flip:
        err_acc[:, 1] = err_acc[::-1, 0]
        mass_acc[:, 1] = mass_acc[::-1, 0]
    return StoredTable(g_next, SlotSpace(space.base, sizes),
                       n_actions ** (t + 2) - 1, rows_prev * coins,
                       (err_acc, mass_acc)), ops


# ---------------------------------------------------------------------------
# Posterior and error probability
# ---------------------------------------------------------------------------

def posterior_general(x: int, codes: np.ndarray, own_cond: int,
                      groups: list[tuple[np.ndarray, bool, int]],
                      model: SignalModel) -> np.ndarray:
    """P(s | x, neighbor trajectories) via the cavity factorization: prior
    times likelihood times the cavity product at one checked (slots, 1)
    column of ``codes``, normalized.  ``groups`` are the slot groups as in
    ``decision_step_general``, and a group that conditions reads the own
    trajectory ``own_cond``, which the caller read from its own table."""
    weights = (model.prior * model.likelihood[:, x])[:, None]
    _multiply_slots(weights, codes, _slot_rows(groups), own_cond)
    total = weights.sum()
    if total <= 0.0:
        raise ModelError("observation has probability zero under every state "
                         "(inconsistent tables or infeasible input)")
    return weights[:, 0] / total


def error_from_sums(model: SignalModel, sums: tuple[np.ndarray, np.ndarray],
                    condition_state: int | None = None) -> tuple[float, float]:
    """P(vote != state) from a table's error and coupling sums, plus the
    worst |coupling mass - 1|, which callers check against COUPLING_TOL."""
    err_acc, mass_acc = sums
    err = 0.0
    for s, weight in model.state_weights(condition_state):
        for x in range(model.n_signals):
            err += weight * model.likelihood[s, x] * err_acc[s, x]
    return float(err), float(np.max(np.abs(mass_acc - 1.0)))
