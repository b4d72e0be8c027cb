"""Shared numerics for the cavity recursion, decision tables and error sums.

A node of degree ``deg`` indexes its neighbors by *slots* in canonical order.
A decision table at horizon t is a dense integer array ``g[x, J]`` where J
packs the ``deg`` observed trajectories (horizon t-1, codes < n_obs**t)
with slot k contributing ``code_k * (n_obs**t)**k``; the value is the node's
own packed action trajectory through round t (code < n_a**(t+1)).  The
observed alphabet has ``n_obs`` letters per round: the n_a actions, plus a
star on the erasure channel of ``active.py``.  Cavity tables are arrays
``Q[sigma, tau, s]`` with the conditioning axis one horizon shorter than the
trajectory axis (a round-t vote cannot depend on the observer's round-t
action).  The slot tables the steps read are indexed ``[sigma, a, s]`` by
the node's own action trajectory a; on the all-active channel they are the
cavity tables themselves.

Big sums accumulate in extended precision with per-bucket compensated
segment reduction; every (tau, s) slice is renormalized after a step and the
pre-renormalization drift is reported.
"""

from __future__ import annotations

import logging

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


def check_budget(n_entries: int, bytes_per_entry: int = 8,
                 budget: int = MEMORY_BUDGET):
    need = n_entries * bytes_per_entry
    if need > budget:
        raise BudgetError(
            f"table of {n_entries} entries needs about {need / 2 ** 30:.2f} GiB, "
            f"over the {budget / 2 ** 30:.2f} GiB budget")


def cavity_step_entries(t: int, deg: int, n_obs: int, n_states: int,
                        observer: bool = True) -> int:
    """Entries a horizon-t cavity step sums over plus those it returns."""
    m = n_obs ** t
    return m ** deg + n_obs ** (t + 1) * (m if observer else 1) * n_states


def decision_step_entries(t: int, deg: int, n_obs: int, n_signals: int) -> int:
    """Entries of the horizon-(t+1) decision table and its workspace."""
    return n_obs ** ((t + 1) * deg) * (n_signals + 2)


def all_active(out: np.ndarray, tau: np.ndarray, t: int):
    """The all-active channel: an observer sees the action codes, weight 1."""
    return [(out, 1.0)]


# ---------------------------------------------------------------------------
# Round 0
# ---------------------------------------------------------------------------

def round0_table(model: SignalModel, rule: UpdateRule, n_actions: int) -> np.ndarray:
    """g^0: the round-0 vote per private signal, shape (n_signals, 1)."""
    from ..model import round0_kernel

    out = np.empty((model.n_signals, 1), dtype=np.int32)
    for x, kern in enumerate(round0_kernel(model, rule, n_actions)):
        if len(kern) != 1:
            raise ValueError("stochastic round-0 decision needs the kernel engine")
        out[x, 0] = kern[0][0]
    return out


def initial_cavity(model: SignalModel, g0: np.ndarray, n_actions: int,
                   n_obs: int | None = None, emit=all_active) -> np.ndarray:
    """Q^0[sigma, 0, s] = P(round-0 observation = sigma | s)."""
    q = np.zeros((n_obs or n_actions, 1, model.n_states))
    for x in range(model.n_signals):
        vote = g0[x, :1].astype(np.int64)
        for codes, weight in emit(vote, np.zeros_like(vote), 0):
            q[codes[0], 0, :] += weight * model.likelihood[:, x]
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
) -> tuple[np.ndarray, float, int]:
    """One application of the cavity recursion for a node of degree ``deg``.

    ``g_flat`` is the node's horizon-t decision table; slot ``tau_pos`` holds
    the observer's fixed (zombie) trajectory and the remaining slots carry
    child messages ``child_qs`` at horizon t-1.  ``emit(out, tau, t)`` maps
    the node's action codes through round t, as seen by an observer whose
    trajectory is ``tau``, to (observed code, weight) pairs.  Returns the
    horizon-t table Q[sigma, tau, s] (renormalized per (tau, s) slice), the
    maximum pre-renormalization drift |column sum - 1|, and the number of
    summed terms.
    """
    n_s, n_x = model.likelihood.shape
    n_obs = n_obs or n_actions
    m = n_obs ** t
    n_out = n_obs ** (t + 1)
    n_tau = m if tau_pos is not None else 1
    cond_mod = max(n_actions ** (t - 1), 1)
    total = m ** deg
    check_budget(cavity_step_entries(t, deg, n_obs, n_s, tau_pos is not None))

    acc = [np.zeros(n_out * n_tau, dtype=np.longdouble) for _ in range(n_s)]
    colsum = [np.zeros(n_tau, dtype=np.longdouble) for _ in range(n_s)]
    ops = 0
    slots = [k for k in range(deg) if k != tau_pos]
    for start in range(0, total, CHUNK):
        j = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = [(j // m ** k) % m for k in range(deg)]
        tau_digit = digits[tau_pos] if tau_pos is not None else np.zeros_like(j)
        tau_seg = _sorted_segments(tau_digit) if n_tau > 1 else None
        for x in range(n_x):
            out_codes = g_flat[x, j].astype(np.int64)
            cond = out_codes % cond_mod
            segs = [(_sorted_segments(codes * n_tau + tau_digit), weight)
                    for codes, weight in emit(out_codes, tau_digit, t)]
            for s in range(n_s):
                w = np.full(len(j), model.likelihood[s, x])
                for k, (q_prev, has_cond) in zip(slots, child_qs):
                    w = w * q_prev[digits[k], cond if has_cond else 0, s]
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
                      utility: UtilityTable) -> np.ndarray:
    """Vectorized argmax with tolerance ties, deterministic tie-breaks only."""
    eu = utility.values @ post  # (n_actions, batch)
    top = eu.max(axis=0)
    tied = eu >= top - TIE_TOL
    first = np.argmax(tied, axis=0)
    if rule.tie_break.variant is TieBreak.LOWEST_INDEX:
        return first
    n_tied = tied.sum(axis=0)
    choice = rule.tie_break.action_for_signal(x, utility.n_actions)
    use_own = (n_tied > 1) & tied[choice]
    return np.where(use_own, choice, first)


def decision_step_general(
    g_prev: np.ndarray,
    t: int,
    deg: int,
    slot_qs: list[tuple[np.ndarray, bool]],
    model: SignalModel,
    rule: UpdateRule,
    n_actions: int,
    n_obs: int | None = None,
) -> tuple[np.ndarray, int]:
    """Extend the decision table to horizon t+1 from slot tables at horizon t.

    Inputs are the ``deg`` observed trajectories at horizon t; the output
    appends the round-(t+1) vote to the agent's horizon-t trajectory, which
    is itself looked up from ``g_prev`` on the truncated inputs.
    """
    if not rule.deterministic_for_degree(deg):
        raise ValueError("dense decision tables require a deterministic rule")
    n_s, n_x = model.likelihood.shape
    n_obs = n_obs or n_actions
    n_in = n_obs ** (t + 1)
    m = n_obs ** t
    total = n_in ** deg
    check_budget(decision_step_entries(t, deg, n_obs, n_x))
    utility = rule.utility or UtilityTable.identity(model.n_states)
    g_next = np.empty((n_x, total), dtype=np.int32)
    ops = 0
    for start in range(0, total, CHUNK):
        j = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = [(j // n_in ** k) % n_in for k in range(deg)]
        j_prev = np.zeros_like(j)
        for k in range(deg):
            j_prev += (digits[k] % m) * m ** k
        for x in range(n_x):
            own = g_prev[x, j_prev].astype(np.int64)
            if rule.variant == "majority":
                votes = np.zeros(len(j), dtype=np.int64)
                for k in range(deg):
                    votes += digits[k] // m  # round-t vote of slot k (binary)
                margin = 2 * votes - deg
                if np.any(margin == 0):
                    raise ValueError("majority tie reached the dense path")
                action = (margin > 0).astype(np.int64)
            else:
                own_cond = own % n_actions ** t
                like = np.empty((n_s, len(j)))
                for s in range(n_s):
                    w = np.full(len(j), model.prior[s] * model.likelihood[s, x])
                    for k, (q_t, has_cond) in enumerate(slot_qs):
                        w = w * q_t[digits[k], own_cond if has_cond else 0, s]
                    like[s] = w
                total_mass = like.sum(axis=0)
                post = np.divide(like, total_mass, out=np.zeros_like(like),
                                 where=total_mass > 0)
                action = _bayesian_actions(post, x, rule, utility)
                ops += n_s * len(j)
            g_next[x, j] = own + action * n_actions ** (t + 1)
    return g_next, ops


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
) -> np.ndarray:
    """P(s | x, neighbor trajectories through t-1) via the cavity factorization.

    ``observed`` holds one horizon-(t-1) code per slot; ``slot_qs`` the
    horizon-(t-1) slot tables.  The agent's own trajectory is derived from
    the decision table on the truncated observation.
    """
    from ..model import ModelError, signal_posterior

    if t == 0:
        return signal_posterior(model, x)
    m_prev = (n_obs or n_actions) ** (t - 1)
    j_prev = sum((code % m_prev) * m_prev ** k for k, code in enumerate(observed))
    own = int(g_prev[x, j_prev])
    own_cond = own % n_actions ** (t - 1)
    weights = model.prior * model.likelihood[:, x]
    for k, (q, has_cond) in enumerate(slot_qs):
        weights = weights * q[observed[k], own_cond if has_cond else 0, :]
    total = weights.sum()
    if total <= 0.0:
        raise ModelError("observation has probability zero under every state "
                         "(inconsistent tables or infeasible input)")
    return weights / total


def error_probability_general(
    g_t: np.ndarray,
    t: int,
    deg: int,
    slot_qs: list[tuple[np.ndarray, bool]],
    model: SignalModel,
    n_actions: int,
    condition_state: int | None = None,
    n_obs: int | None = None,
) -> tuple[float, float, int]:
    """P(round-t vote != state) plus the worst coupling-mass deviation.

    The inner sum over neighbor trajectories of the cavity product must
    total 1 for each (signal, state); the maximum |mass - 1| is returned and
    checked by callers against COUPLING_TOL.
    """
    n_s, n_x = model.likelihood.shape
    states = range(n_s) if condition_state is None else [condition_state]
    if t == 0:
        err = 0.0
        for s in states:
            weight = model.prior[s] if condition_state is None else 1.0
            for x in range(n_x):
                if int(g_t[x, 0]) != s:
                    err += weight * model.likelihood[s, x]
        return err, 0.0, n_x * len(list(states))

    m = (n_obs or n_actions) ** t
    cond_mod = max(n_actions ** (t - 1), 1)
    total = m ** deg
    check_budget(total)
    err_acc = np.zeros((n_s, n_x), dtype=np.longdouble)
    mass_acc = np.zeros((n_s, n_x), dtype=np.longdouble)
    ops = 0
    for start in range(0, total, CHUNK):
        j = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = [(j // m ** k) % m for k in range(deg)]
        for x in range(n_x):
            own = g_t[x, j].astype(np.int64)
            own_cond = own % cond_mod
            vote = own // n_actions ** t
            for s in range(n_s):
                w = np.ones(len(j))
                for k, (q_prev, has_cond) in enumerate(slot_qs):
                    w = w * q_prev[digits[k], own_cond if has_cond else 0, s]
                wl = w.astype(np.longdouble)
                mass_acc[s, x] += np.sum(wl)
                err_acc[s, x] += np.sum(wl[vote != s])
                ops += len(j)
    coupling_dev = float(np.max(np.abs(mass_acc - 1.0)))
    err = 0.0
    for s in states:
        weight = model.prior[s] if condition_state is None else 1.0
        for x in range(n_x):
            err += weight * model.likelihood[s, x] * float(err_acc[s, x])
    return err, coupling_dev, ops
