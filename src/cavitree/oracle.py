"""Brute-force ground truth: forward simulation over all signal vectors.

Every agent's trajectory is computed for every joint private-signal vector
by simultaneous forward simulation; Bayesian posteriors come from summing
P(signal vector | s) over the feasible set of vectors consistent with what
the agent has seen.  Exponential in the number of agents, guarded by a step
budget.  Works on arbitrary graphs (loops included), which makes it the
reference for the hub extension as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    ModelError,
    SignalModel,
    UpdateRule,
    UtilityTable,
    action_count,
    majority_kernel,
    map_decision,
    round0_kernel,
    round_digit,
)
from .trees import BudgetError

BUDGET = 10 ** 9  # node-rounds x signal vectors an unroll may simulate


@dataclass
class TrajectoryTensor:
    """Trajectories of every agent for every private-signal vector.

    For deterministic rules ``trajs[t][i, y]`` is the packed trajectory of
    agent i through round t under signal vector y.  For stochastic rules
    ``profiles[y]`` maps joint trajectory tuples (through the final horizon)
    to their probability over the rule's internal randomness.
    """

    graph: object
    model: SignalModel
    rule: UpdateRule
    horizon: int
    n_actions: int
    signal_digits: np.ndarray
    signal_probs: np.ndarray
    trajs: list[np.ndarray] | None = None
    profiles: list[dict[tuple[int, ...], float]] | None = None
    decision_tables: list[list[dict]] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return self.trajs is not None


def unroll(graph, model: SignalModel, rule: UpdateRule,
           t_max: int) -> TrajectoryTensor:
    """Simulate all agents through t_max for every signal vector."""
    n = graph.n
    n_x = model.n_signals
    n_vec = n_x ** n
    if n * max(t_max, 1) * n_vec > BUDGET:
        raise BudgetError(
            f"oracle budget exceeded: {n} nodes x {t_max} rounds x {n_vec} "
            f"signal vectors > {BUDGET} steps")
    ys = np.arange(n_vec)
    digits = np.empty((n, n_vec), dtype=np.int64)
    for i in range(n):
        digits[i] = (ys // n_x ** i) % n_x
    probs = np.ones((model.n_states, n_vec))
    for s in range(model.n_states):
        for i in range(n):
            probs[s] *= model.likelihood[s, digits[i]]

    tensor = TrajectoryTensor(graph=graph, model=model, rule=rule, horizon=t_max,
                              n_actions=action_count(model, rule),
                              signal_digits=digits,
                              signal_probs=probs)
    deterministic = all(rule.deterministic_for_degree(len(o)) for o in graph.observed)
    if rule.variant == "bayesian" and not deterministic:
        raise ModelError("the brute-force oracle supports deterministic Bayesian "
                         "decisions only (stochastic tie-breaks are not unrolled)")
    if deterministic:
        _unroll_deterministic(tensor, t_max)
    else:
        _unroll_profiles(tensor, t_max)
    return tensor


def _unroll_deterministic(tensor: TrajectoryTensor, t_max: int):
    graph, model, rule = tensor.graph, tensor.model, tensor.rule
    n = graph.n
    n_a = tensor.n_actions
    digits = tensor.signal_digits
    round0 = round0_kernel(model, rule, n_a)
    first = np.array([round0[x][0][0] for x in range(model.n_signals)], dtype=np.int64)
    trajs = [first[digits]]
    tensor.decision_tables = [[{} for _ in range(t_max + 1)] for _ in range(n)]
    for i in range(n):
        for x in range(model.n_signals):
            tensor.decision_tables[i][0][(x, ())] = int(first[x])

    utility = rule.utility or UtilityTable.identity(model.n_states)
    for t in range(1, t_max + 1):
        prev = trajs[-1]
        cur = np.empty_like(prev)
        m = n_a ** t  # trajectory codes at horizon t-1
        for i in range(n):
            nbrs = graph.observed[i]
            obs = np.zeros(prev.shape[1], dtype=np.int64)
            for k, j in enumerate(nbrs):
                obs += prev[j] * m ** k
            keys = obs * model.n_signals + digits[i]
            n_keys = int(keys.max()) + 1
            own_of_key = np.zeros(n_keys, dtype=np.int64)
            own_of_key[keys] = prev[i]  # own history is a function of the key
            if rule.variant == "bayesian":
                weights = np.stack([
                    np.bincount(keys, weights=tensor.signal_probs[s], minlength=n_keys)
                    for s in range(model.n_states)])
            actions = np.zeros(n_keys, dtype=np.int64)
            for key in np.unique(keys):
                key = int(key)
                x = key % model.n_signals
                obs_code = key // model.n_signals
                nbr_codes = tuple(int((obs_code // m ** k) % m)
                                  for k in range(len(nbrs)))
                own = int(own_of_key[key])
                if rule.variant == "bayesian":
                    w = model.prior * weights[:, key]
                    total = float(w.sum())
                    if total <= 0.0:
                        raise ModelError("empty feasible set for a realized observation")
                    a = map_decision(w / total, utility, rule.tie_break, own_signal=x)
                else:
                    votes = [round_digit(c, t - 1, n_a) for c in nbr_codes]
                    ((a, _),) = majority_kernel(votes).items()
                actions[key] = a
                tensor.decision_tables[i][t][(x, nbr_codes)] = own + a * m
            cur[i] = prev[i] + actions[keys] * m
        trajs.append(cur)
    tensor.trajs = trajs


def _unroll_profiles(tensor: TrajectoryTensor, t_max: int):
    """Majority with coin-flip ties: propagate a law over joint trajectories."""
    graph, model, rule = tensor.graph, tensor.model, tensor.rule
    n = graph.n
    n_a = tensor.n_actions
    round0 = round0_kernel(model, rule, n_a)
    profiles_per_y = []
    for y in range(tensor.signal_digits.shape[1]):
        x_of = [int(tensor.signal_digits[i, y]) for i in range(n)]
        profiles = _expand_round({(): 1.0},
                                 [[(a, p) for a, p in round0[x_of[i]] if p > 0]
                                  for i in range(n)])
        for t in range(1, t_max + 1):
            m = n_a ** t
            kernels_cache: dict[tuple, list] = {}
            nxt: dict[tuple[int, ...], float] = {}
            for prof, w in profiles.items():
                kernels = []
                for i in range(n):
                    nbr_codes = tuple(prof[j] for j in graph.observed[i])
                    cache_key = (i, nbr_codes, prof[i])
                    kern = kernels_cache.get(cache_key)
                    if kern is None:
                        votes = [round_digit(c, t - 1, n_a) for c in nbr_codes]
                        raw = majority_kernel(votes)
                        kern = [(prof[i] + a * m, p)
                                for a, p in sorted(raw.items()) if p > 0]
                        kernels_cache[cache_key] = kern
                    kernels.append(kern)
                for new_prof, p in _profile_products(kernels):
                    nxt[new_prof] = nxt.get(new_prof, 0.0) + w * p
            profiles = nxt
        profiles_per_y.append(profiles)
    tensor.profiles = profiles_per_y


def _expand_round(profiles, kernels):
    out: dict[tuple[int, ...], float] = {}
    for prof, w in profiles.items():
        for new_prof, p in _profile_products(kernels):
            out[new_prof] = out.get(new_prof, 0.0) + w * p
    return out


def _profile_products(kernels):
    """Cartesian product of per-node kernels as (profile tuple, probability)."""
    combos = [((), 1.0)]
    for kern in kernels:
        combos = [(prof + (c,), w * p) for prof, w in combos for c, p in kern]
    return combos


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def feasible_set(tensor: TrajectoryTensor, i: int, x_i: int,
                 observed: tuple[int, ...] | None, t: int = 0) -> np.ndarray:
    """Signal-vector indices consistent with (x_i, neighbor trajectories through t).

    Implements I_i^t: vectors y with y_i = x_i whose simulated neighbor
    trajectories match the observation.  ``observed=None`` conditions on the
    own signal alone (the round-0 information set).  An empty result is a
    valid return.
    """
    if not tensor.deterministic:
        raise ModelError("feasible sets are defined for deterministic rules")
    if observed is None:
        return np.flatnonzero(tensor.signal_digits[i] == x_i)
    if t > tensor.horizon:
        raise ModelError(f"tensor only unrolled through t={tensor.horizon}")
    nbrs = tensor.graph.observed[i]
    if len(observed) != len(nbrs):
        raise ModelError("observation arity does not match the neighborhood")
    mask = tensor.signal_digits[i] == x_i
    for code, j in zip(observed, nbrs):
        mask &= tensor.trajs[t][j] == code
    return np.flatnonzero(mask)


def oracle_decision_tables(tensor: TrajectoryTensor):
    """Per-node, per-round decision tables over all reachable inputs."""
    if not tensor.deterministic:
        raise ModelError("decision tables are recorded for deterministic rules only")
    return tensor.decision_tables


def oracle_error_probability(tensor: TrajectoryTensor, i: int, t: int,
                             condition_state: int | None = None) -> float:
    """P(vote of i at round t differs from the state), identity payoff."""
    if t > tensor.horizon:
        raise ModelError(f"tensor only unrolled through t={tensor.horizon}")
    model = tensor.model
    if tensor.n_actions != model.n_states:
        raise ModelError("error probability assumes the identity payoff")
    states = range(model.n_states) if condition_state is None else [condition_state]
    err = 0.0
    n_a = tensor.n_actions
    for s in states:
        weight = model.prior[s] if condition_state is None else 1.0
        if tensor.deterministic:
            votes = round_digit(tensor.trajs[t][i], t, n_a)
            err += weight * float(np.sum(tensor.signal_probs[s] * (votes != s)))
        else:
            acc = 0.0
            for y, profiles in enumerate(tensor.profiles):
                py = tensor.signal_probs[s, y]
                for prof, w in profiles.items():
                    if round_digit(prof[i], t, n_a) != s:
                        acc += py * w
            err += weight * acc
    return err
