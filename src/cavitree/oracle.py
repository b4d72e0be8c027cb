"""Brute-force ground truth: forward simulation over all signal vectors.

One vectorized unroll serves every rule.  It simulates every agent over
*branches*: a branch is a joint private-signal vector, every agent's
trajectory so far, and the probability of the tie coins that led to it.
Each round, the branches of a node are keyed by (own trajectory, observed
trajectories, own signal), and each key is decided once: Bayesian
posteriors come from summing P(signal vector | s) times the branch weight
over the key's branches.  A key whose decision is a coin (a majority tie, a
uniform-random Bayesian tie) splits its branches, one copy per tied action
weighted by its share; branches that end the round alike merge.
Deterministic rules never split, so branch b is signal vector b.
Exponential in the number of agents, guarded by a step budget.  Works on
arbitrary graphs (loops included), which makes it the reference for the
hub extension as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ModelError,
    SignalModel,
    UpdateRule,
    UtilityTable,
    action_count,
    is_index,
    is_int,
    majority_kernel,
    map_decision,
    round0_kernel,
    round_digit,
)
from .trees import BudgetError

BUDGET = 10 ** 9  # node-rounds x branches an unroll may simulate


@dataclass
class TrajectoryTensor:
    """Trajectories of every agent on every branch of the unroll.

    Branch b is signal vector ``vectors[b]`` with tie-coin probability
    ``weights[b]``; ``trajs[t][i, b]`` is the packed trajectory of agent i
    through round t on it.  The weights of one vector's branches sum to 1.
    For deterministic rules branch b is signal vector b with weight 1, and
    ``decision_tables[i][t]`` maps every reachable (signal, observed codes)
    to agent i's trajectory through round t, one code 0 each at round 0.
    """

    graph: object
    model: SignalModel
    rule: UpdateRule
    horizon: int
    n_actions: int
    deterministic: bool
    signal_digits: np.ndarray
    signal_probs: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray
    trajs: list[np.ndarray]
    decision_tables: list[list[dict]]


def _check_budget(n: int, t_max: int, branches: int, what: str):
    if n * max(t_max, 1) * branches > BUDGET:
        raise BudgetError(
            f"oracle budget exceeded: {n} nodes x {t_max} rounds x {branches} "
            f"{what} > {BUDGET} steps")


def _group(columns, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Key each branch by its entries in ``columns`` (column k below
    sizes[k]): the inverse into the sorted distinct keys, and the first
    branch of each key.  Keys are renumbered before they could leave int64."""
    key, bound = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col, size in zip(columns, sizes):
        if bound * size > 2 ** 62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * size + col.astype(np.int64)
        bound *= size
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return inverse, first


def unroll(graph, model: SignalModel, rule: UpdateRule,
           t_max: int) -> TrajectoryTensor:
    """Simulate all agents through t_max on every branch of every signal
    vector."""
    if not is_int(t_max) or t_max < 0:
        raise ModelError(f"t_max must be an int >= 0, not {t_max!r}")
    n = graph.n
    n_x = model.n_signals
    n_vec = n_x ** n
    _check_budget(n, t_max, n_vec, "signal vectors")
    ys = np.arange(n_vec)
    digits = np.empty((n, n_vec), dtype=np.int64)
    for i in range(n):
        digits[i] = (ys // n_x ** i) % n_x
    probs = np.ones((model.n_states, n_vec))
    for s in range(model.n_states):
        for i in range(n):
            probs[s] *= model.likelihood[s, digits[i]]

    n_a = action_count(model, rule)
    deterministic = all(rule.deterministic_for_degree(len(o))
                        for o in graph.observed)
    utility = rule.utility or UtilityTable.identity(model.n_states)
    round0 = round0_kernel(model, rule, n_a)
    tables = [[{} for _ in range(t_max + 1)] for _ in range(n)]
    vec, weight = ys, np.ones(n_vec)
    traj = np.zeros((n, n_vec), dtype=np.min_scalar_type(n_a ** (t_max + 1) - 1))
    for t in range(t_max + 1):
        m = n_a ** t  # trajectory codes through round t-1
        nxt, split = traj.copy(), False
        for i in range(n):
            nbrs = list(graph.observed[i])
            x_of = digits[i, vec]
            inv, first = _group([traj[i], *traj[nbrs], x_of],
                                [m] * (1 + len(nbrs)) + [n_x])
            if t and rule.variant == "bayesian":
                mass = np.stack([np.bincount(inv, weights=probs[s, vec] * weight,
                                             minlength=len(first))
                                 for s in range(model.n_states)])
            kernels = []
            for k, (x, own, codes) in enumerate(zip(
                    x_of[first].tolist(), traj[i, first].tolist(),
                    traj[nbrs][:, first].T.tolist())):
                codes = tuple(codes)
                if t == 0:
                    kern = round0[x]
                elif rule.variant == "bayesian":
                    w = model.prior * mass[:, k]
                    total = float(w.sum())
                    if total <= 0.0:
                        raise ModelError("empty feasible set for a realized observation")
                    dec = map_decision(w / total, utility, rule.tie_break, own_signal=x)
                    kern = [(dec, 1.0)] if isinstance(dec, int) else sorted(dec.items())
                else:
                    votes = [round_digit(c, t - 1, n_a) for c in codes]
                    kern = sorted(majority_kernel(votes).items())
                if deterministic:
                    tables[i][t][(x, codes)] = own + kern[0][0] * m
                kernels.append(kern)
            width = max(len(kern) for kern in kernels)
            action = np.zeros((len(kernels), width), dtype=np.int64)
            share = np.ones((len(kernels), width))
            for k, kern in enumerate(kernels):
                action[k, :len(kern)], share[k, :len(kern)] = zip(*kern)
            slot = 0
            if width > 1:  # one copy of each branch per tied action
                copies = np.array([len(kern) for kern in kernels])[inv]
                _check_budget(n, t_max, int(copies.sum()), "branches")
                src = np.repeat(np.arange(len(inv)), copies)
                slot = np.arange(len(src)) - np.repeat(np.cumsum(copies) - copies,
                                                       copies)
                inv = inv[src]
                traj, nxt, vec = traj[:, src], nxt[:, src], vec[src]
                weight = weight[src] * share[inv, slot]
                split = True
            nxt[i] = traj[i] + action[inv, slot] * m
        traj = nxt
        if split:  # merge the branches that ended the round alike
            inv, first = _group([vec, *traj], [n_vec] + [n_a * m] * n)
            weight = np.bincount(inv, weights=weight)
            vec, traj = vec[first], traj[:, first]
    dtype = traj.dtype.type
    trajs = [traj % dtype(n_a ** (t + 1)) for t in range(t_max)] + [traj]
    return TrajectoryTensor(graph=graph, model=model, rule=rule, horizon=t_max,
                            n_actions=n_a, deterministic=deterministic,
                            signal_digits=digits, signal_probs=probs,
                            vectors=vec, weights=weight, trajs=trajs,
                            decision_tables=tables)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _check_query(tensor: TrajectoryTensor, i: int, t: int) -> None:
    """Refuse a node outside the graph or a round the tensor does not hold;
    a negative index is not counted from the end."""
    if not is_index(i, tensor.graph.n):
        raise ModelError(f"node {i!r} outside 0..{tensor.graph.n - 1}")
    if not is_index(t, tensor.horizon + 1):
        raise ModelError(f"no round {t!r}: tensor only unrolled through "
                         f"t={tensor.horizon}")


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
    _check_query(tensor, i, t)
    if observed is None:
        return np.flatnonzero(tensor.signal_digits[i] == x_i)
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
    _check_query(tensor, i, t)
    model = tensor.model
    if tensor.n_actions != model.n_states:
        raise ModelError("error probability assumes the identity payoff")
    votes = round_digit(tensor.trajs[t][i].astype(np.int64), t, tensor.n_actions)
    err = 0.0
    for s, weight in model.state_weights(condition_state):
        mass = tensor.signal_probs[s, tensor.vectors] * tensor.weights
        err += weight * float(np.sum(mass * (votes != s)))
    return err
