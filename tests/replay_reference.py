"""The per-node Monte Carlo replay, kept as a verification reference.

`cavitree.sim.simulate` replays the nodes that share a decision table in one
gather per block of nodes.  This module replays them one node at a time, as
the simulator once did, and draws every number from the public counter
stream, so both must give identical tallies for any chunk size.
"""

from __future__ import annotations

import numpy as np

from cavitree.model import round0_kernel
from cavitree.sim import _KIND_COIN, _KIND_SIGNAL, _KIND_STATE, counter_uniform


def per_node_replay(graph, model, rule, rounds: int, samples: int, seed: int,
                    tables=None, chunk: int = 1 << 14) -> np.ndarray:
    """Per-node, per-round miss counts, shape (n, rounds + 1)."""
    n = graph.n
    obs = graph.observed
    n_a = model.n_states
    vote0 = np.array([k[0][0] for k in round0_kernel(model, rule, n_a)],
                     dtype=np.int8)
    # Every CDF entry but the last: a top draw rounds to u = 1.0.
    prior_cdf = np.cumsum(model.prior)[:-1]
    lik_cdf = np.cumsum(model.likelihood, axis=1)[:, :-1]
    errors = np.zeros((n, rounds + 1), dtype=np.int64)
    for start in range(0, samples, chunk):
        idx = np.arange(start, min(start + chunk, samples), dtype=np.uint64)
        count = len(idx)
        u = counter_uniform(seed, _KIND_STATE, idx, 0, 0)
        state = np.searchsorted(prior_cdf, u, side="right").astype(np.int8)
        signals = np.zeros((n, count), dtype=np.int8)
        for i in range(n):
            u = counter_uniform(seed, _KIND_SIGNAL, idx, i, 0)
            for x in range(model.n_signals - 1):
                signals[i] += u >= lik_cdf[state, x]
        votes = vote0[signals]
        codes = votes.astype(np.int64)
        for i in range(n):
            errors[i, 0] += np.sum(votes[i] != state)
        for t in range(1, rounds + 1):
            m = n_a ** t
            new_votes = np.empty_like(votes)
            for i in range(n):
                nbrs = obs[i]
                if rule.variant == "majority":
                    ones = np.zeros(count, dtype=np.int16)
                    for j in nbrs:
                        ones += votes[j]
                    margin = 2 * ones.astype(np.int32) - len(nbrs)
                    v = (margin > 0).astype(np.int8)
                    tie = margin == 0
                    if np.any(tie):
                        coin = counter_uniform(seed, _KIND_COIN, idx, i, t) < 0.5
                        v = np.where(tie, coin.astype(np.int8), v)
                else:
                    j_idx = np.zeros(count, dtype=np.int64)
                    for k, j in enumerate(nbrs):
                        j_idx += codes[j] * m ** k
                    v = np.asarray(tables.action_table(i, t))[signals[i], j_idx]
                    v = v.astype(np.int8)
                new_votes[i] = v
                errors[i, t] += np.sum(v != state)
            codes = codes + new_votes.astype(np.int64) * m
            votes = new_votes
    return errors
