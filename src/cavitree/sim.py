"""Seeded Monte Carlo simulation of the learning process on finite graphs.

The simulator never computes posteriors: Bayesian agents replay decision
tables produced by an exact engine, which keeps inference correctness and
sampling correctness separable.  Randomness is counter-based: every draw is
a pure function of (seed, purpose, sample, node, round), so results are
independent of chunking or scheduling and sample batches can run in
parallel.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModelError, SignalModel, UpdateRule, round0_kernel
from .trees import ball

_KIND_STATE = 1
_KIND_SIGNAL = 2
_KIND_COIN = 3

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z + _GAMMA).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed: int, kind: int, sample: np.ndarray, node: int,
                    t: int) -> np.ndarray:
    """Deterministic uniform in [0, 1) for each (seed, kind, sample, node, t)."""
    return _node_uniform(_stream(seed, kind, sample), node, t)


def _stream(seed: int, kind: int, sample: np.ndarray) -> np.ndarray:
    """The first two mixing rounds, shared by every node and round."""
    z = np.asarray(sample, dtype=np.uint64)
    z = _mix(z ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return _mix(z ^ np.uint64(kind))


def _node_uniform(stream: np.ndarray, node: int, t: int) -> np.ndarray:
    z = _mix(stream ^ np.uint64(node))
    z = _mix(z ^ np.uint64(t))
    return z.astype(np.float64) / float(2 ** 64)


@dataclass
class RunResult:
    """Per-node, per-round empirical error tallies for one simulation run."""

    graph: dict
    rule: str
    model_hash: str
    seed: int
    samples: int
    rounds: int
    errors: np.ndarray  # (n, rounds + 1) integer miss counts

    def rate(self, node: int, t: int) -> float:
        return self.errors[node, t] / self.samples

    @property
    def rates(self) -> np.ndarray:
        return self.errors / self.samples

    def standard_error(self, node: int, t: int) -> float:
        p = self.rate(node, t)
        return float(np.sqrt(max(p * (1.0 - p), 1.0 / self.samples) / self.samples))

    def to_json(self) -> dict:
        return {
            "graph": self.graph,
            "rule": self.rule,
            "model_hash": self.model_hash,
            "seed": self.seed,
            "samples": self.samples,
            "rounds": self.rounds,
            "errors": self.errors.tolist(),
        }

    def to_csv_rows(self) -> list[tuple]:
        return [(node, t, int(self.errors[node, t]), self.samples)
                for node in range(self.errors.shape[0])
                for t in range(self.rounds + 1)]


def _graph_descriptor(graph) -> dict:
    payload = {"n": graph.n, "edges": sorted(tuple(e) for e in graph.edges)}
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]
    return {"n": graph.n, "digest": digest}


def simulate(
    graph,
    model: SignalModel,
    rule: UpdateRule,
    rounds: int,
    samples: int,
    seed: int,
    tables=None,
    chunk: int = 1 << 14,
    threads: int = 1,
) -> RunResult:
    """Sample the synchronous process and tally per-node, per-round errors.

    Bayesian runs replay ``tables`` (anything exposing
    ``action_table(node, t) -> (n_signals, codes) array``, e.g. a finite-tree
    engine or a degree-table adapter); majority needs no tables.  Stochastic
    tie coins come from the counter stream.
    """
    n = graph.n
    obs = graph.observed
    if rule.variant == "bayesian" and tables is None:
        raise ModelError("the Bayesian rule replays decision tables; supply them")
    if rule.variant == "majority" and any(len(o) == 0 for o in obs):
        raise ModelError("majority dynamics needs at least one neighbor per node")
    n_a = model.n_states
    kern0 = round0_kernel(model, rule, n_a)
    if any(len(k) != 1 for k in kern0):
        raise ModelError("stochastic round-0 votes are not supported in replay")
    vote0 = np.array([k[0][0] for k in kern0], dtype=np.int8)

    action_tables = None
    if rule.variant == "bayesian":
        action_tables = [[np.ascontiguousarray(tables.action_table(i, t))
                          for i in range(n)] for t in range(rounds + 1)]

    prior_cdf = np.cumsum(model.prior)
    lik_cdf = np.cumsum(model.likelihood, axis=1)

    starts = list(range(0, samples, chunk))

    def run_chunk(start: int) -> np.ndarray:
        stop = min(start + chunk, samples)
        idx = np.arange(start, stop, dtype=np.uint64)
        count = len(idx)
        tally = np.zeros((n, rounds + 1), dtype=np.int64)
        u = counter_uniform(seed, _KIND_STATE, idx, 0, 0)
        state = np.searchsorted(prior_cdf, u, side="right").astype(np.int8)
        signal_stream = _stream(seed, _KIND_SIGNAL, idx)
        coin_stream = _stream(seed, _KIND_COIN, idx)
        thresholds = [lik_cdf[state, x] for x in range(model.n_signals)]
        signals = np.zeros((n, count), dtype=np.int8)
        for i in range(n):
            u = _node_uniform(signal_stream, i, 0)
            for column in thresholds:
                signals[i] += u >= column
        votes = vote0[signals]
        codes = votes.astype(np.int32) if rule.variant != "majority" else None
        for i in range(n):
            tally[i, 0] = np.sum(votes[i] != state)
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
                        coin = _node_uniform(coin_stream, i, t) < 0.5
                        v = np.where(tie, coin.astype(np.int8), v)
                else:
                    j_idx = np.zeros(count, dtype=np.int64)
                    for k, j in enumerate(nbrs):
                        j_idx += codes[j].astype(np.int64) * m ** k
                    v = action_tables[t][i][signals[i], j_idx].astype(np.int8)
                new_votes[i] = v
                tally[i, t] = np.sum(v != state)
            if codes is not None:
                codes = codes + new_votes.astype(np.int32) * m
            votes = new_votes
        return tally

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(run_chunk, starts))
    else:
        tallies = [run_chunk(s) for s in starts]
    errors = np.sum(tallies, axis=0)
    return RunResult(graph=_graph_descriptor(graph), rule=rule.variant,
                     model_hash=model.config_hash(), seed=seed, samples=samples,
                     rounds=rounds, errors=errors)


class DegreeTables:
    """Adapter serving per-degree decision tables to every node of a graph.

    This is the unknown-graph semantics: an agent's table depends on its
    degree only, so configuration-model samples replay the degree-mixture
    engine's tables.  Each (degree, round) table is expanded to ordered
    inputs once and shared by every node of that degree.
    """

    def __init__(self, engine, graph):
        self.engine = engine
        self.deg = [len(o) for o in graph.observed]
        missing = sorted(set(self.deg) - set(engine.degrees))
        if missing:
            raise ModelError(f"engine lacks tables for degrees {missing}")
        self._actions: dict[tuple[int, int], np.ndarray] = {}

    def action_table(self, node: int, t: int) -> np.ndarray:
        key = (self.deg[node], t)
        if key not in self._actions:
            g = self.engine.dense_decisions(*key)
            self._actions[key] = (g // self.engine.n_actions ** t).astype(np.int8)
        return self._actions[key]


def interior_nodes(graph, t: int, d: int | None = None) -> set[int]:
    """Nodes whose radius-t ball matches the depth-t d-regular ball.

    The induced ball must be a tree and every node strictly inside it must
    have degree d; such nodes follow the infinite-tree exact values through
    round t.
    """
    adj = graph.adjacency
    if d is None:
        d = max((len(a) for a in adj), default=0)
    out = set()
    for i in range(graph.n):
        members = ball(graph, i, t)
        inner = ball(graph, i, t - 1) if t >= 1 else set()
        edge_count = sum(1 for v in members for w in adj[v] if w in members) // 2
        if edge_count != len(members) - 1:
            continue
        if all(len(adj[v]) == d for v in inner) or t == 0:
            out.add(i)
    return out

