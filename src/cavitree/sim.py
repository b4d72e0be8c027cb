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
import math
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
_MAX_BITS = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 of a fresh uint64 array, overwriting it."""
    z += _GAMMA
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def counter_uniform(seed: int, kind: int, sample: np.ndarray, node: int,
                    t: int) -> np.ndarray:
    """Deterministic uniform in [0, 1) for each (seed, kind, sample, node, t)."""
    return _node_uniform(_stream(seed, kind, sample), node, t)


def _stream(seed: int, kind: int, sample: np.ndarray) -> np.ndarray:
    """The first two mixing rounds, shared by every node and round.  The
    seed is mixed before it meets the counter: xored in raw, nearby seeds
    only permute the low counter bits, so over a sample range that is a
    multiple of their difference they draw the same numbers."""
    key = _mix(np.array([seed & _MAX_BITS], dtype=np.uint64))[0]
    z = _mix(np.asarray(sample, dtype=np.uint64) ^ key)
    z ^= np.uint64(kind)
    return _mix(z)


def _node_bits(stream: np.ndarray, node: int, t: int) -> np.ndarray:
    z = _mix(stream ^ np.uint64(node))
    if t:  # round 0 (every signal draw) skips a pass: xor with 0 is a no-op
        z ^= np.uint64(t)
    return _mix(z)


def _node_uniform(stream: np.ndarray, node: int, t: int) -> np.ndarray:
    """The top 53 bits of each draw, scaled exactly into [0, 1)."""
    u = (_node_bits(stream, node, t) >> np.uint64(11)).astype(np.float64)
    u *= 2.0 ** -53
    return u


def _bits_cut(c: float) -> int:
    """The least k with k * 2**-53 >= c, so that a draw's u >= c exactly
    when its top 53 bits are >= the cut; no draw reaches it when c >= 1."""
    return math.ceil(c * 2.0 ** 53)


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


# Elements per block temporary: the gathers of one class run over blocks
# of at most this many (node, sample) pairs.
_BLOCK = 1 << 20


def _group_nodes(obs, payloads: list) -> list[tuple]:
    """Nodes sharing one payload object and one degree, grouped as
    (payload, nodes, neighbour matrix of shape (nodes, degree))."""
    groups: dict = {}
    for i, payload in enumerate(payloads):
        groups.setdefault((id(payload), len(obs[i])), (payload, []))[1].append(i)
    return [(payload, np.array(nodes, dtype=np.intp),
             np.array([obs[i] for i in nodes], dtype=np.intp).reshape(
                 len(nodes), deg))
            for (_, deg), (payload, nodes) in groups.items()]


def _replay(table: np.ndarray, signals: np.ndarray, codes: np.ndarray,
            nbr: np.ndarray, m: int) -> np.ndarray:
    """Votes of a block of nodes sharing one flattened (signal, packed
    neighbour codes) table.  The index is built digit by digit, Horner-wise,
    in the narrowest dtype that holds it."""
    j = signals.astype(np.min_scalar_type(table.size - 1))
    for k in range(nbr.shape[1] - 1, -1, -1):
        j *= m
        j += codes[nbr[:, k]]
    return table.take(j)


def _majority(votes: np.ndarray, block: np.ndarray, nbr: np.ndarray,
              coin_stream: np.ndarray, t: int) -> np.ndarray:
    """Majority votes of a block of equal-degree nodes; a node with a tie
    draws its coins from its own counter stream."""
    ones = np.zeros((len(block), votes.shape[1]), dtype=np.int16)
    for k in range(nbr.shape[1]):
        ones += votes[nbr[:, k]]
    margin = 2 * ones.astype(np.int32) - nbr.shape[1]
    v = (margin > 0).astype(np.int8)
    tie = margin == 0
    for r in np.flatnonzero(tie.any(axis=1)):
        coin = _node_uniform(coin_stream, int(block[r]), t) < 0.5
        np.copyto(v[r], coin, where=tie[r])
    return v


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
    tie coins come from the counter stream.  Nodes that are served one
    table object (majority: nodes of one degree) vote in one gather per
    block of nodes, not one per node.
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

    bayesian = rule.variant == "bayesian"
    if bayesian:
        steps = []
        for t in range(1, rounds + 1):
            groups = _group_nodes(obs, [tables.action_table(i, t)
                                        for i in range(n)])
            for table, _, nbr in groups:
                want = (model.n_signals, n_a ** (t * nbr.shape[1]))
                if np.shape(table) != want:
                    raise ModelError(f"round-{t} action table has shape "
                                     f"{np.shape(table)}, not {want}")
            steps.append([(np.ascontiguousarray(table, dtype=np.int8).ravel(),
                           nodes, nbr) for table, nodes, nbr in groups])
    else:
        steps = [_group_nodes(obs, [None] * n)] * rounds
    codes_dtype = np.min_scalar_type(n_a ** (rounds + 1) - 1)

    # A draw counts the CDF entries its uniform reaches, all but the last:
    # a row may sum to just below 1, so a draw could reach that one too.
    prior_cdf = np.cumsum(model.prior)[:-1]
    # Each likelihood-CDF entry is compared on the top 53 bits, which skips
    # the float conversion; an entry above 1 gets a cut no draw reaches.
    bits_cuts = np.array([[_bits_cut(c) for c in row]
                          for row in np.cumsum(model.likelihood, axis=1)[:, :-1]],
                         dtype=np.uint64)

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
        thresholds = [bits_cuts[state, x] for x in range(bits_cuts.shape[1])]
        signals = np.zeros((n, count), dtype=np.int8)
        # Node by node: drawing blocks of nodes at once measured slower.
        for i in range(n):
            bits = _node_bits(signal_stream, i, 0)
            bits >>= np.uint64(11)
            for column in thresholds:
                signals[i] += bits >= column
        votes = vote0[signals]
        codes = votes.astype(codes_dtype) if bayesian else None
        tally[:, 0] = np.count_nonzero(votes != state, axis=1)
        rows = max(1, _BLOCK // count)
        for t in range(1, rounds + 1):
            m = n_a ** t
            new_votes = np.empty_like(votes)
            for table, nodes, nbr in steps[t - 1]:
                for b in range(0, len(nodes), rows):
                    block, block_nbr = nodes[b:b + rows], nbr[b:b + rows]
                    if bayesian:
                        v = _replay(table, signals[block], codes, block_nbr, m)
                    else:
                        v = _majority(votes, block, block_nbr, coin_stream, t)
                    new_votes[block] = v
                    tally[block, t] = np.count_nonzero(v != state, axis=1)
            if bayesian and t < rounds:
                codes += new_votes.astype(codes_dtype) * m
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

