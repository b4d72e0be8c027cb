"""Seeded Monte Carlo simulation of the learning process on finite graphs.

The simulator never computes posteriors: Bayesian agents replay decision
tables produced by an exact engine, which keeps inference correctness and
sampling correctness separable.  Randomness is counter-based: every draw is
a pure function of (seed, purpose, sample, node, round), so results are
independent of chunking or scheduling and sample batches can run in
parallel.

A draw is one SplitMix64 round over the sample's stream xored with a key per
(node, round), and the keys are built once per run.  This form replaced two
rounds per draw, so its tallies differ from those of earlier versions; the
tests pin two runs' tallies, so that a later change of stream is seen.
Signals are drawn for a cache-sized block of nodes at a time.

A chunk of samples keeps three (nodes x chunk) buffers per worker under the
Bayesian rule: signals, the packed vote codes of past rounds and the round's
votes.  Majority keeps two vote buffers that swap each round, the first of
them the signals'.  Each buffer is one byte per entry (the codes while
actions ** (rounds + 1) <= 256); everything else is a temporary of one block
of nodes.  Misses are counted by popcount over uint64 words of one-byte
mismatch flags.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (ModelError, SignalModel, UpdateRule, action_count,
                    check_int, is_index, is_int, round0_kernel)
from .trees import ball

_KIND_STATE = 1
_KIND_SIGNAL = 2
_KIND_COIN = 3

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MAX_BITS = (1 << 64) - 1
_HALF = np.uint64(1 << 63)


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
    """Deterministic uniform in [0, 1) for each (seed, kind, sample, node, t):
    the draw the replay makes.  The seed is read modulo 2**64; ``kind``,
    ``node`` and ``t`` must be ints in 0..2**64 - 1."""
    if not is_int(seed):
        raise ModelError(f"seed must be an int, not {seed!r}")
    for name, value in (("kind", kind), ("node", node), ("t", t)):
        if not is_index(value, _MAX_BITS + 1):
            raise ModelError(f"{name} must be an int in 0..2**64 - 1, "
                             f"not {value!r}")
    bits = _draw_bits(_stream(seed, kind, sample), _keys([node], t))[0]
    u = (bits >> np.uint64(11)).astype(np.float64)
    u *= 2.0 ** -53
    return u


def _stream(seed: int, kind: int, sample: np.ndarray) -> np.ndarray:
    """The first two mixing rounds, shared by every node and round.  The
    seed is mixed before it meets the counter: xored in raw, nearby seeds
    only permute the low counter bits, so over a sample range that is a
    multiple of their difference they draw the same numbers."""
    key = _mix(np.array([int(seed) & _MAX_BITS], dtype=np.uint64))[0]
    z = _mix(np.asarray(sample, dtype=np.uint64) ^ key)
    z ^= np.uint64(kind)
    return _mix(z)


def _keys(nodes, t: int) -> np.ndarray:
    """The key of each (node, t), mix(mix(node) ^ t)."""
    z = _mix(np.array(nodes, dtype=np.uint64))
    z ^= np.uint64(t)
    return _mix(z)


def _draw_bits(stream: np.ndarray, keys: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The raw draws of each key on each sample's stream, one mixing round
    of their xor, shape (keys, samples); written to ``out`` if given."""
    return _mix(np.bitwise_xor(stream, keys[:, None], out=out))


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


# Elements per block temporary: the gathers of one class, and its tie coins,
# run over blocks of at most this many (node, sample) pairs.  Blocks of
# 2**20 spill the cache and took about 15% more CPU on one thread; blocks of
# 2**16 add per-block Python, which holds the lock that two threads share.
_BLOCK = 1 << 18
# Signal draws per block, 128 KiB of uint64 bits: one node per block at the
# default chunk, several at smaller chunks.
_DRAW = 1 << 14


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
              coin_stream: np.ndarray, coin_keys: np.ndarray) -> np.ndarray:
    """Majority votes of a block of equal-degree nodes; the nodes with a
    tie draw their coins from their own counter streams, in one call.  A
    coin is heads when its raw bits are below 2**63, exactly u < 0.5."""
    ones = np.zeros((len(block), votes.shape[1]), dtype=np.int16)
    for k in range(nbr.shape[1]):
        ones += votes[nbr[:, k]]
    margin = 2 * ones.astype(np.int32) - nbr.shape[1]
    v = (margin > 0).astype(np.int8)
    tie = margin == 0
    tied = np.flatnonzero(tie.any(axis=1))
    if len(tied):
        coin = _draw_bits(coin_stream, coin_keys[block[tied]]) < _HALF
        v[tied] = np.where(tie[tied], coin, v[tied])
    return v


def check_counts(rounds: int, samples: int, seed: int,
                 chunk: int = 1 << 14, threads: int = 1) -> None:
    """Refuse a sample, chunk or thread count below 1, a round count below
    0, any of them not an int, and a seed outside 0..2**64 - 1."""
    for name, value, least in (("samples", samples, 1), ("chunk", chunk, 1),
                               ("threads", threads, 1), ("rounds", rounds, 0)):
        check_int(name, value, least)
    if not is_index(seed, _MAX_BITS + 1):
        raise ModelError(f"seed must be an int in 0..2**64 - 1, not {seed!r}")


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
    check_counts(rounds, samples, seed, chunk, threads)
    n = graph.n
    obs = graph.observed
    if rule.variant == "bayesian" and tables is None:
        raise ModelError("the Bayesian rule replays decision tables; supply them")
    rule.check_degrees([len(o) for o in obs])
    n_a = action_count(model, rule)
    kern0 = round0_kernel(model, rule, n_a)
    if any(len(k) != 1 for k in kern0):
        raise ModelError("stochastic round-0 votes are not supported in replay")
    vote0 = np.array([k[0][0] for k in kern0], dtype=np.int8)
    vote0_identity = np.array_equal(vote0, np.arange(len(vote0)))

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
    signal_cdf = np.cumsum(model.likelihood, axis=1)[:, :-1]
    if signal_cdf.shape[1] == 0:  # one signal: one entry no draw reaches
        signal_cdf = np.full((model.n_states, 1), 2.0)
    # Each likelihood-CDF entry is compared on the top 53 bits, which skips
    # the float conversion; an entry above 1 gets a cut no draw reaches.
    bits_cuts = np.array([[_bits_cut(c) for c in row] for row in signal_cdf],
                         dtype=np.uint64)

    # The keys of each round a draw is made in: the signals' at round 0, and
    # under majority the tie coins' at rounds 1..rounds.
    keys = [_keys(np.arange(n), t)
            for t in range(1 if bayesian else rounds + 1)]
    starts = list(range(0, samples, chunk))

    def run_chunk(start: int) -> np.ndarray:
        stop = min(start + chunk, samples)
        idx = np.arange(start, stop, dtype=np.uint64)
        count = len(idx)
        tally = np.zeros((n, rounds + 1), dtype=np.int64)
        u = counter_uniform(seed, _KIND_STATE, idx, 0, 0)
        state = np.searchsorted(prior_cdf, u, side="right").astype(np.int8)
        signal_stream = _stream(seed, _KIND_SIGNAL, idx)
        coin_stream = None if bayesian else _stream(seed, _KIND_COIN, idx)
        thresholds = [bits_cuts[state, x] for x in range(bits_cuts.shape[1])]
        signals = np.empty((n, count), dtype=np.int8)
        # One draw buffer per chunk: a fresh one per block is 128 KiB at the
        # default chunk, glibc's mmap threshold, so its cost would depend on
        # the allocator's state.
        draw_rows = max(1, _DRAW // count)
        buffer = np.empty((min(draw_rows, n), count), dtype=np.uint64)
        for b in range(0, n, draw_rows):
            block_keys = keys[0][b:b + draw_rows]
            bits = _draw_bits(signal_stream, block_keys,
                              out=buffer[:len(block_keys)])
            bits >>= np.uint64(11)
            # The first compare writes the signals, so a binary signal takes
            # one; each further cut adds the draws that reach it.
            drawn = signals[b:b + draw_rows]
            np.greater_equal(bits, thresholds[0], out=drawn)
            for column in thresholds[1:]:
                drawn += bits >= column
        rows = max(1, _BLOCK // count)
        # Misses are counted by popcount: a block's one-byte mismatch flags,
        # padded with False to whole uint64 words, are read as words.
        flags = np.zeros((min(rows, n), -(-count // 8) * 8), dtype=np.bool_)

        def misses(v: np.ndarray) -> np.ndarray:
            words = flags[:len(v)]
            np.not_equal(v, state, out=words[:, :count])
            return np.bitwise_count(words.view(np.uint64)).sum(axis=1)

        # Round-0 votes go to codes (Bayesian) or over the signals, which
        # majority reads no further; each round's votes go to ``fresh``.
        codes = np.empty((n, count), dtype=codes_dtype) if bayesian else None
        for b in range(0, n, rows):
            v = signals[b:b + rows]
            if not vote0_identity:
                v = vote0[v]
            tally[b:b + rows, 0] = misses(v)
            if bayesian:
                codes[b:b + rows] = v
            elif not vote0_identity:
                signals[b:b + rows] = v
        votes, fresh = signals, np.empty_like(signals)
        for t in range(1, rounds + 1):
            m = n_a ** t
            for table, nodes, nbr in steps[t - 1]:
                for b in range(0, len(nodes), rows):
                    block, block_nbr = nodes[b:b + rows], nbr[b:b + rows]
                    if bayesian:
                        v = _replay(table, signals[block], codes, block_nbr, m)
                    else:
                        v = _majority(votes, block, block_nbr, coin_stream,
                                      keys[t])
                    if t < rounds:
                        fresh[block] = v
                    tally[block, t] = misses(v)
            if t == rounds:
                break
            if bayesian:
                # Only once every node's round-t vote is in ``fresh``: the
                # round's replays read the codes of rounds before it.
                for b in range(0, n, rows):
                    step = fresh[b:b + rows].astype(codes_dtype)
                    step *= m
                    codes[b:b + rows] += step
            else:
                votes, fresh = fresh, votes
        return tally

    # One worker per chunk and usable CPU at most: the pool would start
    # one thread per pending chunk, up to ``threads``.
    workers = min(threads, len(starts), len(os.sched_getaffinity(0)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
    engine's tables: the engine's vote table of a degree, built once and
    shared by every node of that degree.
    """

    def __init__(self, engine, graph):
        self.engine = engine
        deg = [len(o) for o in graph.observed]
        missing = sorted(set(deg) - set(engine.degrees))
        if missing:
            raise ModelError(f"engine lacks tables for degrees {missing}")
        self._class = [engine.degrees.index(d) for d in deg]

    def action_table(self, node: int, t: int) -> np.ndarray:
        if not is_index(node, len(self._class)):
            raise ModelError(f"no action table for node {node!r} in this graph")
        return self.engine.vote_table(t, self._class[node])


def interior_nodes(graph, t: int, d: int | None = None) -> set[int]:
    """Nodes whose radius-t ball matches the depth-t d-regular ball.

    The induced ball must be a tree and every node strictly inside it must
    have degree d; such nodes follow the infinite-tree exact values through
    round t.
    """
    adj = graph.adjacency
    if d is None:
        d = max((len(a) for a in adj), default=0)
    check_int("d", d, 0)
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

