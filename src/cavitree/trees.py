"""Finite (almost-)tree topologies and degree distributions.

Graphs are immutable after construction.  Nodes are dense integers; neighbor
lists are kept sorted by node index, which fixes the canonical slot order
used by every trajectory-indexed table.  An edge may be directed
(observer -> observed); undirected edges observe both ways.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import check_int, is_index, is_int

MAX_RETRIES = 1000  # draws of a degree sequence, and of a pairing, per graph


class GraphError(ValueError):
    """Invalid graph construction or query."""


class BudgetError(RuntimeError):
    """A configured resource budget (time, memory, retries) was exhausted."""


@dataclass(frozen=True)
class TreeGraph:
    """Almost-tree of agents: undirected/directed edges plus a hub set.

    Removing the hub nodes must leave a forest (counting directed edges by
    their undirected support, which also rules out directed cycles longer
    than two).  ``observed[i]`` lists the nodes whose votes agent i sees;
    ``adjacency[i]`` lists i's neighbors under the undirected support of all
    edges, sorted.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    directed_edges: tuple[tuple[int, int], ...] = ()
    hubs: frozenset[int] = frozenset()
    observed: tuple[tuple[int, ...], ...] = field(init=False)
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False,
                                                   repr=False)

    def __post_init__(self):
        _node_count(self.n)
        object.__setattr__(self, "hubs", frozenset(self.hubs))
        if not all(map(is_int, self.hubs)):
            raise GraphError(f"hubs must be ints, not {set(self.hubs)}")
        if any(not 0 <= h < self.n for h in self.hubs):
            raise GraphError(f"hubs {sorted(self.hubs)} outside nodes "
                             f"0..{self.n - 1}")
        directed = tuple(tuple(e) for e in self.directed_edges)
        seen = set()
        for i, j in (*self.edges, *directed):
            if not (is_index(i, self.n) and is_index(j, self.n)) or i == j:
                raise GraphError(f"bad edge ({i!r}, {j!r})")
            if (min(i, j), max(i, j)) in seen:
                raise GraphError(f"duplicate edge between {i} and {j}")
            seen.add((min(i, j), max(i, j)))
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "directed_edges", directed)
        obs: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in edges:
            obs[i].add(j)
            obs[j].add(i)
        for i, j in directed:
            obs[i].add(j)
        object.__setattr__(self, "observed", tuple(tuple(sorted(s)) for s in obs))
        object.__setattr__(self, "adjacency", _sorted_adjacency(
            self.n, edges + directed))


def _node_count(n) -> int:
    """``n`` if it is an int >= 0, else ``GraphError``."""
    check_int("n", n, 0, GraphError)
    return n


def _sorted_adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return tuple(tuple(sorted(s)) for s in adj)


def validate(graph: TreeGraph) -> str | None:
    """Check the almost-tree invariants; returns None or a diagnostic.

    The undirected support of all edges, restricted to non-hub nodes, must
    be acyclic.  A violating cycle is named in the diagnostic.
    """
    adj = graph.adjacency
    keep = [v for v in range(graph.n) if v not in graph.hubs]
    parent: dict[int, int | None] = {}
    for root in keep:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in graph.hubs:
                    continue
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
                elif parent[v] != w:
                    cycle = _trace_cycle(parent, v, w)
                    return f"cycle through nodes {cycle} survives hub removal"
    return None


def _trace_cycle(parent: dict[int, int | None], v: int, w: int) -> list[int]:
    path_v = [v]
    while parent[path_v[-1]] is not None:
        path_v.append(parent[path_v[-1]])
    path_w = [w]
    while parent[path_w[-1]] is not None:
        path_w.append(parent[path_w[-1]])
    common = set(path_v) & set(path_w)
    iv = next(i for i, u in enumerate(path_v) if u in common)
    iw = next(i for i, u in enumerate(path_w) if u in common)
    return path_v[: iv + 1] + path_w[:iw][::-1]


def ball(graph: TreeGraph, i: int, t: int) -> set[int]:
    """All nodes at support distance <= t from node i."""
    if not is_index(i, graph.n):
        raise GraphError(f"no node {i!r} in a graph of {graph.n} nodes")
    check_int("ball radius", t, 0, GraphError)
    adj = graph.adjacency
    dist = {i: 0}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        if dist[v] == t:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return set(dist)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def path_graph(n: int) -> TreeGraph:
    return TreeGraph(n=n, edges=tuple(
        (k, k + 1) for k in range(_node_count(n) - 1)))


def star_graph(n: int) -> TreeGraph:
    """Center node 0 with n-1 leaves."""
    return TreeGraph(n=n, edges=tuple((0, k) for k in range(1, _node_count(n))))


def _level_tree(arities) -> TreeGraph:
    """Rooted tree grown level by level from node 0: each node of level l
    gets ``arities[l]`` children, numbered in order."""
    edges, frontier, count = [], [0], 1
    for arity in arities:
        nxt = list(range(count, count + arity * len(frontier)))
        edges += [(v, c) for k, v in enumerate(frontier)
                  for c in nxt[k * arity:(k + 1) * arity]]
        frontier, count = nxt, count + len(nxt)
    return TreeGraph(n=count, edges=tuple(edges))


def regular_tree(d: int, depth: int) -> TreeGraph:
    """Truncated d-regular tree: the root and every internal node have degree d.

    Node 0 is the root; nodes are added level by level.
    """
    check_int("d", d, 1, GraphError)
    check_int("depth", depth, 0, GraphError)
    return _level_tree([d] + [d - 1] * (depth - 1) if depth else [])


def rooted_arity_tree(arity: int, depth: int) -> TreeGraph:
    """Rooted tree where every non-leaf has ``arity`` children (root included)."""
    check_int("arity", arity, 1, GraphError)
    check_int("depth", depth, 0, GraphError)
    return _level_tree([arity] * depth)


# ---------------------------------------------------------------------------
# Degree distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeDistribution:
    support: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        if not all(map(is_int, self.support)):
            raise GraphError(f"degrees must be ints, not {tuple(self.support)!r}")
        support = tuple(int(d) for d in self.support)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if len(support) != len(probs) or len(support) == 0:
            raise GraphError("support and probs must be matching non-empty sequences")
        if len(set(support)) != len(support) or any(d < 0 for d in support):
            raise GraphError("support must be distinct nonnegative degrees")
        if (not np.all(np.isfinite(probs)) or np.any(probs < 0)
                or abs(probs.sum() - 1.0) > 1e-12):
            raise GraphError("probabilities must be finite, nonnegative and "
                             "sum to 1")

    def as_dict(self) -> dict[int, float]:
        return {d: float(p) for d, p in zip(self.support, self.probs)}

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))


def edge_perspective(rho_v: DegreeDistribution) -> DegreeDistribution:
    """Degree law of the node reached over a uniformly random edge.

    rho_E(d) = d rho_V(d) / sum_d' d' rho_V(d').
    """
    mean = rho_v.mean()
    if mean <= 0:
        raise GraphError("edge perspective undefined: all mass on degree 0")
    probs = np.array([d * p / mean for d, p in zip(rho_v.support, rho_v.probs)])
    return DegreeDistribution(support=rho_v.support, probs=probs)


# ---------------------------------------------------------------------------
# Configuration-model sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledGraph:
    """A configuration-model sample: a general graph, not validated as a tree.

    ``tree_ball_radius[i]`` is the largest t such that the ball of radius t
    around i induces a tree; nodes in an acyclic component report ``n``.
    Every edge is undirected, so ``observed`` is the sorted ``adjacency``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    tree_ball_radius: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False,
                                                   repr=False)

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _sorted_adjacency(
            _node_count(self.n), self.edges))

    @property
    def observed(self) -> tuple[tuple[int, ...], ...]:
        return self.adjacency


def sample_configuration_graph(
    rho_v: DegreeDistribution,
    n: int,
    seed: int,
) -> SampledGraph:
    """Uniform half-edge pairing with rejection of self-loops and multi-edges.

    Degrees are drawn i.i.d. from rho_V and redrawn until their sum is even;
    a pairing containing a self-loop or a double edge is rejected wholesale,
    each at most ``MAX_RETRIES`` times.
    """
    _node_count(n)
    check_int("seed", seed, 0, GraphError)
    rng = np.random.default_rng(seed)
    support = np.array(rho_v.support)
    for _ in range(MAX_RETRIES):
        degrees = rng.choice(support, size=n, p=rho_v.probs)
        if degrees.sum() % 2 == 0:
            break
    else:
        raise BudgetError("could not draw an even degree sequence")
    stubs = np.repeat(np.arange(n), degrees)
    for _ in range(MAX_RETRIES):
        perm = rng.permutation(len(stubs))
        a = stubs[perm[0::2]]
        b = stubs[perm[1::2]]
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = lo.astype(np.int64) * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        edges = tuple((int(x), int(y)) for x, y in zip(lo, hi))
        adj = _sorted_adjacency(n, edges)
        return SampledGraph(n=n, edges=edges, tree_ball_radius=tuple(
            _tree_radius_from(i, adj, n) for i in range(n)))
    raise BudgetError(f"pairing rejected {MAX_RETRIES} times "
                      "(self-loops or multi-edges every draw)")


def _tree_radius_from(i: int, adj: Sequence[Sequence[int]], n: int) -> int:
    # A non-tree edge (v, w) puts a cycle inside every ball of radius
    # >= max(dist[v], dist[w]); the answer is the minimum over such edges.
    dist = {i: 0}
    parent = {i: -1}
    queue = deque([i])
    best = n + 1
    while queue:
        v = queue.popleft()
        if dist[v] >= best:
            break  # every later edge has an endpoint this deep
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
            elif w != parent[v]:
                best = min(best, max(dist[v], dist[w]))
    return n if best > n else best - 1


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------

def graph_from_json(doc: dict) -> TreeGraph:
    """Read {"n": .., "edges": [[i, j], ..]} with optional "directed_edges"
    and "hubs", every node count and index a JSON integer; a document of
    the wrong shape, or with a field it does not read, raises
    ``GraphError``."""
    if not isinstance(doc, dict):
        raise GraphError("a graph document is a JSON object")
    unknown = set(doc) - {"n", "edges", "directed_edges", "hubs"}
    if unknown:
        raise GraphError(f"unknown graph field {min(unknown)!r}")
    try:
        n = doc["n"]
        pairs = {key: tuple((i, j) for i, j in doc.get(key, []))
                 for key in ("edges", "directed_edges")}
        hubs = frozenset(doc.get("hubs", []))
    except KeyError as exc:
        raise GraphError(f"graph document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    return TreeGraph(n=n, edges=pairs["edges"],
                     directed_edges=pairs["directed_edges"], hubs=hubs)
