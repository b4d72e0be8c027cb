"""Reference values the benchmark checks the program against.

Nothing here calls into ``cavitree``: the figures are the paper's published
tables, closed forms derived from the model's definitions, a breadth-first
search, and the repository's exact-rational reference
``tests/exact_reference.py`` (standard library only).
"""

from __future__ import annotations

import importlib.util
import math
from collections import deque
from fractions import Fraction
from itertools import product

# Published error tables (Tables 1, 2 and 4), keyed by (rule, d, noise) and
# listed by round.  Majority at noise 0.3 has no published column.
PAPER = {
    ("bayesian", 5, 0.15): [0.15, 2.7e-2, 7.6e-4, 2.8e-7, 1.4e-12],
    ("majority", 5, 0.15): [0.15, 2.7e-2, 1.7e-3, 8.4e-6, 2.5e-10],
    ("bayesian", 3, 0.15): [0.15, 6.1e-2, 1.5e-2, 3.0e-3, 3.4e-4, 2.7e-5,
                            2.2e-6, 1.4e-7],
    ("majority", 3, 0.15): [0.15, 6.1e-2, 3.0e-2, 1.6e-2, 9.2e-3, 5.5e-3,
                            3.4e-3, 3.4e-3],
    ("bayesian", 3, 0.3): [0.30, 0.22, 0.13, 7.8e-2, 3.8e-2, 1.7e-2, 5.7e-3,
                           1.5e-3],
    ("bayesian", 5, 0.3): [0.30, 0.16, 5.1e-2, 4.1e-3, 1.6e-5],
    ("bayesian", 7, 0.3): [0.30, 0.13, 1.3e-2, 4.4e-6],
}
# Two published entries are errata; these are their exact-rational values,
# the same ones ``PUBLISHED_ERRATA`` in tests/test_acceptance.py holds.
ERRATA = {
    ("bayesian", 5, 0.15, 4): 2.192383730866e-14,
    ("majority", 3, 0.15, 7): 2.098666628445e-3,
}
PAPER_RTOL = 0.10

# P(round-5 vote != state) for the Bayesian d=5, noise 0.15 column, from
# ExactRegularTree("bayesian", 5, Fraction(3, 20)).error(5); recomputing it
# takes about 85 s (see bench/README.md).
FRONTIER_ROUND5 = 1.0384562804931684e-28
EXACT_RTOL = 1e-10
ORACLE_ATOL = 1e-10


def paper_column(rule: str, d: int, noise: float) -> list[float] | None:
    col = PAPER.get((rule, d, noise))
    if col is None:
        return None
    return [ERRATA.get((rule, d, noise, t), v) for t, v in enumerate(col)]


class ExactColumns:
    """Exact error curves from tests/exact_reference.py, computed once each."""

    def __init__(self, root):
        path = root / "tests" / "exact_reference.py"
        spec = importlib.util.spec_from_file_location("exact_reference", path)
        self._module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._module)
        self._curves: dict[tuple, list[float]] = {}

    def curve(self, rule: str, d: int, noise: float, rounds: int) -> list[float]:
        key = (rule, d, noise)
        have = self._curves.get(key, [])
        if len(have) <= rounds:
            exact = self._module.ExactRegularTree(rule, d, Fraction(str(noise)))
            have = [float(v) for v in exact.error_curve(rounds)]
            self._curves[key] = have
        return have[:rounds + 1]


def relative_gap(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# Round-1 closed forms.  The round-0 vote is the private signal, so a round-1
# vote depends only on independent signals: the neighbours' (majority) or the
# agent's own and its neighbours' (Bayesian MAP with the own-signal tie-break).
# ---------------------------------------------------------------------------

def binom_pmf(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)


def vote_wrong(rule: str, degree: int, own_wrong: int, nbrs_wrong: int) -> float:
    """P(round-1 vote is wrong) given which inputs carry a wrong signal."""
    if rule == "majority":
        if 2 * nbrs_wrong == degree:
            return 0.5  # fair coin
        return float(2 * nbrs_wrong > degree)
    wrong = own_wrong + nbrs_wrong
    if 2 * wrong == degree + 1:
        return float(own_wrong)
    return float(2 * wrong > degree + 1)


def round1_error(rule: str, degree: int, noise: float, own_wrong=None,
                 nbrs_wrong: int = 0, nbrs_unknown: int | None = None) -> float:
    """P(round-1 vote wrong), summing over the inputs not fixed by the caller."""
    if nbrs_unknown is None:
        nbrs_unknown = degree - nbrs_wrong
    owns = [own_wrong] if own_wrong is not None else [0, 1]
    total = 0.0
    for own in owns:
        p_own = 1.0 if own_wrong is not None else (noise if own else 1.0 - noise)
        for w in range(nbrs_unknown + 1):
            total += (p_own * binom_pmf(nbrs_unknown, w, noise)
                      * vote_wrong(rule, degree, own, nbrs_wrong + w))
    return total


def active_round1_error(degree: int, noise: float, p: float) -> float:
    """Bayesian round-1 error when each edge shows the vote with probability p."""
    return sum(binom_pmf(degree, a, p) * round1_error("bayesian", a, noise)
               for a in range(degree + 1))


def round1_moments(adj: list[list[int]], rule: str, noise: float
                   ) -> dict[int, tuple[int, float, float]]:
    """Per degree k: (n_k, mean, variance) of the round-1 error rate of one sample.

    The rate is the share of degree-k nodes whose round-1 vote is wrong.  Two
    nodes' votes are dependent exactly when their inputs share a signal; the
    covariance of each such pair is summed over the shared signals.
    """
    n = len(adj)

    def inputs(i):
        return set(adj[i]) | ({i} if rule == "bayesian" else set())

    deg = [len(a) for a in adj]
    p = {k: round1_error(rule, k, noise) for k in set(deg)}
    var = {k: 0.0 for k in p}
    count = {k: 0 for k in p}
    for i in range(n):
        k = deg[i]
        count[k] += 1
        var[k] += p[k] * (1.0 - p[k])
        near = {w for v in adj[i] for w in adj[v]} | set(adj[i])
        for j in near:
            if j <= i or deg[j] != k:
                continue
            shared = sorted(inputs(i) & inputs(j))
            if not shared:
                continue
            joint = 0.0
            for pattern in product((0, 1), repeat=len(shared)):
                weight = math.prod(noise if b else 1.0 - noise for b in pattern)
                cond = []
                for node in (i, j):
                    fixed = dict(zip(shared, pattern))
                    own = fixed.pop(node, None) if rule == "bayesian" else None
                    wrong = sum(fixed[v] for v in adj[node] if v in fixed)
                    known = sum(1 for v in adj[node] if v in fixed)
                    cond.append(round1_error(rule, k, noise, own, wrong,
                                             k - known))
                joint += weight * cond[0] * cond[1]
            var[k] += 2.0 * (joint - p[k] * p[k])
    return {k: (count[k], p[k], var[k] / count[k] ** 2) for k in p}


# ---------------------------------------------------------------------------
# Graph balls by breadth-first search
# ---------------------------------------------------------------------------

def bfs_distances(adj: list[list[int]], root: int, limit: int | None = None
                  ) -> dict[int, int]:
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if limit is not None and dist[v] == limit:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _ball_is_tree(adj, members) -> bool:
    edges = sum(1 for v in members for w in adj[v] if w in members) // 2
    return edges == len(members) - 1


def tree_ball_radius(adj: list[list[int]], root: int) -> int:
    """Largest t whose radius-t ball induces a tree; n for an acyclic component."""
    dist = bfs_distances(adj, root)
    depth = max(dist.values())
    for t in range(1, depth + 1):
        if not _ball_is_tree(adj, {v for v, dv in dist.items() if dv <= t}):
            return t - 1
    return len(adj)


def is_interior(adj: list[list[int]], root: int, t: int, d: int) -> bool:
    """Radius-t ball is a tree and every node strictly inside has degree d."""
    dist = bfs_distances(adj, root, limit=t)
    if not _ball_is_tree(adj, set(dist)):
        return False
    return t == 0 or all(len(adj[v]) == d for v, dv in dist.items() if dv < t)


def standard_error(p: float, samples: int) -> float:
    return math.sqrt(p * (1.0 - p) / samples)
