"""The benchmark's workloads: operations to time and the checks on their outputs.

A workload is built from a seed (its set-up) and hands out a list of
operations.  Each operation is one call sequence into the program, timed as
a unit, with a check that runs afterwards, outside the timed section, and
returns the problems it found.  Every round of a run repeats the same
operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cavitree import cli, oracle, sim, trees, verify
from cavitree.cavity import (
    ActiveEdgeEngine,
    ConfigModelEngine,
    FiniteTreeEngine,
    RegularTreeEngine,
    hubs,
)
from cavitree.model import SignalModel, UpdateRule

import reference as ref

BAYES = UpdateRule(variant="bayesian")
MAJORITY = UpdateRule(variant="majority")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _close(got, want, rtol, label) -> list[str]:
    gap = ref.relative_gap(got, want)
    return [] if gap <= rtol else [
        f"{label}: {got:.12e} vs {want:.12e} (relative gap {gap:.2e})"]


def _non_increasing(values, label) -> list[str]:
    return [f"{label} rises at round {t + 1}" for t in range(len(values) - 1)
            if values[t + 1] > values[t]]


class PaperTables:
    """The ten columns of Tables 1, 2 and 4 through ``cavitree table``."""

    name = "paper-tables"
    COLUMNS = [("bayesian", 5, 0.15, 4), ("majority", 5, 0.15, 4),
               ("bayesian", 3, 0.15, 7), ("majority", 3, 0.15, 7),
               ("bayesian", 3, 0.3, 7), ("majority", 3, 0.3, 7),
               ("bayesian", 5, 0.3, 4), ("majority", 5, 0.3, 4),
               ("bayesian", 7, 0.3, 3), ("majority", 7, 0.3, 3)]
    SMALL_COLUMNS = [("bayesian", 5, 0.15, 2), ("majority", 3, 0.15, 3)]
    EXACT = {("bayesian", 5, 0.15), ("majority", 3, 0.15)}

    def __init__(self, root, seed: int, exact: ref.ExactColumns,
                 small: bool = False):
        self.exact = exact
        self.out_dir = root / ".bench_out" / f"{self.name}-seed{seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.columns = list(self.SMALL_COLUMNS if small else self.COLUMNS)
        random.Random(seed).shuffle(self.columns)

    def csv_path(self, rule, d, noise) -> str:
        return str(self.out_dir / f"{rule}-d{d}-noise{noise}.csv")

    def prepare(self):
        for rule, d, noise, rounds in self.columns:
            if (rule, d, noise) in self.EXACT:
                self.exact.curve(rule, d, noise, rounds)

    def operations(self) -> list[Op]:
        return [self._column(*col) for col in self.columns]

    def _column(self, rule, d, noise, rounds) -> Op:
        out = self.csv_path(rule, d, noise)
        argv = ["table", "--rule", rule, "--d", str(d), "--noise", str(noise),
                "--rounds", str(rounds), "--out", out]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code):
            label = f"{rule} d={d} noise={noise}"
            if code != 0:
                return [f"{label}: exit code {code}"]
            with open(out) as fh:
                rows = fh.read().strip().splitlines()[1:]
            values = [float(r.split(",")[4]) for r in rows]
            if len(values) != rounds + 1:
                return [f"{label}: {len(values)} rows for {rounds} rounds"]
            problems = []
            published = ref.paper_column(rule, d, noise)
            for t, want in enumerate(published or []):
                if t <= rounds:
                    problems += _close(values[t], want, ref.PAPER_RTOL,
                                       f"{label} round {t} vs paper")
            if (rule, d, noise) in self.EXACT:
                for t, want in enumerate(self.exact.curve(rule, d, noise,
                                                          rounds)):
                    problems += _close(values[t], want, ref.EXACT_RTOL,
                                       f"{label} round {t} vs exact")
            problems += _close(values[0], noise, 1e-12, f"{label} round 0")
            if rounds >= 1:
                problems += _close(values[1], ref.round1_error(rule, d, noise),
                                   1e-12, f"{label} round 1 vs closed form")
            if rule == "bayesian":
                problems += _non_increasing(values, label)
            with open(out + ".manifest.json") as fh:
                manifest = json.load(fh)
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            named = [o["sha256"] for o in manifest["outputs"] if o["path"] == out]
            if named != [digest]:
                problems.append(f"{label}: manifest digest does not match "
                                "the CSV")
            return problems

        return Op(f"table {rule} d={d} noise={noise}", run, check)


class Frontier:
    """The Bayesian d=5, noise 0.15 column through round 5."""

    name = "frontier"
    D, NOISE = 5, 0.15

    def __init__(self, root, seed: int, exact: ref.ExactColumns,
                 small: bool = False):
        self.exact = exact
        self.rounds = 3 if small else 5
        self.model = SignalModel.binary_symmetric(self.NOISE)

    def prepare(self):
        self.exact.curve("bayesian", self.D, self.NOISE, min(self.rounds, 4))

    def operations(self) -> list[Op]:
        def run():
            engine = RegularTreeEngine(self.model, self.D, BAYES)
            engine.run(self.rounds)
            return [engine.error_probability(t) for t in range(self.rounds + 1)]

        def check(errors):
            want = self.exact.curve("bayesian", self.D, self.NOISE,
                                    min(self.rounds, 4))
            if self.rounds >= 5:
                want = want + [ref.FRONTIER_ROUND5]
            if len(errors) != len(want):
                return [f"{len(errors)} rounds, expected {len(want)}"]
            problems = []
            for t, (got, exact) in enumerate(zip(errors, want)):
                problems += _close(got, exact, ref.EXACT_RTOL,
                                   f"round {t} vs exact")
            return problems + _non_increasing(errors, "frontier column")

        return [Op(f"frontier d={self.D} to round {self.rounds}", run, check)]


class Graphs:
    """Finite trees, a configuration-model sample, active edges, hubs, oracle."""

    name = "graphs"
    NOISE = 0.15
    TREE_ROUNDS = 2
    MIXTURE = ((3, 4), (0.5, 0.5))  # degree 4 is even: majority ties
    INTERIOR_T = 2
    RADIUS_SAMPLE = 64
    ACTIVE = (3, 4, 0.7)  # degree, rounds, activation probability
    FULL_ACTIVE = (5, 2)
    HUB_GRAPH = dict(n=6, edges=((0, 1), (0, 2), (1, 2), (0, 3), (1, 4),
                                 (2, 5)))
    HUB = 2

    def __init__(self, root, seed: int, exact: ref.ExactColumns,
                 small: bool = False):
        self.exact = exact
        rng = random.Random(seed)
        self.model = SignalModel.binary_symmetric(self.NOISE)
        if small:
            self.tree_d, depth, self.tree_samples = 3, 3, 2000
            self.chunk_samples, self.chunks = 300, (300, 128)
            self.n_config, self.config_samples = 150, 1000
            self.suite = (4, 2)
        else:
            self.tree_d, depth, self.tree_samples = 5, 5, 20000
            self.chunk_samples, self.chunks = 600, (600, 256)
            self.n_config, self.config_samples = 800, 4000
            self.suite = (8, 3)
        self.tree = trees.regular_tree(self.tree_d, depth)
        support, probs = self.MIXTURE
        self.rho = trees.DegreeDistribution(support, np.array(probs))
        self.config_seed = rng.randrange(1 << 31)
        self.tree_seed = rng.randrange(1 << 31)
        self.replay_seed = rng.randrange(1 << 31)
        self.radius_nodes = rng.sample(range(self.n_config),
                                       min(self.RADIUS_SAMPLE, self.n_config))
        self.hub_node = rng.choice((0, 1))
        self.hub_graph = trees.TreeGraph(**self.HUB_GRAPH,
                                         hubs=frozenset({self.HUB}))
        self.loopy_graph = trees.TreeGraph(**self.HUB_GRAPH)
        self._moments: dict = {}
        self.state: dict = {}

    def prepare(self):
        self.exact.curve("bayesian", self.tree_d, self.NOISE, self.TREE_ROUNDS)
        self.exact.curve("bayesian", self.FULL_ACTIVE[0], self.NOISE,
                         self.FULL_ACTIVE[1])

    def operations(self) -> list[Op]:
        return [
            Op("finite-tree engine", self._finite_tree, self._check_finite),
            Op("tree replay", self._tree_replay, self._check_tree_replay),
            Op("chunked replay", self._chunked_replay, self._check_chunks),
            Op("configuration sample", self._sample, self._check_sample),
            Op("degree-mixture engine", self._config_engine,
               self._check_config_engine),
            Op("degree-table replay", self._config_bayes,
               lambda r: self._check_round1(r, "bayesian")),
            Op("majority replay", self._config_majority,
               self._check_majority),
            Op("interior nodes", self._interior, self._check_interior),
            Op("active edges p<1", self._active_partial,
               self._check_active_partial),
            Op("active edges p=1", self._active_full, self._check_active_full),
            Op("hub posterior", self._hub_posteriors, self._check_hubs),
            Op("oracle equivalence", self._oracle_suite, self._check_suite),
        ]

    # -- finite tree --------------------------------------------------------

    def _finite_tree(self):
        engine = FiniteTreeEngine(self.tree, self.model, BAYES)
        engine.run(self.TREE_ROUNDS)
        self.state["tree_engine"] = engine
        return [engine.error_probability(0, t)
                for t in range(self.TREE_ROUNDS + 1)]

    def _check_finite(self, errors):
        want = self.exact.curve("bayesian", self.tree_d, self.NOISE,
                                self.TREE_ROUNDS)
        problems = []
        for t, (got, exact) in enumerate(zip(errors, want)):
            problems += _close(got, exact, ref.EXACT_RTOL,
                               f"root round {t} vs exact")
        return problems

    def _tree_replay(self):
        return sim.simulate(self.tree, self.model, BAYES, self.TREE_ROUNDS,
                            self.tree_samples, self.tree_seed,
                            tables=self.state["tree_engine"], threads=1)

    def _check_tree_replay(self, result):
        want = self.exact.curve("bayesian", self.tree_d, self.NOISE,
                                self.TREE_ROUNDS)
        problems = []
        for t, exact in enumerate(want):
            rate = result.errors[0, t] / result.samples
            se = ref.standard_error(exact, result.samples)
            if abs(rate - exact) > 4 * se:
                problems.append(f"root round {t}: replayed {rate:.4e} vs "
                                f"exact {exact:.4e}, beyond 4 SE ({se:.2e})")
        return problems

    def _chunked_replay(self):
        engine = self.state["tree_engine"]
        return [sim.simulate(self.tree, self.model, BAYES, self.TREE_ROUNDS,
                             self.chunk_samples, self.tree_seed, tables=engine,
                             chunk=chunk, threads=1).errors
                for chunk in self.chunks]

    def _check_chunks(self, tallies):
        first, second = tallies
        return [] if np.array_equal(first, second) else [
            f"chunk sizes {self.chunks} give different tallies"]

    # -- configuration model ------------------------------------------------

    def _sample(self):
        graph = trees.sample_configuration_graph(self.rho, self.n_config,
                                                 self.config_seed)
        self.state["config_graph"] = graph
        return graph

    def _adjacency(self, graph):
        adj = [[] for _ in range(graph.n)]
        for i, j in graph.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def _check_sample(self, graph):
        adj = self._adjacency(graph)
        problems = []
        pairs = {tuple(sorted(e)) for e in graph.edges}
        if len(pairs) != len(graph.edges) or any(i == j for i, j in pairs):
            problems.append("sample has a self-loop or a multi-edge")
        if any(len(a) not in self.rho.support for a in adj):
            problems.append("sample has a degree outside the support")
        for i in self.radius_nodes:
            want = ref.tree_ball_radius(adj, i)
            if graph.tree_ball_radius[i] != want:
                problems.append(f"node {i}: tree-ball radius "
                                f"{graph.tree_ball_radius[i]} vs BFS {want}")
        return problems

    def _config_engine(self):
        engine = ConfigModelEngine(self.model, self.rho, BAYES)
        engine.run(self.TREE_ROUNDS)
        self.state["config_engine"] = engine
        return {k: [engine.error_probability(t, degree=k)
                    for t in range(self.TREE_ROUNDS + 1)]
                for k in self.rho.support}

    def _check_config_engine(self, per_degree):
        problems = []
        for k, errors in per_degree.items():
            problems += _close(errors[0], self.NOISE, 1e-12,
                               f"degree {k} round 0")
            problems += _close(errors[1],
                               ref.round1_error("bayesian", k, self.NOISE),
                               1e-12, f"degree {k} round 1 vs closed form")
            problems += _non_increasing(errors, f"degree {k}")
        return problems

    def _config_bayes(self):
        graph = self.state["config_graph"]
        tables = sim.DegreeTables(self.state["config_engine"], graph)
        result = sim.simulate(graph, self.model, BAYES, self.TREE_ROUNDS,
                              self.config_samples, self.replay_seed,
                              tables=tables, threads=1)
        self.state["config_bayes"] = result
        return result

    def _config_majority(self):
        result = sim.simulate(self.state["config_graph"], self.model, MAJORITY,
                              self.TREE_ROUNDS, self.config_samples,
                              self.replay_seed, threads=1)
        return result, self.state["config_bayes"]

    def _check_round1(self, result, rule):
        graph = self.state["config_graph"]
        key = (rule, graph.edges)
        if key not in self._moments:
            self._moments[key] = ref.round1_moments(self._adjacency(graph),
                                                    rule, self.NOISE)
        degree = np.array([len(a) for a in self._adjacency(graph)])
        problems = []
        for k, (count, mean, var) in self._moments[key].items():
            rate = result.errors[degree == k, 1].sum() / (count * result.samples)
            se = (var / result.samples) ** 0.5
            if abs(rate - mean) > 4 * se:
                problems.append(f"{rule} degree {k} round 1: replayed "
                                f"{rate:.5e} vs {mean:.5e}, beyond 4 SE "
                                f"({se:.2e})")
        return problems

    def _check_majority(self, results):
        majority, bayes = results
        problems = self._check_round1(majority, "majority")
        if not np.array_equal(majority.errors[:, 0], bayes.errors[:, 0]):
            problems.append("round-0 tallies differ between the two rules "
                            "under one seed")
        return problems

    def _interior(self):
        return sim.interior_nodes(self.state["config_graph"], self.INTERIOR_T,
                                  max(self.rho.support))

    def _check_interior(self, interior):
        adj = self._adjacency(self.state["config_graph"])
        d = max(self.rho.support)
        wrong = [i for i in range(len(adj))
                 if (i in interior) != ref.is_interior(adj, i, self.INTERIOR_T,
                                                       d)]
        return [f"interior membership wrong at nodes {wrong[:8]}"] if wrong \
            else []

    # -- extensions ---------------------------------------------------------

    def _active_partial(self):
        d, rounds, p = self.ACTIVE
        engine = ActiveEdgeEngine(self.model, d, BAYES, p=p)
        engine.run(rounds)
        return [engine.error_probability(t) for t in range(rounds + 1)]

    def _check_active_partial(self, errors):
        d, _, p = self.ACTIVE
        return (_close(errors[0], self.NOISE, 1e-12, "round 0")
                + _close(errors[1], ref.active_round1_error(d, self.NOISE, p),
                         1e-12, "round 1 vs closed form")
                + _non_increasing(errors, "active-edge column"))

    def _active_full(self):
        d, rounds = self.FULL_ACTIVE
        engine = ActiveEdgeEngine(self.model, d, BAYES, p=1.0)
        engine.run(rounds)
        plain = RegularTreeEngine(self.model, d, BAYES)
        plain.run(rounds)
        return [(engine.error_probability(t), plain.error_probability(t))
                for t in range(rounds + 1)]

    def _check_active_full(self, pairs):
        d, rounds = self.FULL_ACTIVE
        want = self.exact.curve("bayesian", d, self.NOISE, rounds)
        problems = [f"round {t}: p=1 gives {a!r}, all-active {b!r}"
                    for t, (a, b) in enumerate(pairs) if a != b]
        for t, ((got, _), exact) in enumerate(zip(pairs, want)):
            problems += _close(got, exact, ref.EXACT_RTOL,
                               f"round {t} vs exact")
        return problems

    def _hub_posteriors(self):
        node = self.hub_node
        tensor = oracle.unroll(self.loopy_graph, self.model, BAYES, 1)
        nbrs = self.hub_graph.observed[node]
        out = []
        for x in range(self.model.n_signals):
            for obs in np.ndindex(*(2,) * len(nbrs)):
                post = hubs.posterior_with_hubs(self.hub_graph, self.model,
                                                BAYES, node, x,
                                                dict(zip(nbrs, obs)), 1)
                idx = oracle.feasible_set(tensor, node, x, obs, 0)
                w = self.model.prior * tensor.signal_probs[:, idx].sum(axis=1)
                out.append((post, w / w.sum()))
        return out

    def _check_hubs(self, pairs):
        worst = max(float(np.max(np.abs(a - b))) for a, b in pairs)
        return [] if worst <= ref.ORACLE_ATOL else [
            f"hub posterior off the oracle by {worst:.2e}"]

    def _oracle_suite(self):
        max_nodes, max_t = self.suite
        return verify.oracle_equivalence_suite(max_nodes=max_nodes, max_t=max_t,
                                               noise=self.NOISE)

    def _check_suite(self, report):
        return [f"{name}: {detail}" for name, ok, detail in report.checks
                if not ok]


WORKLOADS = {w.name: w for w in (PaperTables, Frontier, Graphs)}
