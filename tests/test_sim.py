import numpy as np
import pytest
from replay_reference import per_node_replay

from cavitree import sim
from cavitree.cavity import ConfigModelEngine, FiniteTreeEngine, RegularTreeEngine
from cavitree.model import (ModelError, SignalModel, TieBreak, TieBreakRule,
                            UpdateRule, UtilityTable)
from cavitree.sim import (
    DegreeTables,
    counter_uniform,
    interior_nodes,
    simulate,
)
from cavitree.trees import (
    DegreeDistribution,
    TreeGraph,
    path_graph,
    regular_tree,
    sample_configuration_graph,
)

_MASK = (1 << 64) - 1


def _splitmix(z: int) -> int:
    """One SplitMix64 output step on a Python int (Steele et al., 2014)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_uniform(seed: int, kind: int, sample: int, node: int,
                       t: int) -> float:
    z = _splitmix(sample ^ _splitmix(seed & _MASK))
    for word in (kind, node, t):
        z = _splitmix(z ^ word)
    return (z >> 11) / 2.0 ** 53


@pytest.mark.parametrize("seed, kind, node, t", [
    (0, 1, 0, 0), (7, 2, 3, 1), (2024, 3, 1705, 2), (-1, 2, 12, 7),
    ((1 << 64) - 1, 3, 0, 5), (1 << 63, 1, 99, 0)])
def test_counter_uniform_matches_python_splitmix(seed, kind, node, t):
    samples = [0, 1, 2, 1000, 123456789, (1 << 63) + 5, (1 << 64) - 1]
    got = counter_uniform(seed, kind, np.array(samples, dtype=np.uint64),
                          node, t)
    want = [_reference_uniform(seed, kind, s, node, t) for s in samples]
    assert got.tolist() == want


@pytest.mark.parametrize("c", [0.0, 5e-324, 0.15, 0.5, 0.85, 1.0 - 2 ** -53,
                               1.0, 1.0 + 2 ** -52])
def test_bits_cut_matches_float_comparison(c):
    """A draw reaches a CDF entry on its top 53 bits exactly when its float
    does; no draw reaches an entry above 1."""
    cut = sim._bits_cut(c)
    near = [k for k in range(cut - 3, cut + 3) if 0 <= k < 1 << 53]
    rng = np.random.default_rng(0)
    bits = np.concatenate([np.array(near + [0, (1 << 53) - 1], dtype=np.uint64),
                           rng.integers(0, 1 << 53, 1000, dtype=np.uint64)])
    reached = bits.astype(np.float64) * 2.0 ** -53 >= c
    np.testing.assert_array_equal(bits >= np.uint64(cut), reached)


def test_replay_with_cdf_entry_above_one(majority):
    """A likelihood row summing to just over 1 leaves a CDF entry no draw
    reaches; the replay still matches the per-node reference."""
    model = SignalModel(prior=np.array([0.5, 0.5]),
                        likelihood=np.array([[0.85, 0.15 + 1e-13],
                                             [0.15, 0.85]]))
    assert np.cumsum(model.likelihood, axis=1)[0, -1] > 1.0
    graph = regular_tree(3, 2)
    got = simulate(graph, model, majority, 2, 1000, seed=8, chunk=300)
    want = per_node_replay(graph, model, majority, 2, 1000, seed=8, chunk=300)
    np.testing.assert_array_equal(got.errors, want)


def test_top_draw_stays_inside_the_cdf(model15, majority, monkeypatch):
    """The top draw, all 64 bits set, is u = 1 - 2**-53, the largest
    uniform below 1; state and signal are the last index, not past it."""
    monkeypatch.setattr(sim, "_node_bits",
                        lambda stream, node, t, out=None: np.full(
                            stream.shape, (1 << 64) - 1, dtype=np.uint64))
    top = counter_uniform(1, 1, np.arange(3, dtype=np.uint64), 0, 0)
    assert top.tolist() == [1 - 2 ** -53] * 3
    graph = regular_tree(3, 2)
    got = simulate(graph, model15, majority, 2, 10, seed=1)
    # State 1, every signal 1, every vote 1: no node ever errs.
    assert not got.errors.any()
    want = per_node_replay(graph, model15, majority, 2, 10, seed=1)
    np.testing.assert_array_equal(got.errors, want)


def test_nearby_seeds_draw_different_samples(majority):
    """Seeds 5 and 6 xored into counters 0..1999 raw give the same set of
    counters, hence identical tallies; the seed is mixed first."""
    model = SignalModel.binary_symmetric(0.45)
    runs = [simulate(regular_tree(3, 2), model, majority, 1, 2000, seed=seed)
            for seed in (5, 6)]
    assert not np.array_equal(runs[0].errors, runs[1].errors)


def test_counter_uniform_is_pure():
    idx = np.arange(100, dtype=np.uint64)
    a = counter_uniform(7, 2, idx, 3, 1)
    b = counter_uniform(7, 2, idx, 3, 1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, counter_uniform(8, 2, idx, 3, 1))
    assert not np.array_equal(a, counter_uniform(7, 2, idx, 4, 1))
    assert np.all((a >= 0) & (a < 1))


def test_counter_uniform_moments():
    u = counter_uniform(11, 1, np.arange(200000, dtype=np.uint64), 0, 0)
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1 / 12) < 5e-3


def test_single_sample_determinism(model15, majority):
    graph = regular_tree(3, 3)
    runs = [simulate(graph, model15, majority, 2, 1, seed=42) for _ in range(2)]
    np.testing.assert_array_equal(runs[0].errors, runs[1].errors)


def test_chunking_does_not_change_results(model15, majority):
    graph = regular_tree(3, 2)
    a = simulate(graph, model15, majority, 2, 5000, seed=9, chunk=256)
    b = simulate(graph, model15, majority, 2, 5000, seed=9, chunk=4096)
    np.testing.assert_array_equal(a.errors, b.errors)


def test_threads_do_not_change_results(model15, majority):
    graph = regular_tree(3, 2)
    a = simulate(graph, model15, majority, 2, 5000, seed=9, chunk=512, threads=1)
    b = simulate(graph, model15, majority, 2, 5000, seed=9, chunk=512, threads=4)
    np.testing.assert_array_equal(a.errors, b.errors)


@pytest.mark.parametrize("samples, chunk, cpus, workers", [
    (100_000_000, 1 << 14, 3, 3),
    (5000, 512, 64, 10),
], ids=["cpu-bound", "chunk-bound"])
def test_thread_pool_is_bounded(model15, majority, monkeypatch, samples,
                                chunk, cpus, workers):
    """The pool gets no more workers than chunks or usable CPUs, whatever
    ``threads`` asks for.  The fake pool records its size and stops the
    run, so no thread starts."""
    class Started(Exception):
        pass

    sizes = []

    def fake_pool(max_workers):
        sizes.append(max_workers)
        raise Started

    monkeypatch.setattr(sim, "ThreadPoolExecutor", fake_pool)
    monkeypatch.setattr(sim.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    with pytest.raises(Started):
        simulate(regular_tree(3, 2), model15, majority, 2, samples, seed=9,
                 chunk=chunk, threads=10_000)
    assert sizes == [workers]


@pytest.mark.parametrize("counts", [{"samples": 0}, {"chunk": -4},
                                    {"chunk": 0}, {"rounds": -1},
                                    {"samples": 10.5}, {"rounds": True},
                                    {"chunk": 4.0}, {"seed": 1.5},
                                    {"seed": -1}, {"seed": 1 << 64},
                                    {"seed": True}, {"seed": "1"},
                                    {"threads": 0}, {"threads": -3},
                                    {"threads": True}, {"threads": 2.5}])
def test_simulate_refuses_bad_counts(model15, majority, counts):
    """No sample, chunk or thread, or a negative round count, is refused
    up front, not returned as a scalar tally that ``rate`` cannot index; so
    is a count or seed that is not an int (True is not 1), and a seed
    outside 0..2**64 - 1, which the draws would read modulo 2**64 while the
    result records it as given."""
    kwargs = {"rounds": 2, "samples": 10, "seed": 0, **counts}
    with pytest.raises(ModelError, match=next(iter(counts))):
        simulate(regular_tree(3, 2), model15, majority, **kwargs)
    assert simulate(regular_tree(3, 2), model15, majority, rounds=0,
                    samples=1, seed=0, chunk=1).errors.shape == (10, 1)
    for seed in ((1 << 64) - 1, np.uint64((1 << 64) - 1)):
        assert simulate(regular_tree(3, 2), model15, majority, rounds=0,
                        samples=1, seed=seed).seed == seed


def test_bayesian_requires_tables(model15, bayes):
    with pytest.raises(ModelError):
        simulate(regular_tree(3, 2), model15, bayes, 1, 10, seed=0)


def test_simulate_refuses_stochastic_round0_votes():
    """Signal 2 leaves both states equally likely, so under uniform-random
    ties its round-0 vote is a coin, which the replay does not draw."""
    model = SignalModel(prior=np.array([0.5, 0.5]), likelihood=np.array(
        [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]]))
    rule = UpdateRule(tie_break=TieBreakRule(TieBreak.UNIFORM_RANDOM))
    graph = path_graph(3)
    with pytest.raises(ModelError, match="stochastic round-0 votes"):
        simulate(graph, model, rule, 1, 10, seed=0,
                 tables=FiniteTreeEngine(graph, model, rule))


def test_interior_nodes_examples():
    from cavitree.trees import ball

    graph = regular_tree(3, 5)
    # all nodes at distance <= 3 from the center are interior at t=2
    assert interior_nodes(graph, 2) == ball(graph, 0, 3)
    assert interior_nodes(graph, 0) == set(range(graph.n))


def test_interior_nodes_on_config_sample():
    rho = DegreeDistribution((3,), np.array([1.0]))
    sample = sample_configuration_graph(rho, 200, seed=5)
    inner = interior_nodes(sample, 2, d=3)
    radii = sample.tree_ball_radius
    assert inner == {i for i in range(sample.n) if radii[i] >= 2}


def test_majority_depth6_matches_exact(model15, majority, assert_rel):
    """Table-2 cross-check: center of a deep d=3 tree at t=2 under majority."""
    graph = regular_tree(3, 6)
    hom = RegularTreeEngine(model15, 3, majority)
    hom.run(2)
    target = hom.error_probability(2)
    result = simulate(graph, model15, majority, 2, 10 ** 6, seed=3, chunk=1 << 14)
    rate = result.rate(0, 2)
    se = result.standard_error(0, 2)
    assert abs(rate - target) <= 4 * max(se, np.sqrt(target / result.samples))
    assert_rel(rate, 3.0e-2, rtol=0.12, label="majority MC t=2")


def test_bayesian_replay_matches_exact_small(model15, bayes):
    graph = regular_tree(3, 3)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(2)
    result = simulate(graph, model15, bayes, 2, 200000, seed=17, tables=engine)
    for t in range(3):
        exact = engine.error_probability(0, t)
        rate = result.rate(0, t)
        se = max(result.standard_error(0, t), np.sqrt(exact / result.samples))
        assert abs(rate - exact) <= 4 * se


def test_replay_with_a_third_action(model15):
    """A Bayesian rule whose utility adds a third action (abstain, paying 0.7
    in either state) replays its tables: the action alphabet is the
    utility's, not one action per state."""
    rule = UpdateRule(utility=UtilityTable(np.array([[1.0, 0.0], [0.0, 1.0],
                                                     [0.7, 0.7]])))
    graph = path_graph(3)
    engine = FiniteTreeEngine(graph, model15, rule)
    engine.run(2)
    result = simulate(graph, model15, rule, 2, 20000, seed=5, tables=engine)
    for node in range(graph.n):
        for t in range(3):
            exact = engine.error_probability(node, t)
            se = max(result.standard_error(node, t),
                     np.sqrt(exact / result.samples))
            assert abs(result.rate(node, t) - exact) <= 4 * se, (node, t)
    assert engine.error_probability(0, 1) > 0.27  # the ends abstain at t=1


def test_config_model_interior_matches_homogeneous(model15, bayes):
    """Locally tree-like sample: interior nodes track the d=3 exact values."""
    rho = DegreeDistribution((3,), np.array([1.0]))
    sample = sample_configuration_graph(rho, 2000, seed=1)
    engine = ConfigModelEngine(model15, rho, bayes)
    engine.run(2)
    tables = DegreeTables(engine, sample)
    result = simulate(sample, model15, bayes, 2, 200000, seed=2, tables=tables,
                      chunk=1 << 13)
    hom = RegularTreeEngine(model15, 3, bayes)
    hom.run(2)
    inner = sorted(interior_nodes(sample, 2, d=3))
    assert len(inner) > 0.8 * sample.n
    for t in (1, 2):
        exact = hom.error_probability(t)
        pooled = result.errors[inner, t].sum() / (len(inner) * result.samples)
        tol = 4 * np.sqrt(max(exact * (1 - exact), 1e-9) / result.samples)
        assert abs(pooled - exact) <= tol


def test_run_result_serialization(model15, majority):
    result = simulate(regular_tree(3, 2), model15, majority, 1, 100, seed=4)
    doc = result.to_json()
    assert doc["samples"] == 100 and doc["rule"] == "majority"
    rows = result.to_csv_rows()
    assert rows[0] == (0, 0, int(result.errors[0, 0]), 100)


def _mixed_direction_tree():
    return TreeGraph(n=7, edges=((0, 1), (1, 2), (1, 3), (3, 4)),
                     directed_edges=((5, 1), (4, 6)))


def _degree_34_sample():
    rho = DegreeDistribution((3, 4), np.array([0.5, 0.5]))
    return rho, sample_configuration_graph(rho, 40, seed=3)


def _replay_case(name, model15):
    """(model, graph, rule, rounds, tables) for one replay-parity case."""
    bayes, majority = UpdateRule(variant="bayesian"), UpdateRule(variant="majority")
    if name in ("tree", "mixed"):
        graph = regular_tree(3, 3) if name == "tree" else _mixed_direction_tree()
        engine = FiniteTreeEngine(graph, model15, bayes)
        engine.run(3)
        return model15, graph, bayes, 3, engine
    rho, graph = _degree_34_sample()
    if name == "majority":
        assert any(len(o) == 4 for o in graph.observed)
        return model15, graph, majority, 3, None
    if name == "three-signal":
        # A draw reaches signal 2 through a second CDF cut; signals 1 and 2
        # vote apart, so a draw that stopped at signal 1 would show.
        model = SignalModel(prior=np.array([0.5, 0.5]),
                            likelihood=np.array([[0.6, 0.3, 0.1],
                                                 [0.1, 0.3, 0.6]]))
        rule = UpdateRule(variant="majority",
                          tie_break=TieBreakRule(signal_to_action=(0, 0, 1)))
        return model, graph, rule, 3, None
    engine = ConfigModelEngine(model15, rho, bayes)
    engine.run(2)
    return model15, graph, bayes, 2, DegreeTables(engine, graph)


@pytest.mark.parametrize("block", [None, 700])
@pytest.mark.parametrize("chunk", [256, 700])
@pytest.mark.parametrize("case", ["tree", "mixed", "degree-tables", "majority",
                                  "three-signal"])
def test_class_replay_matches_per_node_reference(model15, monkeypatch, case,
                                                 chunk, block):
    """Class gathers give the per-node loop's tallies, bit for bit, for chunk
    sizes that do not divide the sample count and for several blocks per
    class (a 700-element block holds one to two nodes of a chunk)."""
    if block is not None:
        monkeypatch.setattr(sim, "_BLOCK", block)
    model, graph, rule, rounds, tables = _replay_case(case, model15)
    got = simulate(graph, model, rule, rounds, 1500, seed=31, tables=tables,
                   chunk=chunk)
    want = per_node_replay(graph, model, rule, rounds, 1500, seed=31,
                           tables=tables, chunk=chunk)
    np.testing.assert_array_equal(got.errors, want)


def test_majority_replay_draws_tie_coins(model15, majority, monkeypatch):
    """The majority case above reaches ties: degree-4 nodes draw coins."""
    _, graph = _degree_34_sample()
    drawn = set()
    draw = sim._node_uniform

    def spy(stream, node, t):
        if t > 0:
            drawn.add(node)
        return draw(stream, node, t)

    monkeypatch.setattr(sim, "_node_uniform", spy)
    simulate(graph, model15, majority, 3, 1500, seed=31, chunk=700)
    even = {i for i in range(graph.n) if len(graph.observed[i]) == 4}
    assert drawn and drawn <= even


def test_degree_tables_refuse_coin_rows(model15):
    """Uniform-random ties give the degree-mixture tables coin rows, which
    no action table holds: the engine refuses them, before the replay's
    shape check could."""
    rule = UpdateRule(tie_break=TieBreakRule(TieBreak.UNIFORM_RANDOM))
    graph = regular_tree(3, 2)
    engine = ConfigModelEngine(model15, DegreeDistribution(
        (1, 3), np.array([0.5, 0.5])), rule)
    engine.run(1)
    with pytest.raises(ModelError, match="tie-coin rows"):
        simulate(graph, model15, rule, 1, 10, seed=0,
                 tables=DegreeTables(engine, graph))


def test_degree_tables_refuse_degrees_the_engine_lacks(model15, bayes):
    engine = ConfigModelEngine(model15, DegreeDistribution(
        (3,), np.array([1.0])), bayes)
    with pytest.raises(ModelError, match=r"degrees \[1, 2\]"):
        DegreeTables(engine, path_graph(3))


def test_degree_tables_share_one_array_per_degree(model15, bayes):
    """Every node of one degree, through any adapter over one engine, is
    served the same array, so the replay groups them into one gather."""
    rho = DegreeDistribution((3, 4), np.array([0.5, 0.5]))
    graph = sample_configuration_graph(rho, 60, seed=3)
    engine = ConfigModelEngine(model15, rho, bayes)
    engine.run(2)
    first, second = DegreeTables(engine, graph), DegreeTables(engine, graph)
    for t in range(3):
        for d in (3, 4):
            nodes = [i for i in range(graph.n) if len(graph.observed[i]) == d]
            table = first.action_table(nodes[0], t)
            assert all(second.action_table(i, t) is table for i in nodes)
            assert all(first.action_table(i, t) is table for i in nodes)


@pytest.mark.parametrize("node", [-1, True, 20, 1.0])
def test_degree_tables_refuse_a_node_outside_the_graph(model15, bayes, node):
    rho = DegreeDistribution((3, 4), np.array([0.5, 0.5]))
    graph = sample_configuration_graph(rho, 20, seed=3)
    engine = ConfigModelEngine(model15, rho, bayes)
    engine.run(1)
    with pytest.raises(ModelError, match="no action table for node"):
        DegreeTables(engine, graph).action_table(node, 1)


def test_degree_tables_refuse_a_round_past_the_tables(model15, bayes):
    graph = regular_tree(3, 2)
    engine = ConfigModelEngine(model15, DegreeDistribution(
        (1, 3), np.array([0.5, 0.5])), bayes)
    engine.run(1)
    tables = DegreeTables(engine, graph)
    tables.action_table(0, 1)
    with pytest.raises(ModelError):
        tables.action_table(0, 2)


def test_replay_rejects_misshapen_action_table(model15, bayes):
    graph = regular_tree(3, 2)
    engine = FiniteTreeEngine(graph, model15, bayes)
    engine.run(1)

    class Truncated:
        def action_table(self, node, t):
            return engine.action_table(node, t)[:, :-1]

    with pytest.raises(ModelError, match="shape"):
        simulate(graph, model15, bayes, 1, 10, seed=0, tables=Truncated())
