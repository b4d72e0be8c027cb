import hashlib
import tracemalloc

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
    """The draw derived from its definition: the sample's stream is two
    rounds over the mixed seed and the kind, the key of (node, t) is
    mix(mix(node) ^ t), and the draw is one round over their xor."""
    stream = _splitmix(_splitmix(sample ^ _splitmix(seed & _MASK)) ^ kind)
    key = _splitmix(_splitmix(node) ^ t)
    return (_splitmix(stream ^ key) >> 11) / 2.0 ** 53


@pytest.mark.parametrize("seed, kind, node, t", [
    (0, 1, 0, 0), (7, 2, 3, 1), (2024, 3, 1705, 2), (-1, 2, 12, 7),
    ((1 << 64) - 1, 3, 0, 5), (1 << 63, 1, 99, 0)])
def test_counter_uniform_matches_python_splitmix(seed, kind, node, t):
    samples = [0, 1, 2, 1000, 123456789, (1 << 63) + 5, (1 << 64) - 1]
    got = counter_uniform(seed, kind, np.array(samples, dtype=np.uint64),
                          node, t)
    want = [_reference_uniform(seed, kind, s, node, t) for s in samples]
    assert got.tolist() == want


@pytest.mark.parametrize("name, value", [
    ("kind", 2.5), ("kind", -1), ("node", 2.5), ("node", True),
    ("node", -1), ("node", np.int64(-1)), ("node", 1 << 64), ("node", "1"),
    ("t", -1), ("t", 1.0), ("t", False)])
def test_counter_uniform_refuses_words_that_are_not_uint64(name, value):
    """A kind, node or round outside the ints 0..2**64 - 1 is refused, not
    drawn for (a float or a bool) or left to numpy's OverflowError."""
    words = {"kind": 2, "node": 3, "t": 1, name: value}
    with pytest.raises(ModelError, match=f"^{name} must be an int"):
        counter_uniform(7, sample=np.arange(4, dtype=np.uint64), **words)
    words[name] = (1 << 64) - 1
    assert counter_uniform(7, sample=np.arange(4, dtype=np.uint64),
                           **words).shape == (4,)


_SAMPLES = 1 << 20


def _draws(kind: int, node: int, t: int) -> np.ndarray:
    return counter_uniform(2024, kind, np.arange(_SAMPLES, dtype=np.uint64),
                           node, t)


@pytest.mark.parametrize("a, b", [
    ((sim._KIND_SIGNAL, 0, 0), (sim._KIND_SIGNAL, 1, 0)),
    ((sim._KIND_SIGNAL, 1705, 0), (sim._KIND_SIGNAL, 1706, 0)),
    ((sim._KIND_COIN, 40, 2), (sim._KIND_COIN, 41, 2)),
    ((sim._KIND_COIN, 3, 1), (sim._KIND_COIN, 3, 2)),
    ((sim._KIND_SIGNAL, 3, 0), (sim._KIND_SIGNAL, 3, 1)),
    ((sim._KIND_SIGNAL, 3, 0), (sim._KIND_COIN, 3, 0)),
    ((sim._KIND_SIGNAL, 3, 0), (sim._KIND_COIN, 3, 1)),
], ids=["adjacent-signals", "adjacent-signals-far", "adjacent-coins",
        "next-round", "next-round-from-0", "signal-coin", "signal-coin-t1"])
def test_draws_are_uncorrelated(a, b):
    """Draws that share a sample but differ in node, round or kind keep a
    Pearson correlation below 5 standard errors of zero over 2**20 samples."""
    r = np.corrcoef(_draws(*a), _draws(*b))[0, 1]
    assert abs(r) < 5 / np.sqrt(_SAMPLES)


def test_adjacent_nodes_fill_joint_bins_evenly():
    """The draws of nodes 0 and 1 fall into a 16 x 16 grid of joint bins as
    independent uniforms would: chi-square with 255 degrees of freedom
    below 377, its upper 1e-6 point (Wilson-Hilferty)."""
    a, b = ((_draws(sim._KIND_SIGNAL, node, 0) * 16).astype(np.intp)
            for node in (0, 1))
    counts = np.bincount(16 * a + b, minlength=256)
    expected = _SAMPLES / 256
    assert np.sum((counts - expected) ** 2) / expected < 377


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
    monkeypatch.setattr(sim, "_draw_bits",
                        lambda stream, keys, out=None: np.full(
                            (len(keys), len(stream)), (1 << 64) - 1,
                            dtype=np.uint64))
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


@pytest.mark.parametrize("draw", [None, 15])
@pytest.mark.parametrize("chunk", [1, 5, 7, 9, (1 << 14) - 1, 1 << 14])
@pytest.mark.parametrize("case", ["tree", "majority", "three-signal"])
def test_replay_matches_reference_across_draw_blocks(model15, monkeypatch,
                                                     case, chunk, draw):
    """Signal blocks hold max(1, _DRAW // count) nodes: 16384 at chunk 1,
    3276 at chunk 5 and one at the two largest, where the last chunk holds
    3 samples and so wider blocks.  With _DRAW = 15 the tree's 22 nodes and
    the sample's 40 split into several blocks, the last one short at chunks
    1 and 5.  Misses are counted over uint64 words of one-byte flags padded
    with False: chunks of 7 and 9 fall one short of a word and one over."""
    if draw is not None:
        monkeypatch.setattr(sim, "_DRAW", draw)
    model, graph, rule, rounds, tables = _replay_case(case, model15)
    samples = 2 * chunk + 3
    got = simulate(graph, model, rule, rounds, samples, seed=47,
                   tables=tables, chunk=chunk)
    want = per_node_replay(graph, model, rule, rounds, samples, seed=47,
                           tables=tables, chunk=chunk)
    np.testing.assert_array_equal(got.errors, want)


@pytest.mark.parametrize("variant, buffers", [("bayesian", 4),
                                               ("majority", 3)])
def test_replay_working_set_stays_within_its_buffers(model15, variant,
                                                     buffers):
    """A chunk holds three one-byte (nodes x chunk) buffers under the
    Bayesian rule (signals, codes and the round's votes) and two under
    majority, plus temporaries of one block of nodes: the traced peak of a
    two-chunk run stays below one buffer more than that."""
    graph = regular_tree(5, 5)
    rule = UpdateRule(variant=variant)
    tables = None
    if variant == "bayesian":
        tables = FiniteTreeEngine(graph, model15, rule)
        tables.run(2)
    chunk = 8192
    tracemalloc.start()
    try:
        simulate(graph, model15, rule, 2, 2 * chunk, seed=5, tables=tables,
                 chunk=chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers * graph.n * chunk, peak / (graph.n * chunk)


def test_majority_replay_draws_tie_coins(model15, majority, monkeypatch):
    """The majority case above reaches ties: degree-4 nodes draw coins, and
    no other node does."""
    _, graph = _degree_34_sample()
    coin_node = {int(key): node for t in range(1, 4)
                 for node, key in enumerate(sim._keys(np.arange(graph.n), t))}
    drawn = set()
    draw = sim._draw_bits

    def spy(stream, keys, out=None):
        drawn.update(coin_node[int(k)] for k in keys if int(k) in coin_node)
        return draw(stream, keys, out)

    monkeypatch.setattr(sim, "_draw_bits", spy)
    simulate(graph, model15, majority, 3, 1500, seed=31, chunk=700)
    even = {i for i in range(graph.n) if len(graph.observed[i]) == 4}
    assert drawn and drawn <= even


@pytest.mark.parametrize("case, sha256", [
    ("tree",
     "eaa752f9ba75319781a0cf09d586900abf5e6937b1a892bf1af6560e2396cb49"),
    ("majority",
     "7e708a331e23d8d19b4b71dd6c0e03b7144a9ca6192eb37ab7c90b8e6fd9cb9e"),
])
def test_golden_tallies(model15, case, sha256):
    """Two small runs' tallies, pinned: a change of the counter stream
    changes them, and must be made on purpose.  The majority run on the
    degree-{3, 4} sample breaks ties with coins."""
    model, graph, rule, rounds, tables = _replay_case(case, model15)
    got = simulate(graph, model, rule, rounds, 1500, seed=31, tables=tables,
                   chunk=700)
    assert hashlib.sha256(got.errors.tobytes()).hexdigest() == sha256


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
