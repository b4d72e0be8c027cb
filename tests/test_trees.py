import numpy as np
import pytest

from cavitree.trees import (
    BudgetError,
    DegreeDistribution,
    GraphError,
    TreeGraph,
    ball,
    edge_perspective,
    graph_from_json,
    path_graph,
    regular_tree,
    rooted_arity_tree,
    sample_configuration_graph,
    star_graph,
    validate,
)

TRIANGLE = TreeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)), hubs=frozenset({2}))


def test_validate_path_ok():
    assert validate(path_graph(3)) is None


def test_validate_triangle_with_hub_ok():
    assert validate(TRIANGLE) is None


def test_validate_triangle_names_cycle():
    diag = validate(TreeGraph(n=3, edges=((0, 1), (1, 2), (0, 2))))
    assert diag is not None and "cycle" in diag
    assert all(str(v) in diag for v in (0, 1, 2))


def test_validate_directed_support_cycle():
    graph = TreeGraph(n=3, edges=((0, 1), (1, 2)), directed_edges=((2, 0),))
    assert validate(graph) is not None


def test_ball_examples():
    graph = regular_tree(5, 3)
    assert ball(graph, 0, 0) == {0}
    assert len(ball(graph, 0, 1)) == 6
    assert len(ball(path_graph(7), 3, 2)) == 5


def test_ball_nested_and_bounded():
    graph = regular_tree(3, 4)
    d = max(len(o) for o in graph.observed)
    prev = set()
    for t in range(4):
        cur = ball(graph, 0, t)
        assert prev <= cur
        if t >= 1:
            assert len(cur) <= 1 + d * sum((d - 1) ** k for k in range(t))
        prev = cur


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0],
                                   [np.inf, 0.5]])
def test_degree_law_refuses_non_finite_probabilities(probs):
    with pytest.raises(GraphError, match="finite"):
        DegreeDistribution((3, 4), np.array(probs))


@pytest.mark.parametrize("support", [(3.5, 4.0), ("3", "4"), (True, 4)],
                         ids=["floats", "strings", "bool"])
def test_degree_law_refuses_degrees_that_are_not_ints(support):
    """A degree is an int: 3.5 is not read as 3, "3" as 3, nor True as 1."""
    with pytest.raises(GraphError, match="ints"):
        DegreeDistribution(support, np.array([0.5, 0.5]))
    rho = DegreeDistribution(np.array([3, 4]), np.array([0.5, 0.5]))
    assert rho.support == (3, 4)
    assert all(type(d) is int for d in rho.support)


@pytest.mark.parametrize("support, probs", [
    ((3, 4), [1.0]), ((), []), ((3, 3), [0.5, 0.5]), ((-1, 3), [0.5, 0.5])],
    ids=["mismatched", "empty", "duplicate", "negative"])
def test_degree_law_refuses_a_malformed_support(support, probs):
    with pytest.raises(GraphError, match="support"):
        DegreeDistribution(support, np.array(probs))


def test_edge_perspective_single_degree():
    rho = DegreeDistribution((5,), np.array([1.0]))
    out = edge_perspective(rho)
    assert out.as_dict() == {5: 1.0}


def test_edge_perspective_two_point():
    rho = DegreeDistribution((2, 4), np.array([0.5, 0.5]))
    out = edge_perspective(rho).as_dict()
    np.testing.assert_allclose([out[2], out[4]], [1 / 3, 2 / 3], rtol=1e-15)


def test_edge_perspective_leaf_only():
    out = edge_perspective(DegreeDistribution((1,), np.array([1.0])))
    assert out.as_dict() == {1: 1.0}


def test_edge_perspective_rejects_all_isolated():
    with pytest.raises(GraphError):
        edge_perspective(DegreeDistribution((0,), np.array([1.0])))


def test_edge_perspective_not_idempotent_on_mixtures():
    rho = DegreeDistribution((2, 4), np.array([0.5, 0.5]))
    once = edge_perspective(rho)
    twice = edge_perspective(once)
    assert not np.allclose(once.probs, twice.probs)


def test_regular_tree_sizes():
    assert regular_tree(5, 5).n == 1706
    assert regular_tree(3, 1).n == 4
    assert rooted_arity_tree(2, 2).n == 7


def test_configuration_two_regular_is_cycles():
    rho = DegreeDistribution((2,), np.array([1.0]))
    sample = sample_configuration_graph(rho, 6, seed=3)
    assert all(len(o) == 2 for o in sample.observed)
    assert all(r < sample.n for r in sample.tree_ball_radius)


def test_configuration_deterministic_in_seed():
    rho = DegreeDistribution((3,), np.array([1.0]))
    a = sample_configuration_graph(rho, 50, seed=11)
    b = sample_configuration_graph(rho, 50, seed=11)
    assert a.edges == b.edges
    assert a.edges != sample_configuration_graph(rho, 50, seed=12).edges


def test_configuration_locally_treelike():
    rho = DegreeDistribution((3,), np.array([1.0]))
    fractions = []
    for seed in range(20):
        sample = sample_configuration_graph(rho, 1000, seed=seed)
        radii = np.array(sample.tree_ball_radius)
        fractions.append(np.mean(radii >= 2))
    assert min(fractions) > 0.9


@pytest.mark.parametrize("n", [-1, 2.5, True])
def test_configuration_refuses_a_bad_node_count(n):
    rho = DegreeDistribution((2,), np.array([1.0]))
    with pytest.raises(GraphError, match="n >= 0"):
        sample_configuration_graph(rho, n, seed=0)


def test_configuration_refuses_an_odd_degree_sum():
    """One node of degree 3 has an odd degree sum however often redrawn."""
    rho = DegreeDistribution((3,), np.array([1.0]))
    with pytest.raises(BudgetError, match="even degree sequence"):
        sample_configuration_graph(rho, 1, seed=0)


def test_configuration_rejects_exhausted_budget():
    # Two degree-3 nodes admit no simple pairing: every attempt is rejected.
    rho = DegreeDistribution((3,), np.array([1.0]))
    with pytest.raises(BudgetError):
        sample_configuration_graph(rho, 2, seed=0)


def test_graph_json_round_trip():
    doc = {"n": 4, "edges": [[1, 0], [1, 2], [0, 2]], "directed_edges": [[3, 0]],
           "hubs": [2]}
    back = graph_from_json(doc)
    assert back.edges == ((0, 1), (1, 2), (0, 2)) and back.hubs == {2}
    assert back.directed_edges == ((3, 0),)
    assert back.observed[3] == (0,) and 3 not in back.observed[0]


@pytest.mark.parametrize("doc", [
    {},
    {"n": 2, "edges": [0, 1]},
    {"n": 3, "edges": [[0, 1, 2]]},
    {"n": "three"},
    {"n": 3, "hubs": [None]},
    [3],
])
def test_graph_json_malformed(doc):
    with pytest.raises(GraphError):
        graph_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ({"n": 2.7, "edges": [[0, 1]]}, "int n >= 0 nodes, not 2.7"),
    ({"n": 2, "edges": [[0, 1.9]]}, r"bad edge \(0, 1.9\)"),
    ({"n": "3"}, "int n >= 0 nodes, not '3'"),
    ({"n": True}, "int n >= 0 nodes, not True"),
    ({"n": 3, "directed_edges": [[0, True]]}, r"bad edge \(0, True\)"),
    ({"n": 3, "hubs": [1.0]}, "hubs must be ints"),
], ids=["float-n", "float-endpoint", "string-n", "bool-n",
        "bool-directed-endpoint", "float-hub"])
def test_graph_json_refuses_non_integers(doc, message):
    """Node counts and indices are JSON integers; nothing is truncated or
    parsed into one.  ``TreeGraph`` makes the check."""
    with pytest.raises(GraphError, match=message):
        graph_from_json(doc)


@pytest.mark.parametrize("doc, key", [
    ({"n": 3, "edge": [[0, 1], [1, 2]]}, "edge"),
    ({"n": 3, "edges": [[0, 1], [1, 2]], "hub": [1]}, "hub"),
], ids=["edge-typo", "hub-typo"])
def test_graph_json_refuses_unread_fields(doc, key):
    """A field the reader does not know is refused by name: a typo must not
    leave the graph without its edges or its hubs."""
    with pytest.raises(GraphError, match=f"unknown graph field '{key}'"):
        graph_from_json(doc)


def test_negative_node_count_refused():
    with pytest.raises(GraphError, match="n >= 0"):
        TreeGraph(n=-2)
    with pytest.raises(GraphError, match="n >= 0"):
        graph_from_json({"n": -2})
    assert TreeGraph(n=0).observed == ()


def test_hub_outside_the_graph_refused():
    with pytest.raises(GraphError, match="outside nodes"):
        graph_from_json({"n": 3, "edges": [[0, 1], [1, 2]], "hubs": [99]})


def test_neighbor_lists_sorted():
    graph = TreeGraph(n=4, edges=((2, 0), (0, 1), (3, 0)))
    assert graph.observed[0] == (1, 2, 3)


@pytest.mark.parametrize("edges, directed, message", [
    (((0, 3),), (), "bad edge"), (((1, 1),), (), "bad edge"),
    ((), ((0, -1),), "bad edge"), (((0, 1), (1, 0)), (), "duplicate edge"),
    (((0, 1),), ((1, 0),), "duplicate edge")],
    ids=["outside", "self-loop", "directed-outside", "twice", "both-kinds"])
def test_tree_graph_refuses_bad_edges(edges, directed, message):
    with pytest.raises(GraphError, match=message):
        TreeGraph(n=3, edges=edges, directed_edges=directed)


def test_ball_refuses_a_negative_radius():
    with pytest.raises(GraphError, match="radius"):
        ball(path_graph(3), 0, -1)


@pytest.mark.parametrize("d, depth", [(0, 2), (3, -1)])
def test_regular_tree_refuses_bad_arguments(d, depth):
    with pytest.raises(GraphError, match="d >= 1 and depth >= 0"):
        regular_tree(d, depth)


@pytest.mark.parametrize("build, message", [
    (lambda: TreeGraph(n=True), "int n >= 0"),
    (lambda: TreeGraph(n=2.0, edges=((0, 1),)), "int n >= 0"),
    (lambda: TreeGraph(n=3, hubs={1.0}), "hubs must be ints"),
    (lambda: TreeGraph(n=3, edges=((0, 1.0),)), "bad edge"),
    (lambda: TreeGraph(n=3, directed_edges=((0, "1"),)), "bad edge"),
    (lambda: ball(path_graph(3), 0, 1.5), "radius"),
    (lambda: ball(path_graph(3), 5, 1), "no node 5"),
    (lambda: ball(path_graph(3), 1.0, 1), "no node 1.0"),
    (lambda: regular_tree(3, 1.5), "d >= 1 and depth >= 0"),
    (lambda: path_graph(2.5), "int n >= 0"),
    (lambda: star_graph("3"), "int n >= 0"),
    (lambda: rooted_arity_tree(2, -1), "arity >= 1 and depth >= 0"),
    (lambda: rooted_arity_tree(-2, 2), "arity >= 1 and depth >= 0"),
    (lambda: rooted_arity_tree(2.0, 2), "arity >= 1 and depth >= 0"),
], ids=["bool-n", "float-n", "float-hub", "float-endpoint",
        "string-directed-endpoint", "float-radius", "ball-outside",
        "float-centre", "regular-float-depth", "path-float-n",
        "star-string-n", "arity-negative-depth", "arity-negative",
        "arity-float"])
def test_graph_arguments_must_be_ints(build, message):
    """Node counts, endpoints, hubs, centres, radii, degrees and depths that
    are not ints in range are refused with ``GraphError``, not truncated,
    failed on with a bare ``TypeError`` or turned into a one-node tree."""
    with pytest.raises(GraphError, match=message):
        build()


def test_graph_arguments_take_numpy_ints():
    n, zero, one, two = (np.int64(v) for v in (3, 0, 1, 2))
    graph = TreeGraph(n=n, edges=((zero, one),), directed_edges=((two, one),),
                      hubs={two})
    assert graph.observed == ((1,), (0,), (1,))
    assert ball(graph, zero, one) == {0, 1}
    assert [path_graph(n).n, star_graph(n).n, regular_tree(n, one).n,
            rooted_arity_tree(two, two).n] == [3, 3, 4, 7]
