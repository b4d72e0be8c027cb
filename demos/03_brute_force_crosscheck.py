"""Exact engine vs brute force on small trees.

The brute-force reference simulates every agent for every joint signal
vector and recovers Bayesian posteriors by summing over feasible vectors;
the cavity engine never enumerates joint vectors.  On trees small enough for
both, they must agree to full precision -- including majority dynamics with
genuine coin-flip ties on even-degree nodes.
"""

from cavitree.cavity import FiniteTreeEngine
from cavitree.model import SignalModel, UpdateRule
from cavitree.oracle import oracle_error_probability, unroll
from cavitree.trees import path_graph, rooted_arity_tree, star_graph

model = SignalModel.binary_symmetric(0.15)
T_MAX = 3

for name, graph in [("path of 5", path_graph(5)),
                    ("star with 4 leaves", star_graph(5)),
                    ("depth-2 binary tree", rooted_arity_tree(2, 2))]:
    print(f"\n{name} ({graph.n} nodes)")
    for variant in ("bayesian", "majority"):
        rule = UpdateRule(variant=variant)
        tensor = unroll(graph, model, rule, T_MAX)
        engine = FiniteTreeEngine(graph, model, rule)
        engine.run(T_MAX)
        worst = max(
            abs(oracle_error_probability(tensor, i, t)
                - engine.error_probability(i, t))
            for i in range(graph.n) for t in range(T_MAX + 1))
        coins = any(g.rows > model.n_signals for g in engine.g[T_MAX])
        kind = "tables with coin rows" if coins else "one row per signal"
        print(f"  {variant:9s} via {kind:26s} max deviation {worst:.2e}")
