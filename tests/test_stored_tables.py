"""The record of each stored decision table: its slot space is the one its
plan names, its top code and rows are the round's, and it keeps none of
the workspace of the step that built it."""

import numpy as np
import pytest

from cavitree.cavity import (ActiveEdgeEngine, ConfigModelEngine,
                             FiniteTreeEngine, RegularTreeEngine)
from cavitree.cavity.core import coin_values
from cavitree.model import TieBreak, TieBreakRule, UpdateRule, round0_kernel
from cavitree.trees import DegreeDistribution, TreeGraph, regular_tree

# Node 1's slots split into groups from round 2 on; 5 -> 1 and 4 -> 6 are
# directed, so some messages do not condition.
MIXED = TreeGraph(n=7, edges=((0, 1), (1, 2), (1, 3), (3, 4)),
                  directed_edges=((5, 1), (4, 6)))
LOPSIDED = TreeGraph(n=7, edges=((0, 1), (1, 2), (2, 3), (1, 4), (4, 5),
                                 (0, 6)))
RULES = {
    "bayesian": UpdateRule(),
    "majority": UpdateRule(variant="majority"),
    "uniform": UpdateRule(tie_break=TieBreakRule(TieBreak.UNIFORM_RANDOM)),
}


ENGINES = {
    "mixed-bayesian": lambda m: FiniteTreeEngine(MIXED, m, RULES["bayesian"]),
    "mixed-uniform": lambda m: FiniteTreeEngine(MIXED, m, RULES["uniform"]),
    **{f"lopsided-{label}": lambda m, rule=rule: FiniteTreeEngine(
        LOPSIDED, m, rule) for label, rule in RULES.items()},
    "mixture34": lambda m: ConfigModelEngine(
        m, DegreeDistribution((3, 4), np.array([0.5, 0.5])),
        RULES["bayesian"]),
    "active0.7": lambda m: ActiveEdgeEngine(m, 3, RULES["bayesian"], p=0.7),
}


def _check_records(engine, rounds):
    """Every stored table through ``rounds`` against its plan: the space
    of one group per plan group (none at round 0) over the round's
    observed codes, the top code, and the rows, coin rows counted from the
    round-0 kernels and each step's degree.  Returns whether any table has
    coin rows and whether any is mirrored."""
    model, rule, n_a = engine.model, engine.rule, engine.n_actions
    coins = coin_values(n_a)
    tied = any(len(k) > 1 for k in round0_kernel(model, rule, n_a))
    rows = [[model.n_signals * (coins if tied else 1)] * len(engine.g[0])]
    for t in range(1, rounds + 1):
        rows.append([
            rows[t - 1][c] * (1 if rule.deterministic_for_degree(
                sum(size for _, size in groups)) else coins)
            for c, groups in engine._plans[t - 1][1]])
    with_coins = mirrored = False
    for t in range(rounds + 1):
        plans = engine._plans[t - 1][1] if t else [(0, [])] * len(engine.g[0])
        assert len(engine.g[t]) == len(plans), t
        for c, (table, (_, groups)) in enumerate(zip(engine.g[t], plans)):
            assert table.space.base == engine.channel.size ** t, (t, c)
            assert table.space.sizes == tuple(size for _, size in groups), (
                t, c)
            assert table.codes.shape[1] == table.space.size, (t, c)
            assert table.top == n_a ** (t + 1) - 1, (t, c)
            assert table.rows == rows[t][c], (t, c)
            assert len(table.codes) in (table.rows, 1), (t, c)
            if len(table.codes) < table.rows:
                assert table.rows == 2, (t, c)
                mirrored = True
            with_coins |= table.rows > model.n_signals
    return with_coins, mirrored


@pytest.mark.parametrize("label", list(ENGINES))
def test_each_table_has_its_plans_space(model30, label):
    engine = ENGINES[label](model30)
    engine.run(3)
    with_coins, mirrored = _check_records(engine, 3)
    assert with_coins == (label.endswith(("majority", "uniform")))
    assert mirrored == (not label.endswith("uniform")
                        and label != "active0.7")


def test_mixed_tree_groups_split(model30):
    """The mixed tree's node 1 reads one group at round 1 and two from
    round 2 on, and its tables' spaces follow."""
    engine = FiniteTreeEngine(MIXED, model30, RULES["bayesian"])
    engine.run(3)
    sizes = [engine.g[t][engine.node_class[t][1]].space.sizes
             for t in range(4)]
    assert sizes[0] == () and sizes[1] == (3,)
    assert sorted(sizes[2]) == sorted(sizes[3]) == [1, 2]


@pytest.mark.parametrize("make", [
    lambda model: RegularTreeEngine(model, 5, UpdateRule()),
    lambda model: FiniteTreeEngine(regular_tree(3, 3), model, UpdateRule()),
    lambda model: FiniteTreeEngine(MIXED, model, RULES["uniform"])],
    ids=["d5", "regular3", "mixed-uniform"])
def test_no_stored_table_keeps_its_build_workspace(model15, make):
    """A step builds its space's lower space to enumerate it; the stored
    table holds a new space, so that workspace is freed with the step."""
    engine = make(model15)
    engine.run(5 if isinstance(engine, RegularTreeEngine) else 3)
    for t, tables in enumerate(engine.g):
        for table in tables:
            assert "_lower" not in vars(table.space), t
