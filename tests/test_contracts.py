"""Argument contracts of the public API, swept from one table.

Each public callable has one valid call, made with NumPy ints in place of
its swept int arguments, which must be read.  Every int parameter is then
replaced in turn by True, 2.5, -1, "1" and the first value past its range,
and every probability by NaN, -0.1 and 1.1: each must be refused with a
one-line ``ModelError`` or ``GraphError``.  A public name missing from the table, or a
parameter annotated ``int`` or ``float`` that is neither swept nor excused
in ``ALLOWED``, fails the test.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math

import numpy as np
import pytest

import cavitree
from cavitree.cavity import (ConfigModelEngine, FiniteTreeEngine,
                             RegularTreeEngine)
from cavitree.model import (ModelError, SignalModel, TieBreakRule,
                            UpdateRule, UtilityTable)
from cavitree.oracle import unroll
from cavitree.trees import DegreeDistribution, GraphError, path_graph

INT_SUBSTITUTES = {"True": True, "2.5": 2.5, "-1": -1, "'1'": "1"}
PROB_SUBSTITUTES = {"nan": math.nan, "-0.1": -0.1, "1.1": 1.1}
PAST_64_BITS = 1 << 64
MODEL = SignalModel.binary_symmetric(0.15)
BAYES, MAJORITY = UpdateRule(), UpdateRule("majority")
PATH = path_graph(3)
RHO = DegreeDistribution((1, 2), np.array([0.5, 0.5]))


@functools.cache
def _engines() -> dict:
    """The objects some valid calls read, built once, on first use."""
    regular = RegularTreeEngine(MODEL, 3, BAYES)
    regular.run(1)
    finite = FiniteTreeEngine(PATH, MODEL, BAYES)
    finite.run(1)
    return {"regular": regular, "finite": finite,
            "tensor": unroll(PATH, MODEL, BAYES, 1)}


def _regular():
    return _engines()["regular"]


def _finite():
    return _engines()["finite"]


def _tensor():
    return _engines()["tensor"]


# Public name -> (its valid keyword arguments, {int parameter: the first
# value past its range, or None where it has none}, probability parameters).
# The arguments are built on use, so that collecting the tests runs nothing.
CALLS = {
    # model
    "model.ModelError": (dict, {}, ()),
    "model.is_int": (lambda: {"value": 1}, {}, ()),
    "model.is_index": (lambda: {"value": 1, "n": 2}, {}, ()),
    "model.check_int": (lambda: {"name": "x", "value": 1, "least": 0},
                        {"value": -1}, ()),
    "model.SignalModel": (lambda: {"prior": [0.5, 0.5],
                                   "likelihood": [[0.9, 0.1], [0.1, 0.9]]},
                          {}, ()),
    "model.SignalModel.binary_symmetric": (lambda: {"noise": 0.15}, {},
                                           ("noise",)),
    "model.signal_posterior": (lambda: {"model": MODEL, "x": 1}, {"x": 2}, ()),
    "model.round_digit": (lambda: {"code": 5, "t": 1, "alphabet_size": 2},
                          {}, ()),
    "model.UtilityTable": (lambda: {"values": np.eye(2)}, {}, ()),
    "model.UtilityTable.identity": (lambda: {"n": 2}, {"n": 0}, ()),
    "model.TieBreak": (lambda: {"value": "own_signal"}, {}, ()),
    "model.TieBreakRule": (dict, {}, ()),
    "model.map_decision": (lambda: {"posterior": [0.5, 0.5],
                                    "utility": UtilityTable.identity(2),
                                    "tiebreak": TieBreakRule(),
                                    "own_signal": 1}, {}, ()),
    "model.UpdateRule": (lambda: {"variant": "majority"}, {}, ()),
    "model.action_count": (lambda: {"model": MODEL, "rule": BAYES}, {}, ()),
    "model.round0_kernel": (lambda: {"model": MODEL, "rule": BAYES,
                                     "n_actions": 2}, {}, ()),
    "model.majority_kernel": (lambda: {"votes": [0, 1, 1]}, {}, ()),
    "model.model_from_json": (lambda: {"doc": {"noise": 0.2}}, {}, ()),
    # trees
    "trees.GraphError": (dict, {}, ()),
    "trees.BudgetError": (dict, {}, ()),
    "trees.TreeGraph": (lambda: {"n": 2, "edges": ((0, 1),)}, {"n": -1}, ()),
    "trees.validate": (lambda: {"graph": PATH}, {}, ()),
    "trees.ball": (lambda: {"graph": PATH, "i": 1, "t": 1},
                   {"i": 3, "t": -1}, ()),
    "trees.path_graph": (lambda: {"n": 3}, {"n": -1}, ()),
    "trees.star_graph": (lambda: {"n": 3}, {"n": -1}, ()),
    "trees.regular_tree": (lambda: {"d": 3, "depth": 2},
                           {"d": 0, "depth": -1}, ()),
    "trees.rooted_arity_tree": (lambda: {"arity": 2, "depth": 2},
                                {"arity": 0, "depth": -1}, ()),
    "trees.DegreeDistribution": (lambda: {"support": (1, 2),
                                          "probs": np.array([0.5, 0.5])},
                                 {}, ()),
    "trees.edge_perspective": (lambda: {"rho_v": RHO}, {}, ()),
    "trees.SampledGraph": (lambda: {"n": 2, "edges": ((0, 1),),
                                    "tree_ball_radius": (2, 2)},
                           {"n": -1}, ()),
    "trees.sample_configuration_graph": (lambda: {"rho_v": RHO, "n": 6,
                                                  "seed": 1},
                                         {"n": -1, "seed": -1}, ()),
    "trees.graph_from_json": (lambda: {"doc": {"n": 2, "edges": [[0, 1]]}},
                              {}, ()),
    # bounds
    "bounds.BoundSequence": (lambda: {"d": 5, "delta0": 0.1, "values": (0.1,),
                                      "variant": "directed"},
                             {}, ("delta0",)),
    "bounds.binomial_tail": (lambda: {"n": 5, "k0": 2, "q": 0.3},
                             {"n": -1, "k0": None}, ("q",)),
    "bounds.pascal_tail": (lambda: {"n": 5, "k0": 2, "q": 0.3},
                           {"n": -1, "k0": None}, ("q",)),
    "bounds.undirected_bound_sequence": (
        lambda: {"d": 5, "delta0": 0.15, "rounds": 2},
        {"d": 2, "rounds": -1}, ("delta0",)),
    "bounds.directed_bound_sequence": (
        lambda: {"d": 5, "delta0": 0.15, "rounds": 2},
        {"d": 0, "rounds": -1}, ("delta0",)),
    "bounds.chernoff_envelope": (
        lambda: {"d": 5, "delta0": 0.15, "rounds": 2},
        {"d": 4, "rounds": -1}, ("delta0",)),
    "bounds.noise_threshold": (lambda: {"d": 5}, {"d": 4}, ()),
    "bounds.doubling_slope": (lambda: {"errors": [0.1, 0.01]}, {}, ()),
    "bounds.conjecture_check": (lambda: {"bayes_errors": [0.1],
                                         "majority_errors": [0.2]}, {}, ()),
    # oracle
    "oracle.TrajectoryTensor": (lambda: vars(_tensor()), {}, ()),
    "oracle.unroll": (lambda: {"graph": PATH, "model": MODEL, "rule": BAYES,
                               "t_max": 1}, {"t_max": -1}, ()),
    "oracle.feasible_set": (lambda: {"tensor": _tensor(), "i": 1, "x_i": 0,
                                     "observed": None, "t": 1},
                            {"i": 3, "x_i": 2, "t": 2}, ()),
    "oracle.oracle_decision_tables": (lambda: {"tensor": _tensor()}, {}, ()),
    "oracle.oracle_error_probability": (
        lambda: {"tensor": _tensor(), "i": 1, "t": 1, "condition_state": 1},
        {"i": 3, "t": 2, "condition_state": 2}, ()),
    # sim
    "sim.counter_uniform": (lambda: {"seed": 1, "kind": 2,
                                     "sample": np.arange(4), "node": 1,
                                     "t": 1},
                            {"seed": None, "kind": PAST_64_BITS,
                             "node": PAST_64_BITS, "t": PAST_64_BITS}, ()),
    "sim.RunResult": (lambda: {"graph": {}, "rule": "majority",
                               "model_hash": "", "seed": 1, "samples": 1,
                               "rounds": 0,
                               "errors": np.zeros((1, 1), dtype=np.int64)},
                      {}, ()),
    "sim.check_counts": (lambda: {"rounds": 1, "samples": 4, "seed": 1,
                                  "chunk": 2, "threads": 1},
                         {"rounds": -1, "samples": 0, "seed": PAST_64_BITS,
                          "chunk": 0, "threads": 0}, ()),
    "sim.simulate": (lambda: {"graph": PATH, "model": MODEL,
                              "rule": MAJORITY, "rounds": 1, "samples": 4,
                              "seed": 1, "chunk": 2, "threads": 1},
                     {"rounds": -1, "samples": 0, "seed": PAST_64_BITS,
                      "chunk": 0, "threads": 0}, ()),
    "sim.DegreeTables": (lambda: {"engine": ConfigModelEngine(MODEL, RHO,
                                                              BAYES),
                                  "graph": PATH}, {}, ()),
    "sim.interior_nodes": (lambda: {"graph": PATH, "t": 1, "d": 2},
                           {"t": -1, "d": -1}, ()),
    # verify
    "verify.VerifyReport": (dict, {}, ()),
    "verify.instance_family": (lambda: {"max_nodes": 3}, {"max_nodes": 1},
                               ()),
    "verify.oracle_equivalence_suite": (
        lambda: {"max_nodes": 2, "max_t": 0, "noise": 0.15},
        {"max_nodes": 1, "max_t": -1}, ("noise",)),
    "verify.invariant_suite": (lambda: {"ds": (3,), "noises": (0.15,),
                                        "max_t": 1}, {"max_t": -1}, ()),
    "verify.run_verification": (lambda: {"max_nodes": 2, "max_t": 0},
                                {"max_nodes": 1, "max_t": -1}, ()),
    # cavity
    "cavity.ActiveEdgeEngine": (lambda: {"model": MODEL, "d": 3,
                                         "rule": BAYES, "p": 0.5},
                                {"d": 0}, ("p",)),
    "cavity.CavityTable": (lambda: {"horizon": 0, "alphabet_size": 2,
                                    "array": np.full((2, 1, 2), 0.5)},
                           {}, ()),
    "cavity.ConfigModelEngine": (lambda: {"model": MODEL, "rho_v": RHO,
                                          "rule": BAYES}, {}, ()),
    "cavity.CouplingError": (dict, {}, ()),
    "cavity.DecisionTable": (lambda: {"horizon": 0, "alphabet_size": 2,
                                      "degree": 1,
                                      "array": np.zeros((2, 1), dtype=int)},
                             {}, ()),
    "cavity.FiniteTreeEngine": (lambda: {"graph": PATH, "model": MODEL,
                                         "rule": BAYES}, {}, ()),
    "cavity.RegularTreeEngine": (lambda: {"model": MODEL, "d": 3,
                                          "rule": BAYES}, {"d": 0}, ()),
    "cavity.TableError": (dict, {}, ()),
    "cavity.posterior_with_hubs": (
        lambda: {"graph": PATH, "model": MODEL, "rule": BAYES, "node": 1,
                 "x": 0, "observed": {0: 0, 2: 1}, "t": 1},
        {"node": 3, "x": 2, "t": -1}, ()),
    # The engines' round and node arguments.
    "cavity.RegularTreeEngine.run": (lambda: {"self": _regular(),
                                              "rounds": 1},
                                     {"rounds": -1}, ()),
    "cavity.RegularTreeEngine.error_curve": (
        lambda: {"self": _regular(), "rounds": 1, "condition_state": 1},
        {"rounds": -1, "condition_state": 2}, ()),
    "cavity.RegularTreeEngine.error_probability": (
        lambda: {"self": _regular(), "t": 1, "degree": 3,
                 "condition_state": 1},
        {"t": 2, "degree": 4, "condition_state": 2}, ()),
    "cavity.FiniteTreeEngine.run": (lambda: {"self": _finite(), "rounds": 1},
                                    {"rounds": -1}, ()),
    "cavity.FiniteTreeEngine.error_probability": (
        lambda: {"self": _finite(), "node": 1, "t": 1, "condition_state": 1},
        {"node": 3, "t": 2, "condition_state": 2}, ()),
}

# (name, parameter) -> why an int or float parameter is not swept;
# (name, parameter, substitute) -> why that one substitute is accepted.
ALLOWED = {
    ("model.is_index", "n"): "a predicate: it answers for every value and "
                             "refuses none",
    ("model.check_int", "least"): "the bound a calling module writes into "
                                  "its own check, not a user's value",
    ("model.round_digit", "t"): "digit arithmetic on packed codes, run per "
                                "vote in the oracle's loops on rounds its "
                                "callers have checked",
    ("model.round_digit", "alphabet_size"): "as for t",
    ("model.map_decision", "own_signal"): "read only to break a tie, as the "
                                          "signal the caller drew",
    ("model.round0_kernel", "n_actions"): "action_count(model, rule), which "
                                          "each caller derives",
    ("oracle.TrajectoryTensor", "horizon"): "a record unroll fills from its "
                                            "checked t_max",
    ("oracle.TrajectoryTensor", "n_actions"): "a record unroll fills from "
                                              "action_count(model, rule)",
    ("sim.RunResult", "seed"): "a record simulate fills from its checked "
                               "counts",
    ("sim.RunResult", "samples"): "as for seed",
    ("sim.RunResult", "rounds"): "as for seed",
    ("bounds.BoundSequence", "d"): "a record the bound builders fill from "
                                   "their checked d",
    ("bounds.binomial_tail", "k0", "-1"): "every draw meets a threshold at "
                                          "or below 0: the tail is 1",
    ("bounds.pascal_tail", "k0", "-1"): "as for binomial_tail",
    ("cavity.CavityTable", "horizon"): "a container each engine fills with "
                                       "its own rounds; TableError refuses "
                                       "an array that does not match them",
    ("cavity.CavityTable", "alphabet_size"): "as for horizon",
    ("cavity.DecisionTable", "horizon"): "as for CavityTable",
    ("cavity.DecisionTable", "alphabet_size"): "as for CavityTable",
    ("cavity.DecisionTable", "degree"): "as for CavityTable",
    ("sim.counter_uniform", "seed", "-1"): "the seed is read modulo 2**64, "
                                           "and the replay's reference test "
                                           "draws seed -1",
}


def _resolve(name: str):
    short, *attrs = name.split(".")
    obj = importlib.import_module(f"cavitree.{short}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def public_names() -> set[str]:
    """Every public callable of the package: those a module of
    ``cavitree.__all__`` defines, or those its own ``__all__`` lists."""
    names = set()
    for short in cavitree.__all__:
        if short.startswith("__"):
            continue
        module = importlib.import_module(f"cavitree.{short}")
        exported = getattr(module, "__all__", None)
        for attr, value in vars(module).items():
            if exported is None:
                public = (not attr.startswith("_") and getattr(
                    value, "__module__", None) == module.__name__)
            else:
                public = attr in exported
            if public and callable(value):
                names.add(f"{short}.{attr}")
    return names


def test_every_public_name_is_in_the_table():
    assert sorted(public_names() - set(CALLS)) == []
    for key in ALLOWED:
        assert key[0] in CALLS, key
        assert key[1] in inspect.signature(_resolve(key[0])).parameters, key


def _substitutions(name: str, valid: dict, ints: dict, probs) -> list:
    """(label, arguments) of every call that must be refused."""
    out = []
    for param, past in ints.items():
        subs = dict(INT_SUBSTITUTES)
        if past is not None:
            subs["past"] = past
        out += [(f"{param}={label}", {**valid, param: value})
                for label, value in subs.items()
                if (name, param, label) not in ALLOWED]
    for param in probs:
        out += [(f"{param}={label}", {**valid, param: value})
                for label, value in PROB_SUBSTITUTES.items()]
    return out


@pytest.mark.parametrize("name", sorted(CALLS))
def test_argument_contract(name):
    fn = _resolve(name)
    build, ints, probs = CALLS[name]
    # The valid call, with NumPy ints for the swept ones: the rest of the
    # suite calls with Python ints.
    fn(**{param: np.int64(value) if param in ints else value
          for param, value in build().items()})
    is_exception = isinstance(fn, type) and issubclass(fn, Exception)
    parameters = {} if is_exception else inspect.signature(fn).parameters
    for param, value in parameters.items():
        kind = {"int": "int", "int | None": "int", "float": "float"}.get(
            value.annotation)
        swept = param in (ints if kind == "int" else probs)
        assert kind is None or swept or (name, param) in ALLOWED, (
            f"{kind} parameter {param} of {name} is neither swept nor "
            f"excused")
    failures = []
    for label, arguments in _substitutions(name, build(), ints, probs):
        try:
            fn(**arguments)
        except (ModelError, GraphError) as exc:
            if len(str(exc).splitlines()) != 1:
                failures.append(f"{label}: refused in {str(exc)!r}")
        except Exception as exc:  # a refusal of the wrong kind
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            failures.append(f"{label}: accepted")
    assert not failures, failures
