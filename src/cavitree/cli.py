"""Reproduction harness: compute error tables, curves, bounds; verify; simulate.

Every command writes full-precision CSV plus a manifest JSON that records the
exact invocation, configuration, tool version, elapsed time and a sha256
digest of every output file.  Outputs are written atomically and are
byte-identical across reruns of the same command.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__, bounds as bounds_mod
from .cavity import FiniteTreeEngine, RegularTreeEngine
from .model import ModelError, SignalModel, TieBreakRule, UpdateRule, model_from_json
from .sim import check_counts, simulate
from .trees import BudgetError, GraphError, TreeGraph, graph_from_json, regular_tree
from .verify import run_verification


def _save(command: str, args: argparse.Namespace, config: dict,
          files: dict[str, list[str]], t0: float) -> None:
    """Write each file of ``files`` (path: lines), then the manifest
    ``(--out or command).manifest.json`` that names them with their sha256,
    each atomically: a reader never sees a half-written file."""
    data = {path: ("\n".join(lines) + "\n").encode()
            for path, lines in files.items()}
    doc = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "tool_version": __version__,
        "elapsed_seconds": time.monotonic() - t0,
        "outputs": [{"path": p, "sha256": hashlib.sha256(b).hexdigest()}
                    for p, b in data.items()],
    }
    data[(args.out or command) + ".manifest.json"] = (
        json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    for path, blob in data.items():
        with open(path + ".tmp", "wb") as fh:
            fh.write(blob)
        os.replace(path + ".tmp", path)


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _resolve_model(args) -> tuple[SignalModel, TieBreakRule, dict]:
    """The run's model and tie rule, and the manifest entries that name the
    model: its --noise level, or a --model file with its ``config_hash``
    and no noise level, since the file sets its own likelihood."""
    if not args.model:
        return (*model_from_json({"noise": args.noise}), {"noise": args.noise})
    with open(args.model) as fh:
        model, tie = model_from_json(json.load(fh))
    return model, tie, {"noise": None, "model": args.model,
                        "model_hash": model.config_hash()}


def _condition(args, model: SignalModel) -> int | None:
    cond = args.condition
    if cond == "average":
        return None
    if not (cond.isascii() and cond.isdigit() and int(cond) < model.n_states):
        raise ModelError(f"--condition must be 'average' or a state index "
                         f"0..{model.n_states - 1}, not {cond!r}")
    return int(cond)


def cmd_table(args) -> int:
    t0 = time.monotonic()
    model, tie, source = _resolve_model(args)
    condition = _condition(args, model)
    errs = RegularTreeEngine(model, args.d, UpdateRule(args.rule, tie)).error_curve(
        args.rounds, condition)
    noise = "" if source["noise"] is None else source["noise"]
    rows = ["rule,d,noise,round,error_prob"]
    for t, e in enumerate(errs):
        rows.append(f"{args.rule},{args.d},{noise},{t},{_fmt(e)}")
    out = args.out or "table.csv"
    _save("table", args, {"rule": args.rule, "d": args.d, **source,
                          "rounds": args.rounds, "condition": args.condition},
          {out: rows}, t0)
    print(f"wrote {out} ({len(errs)} rounds)")
    return 0


def cmd_curve(args) -> int:
    t0 = time.monotonic()
    model, tie, source = _resolve_model(args)
    condition = _condition(args, model)
    try:
        ds = [int(v) for v in args.d.split(",")]
    except ValueError:
        raise ModelError(f"--d takes comma-separated integers, not "
                         f"{args.d!r}") from None
    noise = "" if source["noise"] is None else source["noise"]
    rows = ["d,noise,round,error_prob,loglog,slope"]
    for d in ds:
        errs = RegularTreeEngine(model, d, UpdateRule(args.rule, tie)).error_curve(
            args.rounds, condition)
        diag = bounds_mod.doubling_slope(errs)
        for t, e in enumerate(errs):
            slope = "" if t == 0 else _fmt(diag["slopes"][t - 1])
            rows.append(f"{d},{noise},{t},{_fmt(e)},{_fmt(diag['loglog'][t])},{slope}")
    out = args.out or "curve.csv"
    _save("curve", args, {"rule": args.rule, "d": ds, **source,
                          "rounds": args.rounds, "condition": args.condition},
          {out: rows}, t0)
    print(f"wrote {out}")
    return 0


def cmd_bounds(args) -> int:
    t0 = time.monotonic()
    fns = {
        "undirected": bounds_mod.undirected_bound_sequence,
        "directed": bounds_mod.directed_bound_sequence,
        "chernoff": bounds_mod.chernoff_envelope,
    }
    seq = fns[args.variant](args.d, args.delta0, args.rounds)
    rows = ["variant,d,delta0,t,value"]
    for t, v in enumerate(seq.values):
        rows.append(f"{seq.variant},{args.d},{args.delta0},{t},{_fmt(v)}")
    out = args.out or "bounds.csv"
    _save("bounds", args, {"variant": args.variant, "d": args.d,
                           "delta0": args.delta0, "rounds": args.rounds},
          {out: rows}, t0)
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    report = run_verification(max_nodes=args.max_nodes, max_t=args.max_t)
    for line in report.lines():
        print(line)
    print(f"{'OK' if report.ok else 'FAILED'} "
          f"({sum(p for _, p, _ in report.checks)}/{len(report.checks)} checks, "
          f"{time.monotonic() - t0:.1f}s)")
    if args.out:
        _save("verify", args, {"max_nodes": args.max_nodes, "max_t": args.max_t},
              {args.out: report.lines()}, t0)
    return 0 if report.ok else 1


def _resolve_graph(args) -> TreeGraph:
    if args.graph:
        with open(args.graph) as fh:
            return graph_from_json(json.load(fh))
    if args.tree:
        try:
            d, depth = (int(v) for v in args.tree.split(":"))
        except ValueError:
            raise ModelError(f"--tree takes d:depth, not {args.tree!r}") from None
        return regular_tree(d, depth)
    raise ModelError("simulate needs --graph FILE or --tree d:depth")


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    model, tie, source = _resolve_model(args)
    graph = _resolve_graph(args)
    rule = UpdateRule(args.rule, tie)
    check_counts(args.rounds, args.samples, args.seed, threads=args.threads)
    tables = None
    if rule.variant == "bayesian":
        tables = FiniteTreeEngine(graph, model, rule)
        tables.run(args.rounds)
    result = simulate(graph, model, rule, args.rounds, args.samples, args.seed,
                      tables=tables, threads=args.threads)
    out = args.out or "simulate"
    rows = ["node,round,errors,samples"]
    rows += [f"{n},{t},{e},{s}" for n, t, e, s in result.to_csv_rows()]
    _save("simulate", args,
          {"rule": args.rule, **source, "rounds": args.rounds,
           "samples": args.samples, "seed": args.seed,
           "graph": args.graph or args.tree},
          {out + ".csv": rows,
           out + ".json": [json.dumps(result.to_json(), sort_keys=True)]}, t0)
    print(f"wrote {out}.csv and {out}.json")
    return 0


def cmd_conjecture(args) -> int:
    t0 = time.monotonic()
    model, tie, source = _resolve_model(args)
    condition = _condition(args, model)
    bayes, major = (RegularTreeEngine(model, args.d, UpdateRule(name, tie)).error_curve(
        args.rounds, condition) for name in ("bayesian", "majority"))
    report = bounds_mod.conjecture_check(bayes, major)
    rows = ["round,bayesian,majority,holds"]
    for t, (b, m, ok) in enumerate(zip(bayes, major, report["per_round"])):
        rows.append(f"{t},{_fmt(b)},{_fmt(m)},{int(ok)}")
    out = args.out or "conjecture.csv"
    _save("conjecture", args, {"d": args.d, **source, "rounds": args.rounds,
                               "condition": args.condition},
          {out: rows}, t0)
    status = "holds" if report["holds"] else f"VIOLATED at {report['violations']}"
    print(f"conjecture check (not an assertion): Bayesian <= majority {status}")
    return 0 if report["holds"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitree",
        description="Exact social-learning computations on trees "
                    "(dynamic cavity method)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    degree = {"type": int, "default": 5, "help": "tree degree"}

    def common(p, rule=True, **d):
        """The options of every model command; ``d``, the keywords of a --d,
        adds it and --condition, which the homogeneous engine reads."""
        if rule:
            p.add_argument("--rule", default="bayesian",
                           choices=["bayesian", "majority"])
        p.add_argument("--noise", type=float, default=0.15,
                       help="binary symmetric signal error")
        p.add_argument("--model", help="JSON model configuration file")
        p.add_argument("--rounds", type=int, default=4)
        p.add_argument("--out", help="output file")
        if d:
            p.add_argument("--d", **d)
            p.add_argument("--condition", default="average",
                           help="'average' (default) or a state index to "
                                "condition on")

    p = sub.add_parser("table", help="error-probability table for one rule")
    common(p, **degree)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("curve", help="error decay with log(-log) diagnostics")
    common(p, default="5", help="comma-separated degrees")
    p.set_defaults(fn=cmd_curve, noise=0.3)

    p = sub.add_parser("bounds", help="analytic majority-dynamics bounds")
    p.add_argument("--variant", default="undirected",
                   choices=["undirected", "directed", "chernoff"])
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--delta0", type=float, default=0.15)
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--out", help="output file")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="oracle-equivalence and invariant suites")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--max-t", type=int, default=3)
    p.add_argument("--out", help="optional report file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="seeded Monte Carlo replay")
    common(p)
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--tree", help="regular tree shorthand d:depth")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("conjecture", help="Bayesian vs majority comparison")
    common(p, rule=False, **degree)
    p.set_defaults(fn=cmd_conjecture)
    return parser


# One parser per process, built on main's first call: in-process callers of
# main would otherwise pay about 1 ms per call to rebuild it.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ModelError, GraphError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
