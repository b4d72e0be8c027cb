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
import hashlib
import json
import os
import sys
import time

from . import __version__, bounds as bounds_mod
from .cavity import FiniteTreeEngine, RegularTreeEngine
from .model import ModelError, SignalModel, TieBreakRule, UpdateRule, model_from_json
from .sim import simulate
from .trees import BudgetError, GraphError, TreeGraph, graph_from_json, regular_tree
from .verify import run_verification


def _write_atomic(path: str, data: str) -> str:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return path


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _manifest(command: str, args: argparse.Namespace, config: dict,
              outputs: list[str], elapsed: float) -> str:
    path = (args.out or command) + ".manifest.json"
    doc = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "tool_version": __version__,
        "elapsed_seconds": elapsed,
        "outputs": [{"path": p, "sha256": _digest(p)} for p in outputs],
    }
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _resolve_model(args) -> tuple[SignalModel, TieBreakRule]:
    if getattr(args, "model", None):
        with open(args.model) as fh:
            return model_from_json(json.load(fh))
    return model_from_json({"noise": args.noise})


def _rule(name: str, tie: TieBreakRule) -> UpdateRule:
    if name not in ("bayesian", "majority"):
        raise ModelError(f"unknown rule {name!r}")
    return UpdateRule(variant=name, tie_break=tie)


def _condition(args, model: SignalModel) -> int | None:
    cond = getattr(args, "condition", "average")
    if cond == "average":
        return None
    if not (cond.isdigit() and int(cond) < model.n_states):
        raise ModelError(f"--condition must be 'average' or a state index "
                         f"0..{model.n_states - 1}, not {cond!r}")
    return int(cond)


def _check_counts(args) -> None:
    if getattr(args, "rounds", 0) < 0:
        raise ModelError(f"--rounds must be >= 0, not {args.rounds}")
    if getattr(args, "samples", 1) < 1:
        raise ModelError(f"--samples must be >= 1, not {args.samples}")
    if getattr(args, "max_t", 0) < 0:
        raise ModelError(f"--max-t must be >= 0, not {args.max_t}")
    if getattr(args, "max_nodes", 2) < 2:
        raise ModelError(f"--max-nodes must be >= 2, not {args.max_nodes}")
    if getattr(args, "threads", 1) < 1:
        raise ModelError(f"--threads must be >= 1, not {args.threads}")


def _error_column(rule_name: str, d: int, model: SignalModel, tie: TieBreakRule,
                  rounds: int, condition) -> list[float]:
    engine = RegularTreeEngine(model, d, _rule(rule_name, tie))
    engine.run(rounds)
    return [engine.error_probability(t, condition_state=condition)
            for t in range(rounds + 1)]


def cmd_table(args) -> int:
    t0 = time.monotonic()
    model, tie = _resolve_model(args)
    condition = _condition(args, model)
    errs = _error_column(args.rule, args.d, model, tie, args.rounds, condition)
    rows = ["rule,d,noise,round,error_prob"]
    for t, e in enumerate(errs):
        rows.append(f"{args.rule},{args.d},{args.noise},{t},{_fmt(e)}")
    out = args.out or "table.csv"
    _write_atomic(out, "\n".join(rows) + "\n")
    _manifest("table", args, {"rule": args.rule, "d": args.d, "noise": args.noise,
                              "rounds": args.rounds, "condition": args.condition},
              [out], time.monotonic() - t0)
    print(f"wrote {out} ({len(errs)} rounds)")
    return 0


def cmd_curve(args) -> int:
    t0 = time.monotonic()
    model, tie = _resolve_model(args)
    condition = _condition(args, model)
    ds = [int(v) for v in args.d.split(",")]
    rows = ["d,noise,round,error_prob,loglog,slope"]
    for d in ds:
        errs = _error_column(args.rule, d, model, tie, args.rounds, condition)
        diag = bounds_mod.doubling_slope(errs)
        for t, e in enumerate(errs):
            slope = "" if t == 0 else _fmt(diag["slopes"][t - 1])
            rows.append(f"{d},{args.noise},{t},{_fmt(e)},{_fmt(diag['loglog'][t])},{slope}")
    out = args.out or "curve.csv"
    _write_atomic(out, "\n".join(rows) + "\n")
    _manifest("curve", args, {"rule": args.rule, "d": ds, "noise": args.noise,
                              "rounds": args.rounds}, [out],
              time.monotonic() - t0)
    print(f"wrote {out}")
    return 0


def cmd_bounds(args) -> int:
    t0 = time.monotonic()
    fns = {
        "undirected": bounds_mod.undirected_bound_sequence,
        "directed": bounds_mod.directed_bound_sequence,
        "chernoff": bounds_mod.chernoff_envelope,
    }
    if args.variant not in fns:
        raise ModelError(f"unknown bounds variant {args.variant!r}")
    seq = fns[args.variant](args.d, args.delta0, args.rounds)
    rows = ["variant,d,delta0,t,value"]
    for t, v in enumerate(seq.values):
        rows.append(f"{seq.variant},{args.d},{args.delta0},{t},{_fmt(v)}")
    out = args.out or "bounds.csv"
    _write_atomic(out, "\n".join(rows) + "\n")
    _manifest("bounds", args, {"variant": args.variant, "d": args.d,
                               "delta0": args.delta0, "rounds": args.rounds},
              [out], time.monotonic() - t0)
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    report = run_verification(max_nodes=args.max_nodes, max_t=args.max_t)
    for line in report.lines():
        print(line)
    elapsed = time.monotonic() - t0
    print(f"{'OK' if report.ok else 'FAILED'} "
          f"({sum(p for _, p, _ in report.checks)}/{len(report.checks)} checks, "
          f"{elapsed:.1f}s)")
    if args.out:
        _write_atomic(args.out, "\n".join(report.lines()) + "\n")
        _manifest("verify", args, {"max_nodes": args.max_nodes, "max_t": args.max_t},
                  [args.out], elapsed)
    return 0 if report.ok else 1


def _resolve_graph(args) -> TreeGraph:
    if args.graph:
        with open(args.graph) as fh:
            return graph_from_json(json.load(fh))
    if args.tree:
        d, depth = (int(v) for v in args.tree.split(":"))
        return regular_tree(d, depth)
    raise ModelError("simulate needs --graph FILE or --tree d:depth")


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    model, tie = _resolve_model(args)
    graph = _resolve_graph(args)
    rule = _rule(args.rule, tie)
    tables = None
    if rule.variant == "bayesian":
        engine = FiniteTreeEngine(graph, model, rule)
        engine.run(args.rounds)
        tables = engine
    result = simulate(graph, model, rule, args.rounds, args.samples, args.seed,
                      tables=tables, threads=args.threads)
    out = args.out or "simulate"
    csv_rows = ["node,round,errors,samples"]
    csv_rows += [f"{n},{t},{e},{s}" for n, t, e, s in result.to_csv_rows()]
    csv_path = _write_atomic(out + ".csv", "\n".join(csv_rows) + "\n")
    json_path = _write_atomic(out + ".json",
                              json.dumps(result.to_json(), sort_keys=True) + "\n")
    args.out = out
    _manifest("simulate", args,
              {"rule": args.rule, "noise": args.noise, "rounds": args.rounds,
               "samples": args.samples, "seed": args.seed,
               "graph": args.graph or args.tree},
              [csv_path, json_path], time.monotonic() - t0)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_conjecture(args) -> int:
    t0 = time.monotonic()
    model, tie = _resolve_model(args)
    condition = _condition(args, model)
    bayes = _error_column("bayesian", args.d, model, tie, args.rounds, condition)
    major = _error_column("majority", args.d, model, tie, args.rounds, condition)
    report = bounds_mod.conjecture_check(bayes, major)
    rows = ["round,bayesian,majority,holds"]
    for t, (b, m) in enumerate(zip(bayes, major)):
        rows.append(f"{t},{_fmt(b)},{_fmt(m)},{int(b <= m)}")
    out = args.out or "conjecture.csv"
    _write_atomic(out, "\n".join(rows) + "\n")
    _manifest("conjecture", args, {"d": args.d, "noise": args.noise,
                                   "rounds": args.rounds}, [out],
              time.monotonic() - t0)
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

    def common(p, rule=True):
        if rule:
            p.add_argument("--rule", default="bayesian",
                           choices=["bayesian", "majority"])
        p.add_argument("--d", type=int, default=5, help="tree degree")
        p.add_argument("--noise", type=float, default=0.15,
                       help="binary symmetric signal error")
        p.add_argument("--model", help="JSON model configuration file")
        p.add_argument("--rounds", type=int, default=4)
        p.add_argument("--condition", default="average",
                       help="'average' (default) or a state index to condition on")
        p.add_argument("--out", help="output file")

    p = sub.add_parser("table", help="error-probability table for one rule")
    common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("curve", help="error decay with log(-log) diagnostics")
    p.add_argument("--rule", default="bayesian", choices=["bayesian", "majority"])
    p.add_argument("--d", default="5", help="comma-separated degrees")
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--model", help="JSON model configuration file")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--condition", default="average")
    p.add_argument("--out", help="output file")
    p.set_defaults(fn=cmd_curve)

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
    common(p, rule=False)
    p.set_defaults(fn=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ModelError, GraphError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
