"""Benchmark of cavitree on process CPU time.

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

Runs one workload in this single process.  With ``--trace 0`` it repeats
whole rounds of the workload's operations until their CPU time reaches
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
a plain round, a round with spans around every layer and a plain round again,
and reports the per-layer metrics.  Every output is checked after its round, outside the
timed section.  The last line of standard output is the result as JSON; a
fuller record, with machine details, goes to ``.bench_out/``.
"""

import os

# Pin BLAS and OpenMP to one thread before anything loads numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
WORKLOAD_NAMES = ("paper-tables", "frontier", "graphs")


def process_cpu() -> float:
    """User + system CPU of this process since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def load_program():
    """Import cavitree from this checkout's sources, or exit without a result."""
    missing = [p for p in ("src/cavitree/__init__.py", "tests/exact_reference.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench: the checkout lacks {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import cavitree

    if not Path(cavitree.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: imported cavitree from {cavitree.__file__}, "
                 f"not from {ROOT / 'src'}")


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def execute(ops):
    """Run the operations in order; returns outputs, CPU per operation, wall."""
    results, cpu, wall = [], {}, 0.0
    for op in ops:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception:  # an operation that raises counts as failed
            out, error = None, traceback.format_exc(limit=3).strip()
        cpu[op.name] = time.process_time() - cpu0
        wall += time.perf_counter() - wall0
        results.append((op, out, error))
    return results, cpu, wall


def judge(results):
    """Check every output; returns (failed, wrong, problems by operation)."""
    failed = wrong = 0
    problems = {}
    for op, out, error in results:
        if error is not None:
            found = [error]
        else:
            try:
                found = op.check(out)
            except Exception:  # a check that cannot read the output
                found = [traceback.format_exc(limit=3).strip()]
            wrong += bool(found)
        if found:
            failed += 1
            problems[op.name] = found
    return failed, wrong, problems


def run_round(workload, tracer=None) -> dict:
    """One round of the workload's operations, traced if a tracer is given."""
    ops = workload.operations()
    if tracer is not None:
        tracer.install()
    try:
        results, cpu, wall = execute(ops)
    finally:
        if tracer is not None:
            tracer.remove()
    failed, wrong, problems = judge(results)
    return {"cpu_s": sum(cpu.values()), "wall_s": wall, "op_cpu_s": cpu,
            "attempted": len(ops), "failed": failed, "wrong": wrong,
            "problems": problems}


def setup_samples(args) -> list[float]:
    """CPU of fresh interpreters from start to the first timed call."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_cpu_s"])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    import reference
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](ROOT, args.seed, exact=None)
        print(json.dumps({"setup_cpu_s": process_cpu()}))
        return 0

    setup = setup_samples(args)
    workload = WORKLOADS[args.workload](ROOT, args.seed,
                                        reference.ExactColumns(ROOT))
    workload.prepare()
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine_info(), "setup_cpu_s_samples": setup}

    if args.trace:
        from spans import Tracer, per_layer_metrics

        # Plain, traced, plain: the overhead compares the traced round with
        # the plain round after it, both of which find the heap grown.
        tracer = Tracer()
        rounds = [run_round(workload, tracer if traced else None)
                  for traced in (False, True, False)]
        traced_cpu, plain_cpu = rounds[1]["cpu_s"], rounds[2]["cpu_s"]
        metrics = per_layer_metrics(tracer, traced_cpu, plain_cpu)
        info.update(untraced_cpu_s=plain_cpu, traced_cpu_s=traced_cpu,
                    traced_wall_s=rounds[1]["wall_s"],
                    absent_layers=tracer.absent)
        spans = tracer.to_json()
    else:
        # Whole rounds until their CPU time reaches --seconds.
        rounds = [run_round(workload)]
        while sum(r["cpu_s"] for r in rounds) < args.seconds:
            rounds.append(run_round(workload))
        metrics = {
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        info.update(wall_s=statistics.median(r["wall_s"] for r in rounds))
        spans = None

    problems = {}
    for r in rounds:
        problems.update(r.pop("problems"))
    result = {"correct": not any(r["wrong"] for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    info.update(result, rounds=rounds, problems=problems)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.result.json").write_text(json.dumps(info, indent=2))
    if spans is not None:
        (out_dir / f"{stem}.trace.json").write_text(json.dumps(spans))
    for name, found in problems.items():
        print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({k: v for k, v in info.items() if k != "metrics"
                      and k != "problems"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
