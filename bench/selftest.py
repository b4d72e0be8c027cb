"""Self-test of the benchmark's checks and trace, at small sizes.

    python3 bench/selftest.py

Runs each workload once at small sizes and expects no failed operation.
Then it feeds the checks wrong answers, one at a time, and expects each to
count as exactly one failed operation: an error value scaled by 1.2, a
replayed tally moved by 6 standard errors, an oracle posterior perturbed by
1e-6.  Last, it runs each workload traced and expects the layers' self times
plus the unattributed remainder to add up to the traced CPU time, and it
checks that BENCHMARK.json names the metrics the benchmark reports.  Exits 1
if any expectation fails.
"""

import dataclasses
import hashlib
import json
import sys

import run  # pins the BLAS threads before numpy loads

run.load_program()

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from spans import METRICS, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(f"{'PASS' if condition else 'FAIL'}  {message}")
    if not condition:
        FAILURES.append(message)


def build(name, exact):
    workload = WORKLOADS[name](run.ROOT, 7, exact, small=True)
    workload.prepare()
    return workload


def tampered(results, op_name, change):
    out = []
    for op, value, error in results:
        out.append((op, change(value) if op.name == op_name else value, error))
    return out


def expect_one_failure(label, results):
    failed, wrong, problems = run.judge(results)
    expect(failed == 1 and wrong == 1,
           f"{label}: {failed} failed operation(s) {sorted(problems)}")


def scale_csv_value(path, row, factor):
    """Scale one error value in a table CSV and re-sign its manifest."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[4] = f"{float(cells[4]) * factor:.17e}"
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    manifest_path = path + ".manifest.json"
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    for entry in manifest["outputs"]:
        if entry["path"] == path:
            entry["sha256"] = digest
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


def check_paper_tables(exact):
    workload = build("paper-tables", exact)
    results, _, _ = run.execute(workload.operations())
    expect(run.judge(results)[0] == 0, "paper-tables passes its checks")
    rule, d, noise, _ = workload.columns[0]
    path = workload.csv_path(rule, d, noise)
    scale_csv_value(path, 1, 1.2)
    expect_one_failure("paper-tables, one table value x1.2", results)
    scale_csv_value(path, 1, 1 / 1.2)
    expect(run.judge(results)[0] == 0, "paper-tables passes once restored")


def check_frontier(exact):
    workload = build("frontier", exact)
    results, _, _ = run.execute(workload.operations())
    expect(run.judge(results)[0] == 0, "frontier passes its checks")

    def scale(errors):
        return errors[:2] + [errors[2] * 1.2] + errors[3:]
    expect_one_failure("frontier, round-2 value x1.2",
                       tampered(results, results[0][0].name, scale))


def check_graphs(exact):
    workload = build("graphs", exact)
    results, _, _ = run.execute(workload.operations())
    failed, _, problems = run.judge(results)
    expect(failed == 0, f"graphs passes its checks {problems}")

    expect_one_failure("graphs, root round-1 value x1.2", tampered(
        results, "finite-tree engine",
        lambda errors: [errors[0], errors[1] * 1.2] + errors[2:]))

    p = workload.exact.curve("bayesian", workload.tree_d, workload.NOISE, 1)[1]

    def move_root_tally(result):
        errors = result.errors.copy()
        errors[0, 1] += round(6 * ref.standard_error(p, result.samples)
                              * result.samples)
        return dataclasses.replace(result, errors=errors)
    expect_one_failure("graphs, root round-1 tally moved by 6 SE",
                       tampered(results, "tree replay", move_root_tally))

    graph = workload.state["config_graph"]
    adj = workload._adjacency(graph)
    k = 4
    count, _, var = ref.round1_moments(adj, "majority", workload.NOISE)[k]

    def move_degree_tally(pair):
        majority, bayes = pair
        errors = majority.errors.copy()
        shift = 6 * (var / majority.samples) ** 0.5 * count * majority.samples
        node = next(i for i, a in enumerate(adj) if len(a) == k)
        errors[node, 1] += int(np.ceil(shift))
        return dataclasses.replace(majority, errors=errors), bayes
    expect_one_failure(f"graphs, degree-{k} majority tally moved by 6 SE",
                       tampered(results, "majority replay", move_degree_tally))

    def perturb_oracle(pairs):
        post, oracle_post = pairs[0]
        return [(post, oracle_post + np.array([1e-6, -1e-6]))] + pairs[1:]
    expect_one_failure("graphs, one oracle posterior perturbed by 1e-6",
                       tampered(results, "hub posterior", perturb_oracle))


def check_trace(name, exact):
    workload = build(name, exact)
    tracer = Tracer()
    plain = run.run_round(workload)
    traced = run.run_round(workload, tracer)
    traced_cpu = traced["cpu_s"]
    metrics = per_layer_metrics(tracer, traced_cpu, plain["cpu_s"])
    expect(traced["failed"] == 0, f"{name} traced passes its checks")
    expect(not tracer.absent, f"{name} finds every wrapped name "
           f"{tracer.absent}")
    stats = tracer.layer_stats()
    self_total = tracer.self_cpu_total()
    unattributed = metrics["trace.unattributed_cpu_s"]["value"]
    expect(abs(self_total + unattributed - traced_cpu) < 1e-9
           and min(s["self_cpu_s"] for s in stats.values()) > -1e-3
           and -1e-3 < unattributed < 0.25 * traced_cpu,
           f"{name} self times {self_total:.3f} s + unattributed "
           f"{unattributed:.3f} s = traced cpu {traced_cpu:.3f} s")
    calls = {layer: s["calls"] for layer, s in stats.items()}
    print(f"      layers called: {calls}")


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    expect([m["name"] for m in doc["end_to_end"]]
           == ["cpu_s", "setup_s", "peak_rss_mb"],
           "BENCHMARK.json lists the end-to-end metrics run.py reports")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
           == [metric[:3] for metric in METRICS],
           "BENCHMARK.json lists the per-layer metrics spans.py reports")
    expect([w["name"] for w in doc["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs")


def main() -> int:
    check_benchmark_json()
    exact = ref.ExactColumns(run.ROOT)
    check_paper_tables(exact)
    check_frontier(exact)
    check_graphs(exact)
    for name in WORKLOADS:
        check_trace(name, exact)
    print("self-test", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
