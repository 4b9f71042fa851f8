"""galoiskit benchmark: one workload, one seed, answers checked.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The workload runs in one worker
process (perfbench/worker.py) as a closed loop: one query at a time, the
next only after the previous answer.  This process never imports galoiskit;
it starts the workers, checks every answer with checks.py, and prints a
summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced and once traced and reports the per-layer metrics, the traced
wall time and the tracing overhead.  Details of each run (latencies,
p90 where there are at least 100 queries, failures, set-up samples) go to
perfbench/out/result-<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
SETUP_SAMPLES = 7  # set-up-only workers per run, besides the workload's own
RUN_BUDGET_S = 170  # every worker of one run must end within this


class WorkerFailed(Exception):
    pass


def worker(inputs, mode, deadline, trace_out=None):
    """Run one worker process to its end and return its JSON document."""
    cmd = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={OUT / 'pycache'}", str(HERE / "worker.py"), str(ROOT), str(inputs), mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0)] + ([str(trace_out)] if trace_out else []),
                              capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker still running after the {RUN_BUDGET_S} s budget")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(queries, run):
    """(attempted, failed, list of wrong answers) for one worker's records."""
    records = run["records"]
    if [r["id"] for r in records] != [q["id"] for q in queries]:
        raise WorkerFailed("worker answered a different query list")
    wrong = []
    for q, r in zip(queries, records):
        if r["error"] is None:
            answer = r["answer"]
            try:
                answer = json.loads(answer) if q["kind"] == "cli" else answer
            except ValueError as exc:
                wrong.append(f"{q['id']} {q['args']}: output is not JSON: {exc}")
                continue
            wrong += [f"{q['id']} {q['args']}: {p}" for p in checks.problems(q["expect"], answer)]
    return len(records), sum(1 for r in records if r["error"] is not None), wrong


def layer_units(name):
    if name.endswith(".calls") or name.endswith("candidates_per_subfield"):
        return "count"
    return "s"


def per_layer_names():
    names = []
    for base in tracer.span_metric_names():
        names += [f"{base}.calls", f"{base}.s", f"{base}.self_s"]
    names += [f"{base}.calls" for base in tracer.count_metric_names()]
    return names + ["correspondence.candidates_per_subfield"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "galoiskit" / "__init__.py").is_file():
        print(f"no galoiskit source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    queries = workloads.build(args.workload, args.seed, args.seconds)
    tag = f"{args.workload}-{args.seed}"
    inputs = OUT / f"inputs-{tag}.json"
    inputs.write_text(json.dumps({
        "limit_s": workloads.QUERY_LIMIT_S[args.workload],
        "queries": [{k: q[k] for k in ("id", "kind", "args")} for q in queries],
    }))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        worker(inputs, "setup", deadline)  # fills the bytecode cache; not timed
        if args.trace:
            plain = worker(inputs, "run", deadline)
            traced = worker(inputs, "trace", deadline, OUT / f"trace-{tag}.json")
            runs = [plain, traced]
        else:
            # half the set-up samples before the workload and half after it,
            # so that their median spans the run, not one moment of it
            setups = [worker(inputs, "setup", deadline) for _ in range(SETUP_SAMPLES // 2)]
            runs = [worker(inputs, "run", deadline)]
            setups += [runs[0]] + [worker(inputs, "setup", deadline) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        counts = [check(queries, run) for run in runs]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, _ = counts[-1]
    wrong = [w for _, _, ws in counts for w in ws]
    run = runs[-1]
    latencies = [r["s"] for r in run["records"]]
    raw = [r["raw_s"] for r in run["records"]]
    detail.update(
        queries=attempted,
        failures=[f"{r['id']}: {r['error']}" for r in run["records"] if r["error"]],
        wrong=wrong,
        latencies_s={r["id"]: r["s"] for r in run["records"]},
        raw_latencies_s={r["id"]: r["raw_s"] for r in run["records"]},
        raw_wall_s=run["raw_wall_s"],
        raw_query_p50_ms=statistics.median(raw) * 1000,
        probe_mean_s=run["probe_mean_s"],
        query_p50_ms=statistics.median(latencies) * 1000,
        # the highest percentile with at least ten samples beyond it
        query_p90_ms=statistics.quantiles(latencies, n=10)[-1] * 1000 if attempted >= 100 else None,
    )
    if args.trace:
        # span times are raw; scale them like wall_s, by the run's probe factor
        scale = run["wall_s"] / run["raw_wall_s"]
        metrics = {}
        for metric in per_layer_names():
            unit = layer_units(metric)
            metrics[metric] = {"value": run["layers"][metric] * (scale if unit == "s" else 1), "unit": unit}
        overhead = run["wall_s"] / runs[0]["wall_s"] - 1
        metrics["trace.wall_s"] = {"value": run["wall_s"], "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": overhead * 100, "unit": "%"}
        detail.update(untraced_wall_s=runs[0]["wall_s"], missing_trace_targets=run["missing"])
        summary = [f"traced wall_s {run['wall_s']:.3f} s, untraced {runs[0]['wall_s']:.3f} s, overhead {overhead:.1%}"]
        if run["missing"]:
            summary.append(f"not traced (not found): {', '.join(run['missing'])}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "query_p50_ms": {"value": detail["query_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        detail["setup_samples_s"] = [s["setup_s"] for s in setups]
        detail["raw_setup_samples_s"] = [s["raw_setup_s"] for s in setups]
        detail["raw_setup_s"] = statistics.median(detail["raw_setup_samples_s"])
        summary = [f"{metric} {m['value']:.4f} {m['unit']}" for metric, m in metrics.items()]
        if detail["query_p90_ms"] is not None:
            summary.append(f"query_p90_ms {detail['query_p90_ms']:.4f} ms (of {attempted} queries)")
    detail["metrics"] = metrics
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(f"{args.workload} seed {args.seed}: {attempted} queries, {failed} failed, {len(wrong)} wrong answers")
    for line in summary + detail["failures"] + wrong:
        print("  " + line)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
