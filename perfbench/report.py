"""Run the benchmark over several seeds per workload and summarise the runs.

    python3 perfbench/report.py [--runs 10] [--workload W ...] [--first-seed 0]
                                [--trace-runs 1] [--write FILE]

For every workload it prints each end-to-end metric by name with its unit:
the median over the runs, the spread (distance between the first and third
quartile as a share of the median) and the bound from BENCHMARK.json, then
the correctness verdict; traced runs add the median of each per-layer metric.
``--runs 1 --trace-runs 0`` is the quick overview of every workload.
``--write`` stores the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-1000:], "metrics": {}}
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if " INCORRECT " in line:
            print(line, flush=True)
        if line.startswith(f"{workload} env "):
            result["env"] = json.loads(line.split(" env ", 1)[1])
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def collect(workload: str, seeds: range, seconds: int, trace: int) -> dict:
    results = []
    for seed in seeds:
        res = run_once(workload, seed, seconds, trace)
        results.append(res)
        shown = {k: round(v["value"], 6) for k, v in res["metrics"].items()} if not trace else ""
        print(f"  {workload} seed {seed} trace {trace} correct {res['correct']} {shown}", flush=True)
    names = sorted({name for res in results for name in res["metrics"]})
    metrics = {}
    for name in names:
        values = [res["metrics"][name]["value"] for res in results if name in res["metrics"]]
        unit = next(res["metrics"][name]["unit"] for res in results if name in res["metrics"])
        metrics[name] = dict(spread(values), unit=unit)
    return {
        "seeds": list(seeds),
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res.get("attempted", 0) for res in results),
        "failed": sum(res.get("failed", 0) for res in results),
        "metrics": metrics,
        "runs": [{"seed": s, "correct": r["correct"], "env": r.get("env")} for s, r in zip(seeds, results)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="multi-seed benchmark summary")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summary = {"run_seconds": bench["run_seconds"], "nproc": os.cpu_count(), "workloads": {}}
    for workload in workloads:
        entry = collect(workload, seeds, bench["run_seconds"], 0)
        if args.trace_runs:
            traced = collect(workload, seeds[: args.trace_runs], bench["run_seconds"], 1)
            entry["per_layer"] = traced["metrics"]
            entry["correct"] &= traced["correct"]
        summary["workloads"][workload] = entry

    print(f"{'workload':10} {'metric':14} {'median':>14} {'unit':6} {'spread':>8} {'bound':>6}")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload:10} {name:14} {m['median']:14.6f} {m['unit']:6} "
                f"{m.get('spread') or 0:8.4f} {bounds.get(name, 0):6.2f}"
            )
        print(
            f"{workload:10} correct {entry['correct']} "
            f"(failed {entry['failed']} of {entry['attempted']} repetitions)"
        )
        for name, m in entry.get("per_layer", {}).items():
            print(f"{workload:10}   {name:28} {m['median']:16.6f} {m['unit']}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(e["correct"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
