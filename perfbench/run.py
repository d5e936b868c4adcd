"""chordfield benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cloud,sweep,verify,smoothing}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds ``src/chordfield``; the
package is imported from that tree only. ``--trace 0`` measures the
end-to-end metrics: a few fresh processes time the set-up, then one worker
process repeats the workload through ``chordfield.cli.main`` for ``--seconds``.
``--trace 1`` runs the workload once without and once with the tracer and
reports the per-layer metrics. Times are calibrated against a fixed kernel
timed next to them, to cancel the host's speed drift (README.md, "How steady
the timings are"). Every repetition passes the correctness gate:
exit code 0, the paper claims of its workload, CSVs within tolerance of the
reference CSVs of its seed (when one is stored; a ``golden:`` line says
whether it was), and CSVs byte-identical
across repetitions and between traced and untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people. Outputs and a ``record.json`` of each run go to
``.perfbench_runs/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import golden
from tracer import LAYERS, NOISE
from worker import same_csvs
from workloads import WORKLOADS, check_claims, expected_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
# fresh processes whose set-up time is measured, besides the worker's own
SETUP_PROBES = 4
# every run ends well inside the three minutes one run may take
DEADLINE_S = 170.0
# the calibration kernel's usual wall (and CPU) time on the 2 GHz vCPU the
# benchmark was built on; see README.md, "How steady the timings are"
REFERENCE_NOMINAL_S = 0.075


class RunError(Exception):
    """The run could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_worker(args, out: str, deadline: float, *flags: str) -> dict:
    """Run one worker process to completion; returns its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--out", out, *flags,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as err:
        raise RunError(f"worker did not finish before the run's deadline: {cmd}") from err
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_monotonic"] - spawned
    result["dir"] = out
    return result


def gate(args, result: dict) -> tuple[int, list[str], str]:
    """Failed repetitions of one worker, what went wrong, and whether the
    CSVs were held against a stored reference."""
    reps = result["reps"]
    rep0 = os.path.join(result["dir"], "rep0")
    problems = []
    reference_note = "golden: not checked, repetition 0 failed"
    if reps[0]["exit"] != 0:
        problems.append(f"repetition 0 exit {reps[0]['exit']}: {reps[0]['error']}")
    else:
        problems += check_claims(args.workload, rep0)
        reference = golden.load(args.workload).get(args.size, {}).get(str(args.seed))
        if reference is None:
            reference_note = (
                f"golden: no reference CSVs for seed {args.seed} at size {args.size},"
                " so the CSV tolerance check was skipped"
            )
        else:
            reference_note = f"golden: CSVs checked against the reference of seed {args.seed}"
            problems += golden.compare(reference, rep0)
    # when repetition 0 fails its gate, every repetition counts as failed
    rep0_failed = bool(problems)
    failed = len(reps) if rep0_failed else 0
    for k, rep in enumerate(reps[1:], start=1):
        if rep["exit"] != 0 or not rep["identical"]:
            failed += 0 if rep0_failed else 1
            problems.append(f"repetition {k}: exit {rep['exit']}, CSVs differ from repetition 0")
    return failed, problems, reference_note


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return f"p{p} {ordered[math.ceil(p / 100 * n) - 1]:.6f} (n={n})"


def calibrated(seconds: float, ref_seconds: float) -> float:
    """Seconds at the machine speed where the calibration kernel takes its nominal time."""
    return seconds * REFERENCE_NOMINAL_S / ref_seconds


def walls(result: dict) -> list[float]:
    return [calibrated(r["wall_s"], r["ref_wall_s"]) for r in result["reps"]]


def per_rep(total: float, reps: int):
    value = total / reps
    return int(value) if value == int(value) else value


def end_to_end(args, deadline: float, run_dir: str):
    setups = [
        start_worker(args, os.path.join(run_dir, f"probe{i}"), deadline, "--setup-only")
        for i in range(SETUP_PROBES)
    ]
    result = start_worker(
        args, os.path.join(run_dir, "main"), deadline,
        "--seconds", str(args.seconds), "--min-reps", "2",
    )
    setups.append(result)
    failed, problems, reference_note = gate(args, result)
    reps = result["reps"]
    wall = walls(result)
    raw = [r["wall_s"] for r in reps]
    items = WORKLOADS[args.workload].items(args.size)
    metrics = {
        "setup_s": (statistics.median(calibrated(s["setup_s"], s["ref_wall_s"]) for s in setups), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(calibrated(r["cpu_s"], r["ref_cpu_s"]) for r in reps), "s"),
        "items_per_s": (items * (1 - failed / len(reps)) / statistics.median(wall), "1/s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }
    notes = [
        f"wall_s tail: {tail(wall)}",
        f"uncalibrated: setup_s {statistics.median(s['setup_s'] for s in setups):.6f},"
        f" wall_s {statistics.median(raw):.6f}, tail {tail(raw)}",
        f"failed_frac: {failed / len(reps)} ({failed} of {len(reps)} repetitions)",
        f"items per repetition: {items}",
        reference_note,
    ]
    return result, len(reps), failed, problems, metrics, notes


def per_layer(args, deadline: float, run_dir: str):
    plain = start_worker(
        args, os.path.join(run_dir, "untraced"), deadline, "--seconds", str(args.seconds / 2)
    )
    traced = start_worker(
        args, os.path.join(run_dir, "traced"), deadline,
        "--seconds", str(args.seconds / 2), "--trace", "1",
    )
    failed_plain, problems, reference_note = gate(args, plain)
    failed_traced, problems_traced, _ = gate(args, traced)
    problems += problems_traced
    if not same_csvs(os.path.join(plain["dir"], "rep0"), os.path.join(traced["dir"], "rep0")):
        problems.append("traced CSVs differ from untraced CSVs")

    trace, reps = traced["trace"], len(traced["reps"])
    layers = trace["layers"]
    traced_wall = sum(r["wall_s"] for r in traced["reps"])
    wall_plain = statistics.median(walls(plain))
    wall_traced = statistics.median(walls(traced))
    draws = per_rep(trace["noise_draws"], reps)
    metrics = {}
    for layer in LAYERS:
        if layer in ("schedules", "backbone", "proxy", "chord"):
            metrics[f"{layer}.calls"] = (per_rep(layers[layer]["calls"], reps), "count")
        if layer in ("backbone", "proxy", "chord"):
            metrics[f"{layer}.points"] = (per_rep(layers[layer]["points"], reps), "count")
        metrics[f"{layer}.self_frac"] = (layers[layer]["self_s"] / traced_wall, "frac")
    metrics.update({
        "proxy.noise_batches": (per_rep(trace["noise_batches"], reps), "count"),
        "proxy.noise_draws": (draws, "count"),
        "proxy.noise_frac": (layers[NOISE]["self_s"] / traced_wall, "frac"),
        "proxy.draws_per_distinct": (
            draws / trace["noise_distinct_keys"] if trace["noise_distinct_keys"] else 0.0, "ratio"
        ),
        "transport.field_evals": (per_rep(trace["field_evals"], reps), "count"),
        "transport.field_points": (per_rep(trace["field_points"], reps), "count"),
        "transport.rk4_steps": (per_rep(trace["rk4_steps"], reps), "count"),
        "transport.diverged": (per_rep(trace["diverged"], reps), "count"),
        "diagnostics.field_evals": (per_rep(trace["diagnostics_field_evals"], reps), "count"),
        "experiments.csv_rows": (per_rep(trace["csv_rows"], reps), "count"),
        "experiments.csv_bytes": (per_rep(trace["csv_bytes"], reps), "count"),
        "trace.overhead_frac": (wall_traced / wall_plain - 1, "frac"),
        "trace.wall_s": (statistics.median(r["wall_s"] for r in traced["reps"]), "s"),
    })
    for name, want in expected_counts(args.workload, args.size).items():
        if metrics[name][0] != want:
            problems.append(f"self-check: {name} = {metrics[name][0]}, expected {want}")
    notes = [
        "self times in seconds per repetition: "
        + ", ".join(f"{layer} {s['self_s'] / reps:.4f}" for layer, s in layers.items()),
        f"wrapper cost taken off the parent's self time per span: {trace['span_cost_s']:.3e} s",
        reference_note,
    ]
    attempted = len(plain["reps"]) + reps
    return traced, attempted, failed_plain + failed_traced, problems, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="chordfield benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny sizes exist for the smoke test only",
    )
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "chordfield", "__init__.py")):
        print(f"no chordfield source tree at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    load_before = os.getloadavg()
    measure = per_layer if args.trace else end_to_end
    try:
        result, attempted, failed, problems, metrics, notes = measure(args, deadline, run_dir)
    except RunError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    env = {
        "python": result["python"],
        "numpy": result["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    correct = failed == 0 and not problems
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    for line in notes:
        print(f"{args.workload} {line}")
    for problem in problems:
        print(f"{args.workload} INCORRECT {problem}")
    print(f"{args.workload} env {json.dumps(env)}")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(
        summary, args=vars(args), env=env, problems=problems, notes=notes, reps=result["reps"],
        spans=(result["trace"] or {}).get("spans"),  # per (layer, function, parent layer)
    )
    for entry in os.listdir(run_dir):
        shutil.rmtree(os.path.join(run_dir, entry))
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
