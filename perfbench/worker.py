"""One benchmark worker: set chordfield up, then run one workload's
repetitions through ``chordfield.cli.main`` until the time budget is spent.

run.py starts it as its own process and reads the ``result.json`` it writes
into ``--out``; the worker itself prints nothing. Each repetition writes its
CSVs to ``<out>/rep<k>``. Repetition 0 is kept for the correctness gate; every
later one is compared byte for byte with it, outside the timed region, and
then removed. Each repetition is pinned to one vCPU, in turn, and the
calibration kernel (``reference``) is timed on that vCPU right before and
right after it, and, unless the run is traced, in short bursts during it
(``Bursts``).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
_MEANS = np.array([[-2.0, 0.0], [2.0, 0.5]])
_SCALES = np.array([0.5, 0.7])
_LOG_WEIGHTS = np.log(np.array([0.4, 0.6]))
# calibration steps per reported time, and the share of the previous
# repetition's wall time that each calibration runs for
REFERENCE_STEPS = 2500
REFERENCE_SHARE = 0.05
# during a repetition, a burst of calibration steps every BURST_INTERVAL_S
BURST_STEPS = 250
BURST_INTERVAL_S = 0.1


def kernel(steps: int) -> float:
    """``steps`` steps (a multiple of 250) of the calibration kernel; see ``reference``."""
    z = np.array([0.3, -0.2])
    total = 0.0
    for _ in range(steps // 250):
        for i in range(250):
            a = math.exp(-0.25 * (i % 50) / 50)
            s = math.sqrt(1.0 - a * a)
            var = a * a * _SCALES**2 + s * s
            diff = z[None, :] - a * _MEANS
            sq = np.einsum("kd,kd->k", diff, diff)
            log_mass = _LOG_WEIGHTS - 0.5 * (sq / var + 2 * np.log(2 * math.pi * var))
            p = np.exp(log_mass - log_mass.max())
            total += float((p / p.sum()) @ _MEANS[:, 0])
    return total


class Bursts:
    """Runs the calibration kernel in short bursts while a repetition runs.

    A timer signal interrupts the repetition every BURST_INTERVAL_S; its
    handler times BURST_STEPS kernel steps. The host's speed drifts within a
    long repetition, so samples spread over it follow the drift more closely
    than calibrations before and after it alone. The handler's own time is
    taken off the repetition's times.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.timing = {"wall": 0.0, "cpu": 0.0, "steps": 0}

    def _burst(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        kernel(BURST_STEPS)
        self.timing["wall"] += time.perf_counter() - t0
        self.timing["cpu"] += time.process_time() - c0
        self.timing["steps"] += BURST_STEPS

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._burst)
            signal.setitimer(signal.ITIMER_REAL, BURST_INTERVAL_S, BURST_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference(seconds: float) -> dict:
    """Time a fixed calibration kernel for about ``seconds``.

    The kernel does the kind of work chordfield does: posterior weights of a
    two-component mixture on small numpy arrays, driven from Python, along a
    noising path. On a shared host it therefore slows down with the program
    when other tenants load the machine, which a plain Python loop does only
    in part. Timed next to the repetitions, it lets run.py state their times
    at a fixed machine speed. It is part of the benchmark and never changes
    with the program. Returns wall and CPU seconds and the steps they took.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    steps = 0
    while steps < REFERENCE_STEPS or time.perf_counter() - t0 < seconds:
        kernel(250)
        steps += 250
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0, "steps": steps}


def per_reference(*timings: dict) -> dict:
    """Wall and CPU seconds per REFERENCE_STEPS steps, over all ``timings``."""
    steps = sum(t["steps"] for t in timings)
    return {
        "ref_wall_s": sum(t["wall"] for t in timings) * REFERENCE_STEPS / steps,
        "ref_cpu_s": sum(t["cpu"] for t in timings) * REFERENCE_STEPS / steps,
    }


def csv_names(directory: str) -> list[str]:
    return sorted(f for f in os.listdir(directory) if f.endswith(".csv"))


def same_csvs(a: str, b: str) -> bool:
    """True when both directories hold the same CSV files with the same bytes."""
    if not (os.path.isdir(a) and os.path.isdir(b)):
        return False
    names = csv_names(a)
    return names == csv_names(b) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    overrides = workload.overrides(args.size)

    # set-up: import the package, resolve the config, build schedule and backbone
    sys.path.insert(0, SRC)
    import chordfield
    from chordfield import cli, config

    if not os.path.abspath(chordfield.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"chordfield imported from {chordfield.__file__}, not from {SRC}")
    cfg = config.load_config(workload.experiment, seed=args.seed, overrides=overrides)
    config.build_backbone(cfg.backbone, config.build_schedule(cfg.schedule))
    ready = time.monotonic()

    os.makedirs(args.out, exist_ok=True)
    result = {"ready_monotonic": ready, **per_reference(reference(0.0))}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        argv = [workload.experiment, "--seed", str(args.seed)]
        for text in overrides:
            argv += ["--override", text]
        first = os.path.join(args.out, "rep0")
        # the vCPUs of a shared host slow down independently of each other, so
        # repetitions take turns on them, each pinned together with its
        # calibration on both sides and in bursts during it. Traced
        # repetitions get no bursts, which would land in the layers' spans.
        cpus = sorted(os.sched_getaffinity(0))
        reps = []
        loop_start = time.perf_counter()
        wall = 0.0
        while True:
            os.sched_setaffinity(0, {cpus[len(reps) % len(cpus)]})
            before = reference(REFERENCE_SHARE * wall)
            out = os.path.join(args.out, f"rep{len(reps)}")
            error = None
            bursts = Bursts(enabled=tracer is None)
            with bursts:
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    code = cli.main(argv + ["--out", out])
                except Exception as err:  # a crash is a failed repetition, not a failed run
                    code, error = None, f"{type(err).__name__}: {err}"
            wall = time.perf_counter() - t0 - bursts.timing["wall"]
            cpu = time.process_time() - c0 - bursts.timing["cpu"]
            after = reference(REFERENCE_SHARE * wall)
            rep = {"wall_s": wall, "cpu_s": cpu, "exit": code, "error": error}
            rep.update(per_reference(before, after, bursts.timing))
            rep["burst_steps"] = bursts.timing["steps"]
            if reps:
                rep["identical"] = same_csvs(first, out)
                shutil.rmtree(out, ignore_errors=True)
            reps.append(rep)
            elapsed = time.perf_counter() - loop_start
            next_rep = statistics.median(r["wall_s"] for r in reps)
            if len(reps) >= args.min_reps and elapsed + next_rep > args.seconds:
                break
        result.update(
            reps=reps,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            python=platform.python_version(),
            numpy=np.__version__,
            trace=tracer.report() if tracer else None,
        )
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
