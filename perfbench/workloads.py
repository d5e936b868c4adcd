"""The benchmark's workloads and the correctness gate each one's outputs pass.

Every workload is one ``chordfield`` experiment run through the command-line
entry point at a fixed input size. The benchmark seed is the experiment's
``--seed``, so the same seed gives the same inputs. Sizes come in two
flavours: ``full`` is what the benchmark measures, ``tiny`` only exists so
that the smoke test can drive the whole benchmark in seconds.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

# the step counts and reference resolution of the step_sweep defaults
SWEEP_S_VALUES = (1, 2, 4, 8, 16)
SWEEP_REFERENCE_STEPS = 128
# proxy-field queries per step_sweep particle: every field evaluation of the
# 4-stage RK4 reference plus one per transport sub-step, times the two
# queries of the chord field plus the one of the naive field
SWEEP_PROXY_CALLS = (4 * SWEEP_REFERENCE_STEPS + sum(SWEEP_S_VALUES)) * (2 + 1)
SMOOTHING_KERNELS = 5
DIAGNOSTIC_CHECKS = 13


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    # size -> {dotted config key: value}, passed as --override flags
    sizes: dict

    def overrides(self, size: str) -> list[str]:
        return [f"{key}={json.dumps(value)}" for key, value in self.sizes[size].items()]

    def items(self, size: str) -> int:
        """Input items one repetition completes, defined from its inputs."""
        p = self.sizes[size]
        if self.name in ("cloud", "sweep"):
            return p["params.particles"] * 2  # naive and chord
        if self.name == "smoothing":
            return p["params.trials"] * SMOOTHING_KERNELS
        return 1  # verify: one diagnostics report


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cloud",
            "toy",
            {
                "full": {"chord.n": 4, "params.particles": 500},
                "tiny": {"chord.n": 1, "params.particles": 500},
            },
        ),
        Workload(
            "sweep",
            "step_sweep",
            {
                "full": {"params.particles": 4},
                "tiny": {"params.particles": 2},
            },
        ),
        Workload(
            "verify",
            "diagnostics",
            {
                "full": {},
                "tiny": {"params.grid": 8, "params.lte_states": 1},
            },
        ),
        Workload(
            "smoothing",
            "risk",
            {
                "full": {"params.trials": 400},
                "tiny": {"params.trials": 100},
            },
        ),
    )
}


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_claims(name: str, out_dir: str) -> list[str]:
    """The paper claims a workload's outputs must show; returns the failures."""
    failures = []
    if name == "cloud":
        rows = {r["method"]: r for r in _rows(os.path.join(out_dir, "energy.csv"))}
        chord, naive = rows["chord"], rows["naive"]
        chord_hi = float(chord["mean_distance"]) + 3 * float(chord["distance_se"])
        naive_lo = float(naive["mean_distance"]) - 3 * float(naive["distance_se"])
        if not chord_hi < naive_lo:
            failures.append(f"chord not 3-sigma below naive ({chord_hi} >= {naive_lo})")
        if int(chord["diverged"]) > int(naive["diverged"]):
            failures.append("chord diverged more often than naive")
    elif name == "sweep":
        energy = {
            (int(r["S"]), r["method"]): float(r["bb_energy"])
            for r in _rows(os.path.join(out_dir, "step_sweep.csv"))
        }
        ratio = {}
        for method in ("chord", "naive"):
            values = [e for (_, m), e in energy.items() if m == method]
            ratio[method] = max(values) / min(values)
        if ratio["naive"] < ratio["chord"]:
            failures.append(f"naive energy max/min {ratio['naive']} below chord's {ratio['chord']}")
        if energy[(1, "chord")] > energy[(1, "naive")]:
            failures.append("chord S=1 energy above naive")
    elif name == "verify":
        with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        checks = lines[lines.index("checks:") + 1 :]
        passed = [line for line in checks if line.endswith(": pass")]
        if len(checks) != DIAGNOSTIC_CHECKS or len(passed) != DIAGNOSTIC_CHECKS:
            failures.append(f"{len(passed)} of {len(checks)} checks pass, {DIAGNOSTIC_CHECKS} expected")
        (report,) = _rows(os.path.join(out_dir, "diagnostics.csv"))
        slope = float(report["global_error_slope"])
        if not 0.8 <= slope <= 1.2:
            failures.append(f"global error slope {slope} outside [0.8, 1.2]")
    elif name == "smoothing":
        for r in _rows(os.path.join(out_dir, "risk.csv")):
            if r["kernel"] == "dirac":
                # 17 significant digits round-trip, so equal text is equal bits
                if r["mse_chord"] != r["mse_naive"]:
                    failures.append("dirac kernel is not bit-equal to the raw series")
            elif not float(r["mse_chord"]) < float(r["mse_naive"]):
                failures.append(f"kernel {r['kernel']} does not reduce the risk")
    return failures


def expected_counts(name: str, size: str) -> dict:
    """Per-repetition layer counts that follow exactly from the inputs."""
    p = WORKLOADS[name].sizes[size]
    if name == "cloud":
        particles, n = p["params.particles"], p["chord.n"]
        return {
            "proxy.calls": 4 * particles,
            "proxy.points": 4 * particles * n,
            "proxy.noise_draws": 2 * particles * (n + 1),
        }
    if name == "sweep":
        return {"proxy.calls": SWEEP_PROXY_CALLS * p["params.particles"]}
    if name == "smoothing":
        return {"backbone.calls": 0}
    return {}
