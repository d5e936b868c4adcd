"""Acceptance suite: one test per verification criterion.

Each test evaluates its criterion at the stated tolerance, prints a
single PASS line with the measured quantities (run pytest -s to see them),
and fails loudly otherwise. Empirical criteria run on the frozen presets
and the frozen experiment configurations.
"""

import csv
import math
import time

import numpy as np
import pytest

from chordfield.backbone import BackboneModel, delta_drift, observable
from chordfield.chord import (
    ChordParams,
    chord_field,
    shipped_causal_kernels,
    window_minimizer,
)
from chordfield.config import load_config
from chordfield.diagnostics import (
    global_error_sweep,
    lte_check,
    projection_energy_gap,
    risk_experiment,
)
from chordfield.experiments import run_noise_ablation, run_risk, run_step_sweep, run_toy
from chordfield.preset_lib import PRESET_NAMES, load_preset
from chordfield.proxy import SharedNoiseBatch
from chordfield.schedules import (
    CONSISTENCY,
    DATA_X0,
    LINEAR_INTERP,
    PARAMETERIZATION_KINDS,
    VELOCITY,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    coefficient,
    epsilon_coefficient_forms,
)
from chordfield.transport import chordedit, chordedit_multi_noise, make_control_field


def ramp_schedule():
    t = np.linspace(0.0, 1.0, 101)
    return Schedule(kind=VP_GENERIC, beta_times=t, beta_values=0.05 + 4.0 * t**4)


def preset_model(name, schedule, output_kind=VELOCITY):
    src, tar = load_preset(name)
    return BackboneModel(
        schedule=schedule, source=src, target=tar, output_kind=output_kind
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_01_coefficient_identities():
    with Timer() as timer:
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            beta0 = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            t = float(rng.uniform(0.05, 0.95))
            sched = Schedule(kind=VP_CONST_BETA, beta0=beta0)
            general, vp_form, beta_form = epsilon_coefficient_forms(sched, t)
            scale = max(abs(general), abs(vp_form), abs(beta_form))
            worst = max(
                worst,
                abs(general - vp_form) / scale,
                abs(general - beta_form) / scale,
            )
            assert coefficient(VELOCITY, sched, t) == 1.0
            assert coefficient(CONSISTENCY, sched, t) == coefficient(
                DATA_X0, sched, t
            )
        lin = Schedule(kind=LINEAR_INTERP)
        for t in rng.uniform(0.05, 0.95, size=50):
            assert coefficient(VELOCITY, lin, float(t)) == 1.0
            assert coefficient(CONSISTENCY, lin, float(t)) == coefficient(
                DATA_X0, lin, float(t)
            )
        assert worst <= 1e-6
    assert timer.elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS coefficient identities: max form disagreement "
        f"{worst:.3e} <= 1e-6, velocity == 1.0, consistency == data_x0 "
        f"({timer.elapsed:.2f}s < 1s)"
    )


def test_criterion_02_parameterization_round_trip():
    with Timer() as timer:
        rng = np.random.default_rng(202)
        worst = 0.0
        schedules = [Schedule(kind=VP_CONST_BETA, beta0=2.0), Schedule(kind=LINEAR_INTERP)]
        for name in PRESET_NAMES:
            for sched in schedules:
                for kind in PARAMETERIZATION_KINDS:
                    model = preset_model(name, sched, output_kind=kind)
                    for _ in range(100):
                        z = rng.normal(size=model.dim) * 2.5
                        t = float(rng.uniform(0.1, 0.9))
                        a_t = coefficient(kind, sched, t)
                        mapped = a_t * (
                            observable(model, z, t, "tar")
                            - observable(model, z, t, "src")
                        )
                        direct = delta_drift(model, z, t)
                        err = float(
                            np.linalg.norm(mapped - direct)
                        ) / max(1.0, float(np.linalg.norm(direct)))
                        worst = max(worst, err)
        assert worst <= 1e-8
    assert timer.elapsed < 5.0
    print(
        f"\nACCEPTANCE 2 PASS parameterization round-trip: worst residual "
        f"mismatch {worst:.3e} <= 1e-8 over every head kind, preset and "
        f"schedule family ({timer.elapsed:.2f}s < 5s)"
    )


def test_criterion_03_chord_degeneracy_and_convexity():
    with Timer() as timer:
        rng = np.random.default_rng(303)
        worst_solve = 0.0
        for _ in range(1000):
            t = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.0, t))
            dim = int(rng.integers(1, 5))
            p, q = rng.normal(size=dim), rng.normal(size=dim)
            # degenerate window: bit-exact equality with the naive field
            np.testing.assert_array_equal(chord_field(p, q, t, 0.0), p)
            u = chord_field(p, q, t, delta)
            bound = (t * float(p @ p) + delta * float(q @ q)) / (t + delta)
            assert float(u @ u) <= bound + 1e-12
            # window minimizer vs an independent normal-equation solve
            m = int(rng.integers(2, 7))
            times = np.sort(rng.uniform(t - max(delta, 1e-6), t, size=m))
            times[0], times[-1] = t - max(delta, 1e-6), t
            samples = [(float(ts), rng.normal(size=dim)) for ts in times]
            u_prev = rng.normal(size=dim)
            d_eff = max(delta, 1e-6)
            got = window_minimizer(u_prev, samples, t, d_eff)
            w = np.zeros(m)
            gaps = np.diff(times)
            w[:-1] += gaps / 2
            w[1:] += gaps / 2
            oracle = (
                t * u_prev + sum(wi * vi for wi, (_, vi) in zip(w, samples))
            ) / (t + w.sum())
            worst_solve = max(worst_solve, float(np.linalg.norm(got - oracle)))
        assert worst_solve <= 1e-10
    assert timer.elapsed < 10.0
    print(
        f"\nACCEPTANCE 3 PASS chord degeneracy and convexity: delta=0 "
        f"bit-exact, minimizer-vs-oracle {worst_solve:.3e} <= 1e-10, "
        f"pointwise energy bound held on 1000 instances "
        f"({timer.elapsed:.2f}s < 10s)"
    )


def _random_series_field(rng, n_time=48, n_space=9, ds=0.02):
    """Band-limited field sampled on (time, space); values are scalars."""
    t = np.arange(n_time) * ds
    x = np.linspace(-1.0, 1.0, n_space)
    field = np.zeros((n_time, n_space))
    for m in range(1, 5):
        amp_t = rng.normal() / m
        phase = rng.uniform(0, 2 * np.pi)
        for k in range(1, 4):
            amp_x = rng.normal() / k
            field += (
                amp_t
                * amp_x
                * np.sin(2 * np.pi * m * t + phase)[:, None]
                * np.cos(k * np.pi * x)[None, :]
            )
    return t, x, field


def test_criterion_04_contraction_suite():
    with Timer() as timer:
        rng = np.random.default_rng(404)
        ds = 0.02
        kernels = shipped_causal_kernels(ds)
        for trial in range(100):
            t_all, x_all, raw = _random_series_field(rng, ds=ds)
            dx = x_all[1] - x_all[0]
            for name, kernel in kernels.items():
                lag = kernel.taps - 1
                coeffs = kernel.weights * kernel.grid_step
                smooth = np.zeros((raw.shape[0] - lag, raw.shape[1]))
                for i, c in enumerate(coeffs):
                    smooth += c * raw[lag - i : raw.shape[0] - i]
                # discrete L2 energy over the full raw series
                # (zero-padding convention of the convolution bound)
                e_raw = float((raw**2).sum(axis=1) @ np.ones(raw.shape[0])) * ds
                e_smooth = float((smooth**2).sum()) * ds
                assert e_smooth <= e_raw + 1e-12, name
                if name != "dirac":
                    assert e_smooth < e_raw, name  # strict for non-Dirac
                # sup magnitude
                assert np.abs(smooth).max() <= np.abs(raw).max() + 1e-12, name
                # sup time difference
                if smooth.shape[0] > 1:
                    d_raw = np.abs(np.diff(raw, axis=0)).max()
                    d_smooth = np.abs(np.diff(smooth, axis=0)).max()
                    assert d_smooth <= d_raw + 1e-12, name
                # grid Lipschitz margin (spatial differences)
                g_raw = np.abs(np.diff(raw, axis=1)).max() / dx
                g_smooth = np.abs(np.diff(smooth, axis=1)).max() / dx
                assert g_smooth <= g_raw + 1e-12, name
    assert timer.elapsed < 30.0
    print(
        f"\nACCEPTANCE 4 PASS contraction suite: L2 energy, sup magnitude, "
        f"sup time-difference and grid Lipschitz margin contracted for all "
        f"{len(shipped_causal_kernels(0.02))} shipped kernels on 100 series; "
        f"strict L2 for non-Dirac ({timer.elapsed:.2f}s < 30s)"
    )


def test_criterion_05_euler_theory():
    with Timer() as timer:
        schedule = ramp_schedule()
        params = ChordParams(t=0.7, delta=0.25, use_prox=False)
        h = 0.1
        summary = []
        for name in PRESET_NAMES:
            model = preset_model(name, schedule)
            field = make_control_field(model, params, "chord", seed=0)
            rng = np.random.default_rng(505)
            ratios = []
            for k in range(50):
                x = model.source.means[
                    k % model.source.n_components
                ] + 0.6 * rng.normal(size=model.dim)
                obs1, bound1 = lte_check(field, x, 0.0, h)
                assert obs1 <= bound1 * 1.05
                obs2, _ = lte_check(field, x, 0.0, h / 2, grid=3)
                if obs2 > 1e-13:
                    ratios.append(obs1 / obs2)
            median_ratio = float(np.median(ratios))
            assert 3.5 <= median_ratio <= 4.5
            from chordfield.transport import sample_particles

            x0 = sample_particles(model, 1, 0).points[0]
            h_values = [0.125, 0.0625, 0.03125, 0.015625]
            chord_err, chord_slope = global_error_sweep(
                field, x0, h_values, horizon=1.0, ref_steps=512
            )
            naive = make_control_field(model, params, "naive", seed=0)
            naive_err, naive_slope = global_error_sweep(
                naive, x0, h_values, horizon=1.0, ref_steps=512
            )
            assert 0.8 <= chord_slope <= 1.2
            assert 0.8 <= naive_slope <= 1.2
            ratio = chord_err[-1] / naive_err[-1]
            assert ratio <= 1.05
            summary.append(
                f"{name}: lte-ratio {median_ratio:.2f}, slopes "
                f"{chord_slope:.2f}/{naive_slope:.2f}, err-ratio {ratio:.2f}"
            )
    assert timer.elapsed < 120.0
    print(
        "\nACCEPTANCE 5 PASS euler theory: "
        + "; ".join(summary)
        + f" ({timer.elapsed:.1f}s < 120s)"
    )


def test_criterion_06_risk_reduction():
    with Timer() as timer:
        u_star = np.full((64, 2), 1.7)
        sigma = 0.2
        batches = 10
        details = []
        for name, kernel in sorted(shipped_causal_kernels(0.05).items()):
            diffs, naives = [], []
            for b in range(batches):
                mse_naive, mse_chord = risk_experiment(
                    u_star, sigma, kernel, trials=100, seed=600 + b
                )
                diffs.append(mse_naive - mse_chord)
                naives.append(mse_naive)
            if name == "dirac":
                assert all(d == 0.0 for d in diffs)  # bit equality
                continue
            mean_diff = float(np.mean(diffs))
            se_diff = float(np.std(diffs, ddof=1) / math.sqrt(batches))
            assert mean_diff > 3.0 * se_diff, name
            mean_naive = float(np.mean(naives))
            se_naive = float(np.std(naives, ddof=1) / math.sqrt(batches))
            assert abs(mean_naive - 2 * sigma * sigma) <= 3.0 * se_naive
            details.append(f"{name}:{mean_diff / se_diff:.1f}sig")
    assert timer.elapsed < 60.0
    print(
        "\nACCEPTANCE 6 PASS risk reduction: variance reduction confidence "
        + ", ".join(details)
        + f"; naive risk matches d*sigma^2; dirac bit-equal "
        f"({timer.elapsed:.1f}s < 60s)"
    )


def test_criterion_07_projection_gap():
    with Timer() as timer:
        dt = 1.0 / 1024
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        # always-contract + exact decomposition on a smooth signal
        smooth = np.stack(
            [np.sin(2 * np.pi * t), np.cos(2 * np.pi * t) + 0.3 * t], axis=1
        )
        for delta in (0.25, 0.125, 0.0625):
            eo, ep, er = projection_energy_gap(smooth, delta, dt)
            assert ep <= eo
            assert abs((eo - ep) - er) <= 1e-10 * max(eo, 1.0)
        # rate check on a signal at the H^1 edge (the regime of the O(delta)
        # approximation bound); classical smooth signals contract faster
        golden = math.pi * (3 - math.sqrt(5))
        rough = np.zeros((t.size, 2))
        for f in range(1, 257):
            a = f**-1.5
            rough[:, 0] += a * np.sin(2 * np.pi * f * t + golden * f)
            rough[:, 1] += a * np.cos(2 * np.pi * f * t + 0.7 * golden * f)
        residuals = [
            projection_energy_gap(rough, delta, dt)[2]
            for delta in (0.125, 0.0625, 0.03125)
        ]
        ratios = [a / b for a, b in zip(residuals, residuals[1:])]
        for ratio in ratios:
            assert 3.0 <= ratio <= 5.0
    assert timer.elapsed < 10.0
    print(
        f"\nACCEPTANCE 7 PASS projection gap: decomposition exact to 1e-10, "
        f"never increases, halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"in [3, 5] ({timer.elapsed:.2f}s < 10s)"
    )


def test_criterion_08_toy_transport(tmp_path):
    with Timer() as timer:
        cfg = load_config("toy", output_dir=str(tmp_path / "toy"), seed=0)
        assert run_toy(cfg) == 0
        rows = {r["method"]: r for r in read_csv(tmp_path / "toy" / "energy.csv")}
        chord_mean = float(rows["chord"]["mean_distance"])
        chord_se = float(rows["chord"]["distance_se"])
        naive_mean = float(rows["naive"]["mean_distance"])
        naive_se = float(rows["naive"]["distance_se"])
        assert chord_mean < naive_mean
        assert chord_mean + 3 * chord_se < naive_mean - 3 * naive_se
        assert int(rows["chord"]["diverged"]) <= int(rows["naive"]["diverged"])
    assert timer.elapsed < 60.0
    print(
        f"\nACCEPTANCE 8 PASS toy transport: chord {chord_mean:.4f}+-{chord_se:.4f} "
        f"vs naive {naive_mean:.4f}+-{naive_se:.4f}, 3-sigma separated, "
        f"divergences {rows['chord']['diverged']} <= {rows['naive']['diverged']} "
        f"({timer.elapsed:.1f}s < 60s)"
    )


def test_criterion_09_step_sweep_trend(tmp_path):
    with Timer() as timer:
        details = []
        for name in PRESET_NAMES:
            out = tmp_path / f"sweep_{name}"
            cfg = load_config(
                "step_sweep",
                output_dir=str(out),
                seed=0,
                overrides=[f'backbone.preset="{name}"', "params.particles=60"],
            )
            assert run_step_sweep(cfg) == 0
            rows = read_csv(out / "step_sweep.csv")
            energy = {
                (int(r["S"]), r["method"]): float(r["bb_energy"]) for r in rows
            }
            s_values = sorted({int(r["S"]) for r in rows})
            naive = [energy[(s, "naive")] for s in s_values]
            chord = [energy[(s, "chord")] for s in s_values]
            assert naive[0] > naive[-1], name
            n_ratio = max(naive) / min(naive)
            c_ratio = max(chord) / min(chord)
            assert c_ratio <= n_ratio, name
            # the chord field never spends more energy than the naive one
            # at the single-step setting
            assert energy[(1, "chord")] <= energy[(1, "naive")], name
            details.append(f"{name}: naive {n_ratio:.2f} >= chord {c_ratio:.2f}")
    assert timer.elapsed < 120.0
    print(
        "\nACCEPTANCE 9 PASS step-sweep trend: "
        + "; ".join(details)
        + f" ({timer.elapsed:.1f}s < 120s)"
    )


def test_criterion_10_noise_seed_robustness(tmp_path):
    with Timer() as timer:
        cfg = load_config("noise_ablation", output_dir=str(tmp_path / "na"), seed=0)
        assert run_noise_ablation(cfg) == 0
        rows = read_csv(tmp_path / "na" / "noise_ablation.csv")

        def cov(method, n):
            errs = np.array(
                [
                    float(r["endpoint_error"])
                    for r in rows
                    if r["method"] == method and int(r["n"]) == n
                ]
            )
            return float(errs.std(ddof=1) / errs.mean())

        chord1, naive1, chord4 = cov("chord", 1), cov("naive", 1), cov("chord", 4)
        assert chord1 < naive1
        assert chord1 <= 2.0 * chord4
        # multi-noise path at n = 1 is bit-identical to the single-noise path
        model = preset_model("two_blob_2d", Schedule(kind=LINEAR_INTERP))
        params = ChordParams()
        for seed in (0, 7, 19):
            x = np.array([-2.0, 0.4])
            a = chordedit(model, x, params, seed)
            b = chordedit_multi_noise(model, x, params, seed)
            np.testing.assert_array_equal(a.u_hat, b.u_hat)
            np.testing.assert_array_equal(a.x_out, b.x_out)
    assert timer.elapsed < 120.0
    print(
        f"\nACCEPTANCE 10 PASS noise/seed robustness: CoV chord {chord1:.3f} "
        f"< naive {naive1:.3f}, within 2x of n=4 ({chord4:.3f}); n=1 paths "
        f"bit-identical ({timer.elapsed:.1f}s < 120s)"
    )


def test_criterion_11_reproducibility(tmp_path):
    with Timer() as timer:
        checked = 0
        for experiment, overrides in (
            ("coeffs", []),
            ("toy", ["params.particles=120"]),
            ("risk", ["params.trials=100"]),
        ):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{experiment}_{tag}"
                cfg = load_config(
                    experiment, output_dir=str(out), seed=42, overrides=overrides
                )
                runner = {"coeffs": None, "toy": run_toy, "risk": run_risk}[
                    experiment
                ]
                if experiment == "coeffs":
                    from chordfield.experiments import run_coeffs

                    assert run_coeffs(cfg) == 0
                else:
                    assert runner(cfg) == 0
                outs.append(out)
            for name in sorted(p.name for p in outs[0].iterdir()):
                if name.endswith(".csv"):
                    a = (outs[0] / name).read_bytes()
                    b = (outs[1] / name).read_bytes()
                    assert a == b, f"{experiment}/{name}"
                    checked += 1
        assert checked >= 5
    print(
        f"\nACCEPTANCE 11 PASS reproducibility: {checked} CSV bodies "
        f"byte-identical across reruns ({timer.elapsed:.1f}s)"
    )
