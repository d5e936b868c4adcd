"""Named experiments: seeded, config-driven, emitting CSV and text artifacts.

Reruns with an identical configuration and seed produce byte-identical CSV
bodies: floats are written with 17 significant digits, rows are ordered by
their sorted cell key, and line endings are LF.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import asdict, replace

import numpy as np

from .chord import (
    _causal_smooth,
    chord_two_tap_kernel,
    dirac_kernel,
    shipped_causal_kernels,
)
from .config import (
    ExperimentConfig,
    UsageError,
    build_backbone,
    build_chord_params,
    build_schedule,
    read_params,
)
from .diagnostics import (
    DiagnosticsReport,
    bb_energy,
    consistency_proxy,
    global_error_sweep,
    lte_check,
    projection_energy_gap,
    risk_experiment,
)
from .errors import DivergenceError, IllConditionedMapError, _allocated
from .proxy import _MASK64, NS_CELL, _philox_normals, derive_stream
from .schedules import (
    PARAMETERIZATION_KINDS,
    coefficient,
    epsilon_coefficient_forms,
)
from .transport import (
    _particle_seeds,
    _raise_unless_live,
    _rows_field,
    chordedit,
    euler_march,
    make_control_field,
    rk4_march,
    sample_particles,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


class InvariantFailure(Exception):
    """A hard verification inequality failed; maps to exit code 1."""


@functools.cache
def _row_template(types: tuple) -> str:
    """The ``%``-template of a row whose cells have ``types``: strings as they
    are, ints (``np.integer`` and bool among them) as integers, any other cell
    as a float with 17 significant digits."""
    return ",".join(
        "%s" if issubclass(kind, str) else "%d" if issubclass(kind, (int, np.integer)) else "%.17g"
        for kind in types
    )


def _write_lines(path, lines: list[str]) -> None:
    """Write ``lines`` to ``path``, each ended by LF, making its directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [_row_template(tuple(map(type, row))) % row for row in map(tuple, rows)]
    _write_lines(path, lines)


def _write(cfg: ExperimentConfig, name: str, header: list[str], rows: list[tuple]) -> None:
    # looked up at call time and called positionally: the benchmark's tracer
    # rebinds write_csv to count rows and bytes
    write_csv(os.path.join(cfg.output_dir, name), header, rows)


def _write_summary(cfg: ExperimentConfig, lines: list[str]) -> int:
    """Write ``summary.txt``, a run's last step; returns ``EXIT_OK``."""
    _write_lines(os.path.join(cfg.output_dir, "summary.txt"), lines)
    return EXIT_OK


# the two methods that the experiments compare: naive is chord at delta = 0
_METHODS = ("chord", "naive")


def _method_params(params, method: str):
    return params if method == "chord" else replace(params, delta=0.0)


def _check_diverged(what: str, diverged: int, count: int) -> None:
    """``DivergenceError`` once at least half of ``count`` runs diverged."""
    if diverged >= count / 2:
        raise DivergenceError(f"{what} diverged on {diverged}/{count} particles")


def _ratio(num: float, den: float) -> float:
    """``num / den``; NaN where that is undefined: ``den`` is 0 or either
    side is not finite."""
    if den == 0 or not (math.isfinite(num) and math.isfinite(den)):
        return math.nan
    return num / den


def _model_and_params(cfg: ExperimentConfig):
    """The configured backbone (on its schedule) and chord parameters."""
    model = build_backbone(cfg.backbone, build_schedule(cfg.schedule))
    return model, build_chord_params(cfg.chord)


def _cell_seeds(seed: int, count: int, first: int = 0):
    """Cell seeds ``first`` to ``first + count - 1`` of ``seed``, made as they are read."""
    return (derive_stream(seed, NS_CELL, first + k) for k in range(count))


def _method_sweeps(model, params, seed: int, x0, h_values, horizon):
    """``global_error_sweep`` from x0 of the chord and the naive field, as the
    rows of one run: one query at t serves the two fields."""
    field = make_control_field(model, params, _METHODS, seed)
    return global_error_sweep(field, np.stack([x0, x0]), h_values, horizon=horizon)


def _dist_to_nearest_mode(points, mixture) -> np.ndarray:
    miss = points[:, None, :] - mixture.means
    return np.sqrt(np.vecdot(miss, miss)).min(axis=1)


# ---------------------------------------------------------------------------
# coeffs


def run_coeffs(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    schedule = build_schedule(cfg.schedule)
    t_values = p.t_values or _allocated(
        f"{p.t_count} query times", np.linspace, p.t_start, p.t_stop, p.t_count
    ).tolist()
    rows = []
    for t in t_values:
        for kind in PARAMETERIZATION_KINDS:
            try:
                a_t = coefficient(kind, schedule, t)
                if kind == "noise_eps" and schedule.is_vp:
                    general, vp_form, beta_form = epsilon_coefficient_forms(schedule, t)
                    scale = max(abs(general), abs(vp_form), abs(beta_form))
                    disagreement = (
                        max(abs(general - vp_form), abs(general - beta_form)) / scale
                    )
                    rows.append((t, kind, a_t, vp_form, beta_form, disagreement, ""))
                else:
                    rows.append((t, kind, a_t, "", "", "", ""))
            except IllConditionedMapError as err:
                rows.append((t, kind, "", "", "", "", str(err)))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write(
        cfg,
        "coeffs.csv",
        ["t", "kind", "coefficient", "vp_form", "beta_form", "max_rel_disagreement", "error"],
        rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# toy transport


def run_toy(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    count, steps = p.particles, p.steps
    model, params = _model_and_params(cfg)
    particles = sample_particles(model, count, cfg.seed)
    seeds = _particle_seeds(cfg.seed, count)
    coords = ["particle"] + [f"x{k}" for k in range(model.dim)]
    after, energy_rows = {}, []
    # naive first: a run where both diverge names the naive transport
    for method in _METHODS[::-1]:
        run_params = _method_params(params, method)
        if steps == 1:
            res = chordedit(model, particles.points, run_params, seeds)
            outs, live = res.x_out, res.live
        else:
            field = _rows_field([make_control_field(model, run_params, method, s) for s in seeds])
            march, us, live = euler_march(
                field, particles.points, run_params.step_scale / steps, steps
            )
            outs = march[-1]
        diverged = count - int(live.sum())
        _check_diverged(f"{method} transport", diverged, count)
        # some row is live, so the march kept every step's field values
        energies = res.energy if steps == 1 else bb_energy(us)
        kept = np.flatnonzero(live)
        after[method] = [(i, *x) for i, x in zip(kept.tolist(), outs[kept].tolist())]
        distances = _dist_to_nearest_mode(outs[live], model.target)
        distance_se = float(np.std(distances, ddof=1) / math.sqrt(len(distances)))
        energy = float(np.mean(energies[live]))
        energy_rows.append((method, energy, float(np.mean(distances)), distance_se, diverged))
    # every CSV only once both methods pass, so a failed run writes none
    before = [(i, *x) for i, x in enumerate(particles.points.tolist())]
    _write(cfg, "particles_before.csv", coords, before)
    for method, rows in after.items():
        _write(cfg, f"particles_after_{method}.csv", coords, rows)
    energy_rows.sort()  # by method
    columns = ["method", "bb_energy", "mean_distance", "distance_se", "diverged"]
    _write(cfg, "energy.csv", columns, energy_rows)
    lines = [f"toy transport: {count} particles, steps={steps}, seed={cfg.seed}"]
    for method, energy, distance, distance_se, diverged in energy_rows:
        lines.append(
            f"{method}: mean distance-to-nearest-target-mode {distance:.6f}"
            f" (se {distance_se:.6f}), mean energy {energy:.6f}, diverged {diverged}"
        )
    return _write_summary(cfg, lines)


# ---------------------------------------------------------------------------
# step sweep


def run_step_sweep(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    s_values, count, ref_steps = p.s_values, p.particles, p.reference_steps
    if len(s_values) < 3 or 1 not in s_values:
        raise UsageError("step sweep needs at least 3 step counts including 1")
    model, params = _model_and_params(cfg)
    particles = sample_particles(model, count, cfg.seed)
    seeds = _particle_seeds(cfg.seed, count)
    # (S, method) -> (live, fields, errors), keyed S-major for the checks' order
    cells = dict.fromkeys((s, m) for s in s_values for m in _METHODS)
    for method in _METHODS:
        # one field, so one noise batch, per particle for the reference and every S
        fields = [make_control_field(model, params, method, s) for s in seeds]
        references, _, tame = rk4_march(
            _rows_field(fields), particles.points, 0.0, params.step_scale, ref_steps
        )
        # every S marches the rows whose reference stayed live
        field = _rows_field([fields[i] for i in np.flatnonzero(tame)])
        starts, reference = particles.points[tame], references[-1][tame]
        for s_steps in s_values:
            march, us, live = euler_march(field, starts, params.step_scale / s_steps, s_steps)
            miss = march[-1][live] - reference[live]
            cells[(s_steps, method)] = (live, us, np.sqrt(np.vecdot(miss, miss)))
    for (s_steps, method), (live, _, _) in cells.items():
        _check_diverged(f"{method} at S={s_steps}", count - int(live.sum()), count)
    rows = sorted(  # by (S, method), which is unique; every cell kept a live row
        (s_steps, method, float(np.mean(bb_energy(us)[live])), float(np.mean(errors)))
        for (s_steps, method), (live, us, errors) in cells.items()
    )
    _write(cfg, "step_sweep.csv", ["S", "method", "bb_energy", "endpoint_error_mean"], rows)
    lines = ["step sweep energies:"]
    for method in _METHODS:
        prof = {s_steps: energy for s_steps, m, energy, _ in rows if m == method}
        ratio = _ratio(max(prof.values()), min(prof.values()))
        lines.append(
            f"{method}: "
            + " ".join(f"S={s}:{prof[s]:.6f}" for s in sorted(prof))
            + f" max/min {ratio:.4f}"
        )
    return _write_summary(cfg, lines)


# ---------------------------------------------------------------------------
# noise ablation


def run_noise_ablation(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    if p.seeds < 10 and not (len(p.n_values) == 1 and p.seeds == 1):
        raise UsageError("noise ablation needs at least 10 seeds")
    model, params = _model_and_params(cfg)
    # each seed index's cell seed and start point, shared by every method and n
    starts = sample_particles(model, p.seeds, _cell_seeds(cfg.seed, p.seeds)).points
    cell_seeds = list(_cell_seeds(cfg.seed, p.seeds))
    # rows and summary lines in (method, n, seed) order, the sorted cell key
    rows, lines = [], ["noise ablation summary (per method and n):"]
    for method in _METHODS:
        for n in sorted(p.n_values):
            run_params = replace(_method_params(params, method), n=n)
            res = chordedit(model, starts, run_params, cell_seeds)
            _raise_unless_live(res.live, starts, "the transport step")
            errs = _dist_to_nearest_mode(res.x_out, model.target)
            rows += [(method, n, k, *pair) for k, pair in enumerate(zip(errs, res.energy))]
            cov = float(errs.std(ddof=1) / errs.mean()) if errs.size > 1 else 0.0
            lines.append(f"{method} n={n}: mean {errs.mean():.6f} cov {cov:.6f}")
    _write(cfg, "noise_ablation.csv", ["method", "n", "seed", "endpoint_error", "energy"], rows)
    return _write_summary(cfg, lines)


# ---------------------------------------------------------------------------
# risk


def run_risk(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    sigma, trials = p.noise_sigma, p.trials
    count = p.series_length
    u_star = _allocated(f"{count} series values", np.full, (count, 2), p.series_value)
    names, kernels = zip(*sorted(shipped_causal_kernels(p.grid_step, p.taps).items()))
    # one call: every kernel smooths the same trials, each drawn once
    pairs = risk_experiment(u_star, sigma, kernels, trials, cfg.seed)
    rows = [(name, sigma, trials, mn, mc) for name, (mn, mc) in zip(names, pairs)]
    _write(cfg, "risk.csv", ["kernel", "noise_sigma", "trials", "mse_naive", "mse_chord"], rows)
    lines = ["risk experiment (constant truth):"]
    for name, _, _, mn, mc in rows:
        lines.append(f"{name}: mse_naive {mn:.6f} mse_chord {mc:.6f}")
    lines.append(f"noise floor d*sigma^2 = {2 * sigma * sigma:.6f}")
    return _write_summary(cfg, lines)


# ---------------------------------------------------------------------------
# error order


def run_error_order(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    model, params = _model_and_params(cfg)
    x0 = sample_particles(model, 1, cfg.seed).points[0]
    sweeps = _method_sweeps(model, params, cfg.seed, x0, p.h_values, p.horizon)
    rows = [
        (method, h, err if math.isfinite(err) else "diverged")
        for method, (errors, _) in zip(_METHODS, sweeps)
        for h, err in zip(p.h_values, errors)
    ]
    rows.sort(key=lambda r: (r[0], -float(r[1])))
    _write(cfg, "error_order.csv", ["method", "h", "endpoint_error"], rows)
    (chord_err, chord_slope), (naive_err, naive_slope) = sweeps
    smallest = int(np.argmin(p.h_values))
    ratio = _ratio(chord_err[smallest], naive_err[smallest])
    lines = [
        "global error sweep:",
        f"chord slope {chord_slope:.4f}",
        f"naive slope {naive_slope:.4f}",
        f"chord/naive error ratio at smallest h: {ratio:.4f}",
    ]
    return _write_summary(cfg, lines)


# ---------------------------------------------------------------------------
# diagnostics


def _band_limited_profile(count, ds, seed, dim):
    t = np.arange(count) * ds
    vals = np.zeros((count, dim))
    # harmonic m's sine and cosine weights, drawn in that order from key (seed, 0)
    weights = _philox_normals([(seed & _MASK64, 0)], (4, 2, dim))[0]
    for m, (sin_w, cos_w) in enumerate(weights, 1):
        vals += sin_w / m * np.sin(2 * np.pi * m * t)[:, None]
        vals += cos_w / m * np.cos(2 * np.pi * m * t)[:, None]
    return t, vals


def run_diagnostics(cfg: ExperimentConfig) -> int:
    p = read_params(cfg)
    model, params = _model_and_params(cfg)
    report = DiagnosticsReport()

    # contraction of a smoothed series: energy, magnitude, time differences
    ds = 1.0 / 32
    kernel = chord_two_tap_kernel(params.t, 4 * ds, ds)
    t_all, profile = _band_limited_profile(40, ds, cfg.seed, dim=2)
    smoothed = _causal_smooth(profile, kernel)
    energy = lambda values: float((values * values).sum()) * ds
    sup = lambda values: float(np.linalg.norm(values, axis=1).max())
    dsup = lambda values: sup(np.diff(values, axis=0))
    report.checks["l2_contraction"] = energy(smoothed) < energy(profile)
    report.checks["linf_contraction"] = sup(smoothed) <= sup(profile) + 1e-12
    report.checks["time_diff_contraction"] = dsup(smoothed) <= dsup(profile) + 1e-12

    # consistency proxy of the raw and smoothed series fields, plus the grid
    # Lipschitz margin, on a separable synthetic field; the pass verdict must
    # survive a 2x grid refinement
    t0 = float(t_all[kernel.taps - 1])
    shrank = lambda pair: pair[1] <= pair[0] * (1 + 1e-9)

    def series_field(series):
        """Rows x, t -> (tanh x_0, x_0 / 2) per row times ``series`` at t, its first value at t0."""
        def field(x, t):
            pairs = [(math.tanh(x_0), 0.5 * x_0) for x_0 in x[:, 0].tolist()]
            return np.array(pairs) * float(series[round((t - t0) / ds), 0])
        field.rows = True
        return field

    def margins(grid_pts):
        """The (raw, smoothed) consistency proxies and Lipschitz margins."""
        (c_raw, (_, m_raw, _)), (c_smooth, (_, m_smooth, _)) = (
            consistency_proxy(series_field(s), [(-1.5, 1.5)], (t0, float(t_all[-1])), grid_pts)
            for s in (profile[kernel.taps - 1 :], smoothed)
        )
        return (c_raw, c_smooth), (m_raw, m_smooth)

    coarse = margins(smoothed.shape[0])
    report.consistency_naive, report.consistency_chord = coarse[0]
    report.lipschitz_naive, report.lipschitz_chord = coarse[1]
    report.checks["consistency_contraction"] = shrank(coarse[0])
    report.checks["lipschitz_contraction"] = shrank(coarse[1])
    # refinement invariance: double the spatial grid, same verdicts
    fine = margins(2 * smoothed.shape[0])
    report.checks["grid_refinement_invariance"] = all(map(shrank, coarse)) == all(map(shrank, fine))

    # transport energies at one step
    particles = sample_particles(model, 24, cfg.seed)
    seeds = _particle_seeds(cfg.seed, 24)
    for method in _METHODS:
        res = chordedit(model, particles.points, _method_params(params, method), seeds)
        _raise_unless_live(res.live, particles.points, "the transport step")
        setattr(report, f"bb_energy_{method}", float(np.mean(res.energy)))
    report.checks["energy_contraction_one_step"] = (
        report.bb_energy_chord <= report.bb_energy_naive * (1 + 1e-9)
    )

    # local truncation error against its bound (the hard check)
    field = make_control_field(model, params, "chord", cfg.seed)
    xs = sample_particles(model, p.lte_states, _cell_seeds(cfg.seed, p.lte_states, 500)).points
    # one reference run over all states; the worst is the first largest error,
    # reported as (0, 0) where every error is 0
    observed, bound = lte_check(field, xs, 0.0, 0.1)
    worst = int(np.argmax(observed))
    report.lte_observed, report.lte_bound = (
        (float(observed[worst]), float(bound[worst])) if observed[worst] > 0 else (0.0, 0.0)
    )
    report.checks["lte_bound_with_slack"] = not (observed > bound * p.lte_slack).any()

    # global error slope and chord/naive ratio
    x0 = particles.points[0]
    h_values = [0.125, 0.0625, 0.03125, 0.015625]
    (chord_err, chord_slope), (naive_err, _) = _method_sweeps(
        model, params, cfg.seed, x0, h_values, params.step_scale
    )
    report.global_error_slope = chord_slope
    report.global_error_ratio = _ratio(chord_err[-1], naive_err[-1])
    report.checks["global_error_first_order"] = 0.8 <= chord_slope <= 1.2

    # estimator risk on a constant truth
    u_star = np.full((64, 2), 1.7)
    risk_kernel = chord_two_tap_kernel(0.9, 0.15, 0.05)
    # one draw: the Dirac kernel smooths the two-tap kernel's trials
    (report.risk_naive, report.risk_chord), (mse_d_naive, mse_d_chord) = risk_experiment(
        u_star, 0.2, (risk_kernel, dirac_kernel(0.05)), 200, cfg.seed
    )
    report.checks["risk_reduction"] = report.risk_chord < report.risk_naive
    report.checks["risk_dirac_bit_equal"] = mse_d_naive == mse_d_chord

    # projection energy split (the Pythagorean hard check)
    dt = 1.0 / 512
    t_fine = np.arange(0.0, 1.0 + dt / 2, dt)
    u_smooth = np.stack(
        [np.sin(2 * np.pi * t_fine), np.cos(2 * np.pi * t_fine)], axis=1
    )
    eo, ep, er = projection_energy_gap(u_smooth, 0.125, dt)
    report.projection_energy_orig = eo
    report.projection_energy_proj = ep
    report.projection_residual = er
    report.checks["projection_never_increases"] = ep <= eo
    report.checks["projection_pythagoras"] = abs((eo - ep) - er) <= 1e-10 * max(eo, 1.0)

    failed = report.failed_checks()
    report.notes = "ok" if not failed else "failed: " + ", ".join(failed)

    # every report field in declaration order, the checks aside: notes last
    header = [name for name in asdict(report) if name != "checks"]
    row = tuple(getattr(report, name) for name in header)
    _write(cfg, "diagnostics.csv", header, [row])
    lines = ["diagnostics report:"]
    for name in header[:-1]:
        lines.append(f"{name}: {getattr(report, name):.8g}")
    lines.append("checks:")
    for name in sorted(report.checks):
        lines.append(f"  {name}: {'pass' if report.checks[name] else 'FAIL'}")
    _write_summary(cfg, lines)
    if failed:
        raise InvariantFailure("failing checks: " + ", ".join(failed))
    return EXIT_OK


RUNNERS = {
    "coeffs": run_coeffs,
    "toy": run_toy,
    "step_sweep": run_step_sweep,
    "noise_ablation": run_noise_ablation,
    "risk": run_risk,
    "error_order": run_error_order,
    "diagnostics": run_diagnostics,
}
