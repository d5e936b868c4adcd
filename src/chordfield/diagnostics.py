"""Numerical verification of the estimator's stability and accuracy claims.

Every check reports both sides of its inequality so tolerances stay
auditable; nothing returns a bare boolean. Suprema are grid suprema at a
documented resolution, and the pass/fail verdicts used by the experiment
driver are required to survive a 2x grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chord import SmoothingKernel, _causal_smooth
from .errors import DomainError
from .proxy import NS_TRIAL, _derive_streams, _philox_normals
from .transport import euler_march, integrate_rk4

# multiplicative slack applied to theoretical bounds to absorb the
# finite-difference error in their grid-estimated constants
BOUND_SLACK = 1.05

# risk trials drawn, smoothed and reduced together, so that memory stays
# bounded however many trials are asked for
RISK_CHUNK = 256


@dataclass
class DiagnosticsReport:
    """Aggregated verification quantities; inequalities carry both sides."""

    bb_energy_naive: float = math.nan
    bb_energy_chord: float = math.nan
    consistency_naive: float = math.nan
    consistency_chord: float = math.nan
    lipschitz_naive: float = math.nan
    lipschitz_chord: float = math.nan
    lte_observed: float = math.nan
    lte_bound: float = math.nan
    global_error_slope: float = math.nan
    global_error_ratio: float = math.nan
    risk_naive: float = math.nan
    risk_chord: float = math.nan
    projection_energy_orig: float = math.nan
    projection_energy_proj: float = math.nan
    projection_residual: float = math.nan
    checks: dict = field(default_factory=dict)
    notes: str = ""

    def failed_checks(self) -> list[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)


def bb_energy(fields) -> float | np.ndarray:
    """Unweighted discrete kinetic energy: mean over steps of ||u||^2 / d,
    one float for S samples (d,), one per row for rows (S, ..., d)."""
    if len(fields) == 0:
        raise DomainError("bb_energy needs at least one field sample")
    fields = np.asarray(fields, dtype=float)
    # in step order: ``sum(axis=0)`` adds a lone row's steps pairwise instead
    energy = np.cumsum(np.vecdot(fields, fields), axis=0)[-1] / (len(fields) * fields.shape[-1])
    return float(energy) if fields.ndim == 2 else energy


def _axis_grids(bounds, t_range, grid):
    if grid < 8:
        raise DomainError("grids need at least 8 points per axis")
    axes = [np.linspace(lo, hi, grid) for lo, hi in bounds]
    ts = np.linspace(t_range[0], t_range[1], grid)
    return axes, ts


def _lattice(fn, axes, ts):
    """fn(x, t) on the dense lattice as ``(values, dudt, jac)``: values indexed
    [t, x1, ..., xd, component] (the output dimension may differ from the
    spatial one), their central-difference time derivative (zero on a single
    time slice) and Jacobian indexed [..., component, axis].

    A field whose ``autonomous`` attribute is true takes rows and ignores t:
    one row call fills one time slice, which every slice shares, so its time
    derivative is exactly zero. One whose ``rows`` attribute is true takes rows
    and is called once per time slice; any other ``fn`` is called point by point.
    """
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    if getattr(fn, "autonomous", False):
        values = np.asarray(fn(points, float(ts[0])), dtype=float)
        values = np.broadcast_to(values, (ts.size,) + values.shape)
    elif getattr(fn, "rows", False):
        values = np.array([fn(points, float(t)) for t in ts], dtype=float)
    else:
        values = np.array([[fn(x, float(t)) for x in points] for t in ts], dtype=float)
    values = values.reshape((ts.size,) + tuple(len(a) for a in axes) + (-1,))
    if ts[-1] > ts[0]:
        dudt = np.gradient(values, ts[1] - ts[0], axis=0)
    else:
        dudt = np.zeros_like(values)
    grads = [np.gradient(values, a[1] - a[0], axis=1 + k) for k, a in enumerate(axes)]
    return values, dudt, np.stack(grads, axis=-1)


def _sup_norm(values) -> float:
    """Largest Euclidean vector norm over all lattice sites."""
    flat = values.reshape(-1, values.shape[-1])
    return float(np.sqrt((flat * flat).sum(axis=1).max()))


def _sup_spectral(jac) -> float:
    """Largest spectral norm over the lattice's per-site Jacobians."""
    flat = jac.reshape(-1, jac.shape[-2], jac.shape[-1])
    return float(np.linalg.norm(flat, 2, axis=(1, 2)).max())


def consistency_proxy(
    fn,
    bounds: list[tuple[float, float]],
    t_range: tuple[float, float],
    grid: int,
) -> tuple[float, tuple[float, float, float]]:
    """Grid estimate of sup||du/dt|| + sup||grad u|| * sup||u||.

    ``fn(x, t)`` is any evaluable field over the box ``bounds`` and the time
    interval ``t_range``. Central differences on a ``grid``-point lattice per
    axis. Returns the proxy and its three components
    ``(sup||du/dt||, sup||grad u||, sup||u||)``; the middle one, the grid
    supremum of the spatial Jacobian's spectral norm, is the stability margin.
    """
    values, dudt, jac = _lattice(fn, *_axis_grids(bounds, t_range, grid))
    sup_dt = _sup_norm(dudt)
    sup_u = _sup_norm(values)
    sup_jac = _sup_spectral(jac)
    return sup_dt + sup_jac * sup_u, (sup_dt, sup_jac, sup_u)


def _local_m_f(fn, corner_lo, corner_hi, t_lo, t_hi, grid=7):
    """Grid estimate of sup||du/dt + (grad u) u|| over a local box."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(corner_lo, corner_hi)]
    values, dudt, jac = _lattice(fn, axes, np.linspace(t_lo, t_hi, grid))
    return _sup_norm(dudt + np.einsum("...ca,...a->...c", jac, values))


def lte_check(
    fn,
    x: np.ndarray,
    t: float,
    h: float,
    ref_steps: int = 128,
    grid: int = 7,
):
    """One-step truncation error of explicit Euler against its local bound.

    observed = || high-res endpoint - (x + h u(x, t)) ||
    bound    = (h^2 / 2) * sup||du/dt + (grad u) u||  over a box containing
               the step (grid-estimated, ``grid`` >= 2 points per axis).
    Callers assert observed <= bound * BOUND_SLACK.

    For one state x (d,) returns the two floats; for rows of states (k, d),
    which ``fn`` must take, one reference run covers every row and the two
    are arrays of k values, each equal to that of the row's own check.
    """
    x = np.asarray(x, dtype=float)
    if h <= 0:
        raise DomainError("step h must be positive")
    if grid < 2:
        raise DomainError("lte_check needs grid >= 2 points per axis")
    u0 = fn(x, t)
    euler = x + h * u0
    exact = integrate_rk4(fn, x, t, t + h, ref_steps)
    miss = exact - euler
    observed, bound = np.sqrt(np.vecdot(miss, miss)), []
    for x_r, u_r, euler_r, exact_r in zip(
        *(np.atleast_2d(a) for a in (x, u0, euler, exact))
    ):
        pad = 0.5 * h * float(np.linalg.norm(u_r)) + 1e-3
        corner_lo = np.minimum.reduce([x_r, euler_r, exact_r]) - pad
        corner_hi = np.maximum.reduce([x_r, euler_r, exact_r]) + pad
        m_f = _local_m_f(fn, corner_lo, corner_hi, t, t + h, grid=grid)
        bound.append(0.5 * h * h * m_f)
    if x.ndim == 1:
        return float(observed), bound[0]
    return observed, np.array(bound)


def global_error_sweep(
    fn,
    x0: np.ndarray,
    h_values: list[float],
    horizon: float = 1.0,
    ref_steps: int = 4096,
):
    """Euler endpoint errors against a high-res reference, with a rate fit.

    For each h (which must divide the horizon) the field is integrated by
    explicit Euler over [0, horizon] and compared to the fourth-order
    reference under the same field. Returns the per-h errors (inf marks a
    diverged run, excluded from the fit) and the least-squares slope of
    log error against log h; the slope is NaN when fewer than two finite,
    nonzero errors remain or when the field is integrated exactly.

    For one state x0 (d,) returns that ``(errors, slope)`` pair; for rows of
    states (k, d), which ``fn`` must take, one reference run and one Euler
    march per h cover every row, and k pairs are returned, each equal to that
    of the row's own sweep. The reference raises ``DivergenceError`` when any
    row diverges in it; a row that diverges in an Euler run is frozen at its
    last good state and gets inf for that h while the other rows go on.
    """
    hs = [float(h) for h in h_values]
    if len(hs) < 4:
        raise DomainError("need at least 4 step sizes")
    if not all(math.isfinite(v) and v > 0 for v in (horizon, *hs)):
        raise DomainError("the horizon and step sizes must be positive and finite")
    if max(hs) / min(hs) < 8.0 - 1e-12:
        raise DomainError("step sizes must span at least a factor of 8")
    steps = [round(horizon / h) for h in hs]
    for h, n in zip(hs, steps):
        if n < 1 or abs(n * h - horizon) > 1e-9 * horizon:
            raise DomainError(f"h = {h} does not divide the horizon {horizon}")
    x0 = np.asarray(x0, dtype=float)
    reference = integrate_rk4(fn, x0, 0.0, horizon, ref_steps)
    errors = []
    for h, n in zip(hs, steps):
        trajectory, _, live = euler_march(fn, x0, h, n)
        miss = trajectory[-1] - reference
        error = np.where(live, np.sqrt(np.vecdot(miss, miss)), math.inf)
        errors.append(np.atleast_1d(error).tolist())
    sweeps = [(list(row), _error_slope(hs, row)) for row in zip(*errors)]
    return sweeps[0] if x0.ndim == 1 else sweeps


def _error_slope(hs, errors):
    """Least-squares slope of log error against log h over the finite,
    nonzero errors; NaN when fewer than two remain."""
    finite = [
        (h, e) for h, e in zip(hs, errors) if math.isfinite(e) and e > 1e-14
    ]
    if len(finite) < 2:
        return math.nan
    log_h = np.log([h for h, _ in finite])
    log_e = np.log([e for _, e in finite])
    return float(np.polyfit(log_h, log_e, 1)[0])


def _squared_norms(values, truth):
    """Per-point ``|values - truth|^2`` of ``(trials, T, d)`` values, which it
    overwrites: in place, as every chunk-sized temporary is memory the
    allocator hands back and faults in again."""
    values -= truth
    values *= values
    if not 0 < values.shape[-1] < 8:
        # from 8 entries numpy sums in 8-way pairwise blocks
        return values.sum(axis=-1)
    # below 8 it adds them one after another, as these strided adds do, and
    # they skip the reduction's per-row set-up
    total = values[..., 0].copy()
    for j in range(1, values.shape[-1]):
        total += values[..., j]
    return total


def _add_means(total, sq):
    """``total`` plus the per-trial means of ``sq`` (trials, points), added in
    trial order; each mean runs over that trial's own contiguous row."""
    means = np.concatenate(([total], np.ascontiguousarray(sq).mean(axis=1)))
    return float(np.add.accumulate(means)[-1])


def _risk_trials(u_star, noise_sigma, smoothers, trials, seed):
    """Mean squared errors of the raw and the smoothed noisy series: one
    ``(mse_raw, mse_smoothed)`` pair per ``(smooth, interior)`` smoother.

    ``smooth(noisy)`` takes the noisy values (T, ...) and returns the
    smoothed ones at the ``interior`` indices along the first axis, in a new
    array that the errors are then computed in. Every smoother sees the same
    trials, each drawn once: trial k's noise is the standard-normal stream of
    Philox key ``(derive_stream(seed, NS_TRIAL, k), 0)``. Both errors are
    vector norms squared, averaged over the smoother's interior points and
    then over the trials.
    """
    if trials < 100:
        raise DomainError("risk experiments need trials >= 100")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise DomainError("noise_sigma must be finite and non-negative")
    u_star = np.asarray(u_star, dtype=float)
    if u_star.ndim != 2 or not np.isfinite(u_star).all():
        raise DomainError("u_star must be finite, of shape (T, d)")
    if not smoothers:
        raise DomainError("risk experiments need at least one smoother")
    if not all(range(u_star.shape[0])[interior] for _, interior in smoothers):
        raise DomainError("series shorter than the smoother support")
    totals = [[0.0, 0.0] for _ in smoothers]
    for start in range(0, trials, RISK_CHUNK):
        stop = min(start + RISK_CHUNK, trials)
        keys = [(s, 0) for s in _derive_streams(seed, NS_TRIAL, range(start, stop))]
        noisy = _philox_normals(keys, u_star.shape)
        noisy *= noise_sigma
        noisy += u_star
        for total, (smooth, interior) in zip(totals, smoothers):
            smoothed = np.moveaxis(smooth(np.moveaxis(noisy, 0, 1)), 1, 0)
            total[1] = _add_means(total[1], _squared_norms(smoothed, u_star[interior]))
        # the raw errors once, over the whole series, after every smoother has
        # read the chunk: elementwise, so any interior of them has the bits of
        # that interior's own errors
        raw = _squared_norms(noisy, u_star)
        for total, (_, interior) in zip(totals, smoothers):
            total[0] = _add_means(total[0], raw[:, interior])
    return [(total[0] / trials, total[1] / trials) for total in totals]


def risk_experiment(
    u_star: np.ndarray,
    noise_sigma: float,
    kernel: SmoothingKernel | tuple[SmoothingKernel, ...],
    trials: int,
    seed: int,
) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo risk of the raw versus kernel-smoothed noisy series.

    The clean series ``u_star`` (shape (T, d), uniform grid with the kernel's
    step) is corrupted per trial by i.i.d. zero-mean Gaussian noise of
    standard deviation ``noise_sigma`` per coordinate. Returns the mean
    squared error (vector norm, averaged over trials and interior points) of
    the raw series and of the causally smoothed series against the truth.
    A single-tap kernel yields bit-equal errors by construction.

    For a tuple of kernels every kernel smooths the same trials, each drawn
    once, and the result is a list with one pair per kernel, each equal to
    that kernel's own pair.
    """
    single = isinstance(kernel, SmoothingKernel)
    kernels = (kernel,) if single else kernel
    pairs = _risk_trials(
        u_star,
        noise_sigma,
        [(partial(_causal_smooth, kernel=k), slice(k.taps - 1, None)) for k in kernels],
        trials,
        seed,
    )
    return pairs[0] if single else pairs


def _hat_basis(times, knots):
    """Hat-function design matrix: column k rises over [knots[k-1], knots[k]]
    (column 0 is 1 at knots[0] alone) and falls over (knots[k], knots[k+1]]."""
    t, left, right, gaps = times[:, None], knots[:-1], knots[1:], np.diff(knots)
    basis = np.zeros((times.size, knots.size))
    basis[:, 0] = (times >= knots[0]) & (times <= knots[0])
    basis[:, 1:] = np.where((t >= left) & (t <= right), (t - left) / gaps, 0.0)
    basis[:, :-1] = np.where((t > left) & (t <= right), (right - t) / gaps, basis[:, :-1])
    return basis


def projection_energy_gap(
    u_star: np.ndarray,
    grid_delta: float,
    dt: float,
) -> tuple[float, float, float]:
    """Least-squares piecewise-linear (knots every grid_delta) energy split.

    Projects the series onto continuous piecewise-linear functions in time
    under the uniform discrete inner product and returns

        (energy_orig, energy_proj, residual_energy)

    with energy = sum ||u_j||^2 dt. Orthogonality makes the decomposition
    exact: energy_orig - energy_proj == residual_energy to rounding.
    """
    u_star = np.asarray(u_star, dtype=float)
    if u_star.ndim != 2:
        raise DomainError("u_star must have shape (T, d)")
    count = u_star.shape[0]
    span = (count - 1) * dt
    segments = grid_delta / dt
    n_seg = round(span / grid_delta)
    if n_seg < 1 or abs(n_seg * grid_delta - span) > 1e-9 * max(span, 1.0):
        raise DomainError("grid_delta must divide the series span")
    per_seg = round(segments)
    if per_seg < 2 or abs(per_seg * dt - grid_delta) > 1e-9:
        raise DomainError("each segment needs at least two sample intervals")
    basis = _hat_basis(np.arange(count) * dt, np.linspace(0.0, span, n_seg + 1))
    gram = basis.T @ basis
    coeff = np.linalg.solve(gram, basis.T @ u_star)
    proj = basis @ coeff
    energy = lambda arr: float((arr**2).sum()) * dt
    return energy(u_star), energy(proj), energy(u_star - proj)
