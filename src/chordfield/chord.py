"""The chord control-field estimator and causal kernel smoothing.

The two-point chord estimate blends the proxy field at the query time t and
at the earlier time t - delta:

    u_hat = (t * R(t - delta) + delta * R(t)) / (t + delta)

It is the closed-form minimizer of a convex window objective (a quadratic
prior of weight t around the previous estimate plus an integral misfit over
the window) after collapsing the window integral to its endpoint and the
prior to the earlier field query. Being a convex combination, it never
exceeds the energy of its inputs; the same holds for any non-negative,
unit-mass causal smoothing kernel applied along the time axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _allocated


@dataclass
class ChordParams:
    """Hyperparameters of the one-step transport.

    t                 main query time in (0, 1]
    delta             window width >= 0 with t - delta >= 0
    step_scale        Euler step scale (> 0)
    t_c               refinement time in (0, 1)
    n                 noise draws per estimate (>= 1)
    use_prox          apply the denoising refinement after the step
    share_noise_across_times
                      reuse one noise draw for both query times (default);
                      switch off to decouple the pair for ablations; at
                      delta = 0 both take t's draws, as the naive field does
    prox_shared_noise reuse the main query time's draw 0 for the refinement
                      instead of an independent sub-stream
    """

    t: float = 0.90
    delta: float = 0.15
    step_scale: float = 1.00
    t_c: float = 0.30
    n: int = 1
    use_prox: bool = True
    share_noise_across_times: bool = True
    prox_shared_noise: bool = False

    def __post_init__(self):
        vals = (self.t, self.delta, self.step_scale, self.t_c)
        if not all(not isinstance(v, bool) and math.isfinite(v) for v in vals):
            raise DomainError("chord parameters must be finite numbers")
        if not (0.0 < self.t <= 1.0):
            raise DomainError("t must lie in (0, 1]")
        if self.delta < 0.0 or self.t - self.delta < 0.0:
            raise DomainError("delta must satisfy 0 <= delta <= t")
        if self.step_scale <= 0.0:
            raise DomainError("step_scale must be positive")
        if not (0.0 < self.t_c < 1.0):
            raise DomainError("t_c must lie in (0, 1)")
        # NaN and inf fail the comparison; a boolean is no count
        n = self.n
        if isinstance(n, bool) or not (1 <= n < math.inf and int(n) == n):
            raise DomainError("n must be an integer >= 1")
        self.n = int(n)
        flags = (self.use_prox, self.share_noise_across_times, self.prox_shared_noise)
        if not all(isinstance(flag, bool) for flag in flags):
            raise DomainError("use_prox and the noise-sharing flags must be booleans")


def chord_field(
    r_prev: np.ndarray, r_curr: np.ndarray, t: float, delta: float
) -> np.ndarray:
    """Convex combination (t * r_prev + delta * r_curr) / (t + delta).

    r_prev is the field at the earlier time t - delta, r_curr at t. With
    delta = 0 both queries coincide and the estimator reduces bit-exactly to
    the naive field r_prev.
    """
    r_prev = np.asarray(r_prev, dtype=float)
    r_curr = np.asarray(r_curr, dtype=float)
    if r_prev.shape != r_curr.shape:
        raise DomainError("field samples must share a dimension")
    if t + delta <= 0.0:
        raise DomainError("t + delta must be positive")
    return _blend(r_prev.copy(), r_curr.copy(), t, delta)


def _blend(r_prev: np.ndarray, r_curr: np.ndarray, t: float, delta: float) -> np.ndarray:
    """``chord_field``'s value written into ``r_curr`` and returned, with the
    same operations in the same order (the sum's sides swapped, which is exact);
    ``r_prev`` may be overwritten."""
    if delta == 0.0:
        r_curr[...] = r_prev
        return r_curr
    r_prev *= t
    r_curr *= delta
    r_curr += r_prev
    r_curr /= t + delta
    return r_curr


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    gaps = np.diff(times)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


def _series_arrays(series) -> tuple[np.ndarray, np.ndarray]:
    """A ``list[(t, vec)]`` series as its ``(times, values)`` arrays."""
    times = np.array([float(ts) for ts, _ in series])
    values = np.array([np.asarray(v, dtype=float) for _, v in series])
    return times, values


def _uniform_step(times: np.ndarray, step: float | None = None) -> float:
    """Spacing of a strictly ascending uniform grid (``step`` when given)."""
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise DomainError("series times must be strictly ascending")
    ds = float(steps[0]) if step is None else step
    if not np.allclose(steps, ds, rtol=1e-9, atol=1e-12):
        raise DomainError("series must sit on a uniform grid with the expected step")
    return ds


def _lag_steps(delta: float, grid_step: float) -> int:
    """delta / grid_step as a whole number of grid steps, at least one."""
    lag = delta / grid_step
    steps = int(round(lag))
    if steps < 1 or abs(lag - steps) > 1e-9:
        raise DomainError("delta must be a positive multiple of the grid step")
    return steps


def _validate_window(window_samples, t: float, delta: float):
    if delta > 0.0 and len(window_samples) < 2:
        raise DomainError("a positive window needs at least two samples")
    times, vectors = _series_arrays(window_samples)
    if times.size:
        if np.any(np.diff(times) <= 0):
            raise DomainError("window sample times must be strictly ascending")
        lo, hi = t - delta - 1e-12, t + 1e-12
        if times[0] < lo or times[-1] > hi:
            raise DomainError("window sample times must lie in [t - delta, t]")
    return times, vectors


def _window_solve(u_prev, times, values, t: float) -> np.ndarray:
    """Normal-equation solve of the window objective over ``(times, values)``."""
    weights = _trapezoid_weights(times)
    total = float(weights.sum())
    return (t * u_prev + weights @ values) / (t + total)


def surrogate_objective(
    u: np.ndarray,
    u_prev: np.ndarray,
    window_samples: list[tuple[float, np.ndarray]],
    t: float,
    delta: float,
) -> float:
    """Discrete window objective: prior misfit plus trapezoid field misfit.

        t * ||u - u_prev||^2  +  integral over [t - delta, t] of ||u - R||^2

    with the integral taken by the composite trapezoid rule over the supplied
    samples. With delta = 0 the integral term is empty.
    """
    u = np.asarray(u, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    value = t * float(np.sum((u - u_prev) ** 2))
    if delta == 0.0:
        return value
    times, vectors = _validate_window(window_samples, t, delta)
    misfits = ((u - vectors) ** 2).reshape(times.size, -1).sum(axis=1)
    return value + float(_trapezoid_weights(times) @ misfits)


def window_minimizer(
    u_prev: np.ndarray,
    window_samples: list[tuple[float, np.ndarray]],
    t: float,
    delta: float,
) -> np.ndarray:
    """Unique minimizer of the discrete window objective.

    Solves the normal equation of the quadratic exactly:

        u* = (t * u_prev + sum_j w_j R_j) / (t + sum_j w_j)

    where w_j are the trapezoid weights of the sample grid.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    if delta == 0.0:
        return u_prev.copy()
    times, values = _validate_window(window_samples, t, delta)
    return _window_solve(u_prev, times, values, t)


@dataclass
class SmoothingKernel:
    """Non-negative causal kernel on the lag grid {0, ds, ..., (m-1) ds}.

    ``weights[i]`` is the kernel density at lag i * grid_step (index 0 is the
    current sample, larger indices reach further into the past). Unit mass
    means sum(weights) * grid_step == 1.
    """

    weights: np.ndarray
    grid_step: float

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1 or self.weights.size < 1:
            raise DomainError("kernel weights must be a non-empty vector")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise DomainError("kernel weights must be non-negative and finite")
        _check_grid_step(self.grid_step)
        mass = float(self.weights.sum() * self.grid_step)
        if abs(mass - 1.0) > 1e-9:
            raise DomainError(f"kernel mass {mass} is not 1 within 1e-9")

    @property
    def taps(self) -> int:
        return self.weights.size


def _check_grid_step(grid_step: float) -> None:
    # before any constructor divides by it
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise DomainError("grid_step must be positive and finite")


def _kernel_lags(taps: int, grid_step: float) -> np.ndarray:
    """The lags 0, 1, ..., taps - 1, as floats, of a kernel on a valid grid."""
    _check_grid_step(grid_step)
    if taps < 1:
        raise DomainError("a kernel needs at least one tap")
    return _allocated(f"{taps} kernel weights", np.arange, taps, dtype=float)


def _unit_mass(raw: np.ndarray, grid_step: float) -> SmoothingKernel:
    """The kernel of density ``raw`` scaled to unit mass on the grid."""
    return SmoothingKernel(weights=raw / (raw.sum() * grid_step), grid_step=grid_step)


def dirac_kernel(grid_step: float) -> SmoothingKernel:
    _check_grid_step(grid_step)
    return _unit_mass(np.ones(1), grid_step)


def chord_two_tap_kernel(t: float, delta: float, grid_step: float) -> SmoothingKernel:
    """Two taps at lags delta and 0 with masses t/(t+delta), delta/(t+delta)."""
    _check_grid_step(grid_step)
    taps = _lag_steps(delta, grid_step)
    raw = _allocated(f"{taps + 1} kernel weights", np.zeros, taps + 1)
    raw[0], raw[taps] = delta, t
    return _unit_mass(raw, grid_step)


def uniform_causal_kernel(taps: int, grid_step: float) -> SmoothingKernel:
    return _unit_mass(np.ones_like(_kernel_lags(taps, grid_step)), grid_step)


def triangular_causal_kernel(taps: int, grid_step: float) -> SmoothingKernel:
    ramp = taps - _kernel_lags(taps, grid_step)  # heaviest at lag 0
    return _unit_mass(ramp, grid_step)


def exponential_causal_kernel(
    taps: int, grid_step: float, rate: float = 1.0
) -> SmoothingKernel:
    lags = _kernel_lags(taps, grid_step)
    if rate <= 0:
        raise DomainError("rate must be positive")
    return _unit_mass(np.exp(-rate * lags), grid_step)


def shipped_causal_kernels(
    grid_step: float, taps: int = 4
) -> dict[str, SmoothingKernel]:
    """The kernel family exercised by the verification suite."""
    return {
        "dirac": dirac_kernel(grid_step),
        "chord_two_tap": chord_two_tap_kernel(0.9, taps * grid_step, grid_step),
        "uniform": uniform_causal_kernel(taps, grid_step),
        "triangular": triangular_causal_kernel(taps, grid_step),
        "exponential": exponential_causal_kernel(taps, grid_step, rate=0.8),
    }


def _shifted_sum(values: np.ndarray, weights, shifts) -> np.ndarray:
    """``sum_i weights[i] * values[shifts[i] :]`` over the rows that every shift
    has, added term by term onto zeros: each output keeps the operation order
    of its explicit sum 0 + w_0 v_0 + w_1 v_1 + ..., bit for bit."""
    count = values.shape[0] - max(shifts)
    acc = np.zeros_like(values[:count])
    for w, s in zip(weights, shifts):
        acc += w * values[s : s + count]
    return acc


def _causal_smooth(values: np.ndarray, kernel: SmoothingKernel) -> np.ndarray:
    """``kernel_smooth`` over the ``(T, ...)`` values of a series on the
    kernel's grid: the ``T - taps + 1`` outputs from index ``taps - 1`` on."""
    if kernel.taps == 1:
        return values.copy()
    # tap i reads R(t_j - i * ds)
    return _shifted_sum(values, kernel.weights * kernel.grid_step, range(kernel.taps - 1, -1, -1))


def kernel_smooth(
    series: list[tuple[float, np.ndarray]], kernel: SmoothingKernel
) -> list[tuple[float, np.ndarray]]:
    """Discrete causal convolution of a uniformly sampled series.

    output(t_j) = sum_i weights[i] * grid_step * R(t_j - i * grid_step),
    defined only where the full kernel support is available. A single tap at
    lag zero must reproduce the input bit-for-bit, so that case short-circuits
    the arithmetic.
    """
    if len(series) < kernel.taps:
        raise DomainError("series shorter than the kernel support")
    times, values = _series_arrays(series)
    _uniform_step(times, kernel.grid_step)
    smoothed = _causal_smooth(values, kernel)
    return list(zip(times[kernel.taps - 1 :].tolist(), smoothed))


def recursive_chord_series(
    series: list[tuple[float, np.ndarray]], delta: float
) -> list[tuple[float, np.ndarray]]:
    """Fully recursive window estimate carried across a uniform time grid.

    Instead of approximating the prior by the raw field at t - delta, this
    variant feeds the previous *estimate* back in:

        u_hat(t_j) = (t_j * u_hat(t_j - delta) + trapezoid R over the window)
                     / (t_j + delta)

    seeded with the raw field over the first window. Diagnostics-only.
    """
    times, values = _series_arrays(series)
    if times.size < 2:
        raise DomainError("series must be ascending with at least two samples")
    lag = _lag_steps(delta, _uniform_step(times))
    estimates = values.copy()  # seed: raw fields
    for j in range(lag, times.size):
        window = slice(j - lag, j + 1)
        estimates[j] = _window_solve(
            estimates[j - lag], times[window], values[window], float(times[j])
        )
    return list(zip(times.tolist(), estimates))
