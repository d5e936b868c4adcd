"""Noise schedules alpha(t), sigma(t) and comparison-domain coefficients.

Every quantity in this package lives on a single time axis, fixed here once:

    t = 0 is the clean (data) end of the noising path, t = 1 the noise end.
    alpha(0) = 1, sigma(0) = 0; alpha decreases and sigma increases with t.
    The forward noising path is  x_t = alpha(t) * x0 + sigma(t) * eps.

All velocity-like quantities are expressed in the *generation* direction,
i.e. the drift that moves a state toward the clean data of its condition.
For the rectified linear path (alpha = 1 - t, sigma = t) this is the familiar
``data - noise`` velocity. The comparison-domain coefficients below convert
each model-head residual into this velocity unit exactly, so that

    coefficient(kind) * (head residual)  ==  (velocity residual)

holds identically for every schedule, not only variance-preserving ones.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedMapError

VP_CONST_BETA = "vp_const_beta"
VP_GENERIC = "vp_generic"
LINEAR_INTERP = "linear_interp"
SCHEDULE_KINDS = (VP_CONST_BETA, VP_GENERIC, LINEAR_INTERP)

NOISE_EPS = "noise_eps"
DATA_X0 = "data_x0"
V_PRED = "v_pred"
SCORE = "score"
VELOCITY = "velocity"
CONSISTENCY = "consistency"
PARAMETERIZATION_KINDS = (NOISE_EPS, DATA_X0, V_PRED, SCORE, VELOCITY, CONSISTENCY)


def _check_time(t: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t = {t} outside [0, 1]")


@dataclass
class Schedule:
    """A noise path with derivative access and numerical guards.

    kind        one of ``vp_const_beta`` (alpha = exp(-beta0 t / 2)),
                ``vp_generic`` (tabulated beta(t), linearly interpolated) or
                ``linear_interp`` (alpha = 1 - t, sigma = t).
    beta0       constant noise rate, required for ``vp_const_beta``.
    alpha_floor guard below which coefficient divisors are rejected.
    fd_step     backward finite-difference step for ``derivatives``.
    beta_times / beta_values
                uniform, strictly increasing grid covering [0, 1] with the
                tabulated beta, required for ``vp_generic``.

    The path methods alpha, sigma, alpha_dot and sigma_dot each return one
    field of ``path_scalars(schedule, t)``, which evaluates all four at one
    t and raises ``DomainError`` outside t in [0, 1]; it is computed per
    call and not cached, since a schedule is mutable and callers walk
    through thousands of distinct times. Code that needs more than one of
    the four calls ``path_scalars`` once.
    """

    kind: str
    beta0: float | None = None
    alpha_floor: float = 1e-3
    fd_step: float = 1e-3
    beta_times: np.ndarray | None = None
    beta_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if not (self.alpha_floor > 0 and math.isfinite(self.alpha_floor)):
            raise DomainError("alpha_floor must be a small positive real")
        if not (self.fd_step > 0 and math.isfinite(self.fd_step)):
            raise DomainError("fd_step must be positive")
        if self.kind == VP_CONST_BETA:
            if self.beta0 is None or not (self.beta0 > 0):
                raise DomainError("vp_const_beta requires beta0 > 0")
        if self.kind == VP_GENERIC:
            if self.beta_times is None or self.beta_values is None:
                raise DomainError("vp_generic requires a tabulated beta(t)")
            t = np.asarray(self.beta_times, dtype=float)
            b = np.asarray(self.beta_values, dtype=float)
            if t.ndim != 1 or t.shape != b.shape or t.size < 2:
                raise DomainError("beta table must be two equal 1-D columns")
            if not (np.all(np.diff(t) > 0)):
                raise DomainError("beta table times must be strictly increasing")
            steps = np.diff(t)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise DomainError("beta table must sit on a uniform grid")
            if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
                raise DomainError("beta table must cover [0, 1]")
            if not np.all(b > 0):
                raise DomainError("tabulated beta must be positive")
            self.beta_times = t
            self.beta_values = b
            # exact cumulative integral of the piecewise-linear interpolant
            seg = 0.5 * (b[1:] + b[:-1]) * steps
            self._beta_cum = np.concatenate([[0.0], np.cumsum(seg)])

    # -- core path quantities ------------------------------------------------

    @property
    def is_vp(self) -> bool:
        return self.kind in (VP_CONST_BETA, VP_GENERIC)

    def beta(self, t: float) -> float:
        """Instantaneous noise rate beta(t); only defined for vp kinds."""
        if self.kind == VP_CONST_BETA:
            return float(self.beta0)
        if self.kind == VP_GENERIC:
            return float(np.interp(t, self.beta_times, self.beta_values))
        raise DomainError(f"schedule kind {self.kind!r} has no beta(t)")

    def _beta_integral(self, t: float) -> float:
        if self.kind == VP_CONST_BETA:
            return self.beta0 * t
        tg, bg = self.beta_times, self.beta_values
        i = min(max(int(np.searchsorted(tg, t, side="right")) - 1, 0), tg.size - 2)
        dt = t - tg[i]
        slope = (bg[i + 1] - bg[i]) / (tg[i + 1] - tg[i])
        return float(self._beta_cum[i] + bg[i] * dt + 0.5 * slope * dt * dt)

    def alpha(self, t: float) -> float:
        return path_scalars(self, t).alpha

    def sigma(self, t: float) -> float:
        return path_scalars(self, t).sigma

    def alpha_dot(self, t: float) -> float:
        """Analytic d(alpha)/dt."""
        return path_scalars(self, t).alpha_dot

    def sigma_dot(self, t: float) -> float:
        """Analytic d(sigma)/dt; singular at sigma = 0 for vp kinds."""
        return path_scalars(self, t).sigma_dot


class PathScalars:
    """alpha, sigma, alpha_dot and sigma_dot of one schedule at one time t.

    Built by ``path_scalars``. ``sigma_dot`` raises ``IllConditionedMapError``
    where it is singular (sigma = 0 on vp kinds); the other values are plain
    attributes.
    """

    __slots__ = ("t", "alpha", "sigma", "alpha_dot", "_sigma_dot")

    def __init__(self, t, alpha, sigma, alpha_dot, sigma_dot):
        self.t = t
        self.alpha = alpha
        self.sigma = sigma
        self.alpha_dot = alpha_dot
        self._sigma_dot = sigma_dot

    @property
    def sigma_dot(self) -> float:
        if self._sigma_dot is None:
            raise IllConditionedMapError(
                "sigma_dot is singular at sigma(t) = 0", time=self.t
            )
        return self._sigma_dot


def path_scalars(schedule: Schedule, t: float) -> PathScalars:
    """alpha, sigma and their analytic derivatives at t in [0, 1], at once.

    One beta-integral evaluation serves all four values; the path methods
    of ``Schedule`` return its fields. Computed per call and never cached.
    """
    _check_time(t)
    if schedule.kind == LINEAR_INTERP:
        return PathScalars(t, 1.0 - t, t, -1.0, 1.0)
    a = math.exp(-0.5 * schedule._beta_integral(t))
    s = math.sqrt(max(1.0 - a * a, 0.0))
    ad = -0.5 * schedule.beta(t) * a
    return PathScalars(t, a, s, ad, None if s == 0.0 else -a * ad / s)


def derivatives(schedule: Schedule, t: float) -> tuple[float, float]:
    """Backward finite-difference (alpha_dot, sigma_dot) with step fd_step."""
    h = schedule.fd_step
    if t - h < 0.0:
        raise DomainError(f"t - fd_step = {t - h} below 0")
    now, before = path_scalars(schedule, t), path_scalars(schedule, t - h)
    return (now.alpha - before.alpha) / h, (now.sigma - before.sigma) / h


def _guard(value: float, name: str, floor: float, t: float):
    if value < floor:
        raise IllConditionedMapError(
            f"{name}(t) = {value:.3e} below floor {floor:.3e} at t = {t}", time=t
        )


def coefficient(
    kind: str, schedule: Schedule, t: float, derivative_mode: str = "analytic"
) -> float:
    """Time-only scalar mapping a head residual into velocity units.

    Per kind (generation-direction, any schedule):

        noise_eps    (alpha_dot / alpha) * sigma - sigma_dot
        data_x0      (alpha / sigma) * sigma_dot - alpha_dot
        v_pred       (alpha_dot * sigma - alpha * sigma_dot) / (alpha^2 + sigma^2)
        score        sigma * sigma_dot - (alpha_dot / alpha) * sigma^2
        velocity     1.0
        consistency  alias of data_x0

    The guard set is exactly the divisors of the chosen kind's formula
    (plus sigma for any kind on vp schedules, whose analytic sigma_dot
    divides by sigma).
    """
    if kind not in PARAMETERIZATION_KINDS:
        raise DomainError(f"unknown parameterization kind {kind!r}")
    _check_time(t)
    if kind == VELOCITY:
        return 1.0
    if kind == CONSISTENCY:
        kind = DATA_X0

    scalars = path_scalars(schedule, t)
    a, s = scalars.alpha, scalars.sigma
    floor = schedule.alpha_floor

    if schedule.is_vp and derivative_mode == "analytic":
        # simplified closed forms; all need sigma except score, which reduces
        # to a function of beta and alpha alone
        b = schedule.beta(t)
        if kind == SCORE:
            return 0.5 * b
        _guard(s, "sigma", floor, t)
        if kind == NOISE_EPS:
            _guard(a, "alpha", floor, t)
            return -0.5 * b / s
        if kind == DATA_X0:
            return 0.5 * b * a / (s * s)
        if kind == V_PRED:
            return -0.5 * b * a / s

    if derivative_mode == "analytic":
        ad, sd = scalars.alpha_dot, scalars.sigma_dot
    elif derivative_mode == "fd":
        ad, sd = derivatives(schedule, t)
    else:
        raise DomainError(f"unknown derivative_mode {derivative_mode!r}")
    if kind == NOISE_EPS:
        _guard(a, "alpha", floor, t)
        return (ad / a) * s - sd
    if kind == DATA_X0:
        _guard(s, "sigma", floor, t)
        return (a / s) * sd - ad
    if kind == V_PRED:
        return (ad * s - a * sd) / (a * a + s * s)
    if kind == SCORE:
        _guard(a, "alpha", floor, t)
        return s * sd - (ad / a) * s * s
    raise AssertionError("unreachable")


def epsilon_coefficient_forms(schedule: Schedule, t: float) -> tuple[float, float, float]:
    """The three equivalent noise-head coefficient forms on a vp schedule.

    Returns (general, vp_form, beta_form) where
        general   (alpha_dot / alpha) * sigma - sigma_dot   (analytic derivatives)
        vp_form   alpha_dot / (alpha * sigma)
        beta_form -beta / (2 * sigma)
    They agree identically on variance-preserving paths.
    """
    if not schedule.is_vp:
        raise DomainError("the vp/beta forms are only defined for vp schedules")
    scalars = path_scalars(schedule, t)
    a, s = scalars.alpha, scalars.sigma
    _guard(a, "alpha", schedule.alpha_floor, t)
    _guard(s, "sigma", schedule.alpha_floor, t)
    ad, sd = scalars.alpha_dot, scalars.sigma_dot
    general = (ad / a) * s - sd
    vp_form = ad / (a * s)
    beta_form = -schedule.beta(t) / (2.0 * s)
    return general, vp_form, beta_form


def load_beta_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (t, beta) CSV with a mandatory header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DomainError(f"empty beta table {path}")
    header = rows[0]
    if len(header) != 2:
        raise DomainError("beta table must have exactly two columns")
    try:
        float(header[0])
    except ValueError:
        pass  # non-numeric first row is the expected header
    else:
        raise DomainError("beta table must start with a header row")
    times, betas = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DomainError(f"beta table row {i} does not have two columns")
        times.append(float(row[0]))
        betas.append(float(row[1]))
    t = np.asarray(times)
    if t.size >= 2 and not np.all(np.diff(t) > 0):
        raise DomainError("beta table times must be strictly increasing")
    return t, np.asarray(betas)
