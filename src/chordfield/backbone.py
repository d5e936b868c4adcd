"""Analytic Gaussian-mixture flow standing in for a one-step generative model.

Each condition ("src" / "tar") owns an isotropic Gaussian mixture over data
space. Noising the mixture along the schedule keeps every marginal a mixture
of Gaussians, so posterior means, probability-flow velocities and all model
heads are available in closed form. The model exposes the same observable
surface a distilled text-to-image backbone would: a single head selected by
``output_kind`` whose residual between conditions, scaled by the matching
time-only coefficient, reproduces the velocity residual exactly.

``posterior_x0``, ``posterior_eps``, ``velocity``, ``observable`` and
``delta_drift`` take one query (d,) or rows (..., d), d the model's dimension;
each row's result is bit-identical to that of the row queried alone. Each is a
head of the posterior: data, velocity, the model's own, or the velocity
residual between conditions; ``_head`` alone chooses it.

The posterior kernel splits its work into what depends on the time only
(``_Stack.at``) and what depends on the rows. A model keeps the time-only
part of each query time the proxy field asks for, so a transport run, whose
query times never change, builds it once, and per draw count keeps it pinned
to the shapes of one anchor's kernel pass while that fits ``_PIN_BYTES``. The
kernel and the heads take pinned values, or those of times stacked on a leading
axis, as arrays, which take no scalar branch (sigma = 0, the eps-head floor), so
a time whose sigma is below the floor is queried with the floats.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePosteriorError, DomainError, IllConditionedMapError, _allocated
from .schedules import (
    CONSISTENCY,
    DATA_X0,
    NOISE_EPS,
    PARAMETERIZATION_KINDS,
    SCORE,
    V_PRED,
    VELOCITY,
    PathScalars,
    Schedule,
    coefficient,
    evaluate,
    path_scalars,
)

SRC = "src"
TAR = "tar"
# the routine np.einsum hands a call to when not optimising, without its Python layers
_einsum = getattr(np._core.multiarray, "c_einsum", np.einsum)
# query times whose constants one model keeps; past this many it starts over
_TIME_ENTRIES = 64
# most bytes of pins a model keeps for one (time, draw count), 16 MiB over _TIME_ENTRIES;
# queries past it take the floats, as pins built for one query cost more than they save
_PIN_BYTES = (16 << 20) // _TIME_ENTRIES
# held while a model's per-time entries are trimmed and added to
_TIMES_LOCK = threading.Lock()


@dataclass
class GaussianMixtureCondition:
    """Isotropic Gaussian mixture: weights (K,), means (K, d), scales (K,)."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        k = self.weights.shape[0]
        if self.means.shape[0] != k or self.scales.shape[0] != k:
            raise DomainError("weights, means and scales must share the component axis")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise DomainError("weights must be positive and finite")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")
        if not np.all(np.isfinite(self.means)):
            raise DomainError("means must be finite")
        if not np.all(np.isfinite(self.scales)) or np.any(self.scales <= 0):
            raise DomainError("scales must be positive and finite")
        self._stack = _Stack((self,))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class BackboneModel:
    """Schedule plus a source and a target mixture, with one observable head.

    The schedule, the mixtures and the head are read when the model is built
    and when a query time is first used; build a new model to change them.
    """

    schedule: Schedule
    source: GaussianMixtureCondition
    target: GaussianMixtureCondition
    output_kind: str = VELOCITY

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise DomainError("source and target mixtures must share the dimension")
        if self.output_kind not in PARAMETERIZATION_KINDS:
            raise DomainError(f"unknown output kind {self.output_kind!r}")
        self._pair = _Stack((self.target, self.source))
        self._times, self._pins = {}, {}

    @property
    def dim(self) -> int:
        return self.source.dim

    def _time_entry(self, t: float):
        """(coefficient, PathScalars, ``_pair`` slice) at query time t.

        Built the first time t is asked for and kept; a build that raises
        keeps nothing, so the error comes again on every call. -0.0 and 0.0
        are separate entries, since sigma keeps the sign of t on the linear
        path.
        """
        key = t if t != 0.0 else (t, math.copysign(1.0, t))
        entry = self._times.get(key)
        if entry is None:
            a_t = coefficient(self.output_kind, self.schedule, t)
            scalars = path_scalars(self.schedule, t)
            entry = (a_t, scalars, self._pair.at(scalars.alpha, scalars.sigma))
            with _TIMES_LOCK:
                if len(self._times) >= _TIME_ENTRIES:
                    self._times.clear()
                    self._pins.clear()
                self._times[key] = entry
        return entry

    def _time_values(self, t: float, n: int):
        """alpha, sigma, coefficient, PathScalars and ``_pair`` slice at t for n draws: pinned
        and kept by (t, n) where sigma clears the floor and they fit; else the floats."""
        values = self._pins.get((t, n))
        if values is None:
            entry = a_t, s, pair = self._time_entry(t)
            values = (s.alpha, s.sigma, a_t, s, pair)
            # alpha and sigma (n, d), the path scalars (n, 2, d) and the slice, 8 bytes each
            fits = 8 * n * (10 * self.dim + sum(map(np.size, pair))) <= _PIN_BYTES
            if s.sigma >= self.schedule.alpha_floor and fits:
                values = self._pin((), n, entry)
                with _TIMES_LOCK:
                    if len(self._pins) >= _TIME_ENTRIES:
                        self._pins.clear()
                    self._pins[t, n] = values
        return values

    def _pin(self, rows: tuple, n: int, entry):
        """A ``_time_entry`` (its arrays may lead with axes that meet those of rows) as fresh
        read-only ``_time_values`` of the shapes a kernel pass over rows of n draws meets:
        rows + (n, d), rows + (d,), rows + (n, 2 mixtures, d) and rows + (n, ...)."""
        (a_t, s, pair), lead, d = entry, len(rows), self.dim
        values = (s.alpha, s.sigma, a_t, s.alpha, s.sigma, s.alpha_dot, s.sigma_dot, *pair)
        tails = [(n, d)] * 2 + [(d,)] + [(n, 2, d)] * 4 + [(n,) + np.shape(v)[lead:] for v in pair]
        pins = []
        for value, tail in zip(values, tails):
            own = np.shape(value)[lead:]  # the axes after those that meet rows
            value = np.reshape(value, np.shape(value)[:lead] + (1,) * (len(tail) - len(own)) + own)
            pins.append(_allocated(f"pins of shape {rows + tail}", np.full, rows + tail, value))
            pins[-1].setflags(write=False)
        return (*pins[:3], PathScalars(s.t, *pins[3:7]), pair._make(pins[7:]))

    def condition(self, which: str) -> GaussianMixtureCondition:
        if which == SRC:
            return self.source
        if which == TAR:
            return self.target
        raise DomainError(f"condition must be 'src' or 'tar', got {which!r}")


def marginal_moments(
    cond: GaussianMixtureCondition, component: int, schedule: Schedule, t: float
) -> tuple[np.ndarray, float]:
    """Noised mean and isotropic variance of one mixture component."""
    if not (0 <= component < cond.n_components):
        raise DomainError(f"component {component} out of range")
    at = cond._stack.at(*evaluate(schedule, t))
    return at.alpha_means[component], float(at.variances[component])


class _Slice(NamedTuple):
    """A stack's constants at one time: alpha, sigma, ``alpha * means`` (K, d), the noised
    variances (K,), the log-normalisers ``d * log(2 pi var)`` (K,), the posterior pull
    ``alpha * scales^2 / var`` and the means (both (K, d)) and the log-weights (K,); each
    array may come broadcast to the rows it meets."""

    alpha: float
    sigma: float
    alpha_means: np.ndarray
    variances: np.ndarray
    log_norm: np.ndarray
    pull: np.ndarray
    means: np.ndarray
    log_weights: np.ndarray


class _Stack:
    """The components of one or more mixtures on one axis, and the posterior
    kernel over them.

    Holds what no query changes (means, squared scales, log-weights, where
    each mixture starts and which mixture owns each component); it is built
    once, with the mixture or model that owns it. ``at`` adds what one time
    fixes. A query is an array of rows of shape (..., d). Every step is
    elementwise or a reduction within one row in a fixed order, so a row's
    result does not depend on how many rows come with it.
    """

    def __init__(self, mixtures):
        sizes = [m.n_components for m in mixtures]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.means = np.concatenate([m.means for m in mixtures])
        self.scales_sq = np.concatenate([m.scales for m in mixtures]) ** 2
        self.log_weights = np.log(np.concatenate([m.weights for m in mixtures]))

    def at(self, alpha: float, sigma: float) -> _Slice:
        """The time-only constants for the schedule scalars alpha and sigma."""
        variances = alpha * alpha * self.scales_sq + sigma * sigma
        return _Slice(
            alpha,
            sigma,
            alpha * self.means,
            variances,
            self.means.shape[1] * np.log(2.0 * math.pi * variances),
            np.broadcast_to((alpha * self.scales_sq / variances)[:, None], self.means.shape),
            self.means,
            self.log_weights,
        )

    def log_mass(self, z: np.ndarray, at: _Slice):
        """Log of weight times noised kernel at each row, per stacked
        component (..., K), with the offsets ``z - alpha * means`` (..., K, d)
        it was computed from; both are fresh arrays."""
        diff = z[..., None, :] - at.alpha_means
        log_mass = _einsum("...kd,...kd->...k", diff, diff)
        log_mass /= at.variances
        log_mass += at.log_norm
        log_mass *= -0.5
        log_mass += at.log_weights
        return log_mass, diff

    def responsibilities(self, z: np.ndarray, at: _Slice):
        """Component weights (..., K), each mixture normalised on its own, and the offsets."""
        weights, diff = self.log_mass(z, at)
        peaks = np.maximum.reduceat(weights, self.starts, axis=-1)
        # max-subtraction keeps far-tail queries finite; only a non-finite
        # peak (every component at -inf, where a linear-space computation
        # would already have returned 0/0 = NaN; no log mass is +inf) is
        # genuinely degenerate, unless the query itself was not finite
        if not np.minimum.reduce(peaks, axis=None, initial=math.inf) > -math.inf:
            if not np.isfinite(z).all():
                raise DomainError("posterior query must be finite")
            raise DegeneratePosteriorError(
                "posterior mass underflowed for every mixture component"
            )
        weights -= peaks.take(self.owner, -1)
        np.exp(weights, out=weights)
        weights /= np.add.reduceat(weights, self.starts, axis=-1).take(self.owner, -1)
        return weights, diff

    def x0(self, z: np.ndarray, at: _Slice) -> np.ndarray:
        """E[x0 | z] under each mixture, for each row: shape (..., mixtures, d)."""
        if not isinstance(at.sigma, np.ndarray) and at.sigma == 0.0:
            return np.repeat((z / at.alpha)[..., None, :], self.starts.size, axis=-2)
        resp, component_means = self.responsibilities(z, at)
        component_means *= at.pull
        component_means += at.means
        component_means *= resp[..., None]
        return np.add.reduceat(component_means, self.starts, axis=-2)


def _eps(z: np.ndarray, x0: np.ndarray, scalars: PathScalars) -> np.ndarray:
    """The path noise (z - alpha x0) / sigma implied by z and E[x0|z]."""
    eps = scalars.alpha * x0
    return np.divide(np.subtract(z, eps, out=eps), scalars.sigma, out=eps)


def _head(
    model: BackboneModel,
    z: np.ndarray,
    x0: np.ndarray,
    scalars: PathScalars,
    kind: str | None = None,
) -> np.ndarray:
    """The ``kind`` head (the model's ``output_kind`` unless given) at z, given
    the posterior mean x0 there. The velocity head is the generation-direction
    drift -(alpha_dot x0 + sigma_dot eps)."""
    kind = kind or model.output_kind
    if kind in (DATA_X0, CONSISTENCY):
        return x0
    a, s = scalars.alpha, scalars.sigma
    scalar = not isinstance(s, np.ndarray)
    if kind == VELOCITY:
        if scalar and s == 0.0:
            return -scalars.alpha_dot * x0
        drift = _eps(z, x0, scalars)
        drift *= scalars.sigma_dot
        drift += scalars.alpha_dot * x0
        return np.negative(drift, out=drift)
    if scalar and s < model.schedule.alpha_floor:
        raise IllConditionedMapError(
            f"sigma(t) = {s:.3e} below floor for the {kind} head", time=scalars.t
        )
    eps = _eps(z, x0, scalars)
    if kind == NOISE_EPS:
        return eps
    if kind == V_PRED:
        return a * eps - s * x0
    if kind == SCORE:
        return -eps / s
    raise AssertionError("unreachable")


def _observe(
    model: BackboneModel,
    mixture: GaussianMixtureCondition,
    z: np.ndarray,
    scalars: PathScalars,
    kind: str | None = None,
) -> np.ndarray:
    """The ``kind`` head of one mixture at each row of z, from its posterior mean."""
    stack = mixture._stack
    x0 = stack.x0(z, stack.at(scalars.alpha, scalars.sigma))[..., 0, :]
    return _head(model, z, x0, scalars, kind)


def _rows(model: BackboneModel, z) -> np.ndarray:
    """z as float rows (..., d); ``DomainError``, naming the last axis, unless it is d."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (model.dim,):
        raise DomainError(f"a last axis {z.shape[-1:]} is not the anchor dimension ({model.dim},)")
    return z


def _query(
    model: BackboneModel, z: np.ndarray, t: float, cond: str, kind: str | None = None
) -> np.ndarray:
    """The ``kind`` head of condition ``cond`` at each row of z at time t."""
    z = _rows(model, z)
    mixture = model.condition(cond)
    return _observe(model, mixture, z, path_scalars(model.schedule, t), kind)


def _head_residual(
    model: BackboneModel,
    z: np.ndarray,
    scalars: PathScalars,
    pair: _Slice | None = None,
    kind: str | None = None,
) -> np.ndarray:
    """The ``kind`` head of tar minus that of src at each row of z, from one pass
    over both conditions' stacked components; ``pair`` is ``model._pair``'s slice
    at ``scalars``, built here when not given."""
    if pair is None:
        pair = model._pair.at(scalars.alpha, scalars.sigma)
    heads = _head(model, z[..., None, :], model._pair.x0(z, pair), scalars, kind)
    return heads[..., 0, :] - heads[..., 1, :]


def posterior_x0(model: BackboneModel, z: np.ndarray, t: float, cond: str) -> np.ndarray:
    """Posterior mean of the clean state given the noised query z at time t."""
    return _query(model, z, t, cond, DATA_X0)


def posterior_eps(model: BackboneModel, z: np.ndarray, t: float, cond: str) -> np.ndarray:
    """Posterior mean of the path noise; zero by convention when sigma = 0."""
    z = _rows(model, z)
    # the condition is read first, so that a bad one fails whatever sigma is
    mixture, scalars = model.condition(cond), path_scalars(model.schedule, t)
    if scalars.sigma == 0.0:
        return np.zeros_like(z)
    return _eps(z, _observe(model, mixture, z, scalars, DATA_X0), scalars)


def velocity(model: BackboneModel, z: np.ndarray, t: float, cond: str) -> np.ndarray:
    """Generation-direction marginal flow drift at (z, t) under one condition.

    Equals -(alpha_dot * E[x0|z] + sigma_dot * E[eps|z]): the drift that moves
    the state toward the clean data of the chosen condition.
    """
    return _query(model, z, t, cond, VELOCITY)


def observable(model: BackboneModel, z: np.ndarray, t: float, cond: str) -> np.ndarray:
    """The model head selected by ``output_kind``, all from one posterior.

    x0 head: E[x0|z];  eps head: (z - alpha x0) / sigma;
    v head: alpha eps - sigma x0;  score head: -eps / sigma;
    velocity head: the ``velocity`` drift. The eps, v and score heads require
    sigma(t) at or above the schedule floor.
    """
    return _query(model, z, t, cond)


def delta_drift(model: BackboneModel, z: np.ndarray, t: float) -> np.ndarray:
    """Velocity residual between target and source conditions at (z, t)."""
    z = _rows(model, z)
    return _head_residual(model, z, path_scalars(model.schedule, t), kind=VELOCITY)


def log_marginal_density(
    model: BackboneModel, z: np.ndarray, t: float, cond: str
) -> float | np.ndarray:
    """Log density of the noised mixture marginal (diagnostic helper): a float
    for one state (d,), an array (...) for rows (..., d)."""
    z = _rows(model, z)
    mixture = model.condition(cond)
    stack = mixture._stack
    log_mass, _ = stack.log_mass(z, stack.at(*evaluate(model.schedule, t)))
    peak = np.max(log_mass, axis=-1, keepdims=True)
    return peak[..., 0] + np.log(np.sum(np.exp(log_mass - peak), axis=-1))


def sample_condition(
    cond: GaussianMixtureCondition, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Fill ``out``, of shape (count, d), with ``count`` points drawn from the
    mixture using the supplied generator, and return it."""
    count = out.shape[0]
    comps = rng.choice(cond.n_components, size=count, p=cond.weights)
    eps = rng.standard_normal((count, cond.dim))
    return np.add(cond.means[comps], cond.scales[comps, None] * eps, out=out)
