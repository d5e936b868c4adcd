"""Shared-noise Monte Carlo estimation of the editing proxy field.

The proxy field at an anchor x and query time t is the expectation, over the
noising kernel, of the coefficient-mapped head residual between the target
and source conditions. Using the *same* noise draw for both conditions (and,
by default, for both query times of a chord evaluation) is a common-random-
numbers scheme that strictly reduces the estimator variance.

Randomness is generated by the Philox 4x64 counter-based generator. Draw i of
a batch is keyed by the 128-bit pair ``(seed, i)`` and its coordinates are
read in order from that stream, so draws are bit-reproducible and independent
of evaluation order. One generator, re-keyed per key, makes every draw of the
package: the noise batches, the per-trial noise, particle sampling and the
diagnostics profile. Auxiliary streams (proximal refinement noise, particle
sampling, decoupling ablations, per-trial noise) derive their own 64-bit seed
from the user seed through a splitmix-style mix with a namespaced label.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import repeat

import numpy as np

from .backbone import BackboneModel, _head_residual, _observe, _rows
from .errors import DomainError, _allocated
from .schedules import PathScalars, Schedule, path_scalars

_MASK64 = (1 << 64) - 1

# stream namespaces for derived seeds
NS_PARTICLE = 1
NS_PROX = 2
NS_TIME_DECOUPLE = 3
NS_COND_DECOUPLE = 4
NS_TRIAL = 5
NS_CELL = 6


def _mix64(x: int) -> int:
    # also takes 1-d uint64 arrays, which wrap as the masks do (a 0-d product
    # would warn on overflow)
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def derive_stream(seed: int, namespace: int, index: int = 0) -> int:
    """Deterministic 64-bit sub-seed for (seed, namespace, index)."""
    label = ((namespace & 0xFFFFFFFF) << 32) | (index & 0xFFFFFFFF)
    return _mix64((seed & _MASK64) ^ _mix64(label))


def _uint64s(values) -> np.ndarray:
    """``values`` modulo 2**64 as a 1-d uint64 array: an int as one entry, a
    range by wrapping arithmetic, any other sequence of ints entry by entry."""
    if isinstance(values, range):
        steps = np.arange(len(values), dtype=np.uint64)
        steps *= np.uint64(values.step & _MASK64)
        return steps + np.uint64(values.start & _MASK64)
    if isinstance(values, (int, np.integer)):
        values = [values]
    return np.array([v & _MASK64 for v in values], dtype=np.uint64)


def _derive_streams(seeds, namespace: int, indices) -> list[int]:
    """``derive_stream(seed, namespace, index)`` over ``seeds`` and ``indices``
    broadcast against each other, in one array pass: each an int, a range or
    a sequence of ints. The sub-seeds are Python ints, bit-equal to the calls'."""
    labels = _uint64s(indices) & np.uint64(0xFFFFFFFF)
    labels |= np.uint64((namespace & 0xFFFFFFFF) << 32)
    return _mix64(_uint64s(seeds) ^ _mix64(labels)).tolist()


# held while the shared generator is re-keyed and drawn from
_PHILOX_LOCK = threading.Lock()


@cache
def _shared_generator() -> np.random.Generator:
    """The one Philox generator of the package, re-keyed per draw by ``_philox_fill``.

    Setting its state costs a fraction of building a generator, and a draw
    made after the reset (counter zeroed, key (seed, i), buffer emptied) is
    bit-identical to one from a fresh ``Philox(key=(seed, i))``. Built on first
    use, so that importing the package does not import ``numpy.random``.
    """
    return np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))


class _once:
    """An attribute computed by ``func(instance)`` at first read and kept in the
    instance's ``__dict__``, which later reads find first, as this defines no ``__set__``.
    Unlike ``functools.cached_property`` it takes no lock: threads that race on a first read
    each compute the value, and the last one keeps its own."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass
class SharedNoiseBatch:
    """n standard-normal vectors in R^dim, deterministic in (seed, n, dim)."""

    seed: int
    n: int
    dim: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("a noise batch needs n >= 1 draws")
        if self.dim < 1:
            raise DomainError("a noise batch needs dim >= 1")

    @_once
    def draws(self) -> np.ndarray:
        # allocated before any of the n keys is made: a count too large to
        # hold fails at once
        out = _allocated(f"{self.n} noise draws", np.empty, (self.n, self.dim))
        _philox_fill(out, zip(repeat(self.seed & _MASK64), range(self.n)))
        out.setflags(write=False)
        return out


class _RowsBatch:
    """Rows' draws (P, n, d), stacked at first read: row i the ``draws`` of ``batches[i]``."""

    def __init__(self, batches):
        self.batches, self.n, self.dim = batches, batches[0].n, batches[0].dim

    @_once
    def draws(self) -> np.ndarray:
        return _allocated("rows of noise draws", np.stack, [b.draws for b in self.batches])


def _philox_normals(keys, shape) -> np.ndarray:
    """Standard normals of shape ``(len(keys), *shape)``: entry i holds what a
    fresh ``Philox(key=keys[i])`` generator draws first, in C order."""
    return _philox_fill(np.empty((len(keys),) + tuple(shape)), keys)


# one state of plain ints, of which only the key changes, under _PHILOX_LOCK:
# the setter reads plain ints faster than the elements of uint64 arrays
_PHILOX_ZEROS = (0, 0, 0, 0)
_PHILOX_KEYED = {"counter": _PHILOX_ZEROS, "key": None}
_PHILOX_STATE = {
    "bit_generator": "Philox",
    "state": _PHILOX_KEYED,
    "buffer": _PHILOX_ZEROS,
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def _philox_fill(out: np.ndarray, keys, draw=None):
    """``out`` with entry i filled by ``draw(gen, out[i])``, standard normals by
    default, where ``gen`` is the shared generator re-keyed to key pair i of
    ``keys``, an iterable: it draws what a fresh ``Philox(key=pair)`` would."""
    gen = _shared_generator()
    bits, normal = gen.bit_generator, gen.standard_normal
    with _PHILOX_LOCK:
        for i, pair in enumerate(keys):
            _PHILOX_KEYED["key"] = pair
            bits.state = _PHILOX_STATE
            if draw is None:
                normal(out=out[i])
            else:
                draw(gen, out[i])
    return out


@dataclass
class ProxyField:
    """Proxy-field estimates at one anchor over a set of query times."""

    samples: dict = field(default_factory=dict)

    def series(self) -> list[tuple[float, np.ndarray]]:
        return sorted(self.samples.items())


def noising_sample(
    schedule: Schedule, x_tau: np.ndarray, t: float, eps: np.ndarray
) -> np.ndarray:
    """One draw of the forward noising kernel: alpha(t) x + sigma(t) eps; x and eps end in d."""
    x_tau, eps = np.asarray(x_tau, dtype=float), np.asarray(eps, dtype=float)
    if x_tau.shape[-1:] != eps.shape[-1:]:
        raise DomainError(f"noise of shape {eps.shape} does not match the state's {x_tau.shape}")
    scalars = path_scalars(schedule, t)
    return scalars.alpha * x_tau + scalars.sigma * eps


def proxy_field(
    model: BackboneModel, x_tau: np.ndarray, t: float, batch: SharedNoiseBatch
) -> np.ndarray:
    """Shared-noise Monte Carlo estimate of the proxy field at (x_tau, t).

    Averages the head residual over the batch draws (identical draws for both
    conditions) and scales by the head's comparison-domain coefficient. For a
    velocity-head model this is exactly the mean of the velocity residual.
    ``x_tau`` is one anchor (d,) or rows of anchors (..., d), or (P, d) under the per-row
    draws (P, n, d) of a ``_RowsBatch``; every anchor and draw goes through the posterior in
    one pass, and each row's estimate is bit-identical to that of the anchor queried alone.
    Errors come in one order: the anchor dimension, then t's values, then the draws.
    """
    x_tau = _rows(model, x_tau)
    if batch.dim != model.dim:
        raise DomainError("anchor dimension does not match the noise batch")
    rows = x_tau.shape[:-1]
    alpha, sigma, a_t, scalars, pair = model._time_values(t, batch.n, rows)
    return _estimate(model, x_tau, alpha, sigma * batch.draws, a_t, scalars, pair)


def _estimate(model, x_tau, alpha, noise, a_t, scalars, pair):
    """a_t times the draw mean of the head residual at z = alpha x + noise, one time's or stacked."""
    z = alpha * x_tau[..., None, :] + noise
    rows, n = _head_residual(model, z, scalars, pair), z.shape[-2]
    # one draw is its own mean: _draw_sum's + 0.0, but no sum and no divide by 1
    estimate = rows[..., 0, :] + 0.0 if n == 1 else _draw_sum(rows) / n
    return np.multiply(estimate, a_t, out=estimate)


def _two_time_pass(model, t, delta, batch_prev, batch_curr):
    """``_estimate``'s values for rows (2, k, d) at t - delta and t, by k, pinned by the model
    (the times on axis 0) and kept for the last k, the only per-draw values held; None (two
    queries), before a draw is read, where a time's values fail or its sigma is below the floor."""
    try:
        (a_p, s_p, at_p), (a_t, s_t, at_t) = (model._time_entry(u) for u in (t - delta, t))
    except (DomainError, ArithmeticError):
        return None
    if min(s_p.sigma, s_t.sigma) < model.schedule.alpha_floor:
        return None
    draws = batch_prev.draws, batch_curr.draws
    four = np.array([[s.alpha, s.sigma, s.alpha_dot, s.sigma_dot] for s in (s_p, s_t)]).T[..., None]
    at = at_p._make(np.stack(values)[:, None] for values in zip(at_p, at_t))
    entry = np.array([[a_p], [a_t]]), PathScalars((t - delta, t), *four), at

    @lru_cache(maxsize=1)
    def shaped(k):
        alpha, sigma, *rest = model._pin((2, k), batch_curr.n, entry, 2)
        noise = sigma * np.stack(draws)[:, None]  # each time's own draws on every row
        noise.setflags(write=False)
        return alpha, noise, *rest

    return shaped


def _draw_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the draw axis -2, added draw by draw in order as a loop from
    zero would (the final ``+ 0.0`` turns a -0.0 total into that loop's 0.0)."""
    return np.add.accumulate(rows, axis=-2)[..., -1, :] + 0.0


def proxy_field_decoupled(
    model: BackboneModel,
    x_tau: np.ndarray,
    t: float,
    batch_tar: SharedNoiseBatch,
    batch_src: SharedNoiseBatch,
) -> np.ndarray:
    """Independent-noise variant: separate draws per condition.

    Exists to quantify the variance penalty of giving up common random
    numbers; not used by the transport path. ``x_tau`` is one anchor (d,) or
    rows (..., d), each row's estimate bit-identical to the row's alone.
    """
    x_tau = _rows(model, x_tau)
    if batch_tar.n != batch_src.n or {batch_tar.dim, batch_src.dim} != {model.dim}:
        raise DomainError("decoupled batches must have equal draw counts and the anchor dimension")
    a_t, scalars, _ = model._time_entry(t)
    z_tar = scalars.alpha * x_tau[..., None, :] + scalars.sigma * batch_tar.draws
    z_src = scalars.alpha * x_tau[..., None, :] + scalars.sigma * batch_src.draws
    residual = _observe(model, model.target, z_tar, scalars) - _observe(
        model, model.source, z_src, scalars
    )
    return a_t * (_draw_sum(residual) / batch_tar.n)


def sample_proxy_field(
    model: BackboneModel,
    x_tau: np.ndarray,
    times: list[float],
    batch: SharedNoiseBatch,
) -> ProxyField:
    """Evaluate the proxy field at several query times with one shared batch."""
    samples = {float(t): proxy_field(model, x_tau, float(t), batch) for t in times}
    return ProxyField(samples=samples)
