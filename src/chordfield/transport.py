"""One-step transport under the chord control field.

The full edit is a single explicit Euler step of size ``step_scale`` along
the chord field evaluated at the source anchor, optionally followed by one
denoising refinement under the target condition. Multi-step variants split
the step scale and re-anchor the field at the current state each sub-step;
the query times stay fixed (the estimator is defined at one noise level).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneModel, sample_condition, velocity
from .chord import ChordParams, chord_field
from .errors import DivergenceError, DomainError
from .proxy import (
    NS_PARTICLE,
    NS_PROX,
    NS_TIME_DECOUPLE,
    SharedNoiseBatch,
    _estimate,
    derive_stream,
    proxy_field,
)
from .schedules import PathScalars

# states beyond this norm abort loudly instead of silently overflowing
DIVERGENCE_NORM = 1e6

NAIVE = "naive"
CHORD = "chord"
FIELD_KINDS = (NAIVE, CHORD)


@dataclass
class TransportResult:
    """Outcome of one transport: pre/post refinement states and the field."""

    x_pred: np.ndarray
    x_out: np.ndarray
    u_hat: np.ndarray
    fields_queried: list[tuple[float, np.ndarray]]
    energy: float


@dataclass
class ParticleSet:
    """Sampled points plus the provenance needed to reproduce them."""

    points: np.ndarray
    provenance: dict


def sample_particles(model: BackboneModel, count: int, seed: int) -> ParticleSet:
    """Draw ``count`` source-condition samples with a dedicated sub-stream."""
    if count < 1:
        raise DomainError("particle count must be >= 1")
    gen = np.random.Generator(
        np.random.Philox(
            key=np.array([derive_stream(seed, NS_PARTICLE), 0], dtype=np.uint64)
        )
    )
    points = sample_condition(model.source, count, gen)
    return ParticleSet(
        points=points,
        provenance={"seed": seed, "count": count, "condition": "src"},
    )


def particle_seed(seed: int, index: int) -> int:
    """Per-particle transport seed, independent of processing order."""
    return derive_stream(seed, NS_PARTICLE, index + 1)


def _batches(params: ChordParams, seed: int, dim: int):
    """Noise batches for the two query times (shared by default)."""
    if params.share_noise_across_times:
        batch = SharedNoiseBatch(seed=seed, n=params.n, dim=dim)
        return batch, batch
    return (
        SharedNoiseBatch(derive_stream(seed, NS_TIME_DECOUPLE, 0), params.n, dim),
        SharedNoiseBatch(derive_stream(seed, NS_TIME_DECOUPLE, 1), params.n, dim),
    )


def make_control_field(
    model: BackboneModel, params: ChordParams, field_kind: str | tuple[str, ...], seed: int
):
    """Autonomous control field x -> u(x) with frozen noise draws.

    The naive field is the raw proxy field at the main query time; the chord
    field blends the queries at t - delta and t. For one kind (a string) the
    returned callable takes one state (d,) or rows of states (..., d); for a
    tuple of distinct kinds it takes rows (..., len(kinds), d), no other shape,
    evaluates kind j on [..., j, :] and sends both times through one kernel pass.
    Each row's value is bit-identical to that of the row alone under its
    kind's own field. An optional pseudo-time argument is ignored, so that
    integrators can treat the field like any other; its ``autonomous``
    attribute is True to say so.
    """
    single = not isinstance(field_kind, tuple)
    kinds = (field_kind,) if single else field_kind
    if not kinds or not all(kind in FIELD_KINDS for kind in kinds):
        raise DomainError(f"field kinds must be drawn from {FIELD_KINDS}")
    if len(set(kinds)) < len(kinds):
        raise DomainError("field kinds must be distinct")
    t, delta, dim = params.t, params.delta, model.dim
    batch_prev, batch_curr = _batches(params, seed, dim)
    # the chord rows as a basic index, so selecting them makes a view
    chord = fused = None
    if CHORD in kinds:
        j = kinds.index(CHORD)
        chord = Ellipsis if single else (Ellipsis, slice(j, j + 1), slice(None))
        fused = None if single else _two_time_pass(model, t, delta, batch_prev, batch_curr)

    def field(x, s=0.0):
        x = np.asarray(x, dtype=float)
        if not single and x.shape[-2:] != (len(kinds), dim):
            raise DomainError(
                f"rows {x.shape} are not (..., {len(kinds)} kinds, anchor dimension {dim})"
            )
        if fused is not None:
            # the chord rows (in every kind's place) at t - delta, then all at t
            rows = np.empty((2,) + x.shape)
            rows[0], rows[1] = x[chord], x
            both = _estimate(model, rows.reshape(2, -1, dim), *fused(x.size // dim)).reshape(rows.shape)
            r_prev, u = both[0][chord], both[1]
        else:
            u = proxy_field(model, x, t, batch_curr)
            if chord is None:
                return u
            r_prev = proxy_field(model, x[chord], t - delta, batch_prev)
        blend = chord_field(r_prev, u[chord], t, delta)
        if kinds == (CHORD,):
            # every row is a chord row: the blend is the whole field
            return blend
        u[chord] = blend
        return u

    field.autonomous = True
    return field


def _two_time_pass(model, t, delta, batch_prev, batch_curr):
    """``_estimate``'s values for rows (2, k, d) at t - delta and t, by k, read-only,
    broadcast to (2, k, n, ...) and kept for the last k; None (two queries) where
    a time's values fail to build or its sigma is below the floor."""
    try:
        (a_p, s_p, at_p), (a_t, s_t, at_t) = (model._time_entry(u) for u in (t - delta, t))
    except (DomainError, ArithmeticError):
        return None
    if min(s_p.sigma, s_t.sigma) < model.schedule.alpha_floor:
        return None
    # each time's values on axis 0, then axes for the rows and the draws
    time_only = np.array(
        [[s.alpha, s.sigma, s.alpha_dot, s.sigma_dot] for s in (s_p, s_t)]
    ).T.reshape(4, 2, 1, 1, 1, 1)
    noise = time_only[1, ..., 0] * np.stack((batch_prev.draws, batch_curr.draws))[:, None]
    at = at_p._make(np.stack(values)[:, None, None] for values in zip(at_p, at_t))

    @functools.lru_cache(maxsize=1)
    def shaped(k):
        rows, dim = (2, k, batch_curr.n), model.dim
        # the heads meet rows (2, k, n, mixtures, d), the queries (2, k, n, d)
        scalars = PathScalars((t - delta, t), *(_pinned(v, rows + (2, dim)) for v in time_only))
        return (
            scalars.alpha[..., 0, :],
            _pinned(noise, rows + (dim,)),
            _pinned(np.array([a_p, a_t])[:, None, None], (2, k, dim)),
            scalars,
            at._make(_pinned(v, rows + v.shape[3:]) for v in at),
        )

    return shaped


def _pinned(value, shape):
    """``value`` broadcast to ``shape``, as a fresh read-only array."""
    out = np.broadcast_to(value, shape).copy()
    out.setflags(write=False)
    return out


def proximal_refine(
    model: BackboneModel,
    x_pred: np.ndarray,
    t_c: float,
    seed: int,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """One denoising call under the target condition at refinement time t_c.

    Noises x_pred, one state (d,) or rows (..., d), with one fixed draw (an
    independent sub-stream of ``seed`` unless an explicit ``eps`` is supplied)
    and returns the target-posterior mean of the clean state.
    """
    if not (0.0 < t_c < 1.0):
        raise DomainError("t_c must lie in (0, 1)")
    x_pred = np.asarray(x_pred, dtype=float)
    if eps is None:
        eps = SharedNoiseBatch(seed=derive_stream(seed, NS_PROX), n=1, dim=model.dim).draws[0]
    scalars, at = model._refine_entry(t_c)
    z = scalars.alpha * x_pred + scalars.sigma * np.asarray(eps, dtype=float)
    return model.target._stack.x0(z, at)[..., 0, :]


def _guard_rows(x):
    """Whether each state of ``x``, one (d,) or rows (..., d), is finite and
    within ``DIVERGENCE_NORM``, shaped ``x.shape[:-1]``. Each row is judged by
    its own norm, so a row's verdict in a batch is its verdict alone; a NaN or
    infinite coordinate makes that norm NaN or infinite, which fails the test."""
    return np.sqrt(np.einsum("...d,...d->...", x, x)) <= DIVERGENCE_NORM


def _guard_state(x, last, context):
    """Reject a non-finite or runaway state, one (d,) or rows (k, d); the error
    carries ``last`` and, for rows, names the rows that tripped the guard."""
    ok = _guard_rows(x)
    if ok.all():
        return
    tripped = f" (rows {np.flatnonzero(~ok).tolist()})" if ok.ndim else ""
    raise DivergenceError(f"state diverged during {context}{tripped}", last_state=last)


def _finish(model, params, seed, x_src, u_hat, fields):
    x_pred = x_src + params.step_scale * u_hat
    _guard_state(x_pred, x_src, "the transport step")
    if params.use_prox:
        eps = None
        if params.prox_shared_noise:
            eps = SharedNoiseBatch(seed=seed, n=1, dim=model.dim).draws[0]
        x_out = proximal_refine(model, x_pred, params.t_c, seed, eps=eps)
    else:
        x_out = x_pred
    energy = float(u_hat @ u_hat) / model.dim
    return TransportResult(
        x_pred=x_pred,
        x_out=x_out,
        u_hat=u_hat,
        fields_queried=fields,
        energy=energy,
    )


def chordedit(
    model: BackboneModel, x_src: np.ndarray, params: ChordParams, seed: int
) -> TransportResult:
    """Single-step transport: estimate the chord field once, step, refine.

    Both query times reuse one shared noise batch of ``params.n`` draws; the
    whole run is a pure function of (inputs, seed).
    """
    x_src = np.asarray(x_src, dtype=float)
    batch_prev, batch_curr = _batches(params, seed, model.dim)
    r_prev = proxy_field(model, x_src, params.t - params.delta, batch_prev)
    r_curr = proxy_field(model, x_src, params.t, batch_curr)
    u_hat = chord_field(r_prev, r_curr, params.t, params.delta)
    fields = [(params.t - params.delta, r_prev), (params.t, r_curr)]
    return _finish(model, params, seed, x_src, u_hat, fields)


# chord_field is linear in its two inputs, so the mean of one chord field per
# draw is the chord field of the draw-averaged proxy fields: the multi-noise
# variant is the same estimator as the single-batch path.
chordedit_multi_noise = chordedit


def euler_march(field, x0: np.ndarray, h: float, steps: int):
    """The one explicit-Euler loop: ``steps`` steps of size ``h`` along
    dx/ds = field(x, s) from s = 0, for one state (d,) or rows (k, d).

    Returns the trajectory from ``x0`` on, the field at each step taken, and
    the live mask (a scalar for one state). A row that trips the guard stays
    at its last good state, where the field has already been evaluated, so
    each row's values are those of its own march; the march stops when no row
    is live.
    """
    x = np.array(x0, dtype=float)
    live = np.ones(x.shape[:-1], dtype=bool)
    trajectory, fields = [x], []
    s = 0.0
    for _ in range(steps):
        u = field(x, s)
        x_next = x + h * u
        live &= _guard_rows(x_next)
        if not live.any():
            break
        x = np.where(live[..., None], x_next, x)
        trajectory.append(x)
        fields.append(u)
        s += h
    return trajectory, fields, live


def multi_step_transport(
    model: BackboneModel,
    x_src: np.ndarray,
    params: ChordParams,
    steps: int,
    field_kind: str,
    seed: int,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split the step scale over ``steps`` sub-steps, re-anchoring each time.

    Every sub-step re-estimates the field at the current state (the anchor
    follows the trajectory) and advances by ``step_scale / steps`` times the
    field. Query times stay fixed. For one state ``x_src`` (d,), returns the
    trajectory (including the start point) and the per-sub-step fields.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    field = make_control_field(model, params, field_kind, seed)
    trajectory, fields, live = euler_march(field, x_src, params.step_scale / steps, steps)
    if not live:
        message = f"state diverged during sub-step {len(trajectory)}/{steps}"
        raise DivergenceError(message, last_state=trajectory[-1])
    return trajectory, fields


def integrate_rk4(field, x0: np.ndarray, s_from: float, s_to: float, steps: int):
    """Classic fixed-step fourth-order integration of dx/ds = field(x, s).

    ``x0`` is one state (d,) or rows of states (k, d), integrated together by
    a field that takes rows; each row's endpoint is bit-identical to that of
    its own run, and the batch raises ``DivergenceError`` when one row would.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    x = np.asarray(x0, dtype=float).copy()
    span = s_to - s_from
    h = span / steps
    for i in range(steps):
        # sub-times from the index, so the final evaluation lands exactly
        # on s_to instead of drifting past it
        s0 = s_from + span * (i / steps)
        s_half = s_from + span * ((i + 0.5) / steps)
        s1 = s_from + span * ((i + 1) / steps)
        k1 = field(x, s0)
        k2 = field(x + 0.5 * h * k1, s_half)
        k3 = field(x + 0.5 * h * k2, s_half)
        k4 = field(x + h * k3, s1)
        x_next = k1 + 2.0 * k2
        x_next += 2.0 * k3
        x_next += k4
        x_next *= h / 6.0
        x_next += x
        _guard_state(x_next, x, "reference integration")
        x = x_next
    return x


def reference_solve(
    model: BackboneModel,
    x0: np.ndarray,
    cond: str,
    t_from: float,
    t_to: float,
    steps: int,
) -> np.ndarray:
    """High-resolution reference integration of the conditional marginal flow.

    Follows the exact flow of the noised marginals between the two noise
    levels: integrating toward larger t noises the state, toward smaller t
    denoises it to the condition's data. (The marginal-flow ODE pairs the
    state with increasing noise level; ``velocity`` reports the generation
    direction, hence the sign flip here.) Uses classic fixed-step
    fourth-order integration with at least 100 steps; doubling the step count
    moves the endpoint by less than 1e-8 on the shipped presets.
    """
    if steps < 100:
        raise DomainError("reference solves need steps >= 100")

    def field(x, t):
        return -velocity(model, x, t, cond)

    return integrate_rk4(field, x0, t_from, t_to, steps)
