"""One-step transport under the chord control field.

The full edit is a single explicit Euler step of size ``step_scale`` along
the chord field evaluated at the source anchor, optionally followed by one
denoising refinement under the target condition. The multi-step variant,
``toy``'s ``params.steps``, is ``euler_march`` over ``make_control_field``:
it splits the step scale and re-anchors the field at the current state each
sub-step; the query times stay fixed (the estimator is defined at one noise
level).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneModel, _observe, _rows, sample_condition
from .chord import ChordParams, _blend, chord_field
from .errors import DivergenceError, DomainError, _allocated
from .proxy import (
    NS_PARTICLE,
    NS_PROX,
    NS_TIME_DECOUPLE,
    SharedNoiseBatch,
    _derive_streams,
    _estimate,
    _philox_fill,
    _RowsBatch,
    _two_time_pass,
    derive_stream,
    proxy_field,
)
from .schedules import DATA_X0, path_scalars

# states beyond this norm abort loudly instead of silently overflowing
DIVERGENCE_NORM = 1e6

NAIVE = "naive"
CHORD = "chord"
FIELD_KINDS = (NAIVE, CHORD)


@dataclass
class TransportResult:
    """Outcome of one transport: pre/post refinement states, the field, its
    energy and whether each state stayed live; per row for rows."""

    x_pred: np.ndarray
    x_out: np.ndarray
    u_hat: np.ndarray
    fields_queried: list[tuple[float, np.ndarray]]
    energy: float | np.ndarray
    live: bool | np.ndarray


@dataclass
class ParticleSet:
    """Sampled points, (count, d)."""

    points: np.ndarray


def sample_particles(model: BackboneModel, count: int, seed) -> ParticleSet:
    """Draw ``count`` source-condition samples, all from the Philox key
    ``(derive_stream(seed, NS_PARTICLE), 0)`` for an int ``seed``; for an
    iterable of ``count`` seeds, row i from that key of seed i, bit-equal to
    ``sample_particles(model, 1, seed_i).points[0]``. ``DomainError`` where the
    iterable holds fewer or more seeds."""
    if count < 1:
        raise DomainError("particle count must be >= 1")
    # allocated before any seed is read: a count too large to hold fails at once
    points = _allocated(f"{count} particles", np.empty, (count, model.dim))
    if isinstance(seed, (int, np.integer)):
        rows, seeds = points[None], [seed]
    else:
        rows, seeds = points[:, None], list(itertools.islice(seed, count + 1))
        if len(seeds) != count:
            raise DomainError(f"{count} particles need exactly {count} seeds")
    keys = ((derive_stream(s, NS_PARTICLE), 0) for s in seeds)
    _philox_fill(rows, keys, lambda gen, out: sample_condition(model.source, gen, out))
    return ParticleSet(points=points)


def particle_seed(seed: int, index: int) -> int:
    """Per-particle transport seed, independent of processing order."""
    return derive_stream(seed, NS_PARTICLE, index + 1)


def _particle_seeds(seed: int, count: int) -> list[int]:
    """``particle_seed(seed, i)`` for every i < count, in one array pass."""
    return _derive_streams(seed, NS_PARTICLE, range(1, count + 1))


def _batches(params: ChordParams, seed: int, dim: int):
    """Noise batches for t - delta and t: one for both by default, else
    sub-streams 0 and 1 of ``NS_TIME_DECOUPLE``, except at delta = 0, where
    both queries sit at t and take the t batch."""
    if params.share_noise_across_times:
        batch = SharedNoiseBatch(seed=seed, n=params.n, dim=dim)
        return batch, batch
    curr = SharedNoiseBatch(derive_stream(seed, NS_TIME_DECOUPLE, 1), params.n, dim)
    if params.delta == 0.0:
        return curr, curr
    return SharedNoiseBatch(derive_stream(seed, NS_TIME_DECOUPLE, 0), params.n, dim), curr


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
    integrators can treat the field like any other (``autonomous`` is True to
    say so). One builder makes it and ``_rows_field``'s field over rows.
    """
    batches = _batches(params, seed, model.dim)
    field = _control_field(model, params, field_kind, *batches)
    field.query = None if isinstance(field_kind, tuple) else (model, params, field_kind, *batches)
    return field


def _control_field(model, params, field_kind, batch_prev, batch_curr):
    """``field_kind``'s field, querying t - delta with ``batch_prev`` and t with ``batch_curr``."""
    if not isinstance(field_kind, tuple):
        if field_kind not in FIELD_KINDS:
            raise DomainError(f"field kinds must be drawn from {FIELD_KINDS}")
        chord = Ellipsis if field_kind == CHORD else None
        return _OneKindField(model, params.t, params.delta, chord, batch_prev, batch_curr)
    kinds = field_kind
    if not kinds or not all(kind in FIELD_KINDS for kind in kinds):
        raise DomainError(f"field kinds must be drawn from {FIELD_KINDS}")
    if len(set(kinds)) < len(kinds):
        raise DomainError("field kinds must be distinct")
    t, delta, dim = params.t, params.delta, model.dim
    # the chord rows as a basic index, so selecting them makes a view
    chord, fused = None, None
    if CHORD in kinds:
        j = kinds.index(CHORD)
        chord = (Ellipsis, slice(j, j + 1), slice(None))
        fused = _two_time_pass(model, t, delta, batch_prev, batch_curr)
        chord_rows = slice(j, None, len(kinds))  # the chord kind's flat rows, as a view

        @functools.lru_cache(maxsize=1)
        def gathered(k):
            """Of k flat rows, each point's chord row in every kind's place, then every row."""
            return np.stack((np.arange(k) // len(kinds) * len(kinds) + j, np.arange(k)))

    two_queries = _OneKindField(model, t, delta, chord, batch_prev, batch_curr)

    def field(x, s=0.0):
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (len(kinds), dim):
            raise DomainError(
                f"rows {x.shape} are not (..., {len(kinds)} kinds, anchor dimension {dim})"
            )
        if fused is None:
            return two_queries(x)
        # the chord rows (in every kind's place) at t - delta, then all at t
        k = x.size // dim
        both = _estimate(model, x.reshape(k, dim).take(gathered(k), 0), *fused(k))
        # an array of this call's own, so the chord rows blend in place
        _blend(both[0, chord_rows], both[1, chord_rows], t, delta)
        return both[1].reshape(x.shape)

    field.autonomous = True
    return field


class _OneKindField:
    """The field by two ``proxy_field`` queries: every row at t, then the ``chord`` rows (a basic
    index; None for none) at t - delta, blended in place into the first. ``query`` and
    ``autonomous`` are instance attributes, so ``functools.wraps`` forwards them."""

    def __init__(self, model, t, delta, chord, batch_prev, batch_curr):
        self.model, self.t, self.delta, self.chord = model, t, delta, chord
        self.batch_prev, self.batch_curr = batch_prev, batch_curr
        self.query, self.autonomous = None, True

    def __call__(self, x, s=0.0):
        x = np.asarray(x, dtype=float)
        u = proxy_field(self.model, x, self.t, self.batch_curr)
        if self.chord is not None:
            # both queries are arrays of this call's own, so the chord rows blend in place
            prev = proxy_field(self.model, x[self.chord], self.t - self.delta, self.batch_prev)
            _blend(prev, u[self.chord], self.t, self.delta)
        return u


def proximal_refine(
    model: BackboneModel,
    x_pred: np.ndarray,
    t_c: float,
    seed: int,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """One denoising call under the target condition at refinement time t_c.

    Noises x_pred, one state (d,) or rows (..., d), and returns the
    target-posterior mean of the clean state. The noise is one fixed draw (d,)
    shared by every row, an independent sub-stream of ``seed`` unless an
    explicit ``eps`` is supplied; an explicit ``eps`` may also hold one draw
    per row, (..., d); ``DomainError`` for any other shape.
    """
    if not (0.0 < t_c < 1.0):
        raise DomainError("t_c must lie in (0, 1)")
    x_pred = _rows(model, x_pred)
    if eps is None:
        eps = _refine_draw(derive_stream(seed, NS_PROX), model.dim)
    eps = np.asarray(eps, dtype=float)
    if eps.shape not in ((model.dim,), x_pred.shape):
        raise DomainError(f"eps of shape {eps.shape} is neither ({model.dim},) nor {x_pred.shape}")
    scalars = path_scalars(model.schedule, t_c)
    z = scalars.alpha * x_pred + scalars.sigma * eps
    return _observe(model, model.target, z, scalars, DATA_X0)


def _refine_draw(stream, dim):
    """The refinement's own draw (d,): the first of ``stream``, a seed's ``NS_PROX`` sub-stream."""
    return SharedNoiseBatch(seed=stream, n=1, dim=dim).draws[0]


def _guard_rows(x):
    """Whether each state of ``x``, one (d,) or rows (..., d), is finite and
    within ``DIVERGENCE_NORM``, shaped ``x.shape[:-1]``. Each row is judged by
    its own norm, so a row's verdict in a batch is its verdict alone; a NaN or
    infinite coordinate makes that norm NaN or infinite, which fails the test.
    Magnitudes are clipped at twice the limit first, so that the squares
    cannot overflow: a coordinate past it fails the test either way. The squared
    norm meets the limit squared, 1e12, with the norm's verdict: sqrt(1e12) is
    1e6 and the root of the next double up rounds above it."""
    x = np.minimum(np.abs(x), 2 * DIVERGENCE_NORM)
    return np.vecdot(x, x) <= DIVERGENCE_NORM * DIVERGENCE_NORM


def _raise_unless_live(live, last, context):
    """``DivergenceError`` carrying ``last`` unless all ``live``, naming rows not live."""
    if not live.all():
        tripped = f" (rows {np.flatnonzero(~live).tolist()})" if live.ndim else ""
        raise DivergenceError(f"state diverged during {context}{tripped}", last_state=last)


def chordedit(
    model: BackboneModel, x_src: np.ndarray, params: ChordParams, seed
) -> TransportResult:
    """Single-step transport: estimate the chord field once, step, refine.

    ``x_src`` is one state (d,) with an int ``seed``, or rows (P, d) with P
    seeds: row i queries both times with its own batch of ``params.n`` draws
    from seed i (one batch for both times by default) and refines with its own
    draw. Each time's query (row by row where the seeds' fields lack their
    ``query``, as in ``_rows_field``), the blend, step, guard and refinement
    run once over the rows, each row bit-equal to its one-state run. Rows flag
    a runaway step in ``live`` and refine only the live rows; one state raises
    ``DivergenceError`` carrying the source state.
    """
    x_src = np.asarray(x_src, dtype=float)
    if x_src.ndim == 1:
        res = chordedit(model, x_src[None], params, [seed])
        _raise_unless_live(res.live[0], x_src, "the transport step")
        fields = [(t, r[0]) for t, r in res.fields_queried]
        return TransportResult(
            res.x_pred[0], res.x_out[0], res.u_hat[0], fields, float(res.energy[0]), True
        )
    if x_src.ndim != 2 or np.ndim(seed) != 1 or len(seed) != len(x_src):
        raise DomainError("chordedit takes one state (d,) and a seed, or rows (P, d) and P seeds")
    t, delta, dim = params.t, params.delta, model.dim
    rows = _rows_query([make_control_field(model, params, CHORD, s) for s in seed])
    if rows is not None:
        *_, prev, curr = rows
        queried = proxy_field(model, x_src, t - delta, prev), proxy_field(model, x_src, t, curr)
        batches = curr.batches
    else:  # fields without their query, as a tracer wraps them: row by row
        queried, batches = np.empty((2,) + x_src.shape), []
        for i, (x, seed_i) in enumerate(zip(x_src, seed)):
            batch_prev, batch_curr = _batches(params, seed_i, dim)
            queried[0, i] = proxy_field(model, x, t - delta, batch_prev)
            queried[1, i] = proxy_field(model, x, t, batch_curr)
            batches.append(batch_curr)
    u_hat = chord_field(*queried, t, delta)
    x_pred = x_src + params.step_scale * u_hat
    live = _guard_rows(x_pred)
    x_out = x_pred
    if params.use_prox:
        refined = np.flatnonzero(live)
        if params.prox_shared_noise:
            draws = [batches[i].draws[0] for i in refined]
        else:
            streams = _derive_streams([seed[i] for i in refined], NS_PROX, 0)
            draws = [_refine_draw(stream, dim) for stream in streams]
        eps = np.array(draws).reshape(len(refined), dim)
        x_out = x_pred.copy()
        x_out[live] = proximal_refine(model, x_pred[live], params.t_c, None, eps=eps)
    fields = [(t - delta, queried[0]), (t, queried[1])]
    energy = np.vecdot(u_hat, u_hat) / dim
    return TransportResult(x_pred, x_out, u_hat, fields, energy, live)


# chord_field is linear in its two inputs, so the mean of one chord field per
# draw is the chord field of the draw-averaged proxy fields: the multi-noise
# variant is the same estimator as the single-batch path.
chordedit_multi_noise = chordedit


def _march(x0: np.ndarray, steps: int, step):
    """The one step loop of both integrators: ``steps`` steps from ``x0``, one
    state (d,) or rows (..., d), where ``step(x, i)`` returns step i's next
    state and the field value used for it; ``DomainError`` unless steps >= 1.
    Returns the trajectory from ``x0`` on, an array (taken + 1, ..., d), the
    field values, an array (taken, ...) in the values' own shape, and the live
    mask (a scalar for one state), where ``taken`` counts the steps kept; the
    field values are an empty list where no step was kept. Each step's state
    and value are copied into these two arrays, made once for every step, so a
    march holds 16 * steps * rows * d bytes and no object per step. A row whose
    next state trips ``_guard_rows`` stays at its last good state, so each
    row's values are those of its own march; the march stops once no row is
    live. ``DomainError`` where the states of every step are too large to hold."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    x = np.array(x0, dtype=float)
    trajectory = _allocated(f"{steps} march steps", np.empty, (steps + 1,) + x.shape)
    trajectory[0] = x
    live = np.ones(x.shape[:-1], dtype=bool)
    # until the first trip every row is live, and each next state is taken as it is
    all_live = live.size > 0
    fields, taken = [], 0
    for i in range(steps):
        x_next, u = step(x, i)
        ok = _guard_rows(x_next)
        if all_live and np.logical_and.reduce(ok, axis=None):
            x = x_next
        else:
            all_live = False
            live &= ok
            if not live.any():
                break
            x = np.where(live[..., None], x_next, x)
        if i == 0:
            fields = _allocated(f"{steps} march steps", np.empty, (steps,) + np.shape(u))
        trajectory[i + 1] = x
        fields[i] = u
        taken = i + 1
    return trajectory[: taken + 1], fields[:taken], live


def euler_march(field, x0: np.ndarray, h: float, steps: int):
    """Explicit Euler: ``_march`` with steps of size ``h`` along
    dx/ds = field(x, s) from s = 0, step i at s = i * h. Returns the trajectory
    (taken + 1, ..., d), the field values (taken, ...) and the live mask."""

    def step(x, i):
        u = field(x, i * h)
        return x + h * u, u

    return _march(x0, steps, step)


def _rows_query(fields):
    """Where every field's ``query`` names one model, params and kind, those and ``_RowsBatch``
    objects of each field's draws at t - delta and t; None otherwise, and for no fields."""
    qs = [getattr(f, "query", None) for f in fields] or [None]
    model, p, kind, *_ = qs[0] or (None,) * 5
    if model is None or any(q is None or q[0] is not model or q[1:3] != (p, kind) for q in qs):
        return None
    curr = _RowsBatch([q[4] for q in qs])
    prev = curr if all(q[3] is q[4] for q in qs) else _RowsBatch([q[3] for q in qs])
    return model, p, kind, prev, curr


def _rows_field(fields):
    """The field over rows (P, d), P >= 0, whose row i is ``fields[i]`` at that row, its value
    or error the same either way: ``_control_field(*_rows_query(fields))``, else row by row."""
    query = _rows_query(fields)
    if query is None:
        return lambda x, s=0.0: np.array([f(x_i, s) for f, x_i in zip(fields, x)]).reshape(x.shape)
    return _control_field(*query)


def rk4_march(field, x0: np.ndarray, s_from: float, s_to: float, steps: int):
    """``_march`` by classic RK4 from ``s_from`` to ``s_to``: the trajectory (taken + 1, ..., d),
    each step's first stage (taken, ...) as its field value, and the live mask."""
    span = s_to - s_from

    def step(x, i):
        # sub-times from the index, so the last stage lands exactly on s_to
        h = span / steps
        s_half = s_from + span * ((i + 0.5) / steps)
        k1 = field(x, s_from + span * (i / steps))
        k2 = field(x + 0.5 * h * k1, s_half)
        k3 = field(x + 0.5 * h * k2, s_half)
        k4 = field(x + h * k3, s_from + span * ((i + 1) / steps))
        x_next = k1 + 2.0 * k2
        x_next += 2.0 * k3
        x_next += k4
        x_next *= h / 6.0
        x_next += x
        return x_next, k1

    return _march(x0, steps, step)


def integrate_rk4(field, x0: np.ndarray, s_from: float, s_to: float, steps: int):
    """Classic fixed-step fourth-order integration of dx/ds = field(x, s).

    ``x0`` is one state (d,) or rows (k, d), marched together by a field that
    takes rows; each row's endpoint is bit-identical to that of its own run.
    A ``DivergenceError`` names the rows that trip the guard and carries every
    row's frozen state (a tame row's endpoint) as ``last_state``. The
    endpoint is a view of ``rk4_march``'s trajectory array; its field array is dropped.
    """
    trajectory, _, live = rk4_march(field, x0, s_from, s_to, steps)
    _raise_unless_live(live, trajectory[-1], "reference integration")
    return trajectory[-1]
