"""The posterior kernel, the heads and the proxy estimate against an oracle.

The package computes these in place on its own temporaries, and the tuple-kind
field hands them time-only values broadcast to its rows. The oracle below is
the same arithmetic written out of place, one fresh array per step; every
element must come out with the same bits, or the same error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordfield import transport
from chordfield.backbone import (
    BackboneModel,
    GaussianMixtureCondition,
    delta_drift,
    observable,
    posterior_eps,
    posterior_x0,
    velocity,
)
from chordfield.errors import (
    DegeneratePosteriorError,
    DomainError,
    IllConditionedMapError,
)
from chordfield.preset_lib import load_preset
from chordfield.proxy import SharedNoiseBatch, _estimate
from chordfield.schedules import (
    CONSISTENCY,
    DATA_X0,
    LINEAR_INTERP,
    NOISE_EPS,
    PARAMETERIZATION_KINDS,
    V_PRED,
    VELOCITY,
    VP_CONST_BETA,
    VP_GENERIC,
    PathScalars,
    Schedule,
    path_scalars,
)

PRESETS = ("two_blob_1d", "two_blob_2d", "ring_3blob_2d", "stiff_2d")
SCHEDULES = (
    Schedule(kind=LINEAR_INTERP),
    Schedule(kind=VP_CONST_BETA, beta0=1.0),
    Schedule(
        kind=VP_GENERIC,
        beta_times=np.linspace(0.0, 1.0, 6),
        beta_values=0.1 + 4.0 * np.linspace(0.0, 1.0, 6) ** 2,
    ),
)
_ERRORS = (DomainError, IllConditionedMapError, DegeneratePosteriorError)


def _oracle_x0(stack, z, at):
    if not isinstance(at.sigma, np.ndarray) and at.sigma == 0.0:
        return np.repeat((z / at.alpha)[..., None, :], stack.starts.size, axis=-2)
    diff = z[..., None, :] - at.alpha_means
    sq = np.einsum("...kd,...kd->...k", diff, diff)
    log_mass = stack.log_weights + -0.5 * (sq / at.variances + at.log_norm)
    peaks = np.maximum.reduceat(log_mass, stack.starts, axis=-1)
    if not np.isfinite(peaks).all():
        if not np.isfinite(z).all():
            raise DomainError("posterior query must be finite")
        raise DegeneratePosteriorError("posterior mass underflowed")
    shifted = np.exp(log_mass - peaks[..., stack.owner])
    totals = np.add.reduceat(shifted, stack.starts, axis=-1)
    resp = shifted / totals[..., stack.owner]
    component_means = stack.means + at.pull * diff
    return np.add.reduceat(resp[..., None] * component_means, stack.starts, axis=-2)


def _oracle_drift(z, x0, scalars):
    if not isinstance(scalars.sigma, np.ndarray) and scalars.sigma == 0.0:
        return -scalars.alpha_dot * x0
    eps = (z - scalars.alpha * x0) / scalars.sigma
    return -(scalars.alpha_dot * x0 + scalars.sigma_dot * eps)


def _oracle_head(model, z, x0, scalars):
    kind = model.output_kind
    if kind == VELOCITY:
        return _oracle_drift(z, x0, scalars)
    if kind in (DATA_X0, CONSISTENCY):
        return x0
    a, s = scalars.alpha, scalars.sigma
    if not isinstance(s, np.ndarray) and s < model.schedule.alpha_floor:
        raise IllConditionedMapError("sigma below floor", time=scalars.t)
    eps = (z - a * x0) / s
    if kind == NOISE_EPS:
        return eps
    if kind == V_PRED:
        return a * eps - s * x0
    return -eps / s


def _oracle_estimate(model, x_tau, alpha, noise, a_t, scalars, pair):
    z = alpha * x_tau[..., None, :] + noise
    heads = _oracle_head(model, z[..., None, :], _oracle_x0(model._pair, z, pair), scalars)
    residual = heads[..., 0, :] - heads[..., 1, :]
    return a_t * ((np.add.accumulate(residual, axis=-2)[..., -1, :] + 0.0) / z.shape[-2])


def _oracle_stacked(model, t, delta, batch_prev, batch_curr):
    """The values of both times stacked on a leading axis, shaped to broadcast."""
    (a_p, s_p, at_p), (a_t, s_t, at_t) = (model._time_entry(u) for u in (t - delta, t))
    alpha, sigma, alpha_dot, sigma_dot = np.array(
        [[s.alpha, s.sigma, s.alpha_dot, s.sigma_dot] for s in (s_p, s_t)]
    ).T.reshape(4, 2, 1, 1, 1, 1)
    return (
        alpha[..., 0],
        sigma[..., 0] * np.stack((batch_prev.draws, batch_curr.draws))[:, None],
        np.array([a_p, a_t]).reshape(2, 1, 1),
        PathScalars((t - delta, t), alpha, sigma, alpha_dot, sigma_dot),
        at_p._make(np.stack(values)[:, None, None] for values in zip(at_p, at_t)),
    )


def _bits_or_error(query):
    try:
        return np.asarray(query()).tobytes()
    except _ERRORS as err:
        return type(err)


# a non-finite coordinate times alpha = 0 (at t = 1) warns, on both sides alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.sampled_from([1, 4]),
    st.sampled_from([(), (3,), (2, 2)]),
    st.one_of(st.sampled_from([0.0, 1.0, 1e-7]), st.floats(0.0, 1.0)),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.one_of(st.none(), st.sampled_from([np.nan, np.inf, 1e200])),
    st.integers(0, 2**32 - 1),
)
def test_kernel_heads_and_estimate_bit_equal_to_the_oracle(
    preset, schedule, head, n, lead, t, delta, bad, seed
):
    src, tar = load_preset(preset)
    model = BackboneModel(schedule=schedule, source=src, target=tar, output_kind=head)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (model.dim,)) * 2.0
    if bad is not None:
        x.reshape(-1)[rng.integers(x.size)] = bad
    batch_prev, batch_curr = (SharedNoiseBatch(seed + i, n, model.dim) for i in (0, 1))

    # one time: each mixture's kernel and head, and the pair's estimate
    for cond, mixture in (("tar", tar), ("src", src)):
        stack, scalars = mixture._stack, path_scalars(schedule, t)
        at = stack.at(scalars.alpha, scalars.sigma)

        def oracle_x0():
            return _oracle_x0(stack, x, at)[..., 0, :]

        assert _bits_or_error(lambda: posterior_x0(model, x, t, cond)) == _bits_or_error(oracle_x0)
        assert _bits_or_error(lambda: observable(model, x, t, cond)) == _bits_or_error(
            lambda: _oracle_head(model, x, oracle_x0(), scalars)
        )
        if scalars.sigma != 0.0:
            assert _bits_or_error(lambda: posterior_eps(model, x, t, cond)) == _bits_or_error(
                lambda: (x - scalars.alpha * oracle_x0()) / scalars.sigma
            )

    def one_time(run):
        a_t, scalars, pair = model._time_entry(t)
        return run(model, x, scalars.alpha, scalars.sigma * batch_curr.draws, a_t, scalars, pair)

    assert _bits_or_error(lambda: one_time(_estimate)) == _bits_or_error(
        lambda: one_time(_oracle_estimate)
    )

    # stacked times: rows (2, k, d), with the field's values shaped to its rows
    t = max(t, delta)
    shaped = transport._two_time_pass(model, t, delta, batch_prev, batch_curr)
    if shaped is not None:
        rows = np.stack([x, -x]).reshape(2, -1, model.dim)
        stacked = _oracle_stacked(model, t, delta, batch_prev, batch_curr)
        assert _bits_or_error(
            lambda: _estimate(model, rows, *shaped(rows.shape[1]))
        ) == _bits_or_error(lambda: _oracle_estimate(model, rows, *stacked))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.sampled_from([(), (3,), (2, 2)]),
    st.one_of(st.sampled_from([0.0, 1.0, 1e-7]), st.floats(0.0, 1.0)),
    st.one_of(st.none(), st.sampled_from([np.nan, np.inf, 1e200])),
    st.integers(0, 2**32 - 1),
)
def test_named_heads_bit_equal_to_the_oracle_whatever_the_model_head(
    preset, schedule, head, lead, t, bad, seed
):
    # posterior_x0 is the data head and velocity and delta_drift the velocity
    # head of every model, whichever head the model itself exposes
    src, tar = load_preset(preset)
    model = BackboneModel(schedule=schedule, source=src, target=tar, output_kind=head)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (model.dim,)) * 2.0
    if bad is not None:
        x.reshape(-1)[rng.integers(x.size)] = bad
    scalars = path_scalars(schedule, t)
    for cond, mixture in (("tar", tar), ("src", src)):
        at = mixture._stack.at(scalars.alpha, scalars.sigma)

        def oracle_x0():
            return _oracle_x0(mixture._stack, x, at)[..., 0, :]

        assert _bits_or_error(lambda: posterior_x0(model, x, t, cond)) == _bits_or_error(oracle_x0)
        assert _bits_or_error(lambda: velocity(model, x, t, cond)) == _bits_or_error(
            lambda: _oracle_drift(x, oracle_x0(), scalars)
        )

    def oracle_residual():
        pair = model._pair.at(scalars.alpha, scalars.sigma)
        drifts = _oracle_drift(x[..., None, :], _oracle_x0(model._pair, x, pair), scalars)
        return drifts[..., 0, :] - drifts[..., 1, :]

    assert _bits_or_error(lambda: delta_drift(model, x, t)) == _bits_or_error(oracle_residual)


# a crafted query that may return or raise, whichever the oracle does
_EITHER = "either"


def _crafted_rows(stack, at):
    """Queries at the edges of the log-mass arithmetic, one (d,) row each, with
    the error each must raise (None where it must return)."""
    big = np.finfo(float).max
    rows = [(mean.copy(), None) for mean in np.asarray(at.alpha_means)]  # offset +0
    rows += [
        (np.array([-0.0, -0.0]), None),  # -0.0 minus a zero mean, squared: +0
        (np.array([1e-160, 0.0]), None),  # squared offset 1e-320, subnormal
        (np.array([3e-162, -2e-161]), None),
        (np.array([2.0**-537, 2.0**-540]), None),  # the smallest subnormal square
        (np.array([1e-300, 1e-300]), None),  # squares underflow to +0
        (np.array([1e200, 0.0]), DegeneratePosteriorError),  # every square overflows
        # squares finite, most or all of their ratios to the variances overflowing
        (np.array([math.sqrt(0.9 * big), 0.0]), _EITHER),
        (np.array([math.sqrt(0.45 * big), math.sqrt(0.45 * big)]), _EITHER),
        (np.array([np.nan, 0.0]), DomainError),
        (np.array([0.0, np.inf]), DomainError),
        (np.array([-np.inf, 1.0]), DomainError),
    ]
    return rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("t", [0.05, 0.5, 0.95, 1.0])
def test_crafted_rows_bit_equal_to_the_oracle_and_raise_its_errors(schedule, t):
    # a component mean at the origin, so that offsets can be subnormal
    src = GaussianMixtureCondition([0.5, 0.5], [[0.0, 0.0], [1.5, -1.0]], [0.3, 0.7])
    tar = GaussianMixtureCondition(
        [0.2, 0.3, 0.5], [[0.0, 0.0], [-1.0, 2.0], [3.0, 0.5]], [1.0, 0.1, 0.5]
    )
    model = BackboneModel(schedule=schedule, source=src, target=tar)
    scalars = path_scalars(schedule, t)
    for stack in (src._stack, tar._stack, model._pair):
        at = stack.at(scalars.alpha, scalars.sigma)
        crafted = _crafted_rows(stack, at)
        for z, error in crafted:
            got = _bits_or_error(lambda: stack.x0(z, at))
            assert got == _bits_or_error(lambda: _oracle_x0(stack, z, at))
            if error is None:
                assert isinstance(got, bytes)
            elif error is not _EITHER:
                assert got is error
        # the rows that return, together, are each row alone
        fine = np.array([z for z, error in crafted if error is None])
        together = stack.x0(fine, at)
        assert together.tobytes() == _oracle_x0(stack, fine, at).tobytes()
        for z, row in zip(fine, together):
            assert row.tobytes() == stack.x0(z, at).tobytes()
        # no rows: an empty result, and no error
        empty = stack.x0(np.empty((0, 2)), at)
        assert empty.shape == (0, stack.starts.size, 2)

    # the stacked two-time pass of the tuple-kind field, on the same rows
    batch = SharedNoiseBatch(7, 1, 2)
    shaped = transport._two_time_pass(model, t, 0.25 * t, batch, batch)
    if shaped is not None:
        stacked = _oracle_stacked(model, t, 0.25 * t, batch, batch)
        for z, _ in _crafted_rows(model._pair, model._pair.at(scalars.alpha, scalars.sigma)):
            rows = np.stack([z, -z])[:, None]
            assert _bits_or_error(lambda: _estimate(model, rows, *shaped(1))) == _bits_or_error(
                lambda: _oracle_estimate(model, rows, *stacked)
            )
        rows = np.empty((2, 0, 2))
        assert _estimate(model, rows, *shaped(0)).shape == (2, 0, 2)
