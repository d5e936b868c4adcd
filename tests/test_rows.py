"""Every public state query over rows (P, d) against the same query per row.

A query over n noise draws is checked at P in {1, n, n + 1}, and one over m
window samples or kernel taps at P in {1, m, m + 1}: a row axis that meets the
draw or sample axis by broadcasting gives wrong rows silently at P = n or m and
fails at other P. A query over neither is checked at the queried mixture's
component count K, the axis its posterior reduces over.
"""

import numpy as np
import pytest

from chordfield.backbone import (
    BackboneModel,
    delta_drift,
    log_marginal_density,
    observable,
    posterior_eps,
    posterior_x0,
    velocity,
)
from chordfield.chord import (
    chord_field,
    kernel_smooth,
    recursive_chord_series,
    surrogate_objective,
    triangular_causal_kernel,
    window_minimizer,
)
from chordfield.preset_lib import PRESET_NAMES, load_preset
from chordfield.proxy import (
    SharedNoiseBatch,
    noising_sample,
    proxy_field,
    proxy_field_decoupled,
    sample_proxy_field,
)
from chordfield.schedules import LINEAR_INTERP, VP_CONST_BETA, Schedule
from chordfield.transport import proximal_refine

N = 3  # draws per proxy estimate
T, DELTA, STEP = 0.9, 0.15, 0.05  # a window of M samples on the grid
M = round(DELTA / STEP) + 1
TIMES = T - DELTA + STEP * np.arange(M)
INPUTS = M + 2  # state-shaped inputs a query may read: a series of M + 2 samples


def _batch(model, seed=0):
    return SharedNoiseBatch(seed=seed, n=N, dim=model.dim)


def _series(x):
    return list(zip(np.arange(INPUTS) * STEP, x))


def _stacked(series):
    """A series' vectors on axis -2, after the rows' axes."""
    return np.stack([v for _, v in series], axis=-2)


# name -> (the count P meets, query over the inputs x: INPUTS states or rows)
_QUERIES = {
    "posterior_x0": ("K", lambda m, x: posterior_x0(m, x[0], 0.5, "tar")),
    "posterior_eps": ("K", lambda m, x: posterior_eps(m, x[0], 0.5, "tar")),
    "velocity": ("K", lambda m, x: velocity(m, x[0], 0.5, "tar")),
    "observable": ("K", lambda m, x: observable(m, x[0], 0.5, "tar")),
    "delta_drift": ("K", lambda m, x: delta_drift(m, x[0], 0.5)),
    "log_marginal_density": ("K", lambda m, x: log_marginal_density(m, x[0], 0.5, "tar")),
    "proxy_field": ("N", lambda m, x: proxy_field(m, x[0], T, _batch(m))),
    "proxy_field_decoupled": (
        "N",
        lambda m, x: proxy_field_decoupled(m, x[0], T, _batch(m, 1), _batch(m, 2)),
    ),
    "sample_proxy_field": (
        "N",
        lambda m, x: _stacked(sample_proxy_field(m, x[0], [T - DELTA, T], _batch(m)).series()),
    ),
    "noising_sample": ("K", lambda m, x: noising_sample(m.schedule, x[0], 0.5, x[1])),
    "chord_field": ("K", lambda m, x: chord_field(x[0], x[1], T, DELTA)),
    "kernel_smooth": (
        "M",
        lambda m, x: _stacked(kernel_smooth(_series(x), triangular_causal_kernel(M, STEP))),
    ),
    "window_minimizer": (
        "M",
        lambda m, x: window_minimizer(x[0], list(zip(TIMES, x[1:])), T, DELTA),
    ),
    "recursive_chord_series": (
        "M",
        lambda m, x: _stacked(recursive_chord_series(_series(x), DELTA)),
    ),
    "proximal_refine": ("K", lambda m, x: proximal_refine(m, x[0], 0.3, seed=7)),
}

_SCHEDULES = {
    "linear_interp": Schedule(kind=LINEAR_INTERP),
    "vp_const_beta": Schedule(kind=VP_CONST_BETA, beta0=4.0),
}


def _model(preset, schedule):
    source, target = load_preset(preset)
    return BackboneModel(_SCHEDULES[schedule], source, target)


def _row_counts(model, count):
    c = {"K": model.target.n_components, "N": N, "M": M}[count]
    return (1, c, c + 1)


@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("query", sorted(_QUERIES))
def test_rows_bit_equal_to_each_row_alone(query, preset, schedule):
    model = _model(preset, schedule)
    count, run = _QUERIES[query]
    for p in _row_counts(model, count):
        x = np.random.default_rng(p).normal(size=(INPUTS, p, model.dim)) * 1.5
        got = np.asarray(run(model, x))
        assert got.shape[0] == p
        for i in range(p):
            assert got[i].tobytes() == np.asarray(run(model, x[:, i])).tobytes(), (p, i)


@pytest.mark.parametrize("p", [1, M, M + 1])
def test_rows_objective_is_the_sum_of_the_rows_objectives(p):
    # so the rows' minimiser, row by row, is each row's own
    x = np.random.default_rng(p).normal(size=(M + 2, p, 2))
    u, u_prev, samples = x[0], x[1], list(zip(TIMES, x[2:]))
    alone = [
        surrogate_objective(u[i], u_prev[i], [(t, v[i]) for t, v in samples], T, DELTA)
        for i in range(p)
    ]
    assert surrogate_objective(u, u_prev, samples, T, DELTA) == pytest.approx(
        sum(alone), rel=1e-12
    )
