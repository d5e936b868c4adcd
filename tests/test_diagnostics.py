import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordfield import diagnostics
from chordfield.backbone import BackboneModel
from chordfield.chord import (
    ChordParams,
    chord_two_tap_kernel,
    dirac_kernel,
    kernel_smooth,
    shipped_causal_kernels,
    uniform_causal_kernel,
)
from chordfield.diagnostics import (
    RISK_CHUNK,
    _hat_basis,
    _lattice,
    _sup_spectral,
    bb_energy,
    consistency_proxy,
    global_error_sweep,
    lte_check,
    projection_energy_gap,
    risk_experiment,
)
from chordfield.errors import DomainError
from chordfield.preset_lib import load_preset
from chordfield.proxy import NS_TRIAL, derive_stream
from chordfield.schedules import LINEAR_INTERP, VP_CONST_BETA, VP_GENERIC, Schedule
from chordfield.transport import make_control_field


class TestBbEnergy:
    def test_zero_fields(self):
        assert bb_energy([np.zeros(3)] * 5) == 0.0

    def test_unit_coordinates(self):
        fields = [np.array([1.0, -1.0])] * 3
        assert bb_energy(fields) == pytest.approx(1.0)

    def test_concatenation_identity(self):
        rng = np.random.default_rng(0)
        a = [rng.normal(size=2) for _ in range(3)]
        b = [rng.normal(size=2) for _ in range(5)]
        combined = bb_energy(a + b)
        weighted = (3 * bb_energy(a) + 5 * bb_energy(b)) / 8
        assert combined == pytest.approx(weighted, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            bb_energy([])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_bb_energy_rows_bit_equal_to_the_loop_over_steps(steps, count, dim, seed):
    # a stack (S, P, d): each row's energy is the per-step loop of one dot
    # per sample, summed in step order, also for a lone row and for S >= 8
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(steps, count, dim)) * rng.lognormal(0.0, 3.0, (steps, count, 1))
    got = bb_energy(fields)
    assert got.shape == (count,)
    for j in range(count):
        want = sum(float(u @ u) for u in fields[:, j]) / (steps * dim)
        assert got[j].tobytes() == np.float64(want).tobytes()
        alone = bb_energy(fields[:, j])
        assert type(alone) is float and alone == want
        assert bb_energy(list(fields[:, j])) == want


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_vecdot_is_the_per_row_dot_and_norm(dim):
    # the library contract behind every loop-free per-row reduction: numpy's
    # vecdot equals the BLAS dot of each row alone, so its root is the norm
    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(20000, dim)) * rng.lognormal(0.0, 3.0, (20000, 1))
    squares = np.vecdot(rows, rows)
    norms = np.sqrt(squares)
    for u, square, norm in zip(rows, squares.tolist(), norms.tolist()):
        assert square == float(u @ u)
        assert norm == float(np.linalg.norm(u))


BOUNDS_1D = [(-1.0, 1.0)]
T_RANGE = (0.0, 1.0)


class TestConsistencyProxy:
    def test_constant_field_is_zero(self):
        c = np.array([0.7, -0.3])
        value, parts = consistency_proxy(
            lambda x, t: c, [(-1, 1), (-1, 1)], T_RANGE, 8
        )
        assert value == pytest.approx(0.0, abs=1e-12)
        assert parts[0] == pytest.approx(0.0, abs=1e-12)

    def test_time_linear_field(self):
        a = np.array([2.0, -1.0])
        value, parts = consistency_proxy(
            lambda x, t: a * t, [(-1, 1), (-1, 1)], T_RANGE, 10
        )
        assert parts[0] == pytest.approx(np.linalg.norm(a), rel=1e-9)
        assert value == pytest.approx(np.linalg.norm(a), rel=1e-6)

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            consistency_proxy(lambda x, t: x, BOUNDS_1D, T_RANGE, 7)

    def test_smoothing_contracts_proxy(self):
        # time-separable field: smoothing its time profile with a causal
        # unit-mass kernel cannot increase the consistency proxy
        rng = np.random.default_rng(5)
        ds = 1.0 / 31
        kernel = uniform_causal_kernel(4, ds)
        for trial in range(20):
            count = 32 + kernel.taps - 1
            t_all = np.arange(count) * ds
            profile = np.zeros(count)
            for m in range(1, 5):
                profile += rng.normal() / m * np.sin(2 * np.pi * m * t_all)
                profile += rng.normal() / m * np.cos(2 * np.pi * m * t_all)
            series = [(float(ts), np.array([p])) for ts, p in zip(t_all, profile)]
            smoothed = kernel_smooth(series, kernel)
            sm = np.array([v[0] for _, v in smoothed])
            t0 = smoothed[0][0]

            def spatial(x):
                return np.array([math.sin(1.3 * x[0]) + 0.5 * x[0]])

            def raw_fn(x, t):
                j = int(round((t - t0) / ds))
                return spatial(x) * profile[j + kernel.taps - 1]

            def smooth_fn(x, t):
                j = int(round((t - t0) / ds))
                return spatial(x) * sm[j]

            t_range = (t0, float(smoothed[-1][0]))
            c_raw, _ = consistency_proxy(raw_fn, BOUNDS_1D, t_range, 32)
            c_smooth, _ = consistency_proxy(smooth_fn, BOUNDS_1D, t_range, 32)
            assert c_smooth <= c_raw * (1 + 1e-9)


class TestStabilityMargin:
    def test_constant_field(self):
        margin = consistency_proxy(
            lambda x, t: np.array([1.0, 2.0]), [(-1, 1), (-1, 1)], T_RANGE, 8
        )[1][1]
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_affine_field_matches_jacobian_norm(self):
        j_mat = np.array([[1.0, 0.4], [-0.2, 2.0]])
        got = consistency_proxy(lambda x, t: j_mat @ x, [(-1, 1), (-1, 1)], T_RANGE, 12)[1][1]
        assert got == pytest.approx(np.linalg.norm(j_mat, 2), rel=1e-6)

    def test_series_smoothing_never_raises_margin(self):
        rng = np.random.default_rng(9)
        ds = 1.0 / 31
        kernel = chord_two_tap_kernel(0.9, 4 * ds, ds)
        count = 40
        t_all = np.arange(count) * ds
        profile = np.sin(2 * np.pi * t_all) + 0.3 * np.cos(6 * np.pi * t_all)
        series = [(float(ts), np.array([p])) for ts, p in zip(t_all, profile)]
        smoothed = kernel_smooth(series, kernel)
        sm = np.array([v[0] for _, v in smoothed])
        t0 = smoothed[0][0]

        def raw_fn(x, t):
            j = int(round((t - t0) / ds))
            return np.array([math.tanh(x[0])]) * profile[j + kernel.taps - 1]

        def smooth_fn(x, t):
            j = int(round((t - t0) / ds))
            return np.array([math.tanh(x[0])]) * sm[j]

        t_range = (t0, float(smoothed[-1][0]))
        m_raw = consistency_proxy(raw_fn, BOUNDS_1D, t_range, 16)[1][1]
        m_smooth = consistency_proxy(smooth_fn, BOUNDS_1D, t_range, 16)[1][1]
        assert m_smooth <= m_raw * (1 + 1e-9)


@pytest.mark.parametrize(
    "shape", [(300, 1, 1), (300, 2, 1), (300, 2, 2), (300, 3, 3), (7, 6, 2, 2)]
)
def test_sup_spectral_equals_per_site_loop(shape):
    # one stacked SVD call against one np.linalg.norm(j, 2) per lattice site
    rng = np.random.default_rng(sum(shape))
    jac = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[:-2] + (1, 1))
    flat = jac.reshape(-1, shape[-2], shape[-1])
    per_site = [np.linalg.norm(j, 2) for j in flat]
    np.testing.assert_array_equal(np.linalg.norm(flat, 2, axis=(1, 2)), per_site)
    np.testing.assert_array_equal(_sup_spectral(jac), max(per_site))


class TestLteCheck:
    def test_constant_field_exact(self):
        obs, bound = lte_check(lambda x, t: np.array([1.0, -2.0]), np.zeros(2), 0.0, 0.2)
        assert obs <= 1e-12
        assert bound <= 1e-9

    def test_affine_field_closed_form(self):
        # dx/ds = A x + b has exact flow; the Euler remainder follows from
        # the matrix exponential series
        a_mat = np.array([[0.3, -0.8], [0.5, 0.1]])
        b = np.array([0.2, -0.1])
        x0 = np.array([0.4, 1.0])
        h = 0.05

        def fn(x, t):
            return a_mat @ x + b

        # closed form via scaling-and-squaring free series (small h)
        term = np.eye(2)
        phi1 = np.zeros((2, 2))
        acc = np.eye(2)
        fact = 1.0
        for k in range(1, 25):
            fact *= k
            term = term @ (a_mat * h)
            acc = acc + term / fact
            phi1 = phi1 + np.linalg.matrix_power(a_mat * h, k - 1) / fact
        exact = acc @ x0 + (phi1 * h) @ b
        euler = x0 + h * fn(x0, 0.0)
        expected_obs = np.linalg.norm(exact - euler)
        obs, bound = lte_check(fn, x0, 0.0, h)
        assert obs == pytest.approx(expected_obs, abs=1e-8)
        assert obs <= bound * 1.05

    def test_halving_ratio_near_four(self):
        def fn(x, t):
            return np.array([math.sin(x[0]) + 0.5, 0.3 * x[0] * x[1] - x[1]])

        x0 = np.array([0.5, 0.8])
        obs1, _ = lte_check(fn, x0, 0.0, 0.1)
        obs2, _ = lte_check(fn, x0, 0.0, 0.05)
        assert obs1 / obs2 == pytest.approx(4.0, abs=0.5)


    @pytest.mark.parametrize("grid", [1, 0, -1])
    def test_grid_below_two_rejected(self, grid):
        with pytest.raises(DomainError, match="grid"):
            lte_check(lambda x, t: -x, np.ones(2), 0.0, 0.1, grid=grid)


@st.composite
def control_fields(draw):
    """An autonomous control field of a preset model, and its dimension."""
    source, target = load_preset(
        draw(st.sampled_from(["two_blob_1d", "two_blob_2d", "ring_3blob_2d", "stiff_2d"]))
    )
    schedule = draw(
        st.sampled_from([Schedule(kind=LINEAR_INTERP), Schedule(kind=VP_CONST_BETA, beta0=1.0)])
    )
    model = BackboneModel(schedule, source, target)
    params = ChordParams(
        t=draw(st.floats(0.5, 1.0)),
        delta=draw(st.sampled_from([0.0, 0.2])),
        n=draw(st.sampled_from([1, 4])),
    )
    kind = draw(st.sampled_from(["naive", "chord"]))
    return make_control_field(model, params, kind, draw(st.integers(0, 2**32 - 1))), model.dim


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(control_fields(), st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_autonomous_lattice_equals_the_per_point_lattice(drawn, grid, slices, seed):
    # one row call broadcast over the time slices, against one call per site
    field, dim = drawn
    rng = np.random.default_rng(seed)
    lo = rng.normal(size=dim) * 2.0
    axes = [np.linspace(a, a + w, grid) for a, w in zip(lo, rng.uniform(0.1, 2.0, dim))]
    ts = np.linspace(0.0, 0.3, slices)
    fast = _lattice(field, axes, ts)
    slow = _lattice(lambda x, t: field(x, t), axes, ts)
    for got, want in zip(fast, slow):
        np.testing.assert_array_equal(got, want)
    assert not fast[1].any()


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(2, 5),
    st.integers(1, 4),
    st.floats(-0.5, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_rows_lattice_equals_the_per_point_lattice(dim, grid, slices, t_lo, seed):
    # a time-dependent field over rows, elementwise per row: one call per time
    # slice against one call per site, and one call for an autonomous field
    rng = np.random.default_rng(seed)
    scale = rng.normal(size=2)
    calls = []

    def plain(x, t):
        calls.append(np.shape(x))
        x = np.asarray(x)
        # (tanh(a x_0) cos 3t, x_last t + t^2), output dimension 2 whatever dim is
        first = np.tanh(scale[0] * x[..., :1]) * math.cos(3.0 * t)
        return np.concatenate([first, x[..., -1:] * t + t * t], axis=-1)

    def rows(x, t):
        return plain(x, t)

    def autonomous(x, t):
        return plain(x, 0.25)

    rows.rows = True
    autonomous.autonomous = True
    lo = rng.normal(size=dim) * 2.0
    axes = [np.linspace(a, a + w, grid) for a, w in zip(lo, rng.uniform(0.1, 2.0, dim))]
    ts = np.linspace(t_lo, t_lo + 0.3, slices)
    sites = grid**dim

    fast = _lattice(rows, axes, ts)
    assert calls == [(sites, dim)] * slices
    calls.clear()
    slow = _lattice(plain, axes, ts)
    assert calls == [(dim,)] * (slices * sites)
    for got, want in zip(fast, slow):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    calls.clear()
    still = _lattice(autonomous, axes, ts)
    assert calls == [(sites, dim)]
    once = _lattice(lambda x, t: plain(x, 0.25), axes, ts)
    for got, want in zip(still, once):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert not still[1].any()


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    control_fields(),
    st.integers(1, 4),
    st.floats(0.01, 0.2),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
)
def test_lte_rows_equal_one_check_per_state(drawn, count, h, grid, seed):
    field, dim = drawn
    states = np.random.default_rng(seed).normal(size=(count, dim)) * 2.0
    observed, bound = lte_check(field, states, 0.0, h, ref_steps=16, grid=grid)
    assert observed.shape == bound.shape == (count,)
    for k, x in enumerate(states):
        want = lte_check(field, x, 0.0, h, ref_steps=16, grid=grid)
        assert all(type(v) is float for v in want)
        np.testing.assert_array_equal((observed[k], bound[k]), want)


class TestGlobalErrorSweep:
    H_VALUES = [1 / 8, 1 / 16, 1 / 32, 1 / 64]

    def test_constant_field_exact(self):
        errors, slope = global_error_sweep(
            lambda x, t: np.array([1.0]), np.zeros(1), self.H_VALUES
        )
        assert all(e <= 1e-13 for e in errors)
        assert math.isnan(slope)

    def test_first_order_convergence(self):
        def fn(x, t):
            return np.array([math.tanh(1.5 * x[0]) + 0.2, -0.5 * x[1]])

        errors, slope = global_error_sweep(fn, np.array([0.3, 1.0]), self.H_VALUES)
        assert 0.8 <= slope <= 1.2

    def test_divergent_runs_marked(self):
        # stiff decay: the true flow contracts but Euler at h = 1/8 sits far
        # outside the stability region and blows up
        def fn(x, t):
            return -100.0 * x

        errors, _ = global_error_sweep(
            fn, np.array([1.0]), self.H_VALUES, horizon=1.0, ref_steps=4096
        )
        assert math.isinf(errors[0])
        assert math.isfinite(errors[-1])

    def test_needs_enough_span(self):
        with pytest.raises(DomainError):
            global_error_sweep(
                lambda x, t: x, np.ones(1), [1 / 8, 1 / 10, 1 / 12, 1 / 16]
            )


SWEEP_H = [1 / 8, 1 / 16, 1 / 32, 1 / 64]


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["two_blob_1d", "two_blob_2d", "ring_3blob_2d", "stiff_2d"]),
    st.sampled_from(
        [
            Schedule(kind=LINEAR_INTERP),
            Schedule(kind=VP_CONST_BETA, beta0=1.0),
            Schedule(
                kind=VP_GENERIC,
                beta_times=np.linspace(0.0, 1.0, 6),
                beta_values=0.1 + 4.0 * np.linspace(0.0, 1.0, 6) ** 2,
            ),
        ]
    ),
    st.sampled_from([0.0, 0.25]),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.sampled_from([("chord", "naive"), ("naive", "chord"), "chord", "naive"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_sweep_rows_equal_one_sweep_per_row(name, schedule, delta, n, share, kinds, same, seed):
    # a tuple of kinds puts one method on each row; a single kind takes any
    # number of rows; the rows start from one state or from different ones
    model = BackboneModel(schedule, *load_preset(name))
    params = ChordParams(t=0.7, delta=delta, n=n, share_noise_across_times=share)
    methods = kinds if isinstance(kinds, tuple) else (kinds,) * 3
    rng = np.random.default_rng(seed)
    x0 = np.repeat(rng.normal(size=(1, model.dim)), len(methods), axis=0)
    if not same:
        x0 = x0 + rng.normal(size=x0.shape)
    sweeps = global_error_sweep(
        make_control_field(model, params, kinds, seed), x0, SWEEP_H, ref_steps=32
    )
    assert len(sweeps) == len(methods)
    for x, method, (errors, slope) in zip(x0, methods, sweeps):
        want = global_error_sweep(
            make_control_field(model, params, method, seed), x, SWEEP_H, ref_steps=32
        )
        assert all(type(e) is float for e in errors)
        np.testing.assert_array_equal(errors, want[0])
        np.testing.assert_array_equal(slope, want[1])


def test_sweep_rejects_a_step_that_does_not_divide_the_horizon_before_integrating():
    calls = []

    def fn(x, t):
        calls.append(t)
        return -x

    with pytest.raises(DomainError, match="does not divide"):
        global_error_sweep(fn, np.ones((2, 1)), [1 / 8, 1 / 16, 1 / 32, 0.015])
    assert calls == []


@pytest.mark.parametrize(
    "horizon, h_values",
    [
        (math.nan, [1 / 8, 1 / 16, 1 / 32, 1 / 64]),
        (math.inf, [1 / 8, 1 / 16, 1 / 32, 1 / 64]),
        (1.0, [1 / 8, 1 / 16, 1 / 32, math.nan]),
        (1.0, [math.inf, 1 / 16, 1 / 32, 1 / 64]),
        (1.0, [1 / 8, 1 / 16, 1 / 32, 0.0]),
        (-1.0, [-1 / 8, -1 / 16, -1 / 32, -1 / 64]),
    ],
)
def test_sweep_rejects_a_horizon_or_step_not_positive_and_finite(horizon, h_values):
    def fn(x, t):
        raise AssertionError("field evaluated before the inputs were checked")

    with pytest.raises(DomainError, match="positive and finite"):
        global_error_sweep(fn, np.ones(1), h_values, horizon=horizon)


def test_sweep_row_that_diverges_is_frozen_and_alone_gets_inf():
    # stiff decay on row 0 blows Euler up at the coarse steps, mild decay on
    # row 1 never does; each row's result is that of its own sweep
    rates = np.array([[100.0], [1.0]])
    evaluated = []

    def rows_fn(x, t):
        evaluated.append(x.copy())
        return -rates * x

    got = global_error_sweep(rows_fn, np.ones((2, 1)), SWEEP_H, ref_steps=4096)
    for rate, (errors, slope) in zip(rates[:, 0], got):
        want = global_error_sweep(lambda x, t: -rate * x, np.ones(1), SWEEP_H, ref_steps=4096)
        np.testing.assert_array_equal(errors, want[0])
        np.testing.assert_array_equal(slope, want[1])
    assert [math.isinf(e) for e in got[0][0]] == [True, True, True, False]
    assert all(math.isfinite(e) for e in got[1][0])
    # the frozen row is only ever evaluated at states within the guard
    assert max(float(np.abs(x[0]).max()) for x in evaluated) <= 1e6


@pytest.mark.parametrize("dim", range(1, 13))
@pytest.mark.parametrize("lead", [(0, 6), (4, 0), (5, 37)])
@pytest.mark.parametrize("layout", ["contiguous", "trials inner"])
def test_squared_norms_bytes_equal_to_the_coordinate_sum(dim, lead, layout):
    # the strided adds below 8 coordinates against numpy's own reduction,
    # on trial-major values and on the smoothers' (points, trials) layout
    rng = np.random.default_rng(dim)
    trials, points = lead
    values = rng.standard_normal((points, trials, dim))
    truth = rng.standard_normal((points, dim))
    if values.size:
        values[0] = truth[0]  # zeros
        values[-1, 0, 0] = np.inf
        values[0, -1, -1] = -np.inf
        values[-1, -1, 0] = np.nan
    values = np.moveaxis(values, 1, 0)
    if layout == "contiguous":
        values = np.ascontiguousarray(values)
    expected = values - truth
    expected *= expected
    got = diagnostics._squared_norms(values.copy(), truth)
    expected = expected.sum(axis=-1)
    assert got.shape == expected.shape == lead
    assert got.tobytes() == expected.tobytes()


def trial_noise(seed, trial, shape):
    key = np.array([derive_stream(seed, NS_TRIAL, trial), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


class TestRiskExperiment:
    def test_noiseless_decomposition(self):
        t = np.arange(40) * 0.05
        u_star = np.stack([np.sin(t), np.cos(t)], axis=1)
        kernel = uniform_causal_kernel(4, 0.05)
        mse_naive, mse_chord = risk_experiment(u_star, 0.0, kernel, 100, seed=0)
        assert mse_naive == 0.0
        assert mse_chord > 0.0  # pure smoothing bias

    def test_constant_truth_variance_reduction(self):
        u_star = np.full((48, 2), 0.9)
        for name, kernel in shipped_causal_kernels(0.05).items():
            if kernel.taps == 1:
                continue
            mse_naive, mse_chord = risk_experiment(u_star, 0.3, kernel, 300, seed=1)
            assert mse_chord < mse_naive, name

    def test_naive_risk_matches_noise_level(self):
        u_star = np.full((64, 2), -1.3)
        sigma = 0.25
        trials = 400
        mse_naive, _ = risk_experiment(
            u_star, sigma, uniform_causal_kernel(4, 0.05), trials, seed=2
        )
        expected = 2 * sigma * sigma
        # chi-square spread of the mean of trials * points squared residuals
        points = 64 - 3
        se = expected * math.sqrt(2.0 / (trials * points * 2))
        assert abs(mse_naive - expected) <= 3 * se

    def test_dirac_bit_equality(self):
        t = np.arange(32) * 0.05
        u_star = np.stack([np.sin(t), t], axis=1)
        mse_naive, mse_chord = risk_experiment(
            u_star, 0.2, dirac_kernel(0.05), 128, seed=3
        )
        assert mse_naive == mse_chord

    @pytest.mark.parametrize("name", sorted(shipped_causal_kernels(0.05)))
    def test_bit_equal_to_list_trial_loop(self, name):
        kernel = shipped_causal_kernels(0.05)[name]
        t = np.arange(24) * 0.05
        u_star = np.stack([np.sin(t), 1.0 - t], axis=1)
        got = risk_experiment(u_star, 0.3, kernel, 100, seed=5)
        lag = kernel.taps - 1
        mse_naive = mse_chord = 0.0
        for trial in range(100):
            noisy = u_star + 0.3 * trial_noise(5, trial, u_star.shape)
            series = [(float(ts), noisy[j]) for j, ts in enumerate(t)]
            smoothed = []
            for j in range(lag, len(series)):
                out = np.zeros(2)
                for i, w in enumerate(kernel.weights):
                    out += (w * kernel.grid_step) * series[j - i][1]
                smoothed.append(out)
            smoothed = np.array(smoothed)
            diff_naive = noisy[lag:] - u_star[lag:]
            diff_chord = smoothed - u_star[lag:]
            mse_naive += float((diff_naive**2).sum(axis=1).mean())
            mse_chord += float((diff_chord**2).sum(axis=1).mean())
        np.testing.assert_array_equal(got, (mse_naive / 100, mse_chord / 100))

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(sorted(shipped_causal_kernels(0.05))),
        st.integers(5, 300),
        st.integers(1, 3),
        st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    )
    def test_trials_as_one_array_bit_equal_to_one_trial_at_a_time(self, name, length, dim, seed):
        # long series too: each trial's mean runs over more than one block
        # of the pairwise sum
        kernel = shipped_causal_kernels(0.05)[name]
        u_star = np.cos(np.arange(length * dim, dtype=float)).reshape(length, dim)
        got = risk_experiment(u_star, 0.3, kernel, 100, seed=seed)
        lag = kernel.taps - 1
        mse_naive = mse_chord = 0.0
        for trial in range(100):
            noisy = u_star + 0.3 * trial_noise(seed, trial, u_star.shape)
            smooth = np.zeros_like(noisy[lag:])
            for i, w in enumerate(kernel.weights * kernel.grid_step):
                smooth += w * noisy[lag - i : length - i]
            mse_naive += float(((noisy[lag:] - u_star[lag:]) ** 2).sum(axis=1).mean())
            mse_chord += float(((smooth - u_star[lag:]) ** 2).sum(axis=1).mean())
        np.testing.assert_array_equal(got, (mse_naive / 100, mse_chord / 100))

    @pytest.mark.parametrize("trials", [RISK_CHUNK - 1, RISK_CHUNK, 2 * RISK_CHUNK + 7])
    def test_trials_in_chunks_bit_equal_to_one_trial_at_a_time(self, trials):
        kernel = shipped_causal_kernels(0.05)["triangular"]
        t = np.arange(12) * 0.05
        u_star = np.stack([np.sin(t), 1.0 - t], axis=1)
        got = risk_experiment(u_star, 0.3, kernel, trials, seed=8)
        lag = kernel.taps - 1
        sums = np.zeros(2)
        for trial in range(trials):
            noisy = u_star + 0.3 * trial_noise(8, trial, u_star.shape)
            causal = sum(
                w * noisy[lag - i : len(t) - i]
                for i, w in enumerate(kernel.weights * kernel.grid_step)
            )
            pairs = [(noisy[lag:], u_star[lag:]), (causal, u_star[lag:])]
            for k, (values, truth) in enumerate(pairs):
                sums[k] += float(((values - truth) ** 2).sum(axis=1).mean())
        np.testing.assert_array_equal(got, tuple(sums / trials))

    @settings(max_examples=15, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.sampled_from(sorted(shipped_causal_kernels(0.05))),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.integers(5, 300),
        st.integers(1, 3),
        st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
        st.sampled_from([100, RISK_CHUNK - 1, RISK_CHUNK, 2 * RISK_CHUNK + 7]),
    )
    def test_kernel_tuple_equals_one_call_per_kernel(self, names, length, dim, seed, trials):
        kernels = shipped_causal_kernels(0.05)
        u_star = np.sin(np.arange(length * dim, dtype=float)).reshape(length, dim)
        got = risk_experiment(u_star, 0.3, tuple(kernels[n] for n in names), trials, seed)
        assert len(got) == len(names)
        for name, pair in zip(names, got):
            want = risk_experiment(u_star, 0.3, kernels[name], trials, seed)
            np.testing.assert_array_equal(pair, want)

    @pytest.mark.parametrize("position", [None, 0, 2, 5])
    def test_kernel_tuple_checks_every_support_before_drawing(self, monkeypatch, position):
        # a kernel longer than the series at the given position, or no kernels
        def no_draws(keys, shape):
            raise AssertionError("noise drawn before every support was checked")

        monkeypatch.setattr(diagnostics, "_philox_normals", no_draws)
        kernels = []
        if position is not None:
            kernels = list(shipped_causal_kernels(0.05).values())
            kernels.insert(position, uniform_causal_kernel(9, 0.05))
        with pytest.raises(DomainError):
            risk_experiment(np.zeros((8, 2)), 0.3, tuple(kernels), 100, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.2])
    def test_noise_sigma_negative_or_not_finite_rejected(self, sigma):
        with pytest.raises(DomainError, match="noise_sigma"):
            risk_experiment(np.zeros((32, 2)), sigma, dirac_kernel(0.05), 100, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_u_star_not_finite_rejected(self, monkeypatch, value):
        def no_draws(keys, shape):
            raise AssertionError("noise drawn for a truth that is not finite")

        monkeypatch.setattr(diagnostics, "_philox_normals", no_draws)
        u_star = np.full((32, 2), 1.7)
        u_star[5, 1] = value
        with pytest.raises(DomainError, match="u_star must be finite"):
            risk_experiment(u_star, 0.2, dirac_kernel(0.05), 100, seed=0)

    def test_series_shorter_than_causal_support_rejected(self):
        with pytest.raises(DomainError, match="series shorter than the smoother support"):
            risk_experiment(np.zeros((4, 2)), 0.1, uniform_causal_kernel(5, 0.05), 100, seed=0)

    def test_trial_floor(self):
        with pytest.raises(DomainError):
            risk_experiment(
                np.zeros((32, 1)), 0.1, dirac_kernel(0.05), 50, seed=0
            )


def fine_series(fn, dt=1.0 / 1024):
    t = np.arange(0.0, 1.0 + dt / 2, dt)
    return np.stack([f(t) for f in fn], axis=1), dt


def _knot_loop_basis(times, knots):
    """The hat basis built one knot at a time, the oracle of ``_hat_basis``."""
    n_seg = knots.size - 1
    basis = np.zeros((times.size, n_seg + 1))
    for k, knot in enumerate(knots):
        left = knots[k - 1] if k > 0 else knot
        right = knots[k + 1] if k < n_seg else knot
        rising = (times >= left) & (times <= knot)
        if k > 0:
            basis[rising, k] = (times[rising] - left) / (knot - left)
        else:
            basis[rising, k] = 1.0
        falling = (times > knot) & (times <= right)
        if k < n_seg:
            basis[falling, k] = (right - times[falling]) / (right - knot)
    return basis


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(2, 24),
    st.floats(1e-4, 10.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_hat_basis_bit_equal_to_the_knot_loop(n_seg, per_seg, dt, uniform, seed):
    count = n_seg * per_seg + 1
    times = np.arange(count) * dt
    span = (count - 1) * dt
    if uniform:  # the knots of projection_energy_gap
        knots = np.linspace(0.0, span, n_seg + 1)
    else:  # uneven spacings over a span that may stop short of the samples' or pass it
        steps = np.random.default_rng(seed).uniform(0.05, 2.0, n_seg)
        knots = np.concatenate(([0.0], np.cumsum(steps))) * (span / n_seg)
    basis = _hat_basis(times, knots)
    assert basis.shape == (count, n_seg + 1)
    assert basis.tobytes() == _knot_loop_basis(times, knots).tobytes()


class TestProjectionEnergyGap:
    def test_piecewise_linear_input_exact(self):
        dt = 1.0 / 256
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        u = np.abs(t - 0.5)[:, None]  # kink at an eligible knot
        eo, ep, er = projection_energy_gap(u, 0.25, dt)
        assert er <= 1e-20
        assert ep == pytest.approx(eo, rel=1e-12)

    def test_constant_input_exact(self):
        dt = 1.0 / 128
        u = np.full((129, 2), 1.5)
        eo, ep, er = projection_energy_gap(u, 0.25, dt)
        assert er <= 1e-20

    def test_pythagorean_identity_and_ordering(self):
        u, dt = fine_series([np.sin, np.cos])
        for delta in (0.25, 0.125, 0.0625):
            eo, ep, er = projection_energy_gap(u, delta, dt)
            assert ep <= eo
            assert abs((eo - ep) - er) <= 1e-10 * max(eo, 1.0)

    def test_smooth_signal_has_fourth_order_energy_rate(self):
        # classical best-approximation rate for a C^2 signal: residual
        # energy falls ~16x per halving (O(delta^4))
        u, dt = fine_series([lambda t: np.sin(2 * np.pi * t)])
        residuals = [
            projection_energy_gap(u, delta, dt)[2]
            for delta in (0.125, 0.0625, 0.03125)
        ]
        for a, b in zip(residuals, residuals[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_h1_critical_signal_has_quadratic_energy_rate(self):
        # a power-law spectrum at the H^1 edge exhibits the O(delta^2)
        # residual-energy rate, i.e. ~4x per halving
        dt = 1.0 / 1024
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        golden = math.pi * (3 - math.sqrt(5))
        u = np.zeros((t.size, 2))
        for f in range(1, 257):
            a = f**-1.5
            u[:, 0] += a * np.sin(2 * np.pi * f * t + golden * f)
            u[:, 1] += a * np.cos(2 * np.pi * f * t + 0.7 * golden * f)
        residuals = [
            projection_energy_gap(u, delta, dt)[2]
            for delta in (0.125, 0.0625, 0.03125)
        ]
        for a, b in zip(residuals, residuals[1:]):
            assert 3.0 <= a / b <= 5.0

    def test_indivisible_delta_rejected(self):
        u = np.zeros((101, 1))
        with pytest.raises(DomainError):
            projection_energy_gap(u, 0.3, 0.01)

    def test_too_few_samples_per_segment(self):
        u = np.zeros((5, 1))
        with pytest.raises(DomainError):
            projection_energy_gap(u, 0.25, 0.25)
