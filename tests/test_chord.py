import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chordfield.chord import (
    ChordParams,
    SmoothingKernel,
    chord_field,
    chord_two_tap_kernel,
    dirac_kernel,
    exponential_causal_kernel,
    kernel_smooth,
    recursive_chord_series,
    shipped_causal_kernels,
    surrogate_objective,
    triangular_causal_kernel,
    uniform_causal_kernel,
    window_minimizer,
)
from chordfield.errors import DomainError


def random_window(rng, dim=3, m=5, t=0.9, delta=0.15):
    times = np.sort(rng.uniform(t - delta, t, size=m))
    times[0], times[-1] = t - delta, t
    samples = [(float(ts), rng.normal(size=dim)) for ts in times]
    u_prev = rng.normal(size=dim)
    return u_prev, samples


class TestChordField:
    def test_zero_window_is_naive_bit_exact(self):
        rng = np.random.default_rng(0)
        p, q = rng.normal(size=4), rng.normal(size=4)
        np.testing.assert_array_equal(chord_field(p, q, 0.9, 0.0), p)

    def test_equal_inputs_fixed_point(self):
        r = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(chord_field(r, r, 0.9, 0.15), r, rtol=1e-15)

    def test_default_weights(self):
        p, q = np.array([7.0]), np.array([0.0])
        out = chord_field(p, q, 0.90, 0.15)
        # (6 p + q) / 7 at the default times
        assert out[0] == pytest.approx(6.0, rel=1e-15)

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError):
            chord_field(np.zeros(2), np.zeros(2), 0.0, 0.0)

    def test_pointwise_energy_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            t = rng.uniform(0.05, 1.0)
            delta = rng.uniform(0.0, t)
            p, q = rng.normal(size=3), rng.normal(size=3)
            u = chord_field(p, q, t, delta)
            bound = (
                t * float(p @ p) + delta * float(q @ q)
            ) / (t + delta)
            assert float(u @ u) <= bound + 1e-12


class TestSurrogateObjective:
    def test_perfect_fit_is_zero(self):
        u = np.array([0.5, -0.5])
        samples = [(0.75, u.copy()), (0.82, u.copy()), (0.9, u.copy())]
        assert surrogate_objective(u, u, samples, 0.9, 0.15) == 0.0

    def test_zero_window_prior_only(self):
        u, u_prev = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        assert surrogate_objective(u, u_prev, [], 0.9, 0.0) == pytest.approx(0.9)

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            surrogate_objective(
                np.zeros(2), np.zeros(2), [(0.9, np.zeros(2))], 0.9, 0.15
            )

    def test_sample_times_validated(self):
        bad = [(0.5, np.zeros(2)), (0.95, np.zeros(2))]
        with pytest.raises(DomainError):
            surrogate_objective(np.zeros(2), np.zeros(2), bad, 0.9, 0.15)

    def test_grid_search_confirms_minimizer(self):
        # the objective separates per coordinate, so a fine 1-D grid around
        # the closed form must not find anything lower
        rng = np.random.default_rng(10)
        u_prev, samples = random_window(rng, dim=2)
        u_star = window_minimizer(u_prev, samples, 0.9, 0.15)
        phi_star = surrogate_objective(u_star, u_prev, samples, 0.9, 0.15)
        for axis in range(2):
            for offset in np.linspace(-0.2, 0.2, 81):
                u = u_star.copy()
                u[axis] += offset
                assert (
                    surrogate_objective(u, u_prev, samples, 0.9, 0.15)
                    >= phi_star - 1e-12
                )


class TestWindowMinimizer:
    def test_constant_window_fixed_point(self):
        c = np.array([2.0, -1.0])
        samples = [(0.75, c.copy()), (0.9, c.copy())]
        np.testing.assert_allclose(window_minimizer(c, samples, 0.9, 0.15), c)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = rng.uniform(0.3, 1.0)
            delta = rng.uniform(0.05, min(t, 0.4))
            u_prev, samples = random_window(rng, dim=3, m=6, t=t, delta=delta)
            got = window_minimizer(u_prev, samples, t, delta)
            # independent solve of the quadratic's normal equation
            times = np.array([ts for ts, _ in samples])
            gaps = np.diff(times)
            w = np.zeros_like(times)
            w[:-1] += gaps / 2
            w[1:] += gaps / 2
            lhs = t + w.sum()
            rhs = t * u_prev + sum(
                wi * vi for wi, (_, vi) in zip(w, samples)
            )
            np.testing.assert_allclose(got, rhs / lhs, atol=1e-10)

    def test_gradient_vanishes_at_minimizer(self):
        rng = np.random.default_rng(3)
        u_prev, samples = random_window(rng, dim=4, m=5)
        u_star = window_minimizer(u_prev, samples, 0.9, 0.15)
        h = 1e-7
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            up = surrogate_objective(u_star + e, u_prev, samples, 0.9, 0.15)
            dn = surrogate_objective(u_star - e, u_prev, samples, 0.9, 0.15)
            assert abs(up - dn) / (2 * h) <= 1e-6

    def test_two_point_window_approaches_chord(self):
        # with endpoint samples and prior = earlier field, the minimizer and
        # the chord differ exactly by (delta/2) (p - q) / (t + delta)
        rng = np.random.default_rng(4)
        t, delta = 0.9, 0.15
        p, q = rng.normal(size=3), rng.normal(size=3)
        samples = [(t - delta, p), (t, q)]
        u_star = window_minimizer(p, samples, t, delta)
        chord = chord_field(p, q, t, delta)
        expected_gap = (delta / 2.0) * (p - q) / (t + delta)
        np.testing.assert_allclose(u_star - chord, expected_gap, atol=1e-12)

    def test_quadrature_error_shrinks_with_delta(self):
        # against a field with slowly varying slope the two-point
        # minimizer-vs-chord gap is second order in the window width
        t = 0.9

        def f(ts):
            return np.array([2.0 - 3.0 * ts + 0.5 * ts * ts, 1.0 + 0.8 * ts])

        gaps = []
        for delta in (0.2, 0.1, 0.05):
            p, q = f(t - delta), f(t)
            samples = [(t - delta, p), (t, q)]
            gap = np.linalg.norm(
                window_minimizer(p, samples, t, delta) - chord_field(p, q, t, delta)
            )
            gaps.append(gap)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.25)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.25)


class TestSmoothingKernel:
    def test_mass_validation(self):
        with pytest.raises(DomainError):
            SmoothingKernel(weights=np.array([1.0, 1.0]), grid_step=1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            SmoothingKernel(weights=np.array([2.0, -1.0]), grid_step=1.0)

    @pytest.mark.parametrize("grid_step", [0.0, -0.05, math.inf, math.nan])
    @pytest.mark.parametrize(
        "make",
        [
            dirac_kernel,
            lambda ds: chord_two_tap_kernel(0.9, 0.2, ds),
            lambda ds: uniform_causal_kernel(4, ds),
            lambda ds: triangular_causal_kernel(4, ds),
            lambda ds: exponential_causal_kernel(4, ds, rate=0.8),
            lambda ds: SmoothingKernel(weights=np.array([1.0]), grid_step=ds),
        ],
        ids=["dirac", "chord_two_tap", "uniform", "triangular", "exponential", "dataclass"],
    )
    def test_grid_step_not_positive_and_finite_rejected(self, make, grid_step):
        # checked before a constructor divides by it
        with pytest.raises(DomainError, match="grid_step"):
            make(grid_step)

    @pytest.mark.parametrize("t", [-0.1, -0.2, math.nan, math.inf])
    def test_two_tap_time_negative_or_not_finite_rejected(self, t):
        # t = -delta leaves no mass to divide by; checked before any arithmetic
        with pytest.raises(DomainError, match="t must"):
            chord_two_tap_kernel(t, 0.2, 0.05)

    def test_two_tap_at_time_zero_is_all_at_lag_zero(self):
        weights = chord_two_tap_kernel(0.0, 0.2, 0.05).weights
        assert weights[0] == pytest.approx(20.0, rel=1e-15) and not weights[1:].any()

    def test_shipped_kernels_all_unit_mass(self):
        for name, k in shipped_causal_kernels(0.02).items():
            assert abs(k.weights.sum() * k.grid_step - 1.0) <= 1e-9, name


def constant_series(value, count=12, ds=0.05, dim=2):
    return [(j * ds, np.full(dim, value)) for j in range(count)]


class TestKernelSmooth:
    def test_dirac_is_identity(self):
        rng = np.random.default_rng(5)
        series = [(j * 0.05, rng.normal(size=3)) for j in range(10)]
        out = kernel_smooth(series, dirac_kernel(0.05))
        assert len(out) == len(series)
        for (ti, vi), (to, vo) in zip(series, out):
            assert ti == to
            np.testing.assert_array_equal(vi, vo)

    def test_constant_series_unchanged(self):
        series = constant_series(3.5)
        out = kernel_smooth(series, uniform_causal_kernel(4, 0.05))
        for _, v in out:
            np.testing.assert_allclose(v, 3.5, rtol=1e-12)

    def test_two_tap_kernel_reproduces_chord_field(self):
        rng = np.random.default_rng(6)
        ds, t, delta = 0.05, 0.9, 0.15
        series = [(j * ds, rng.normal(size=2)) for j in range(20)]
        kernel = chord_two_tap_kernel(t, delta, ds)
        out = kernel_smooth(series, kernel)
        lag = kernel.taps - 1
        for idx, (ts, smoothed) in enumerate(out):
            j = idx + lag
            direct = chord_field(series[j - lag][1], series[j][1], t, delta)
            np.testing.assert_allclose(smoothed, direct, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(shipped_causal_kernels(0.05)))
    def test_bit_equal_to_explicit_weighted_sum(self, name):
        rng = np.random.default_rng(10)
        ds = 0.05
        kernel = shipped_causal_kernels(ds)[name]
        series = [(j * ds, rng.normal(size=3)) for j in range(20)]
        out = kernel_smooth(series, kernel)
        lag = kernel.taps - 1
        assert len(out) == len(series) - lag
        for idx, (ts, smoothed) in enumerate(out):
            j = idx + lag
            expected = np.zeros(3)
            for i, w in enumerate(kernel.weights):
                expected += (w * kernel.grid_step) * series[j - i][1]
            assert ts == series[j][0]
            np.testing.assert_array_equal(smoothed, expected)

    def test_grid_mismatch_rejected(self):
        series = [(j * 0.07, np.zeros(2)) for j in range(10)]
        with pytest.raises(DomainError):
            kernel_smooth(series, uniform_causal_kernel(3, 0.05))

    def test_output_only_where_support_fits(self):
        series = constant_series(1.0, count=10)
        out = kernel_smooth(series, uniform_causal_kernel(4, 0.05))
        assert len(out) == 10 - 3
        assert out[0][0] == pytest.approx(series[3][0])


def band_limited_series(rng, count=64, ds=0.02, dim=2, modes=4):
    t = np.arange(count) * ds
    vals = np.zeros((count, dim))
    for m in range(1, modes + 1):
        amp = rng.normal(size=(2, dim)) / m
        vals += amp[0] * np.sin(2 * np.pi * m * t)[:, None]
        vals += amp[1] * np.cos(2 * np.pi * m * t)[:, None]
    return [(float(ts), vals[j]) for j, ts in enumerate(t)]


def l2_energy(series, ds):
    return sum(float(v @ v) for _, v in series) * ds


class TestContractionProperties:
    @pytest.mark.parametrize("name", ["chord_two_tap", "uniform", "triangular", "exponential"])
    def test_l2_contraction_strict_for_nonconstant(self, name):
        # zero-padding convention: the smoothed output (defined where the
        # full support fits) is compared against the whole raw series
        rng = np.random.default_rng(7)
        ds = 0.02
        kernel = shipped_causal_kernels(ds)[name]
        for _ in range(25):
            series = band_limited_series(rng, ds=ds)
            out = kernel_smooth(series, kernel)
            assert l2_energy(out, ds) < l2_energy(series, ds)

    def test_linf_contraction(self):
        rng = np.random.default_rng(8)
        ds = 0.02
        for name, kernel in shipped_causal_kernels(ds).items():
            series = band_limited_series(rng, ds=ds)
            out = kernel_smooth(series, kernel)
            raw_max = max(np.abs(v).max() for _, v in series)
            out_max = max(np.abs(v).max() for _, v in out)
            assert out_max <= raw_max + 1e-12, name

    def test_time_difference_contraction(self):
        rng = np.random.default_rng(9)
        ds = 0.02
        for name, kernel in shipped_causal_kernels(ds).items():
            series = band_limited_series(rng, ds=ds)
            out = kernel_smooth(series, kernel)

            def max_diff(items):
                vals = np.array([v for _, v in items])
                return np.abs(np.diff(vals, axis=0)).max()

            assert max_diff(out) <= max_diff(series) + 1e-12, name


class TestRecursiveSeries:
    def test_matches_length_and_grid(self):
        rng = np.random.default_rng(11)
        series = band_limited_series(rng, count=40)
        out = recursive_chord_series(series, delta=0.08)
        assert len(out) == len(series)
        assert out[5][0] == series[5][0]

    def test_constant_series_is_fixed_point(self):
        series = constant_series(2.0, count=20)
        out = recursive_chord_series(series, delta=0.15)
        for _, v in out:
            np.testing.assert_allclose(v, 2.0, rtol=1e-12)

    @pytest.mark.parametrize("lag", [1, 3, 4])
    def test_bit_equal_to_window_minimizer_loop(self, lag):
        rng = np.random.default_rng(13)
        ds = 0.02
        series = band_limited_series(rng, count=30, ds=ds, dim=3)
        delta = lag * ds
        out = recursive_chord_series(series, delta)
        estimates = [v.copy() for _, v in series[:lag]]
        for j in range(lag, len(series)):
            window = series[j - lag : j + 1]
            estimates.append(
                window_minimizer(estimates[j - lag], window, series[j][0], delta)
            )
        assert len(out) == len(series)
        for (ts, got), (t_ref, _), expected in zip(out, series, estimates):
            assert ts == t_ref
            np.testing.assert_array_equal(got, expected)

    def test_recursion_contracts_energy(self):
        rng = np.random.default_rng(12)
        ds = 0.02
        series = band_limited_series(rng, count=64, ds=ds)
        out = recursive_chord_series(series, delta=4 * ds)
        assert l2_energy(out, ds) <= l2_energy(series, ds)


class TestChordParams:
    def test_defaults_are_valid(self):
        p = ChordParams()
        assert (p.t, p.delta, p.step_scale, p.t_c, p.n) == (0.9, 0.15, 1.0, 0.3, 1)

    def test_window_cannot_cross_zero(self):
        with pytest.raises(DomainError):
            ChordParams(t=0.1, delta=0.2)

    def test_negative_scale_rejected(self):
        with pytest.raises(DomainError):
            ChordParams(step_scale=-1.0)

    @pytest.mark.parametrize("name", ["t", "delta", "step_scale", "t_c"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_values_rejected(self, name, flag):
        # True would read as 1.0 and False as 0.0
        with pytest.raises(DomainError):
            ChordParams(**{name: flag})


PROPERTY_SETTINGS = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)
VALUES = st.floats(-1e3, 1e3, allow_subnormal=False)
# absolute floor for products and squares that underflow
UNDERFLOW = 1e-300


@st.composite
def kernels_and_series(draw):
    """A random non-negative unit-mass kernel and a series on its grid."""
    grid_step = draw(st.sampled_from([0.01, 0.05, 0.25, 1.0]))
    raw = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
    if sum(raw) < 1e-6:
        raw[draw(st.integers(0, len(raw) - 1))] = 1.0
    weights = np.array(raw) / (sum(raw) * grid_step)
    kernel = SmoothingKernel(weights=weights, grid_step=grid_step)
    count = draw(st.integers(kernel.taps, kernel.taps + 20))
    dim = draw(st.integers(1, 3))
    values = draw(arrays(float, (count, dim), elements=VALUES))
    return kernel, [(j * grid_step, values[j]) for j in range(count)]


def stacked(series):
    return np.array([v for _, v in series])


def at_most(smoothed, raw):
    return smoothed <= raw * (1.0 + 1e-12) + UNDERFLOW


class TestContractionHypothesis:
    @PROPERTY_SETTINGS
    @given(kernels_and_series())
    def test_kernel_smooth_never_increases_energy_sup_or_differences(self, case):
        kernel, series = case
        raw = stacked(series)
        out = stacked(kernel_smooth(series, kernel))
        energy = lambda v: float((v * v).sum()) * kernel.grid_step
        sup = lambda v: float(np.linalg.norm(v, axis=1).max())
        assert at_most(energy(out), energy(raw))
        assert at_most(sup(out), sup(raw))
        if out.shape[0] > 1:
            assert at_most(sup(np.diff(out, axis=0)), sup(np.diff(raw, axis=0)))

    @PROPERTY_SETTINGS
    @given(
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1.0),
        arrays(float, (2, 3), elements=VALUES),
    )
    def test_chord_field_is_convex_combination(self, t, frac, pair):
        delta = frac * t
        r_prev, r_curr = pair
        u = chord_field(r_prev, r_curr, t, delta)
        weight = t / (t + delta)
        np.testing.assert_allclose(
            u, weight * r_prev + (1.0 - weight) * r_curr, rtol=1e-12, atol=1e-9
        )
        lo, hi = np.minimum(r_prev, r_curr), np.maximum(r_prev, r_curr)
        slack = 1e-12 * np.abs(pair).max(axis=0) + UNDERFLOW
        assert np.all(lo - slack <= u) and np.all(u <= hi + slack)
        assert at_most(float(u @ u), max(float(r_prev @ r_prev), float(r_curr @ r_curr)))


def test_window_minimizer_at_zero_delta_returns_u_prev_bit_for_bit():
    # a window of width 0 adds nothing to the prior, whatever its one sample holds
    u_prev = np.array([0.1, -0.0, 1e300, 5e-324])
    got = window_minimizer(u_prev, [(0.9, np.full(4, 7.0))], 0.9, 0.0)
    assert got.tobytes() == u_prev.tobytes()
    assert got is not u_prev


class TestKernelClosedForms:
    """Each constructor's weights are their closed forms bit for bit."""

    @PROPERTY_SETTINGS
    @given(
        st.floats(1e-3, 10.0),
        st.integers(1, 40),
        st.floats(0.01, 1.0),
        st.integers(1, 40),
        st.floats(0.01, 10.0),
    )
    def test_weights(self, gs, taps, t, lag, rate):
        lags = np.arange(taps, dtype=float)
        ramp = taps - lags
        decay = np.exp(-rate * lags)
        forms = [
            (dirac_kernel(gs), np.array([1 / gs])),
            (uniform_causal_kernel(taps, gs), np.full(taps, 1 / (taps * gs))),
            # the ramp's sum taps (taps + 1) / 2 is exact
            (triangular_causal_kernel(taps, gs), ramp / (taps * (taps + 1) / 2 * gs)),
            (exponential_causal_kernel(taps, gs, rate), decay / (decay.sum() * gs)),
        ]
        for kernel, want in forms:
            assert kernel.weights.tobytes() == want.tobytes()
        self.check_two_tap(t, lag, gs)

    @pytest.mark.parametrize("lag", [1, 6, 7, 8, 15, 64])
    def test_two_tap_on_either_side_of_numpy_s_eight_way_sum(self, lag):
        # from 8 entries on numpy sums in eight interleaved partial sums
        for t in (0.9, 0.3, 1.0, 0.123):
            self.check_two_tap(t, lag, 0.05)

    @staticmethod
    def check_two_tap(t, lag, gs):
        delta = lag * gs
        kernel = chord_two_tap_kernel(t, delta, gs)
        want = np.zeros(lag + 1)
        want[0] = delta / ((t + delta) * gs)
        want[lag] = t / ((t + delta) * gs)
        assert kernel.weights.tobytes() == want.tobytes()
