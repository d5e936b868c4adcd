import math

import numpy as np
import pytest

from chordfield.errors import DomainError, IllConditionedMapError
from chordfield.schedules import (
    CONSISTENCY,
    DATA_X0,
    LINEAR_INTERP,
    NOISE_EPS,
    PARAMETERIZATION_KINDS,
    SCORE,
    V_PRED,
    VELOCITY,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    coefficient,
    derivatives,
    epsilon_coefficient_forms,
    load_beta_table,
    path_scalars,
)


def vp(beta0=2.0, **kw):
    return Schedule(kind=VP_CONST_BETA, beta0=beta0, **kw)


def linear(**kw):
    return Schedule(kind=LINEAR_INTERP, **kw)


def generic_const(beta0=2.0, m=101, **kw):
    t = np.linspace(0.0, 1.0, m)
    return Schedule(kind=VP_GENERIC, beta_times=t, beta_values=np.full(m, beta0), **kw)


class TestEvaluate:
    def test_vp_at_zero(self):
        scalars = path_scalars(vp(), 0.0)
        assert scalars.alpha == 1.0 and scalars.sigma == 0.0

    def test_linear_midpoint(self):
        scalars = path_scalars(linear(), 0.5)
        assert (scalars.alpha, scalars.sigma) == (0.5, 0.5)

    def test_vp_midpoint_against_closed_form(self):
        # oracle: evaluate exp(-0.5) and sqrt(1 - e^-1) in 64-bit arithmetic
        scalars = path_scalars(vp(2.0), 0.5)
        assert scalars.alpha == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert scalars.sigma == pytest.approx(math.sqrt(1.0 - math.exp(-1.0)), abs=1e-15)

    def test_vp_identity_along_path(self):
        sched = vp(3.0)
        for t in np.linspace(0.0, 1.0, 41):
            scalars = path_scalars(sched, float(t))
            a, s = scalars.alpha, scalars.sigma
            assert abs(a * a + s * s - 1.0) <= 1e-12

    def test_generic_matches_const_beta(self):
        g, c = generic_const(2.0), vp(2.0)
        for t in np.linspace(0.0, 1.0, 17):
            pg, pc = path_scalars(g, float(t)), path_scalars(c, float(t))
            assert pg.alpha == pytest.approx(pc.alpha, abs=1e-14)
            assert pg.sigma == pytest.approx(pc.sigma, abs=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            path_scalars(vp(), -0.01)
        with pytest.raises(DomainError):
            path_scalars(vp(), 1.01)

    def test_alpha_strictly_decreasing(self):
        sched = vp(1.0)
        grid = np.linspace(0.0, 1.0, 101)
        alphas = [sched.alpha(float(t)) for t in grid]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))


def generic_ramp(m=11):
    t = np.linspace(0.0, 1.0, m)
    return Schedule(kind=VP_GENERIC, beta_times=t, beta_values=0.05 + 4.0 * t**4)


class TestPathScalars:
    """The single-evaluation scalars against the path methods, bit for bit."""

    SCHEDULES = {
        "vp_const_beta": vp,
        "vp_generic": generic_ramp,
        "linear_interp": linear,
    }

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_bit_equal_to_path_methods(self, kind):
        sched = self.SCHEDULES[kind]()
        node = float(generic_ramp().beta_times[3])
        between = 0.5 * (node + float(generic_ramp().beta_times[4]))
        sweep = [float(t) for t in np.linspace(0.0, 1.0, 41)]
        for t in [0.0, 1.0, node, between] + sweep:
            got = path_scalars(sched, t)
            np.testing.assert_array_equal(
                [got.alpha, got.sigma, got.alpha_dot],
                [sched.alpha(t), sched.sigma(t), sched.alpha_dot(t)],
            )
            if sched.is_vp and t == 0.0:
                # sigma = 0: both raise the same error
                with pytest.raises(IllConditionedMapError):
                    sched.sigma_dot(t)
                with pytest.raises(IllConditionedMapError):
                    got.sigma_dot
            else:
                np.testing.assert_array_equal(got.sigma_dot, sched.sigma_dot(t))

    @pytest.mark.parametrize("m", [2, 11, 257])
    def test_tabulated_lookup_bit_equal_to_numpy_reference(self, m):
        # reference: the table lookups done with np.searchsorted and
        # np.interp on the arrays, at every node, at both float neighbours
        # of each node, at both ends and at random points
        rng = np.random.default_rng(m)
        tg = np.linspace(0.0, 1.0, m)
        bg = rng.uniform(0.05, 20.0, m)
        sched = Schedule(kind=VP_GENERIC, beta_times=tg, beta_values=bg)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (bg[1:] + bg[:-1]) * np.diff(tg))])

        def reference(t):
            i = max(min(int(np.searchsorted(tg, t, side="right")) - 1, m - 2), 0)
            dt = t - tg[i]
            slope = (bg[i + 1] - bg[i]) / (tg[i + 1] - tg[i])
            a = math.exp(-0.5 * float(cum[i] + bg[i] * dt + 0.5 * slope * dt * dt))
            s = math.sqrt(max(1.0 - a * a, 0.0))
            ad = -0.5 * float(np.interp(t, tg, bg)) * a
            return [a, s, ad, -a * ad / s if s > 0.0 else math.nan]

        nodes = [float(t) for t in tg]
        points = nodes + [float(t) for t in rng.uniform(0.0, 1.0, 2000)]
        points += [math.nextafter(t, -1.0) for t in nodes[1:]]
        points += [math.nextafter(t, 2.0) for t in nodes[:-1]]
        got = [path_scalars(sched, t) for t in points]
        np.testing.assert_array_equal(
            [
                [g.alpha, g.sigma, g.alpha_dot, g.sigma_dot if g.sigma else math.nan]
                for g in got
            ],
            [reference(t) for t in points],
        )
        # beta alone is defined past the table, where np.interp clamps
        outside = [-0.5, -1e-300, 1.0 + 1e-15, 3.0, math.nan]
        np.testing.assert_array_equal(
            [sched.beta(t) for t in points + outside],
            [float(np.interp(t, tg, bg)) for t in points + outside],
        )

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_out_of_range_rejected_by_path_scalars(self, kind):
        sched = self.SCHEDULES[kind]()
        for t in (-1e-12, 1.0 + 1e-12, math.nan):
            with pytest.raises(DomainError):
                path_scalars(sched, t)

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_path_methods_reject_out_of_range(self, kind):
        # no extrapolation of the beta table or the linear path past [0, 1]
        sched = self.SCHEDULES[kind]()
        for t in (-0.2, -1e-12, 1.0 + 1e-12, 1.5, math.nan):
            for method in (sched.alpha, sched.sigma, sched.alpha_dot, sched.sigma_dot):
                with pytest.raises(DomainError):
                    method(t)


class TestDerivatives:
    def test_linear_exact(self):
        ad, sd = derivatives(linear(fd_step=0.01), 0.37)
        assert ad == pytest.approx(-1.0, rel=1e-12)
        assert sd == pytest.approx(1.0, rel=1e-12)

    def test_vp_analytic_alpha_dot(self):
        sched = vp(2.0)
        ad = path_scalars(sched, 0.5).alpha_dot
        assert ad == pytest.approx(-sched.alpha(0.5), abs=1e-15)

    def test_vp_analytic_sigma_dot(self):
        # vp relation: sigma_dot = -(alpha / sigma) * alpha_dot
        sched = vp(2.0)
        scalars = path_scalars(sched, 0.5)
        a, s = scalars.alpha, scalars.sigma
        ad, sd = scalars.alpha_dot, scalars.sigma_dot
        assert sd == pytest.approx(-ad * a / s, abs=1e-15)
        # frozen from the relation above: e^-1 / sqrt(1 - e^-1)
        assert sd == pytest.approx(0.46270645737647115, abs=1e-12)

    def test_fd_close_to_analytic(self):
        sched = vp(2.0, fd_step=1e-3)
        ad_fd, sd_fd = derivatives(sched, 0.5)
        scalars = path_scalars(sched, 0.5)
        ad, sd = scalars.alpha_dot, scalars.sigma_dot
        assert abs(ad_fd - ad) <= 2.0 * sched.fd_step
        assert abs(sd_fd - sd) <= 2.0 * sched.fd_step

    def test_fd_error_bounded_by_curvature(self):
        # backward difference error is (h/2) |alpha''| at an interior point;
        # alpha'' = (beta0/2)^2 alpha for the constant-rate path
        sched = vp(2.0, fd_step=1e-3)
        h = sched.fd_step
        for t in np.linspace(0.05, 0.95, 19):
            ad_fd, _ = derivatives(sched, float(t))
            ad = sched.alpha_dot(float(t))
            curvature = (sched.beta0 / 2.0) ** 2 * sched.alpha(float(t) - h)
            assert abs(ad_fd - ad) <= 0.5 * h * curvature * 1.05

    def test_underflow_of_window_rejected(self):
        with pytest.raises(DomainError):
            derivatives(vp(2.0, fd_step=1e-3), 5e-4)


class TestCoefficient:
    def test_velocity_is_one(self):
        for sched in (vp(0.5), vp(4.0), linear(), generic_const(1.0)):
            for t in (0.1, 0.5, 0.9):
                assert coefficient(VELOCITY, sched, t) == 1.0

    def test_consistency_aliases_data_x0(self):
        for sched in (vp(2.0), linear()):
            for t in np.linspace(0.05, 0.95, 13):
                a = coefficient(CONSISTENCY, sched, float(t))
                b = coefficient(DATA_X0, sched, float(t))
                assert a == b

    def test_noise_eps_vp_value(self):
        # magnitude beta / (2 sigma); negative sign from the generation
        # orientation used throughout the package
        sched = vp(2.0)
        got = coefficient(NOISE_EPS, sched, 0.5)
        expected = -sched.beta(0.5) / (2.0 * sched.sigma(0.5))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-1.2577665549971213, abs=1e-12)

    def test_three_vp_forms_agree(self):
        rng = np.random.default_rng(7)
        for beta0 in (0.5, 1.0, 2.0, 4.0):
            sched = vp(beta0)
            for t in rng.uniform(0.05, 0.95, size=50):
                g, v, b = epsilon_coefficient_forms(sched, float(t))
                scale = max(abs(g), abs(v), abs(b))
                assert abs(g - v) <= 1e-6 * scale
                assert abs(g - b) <= 1e-6 * scale

    def test_general_forms_match_vp_simplifications(self):
        sched = vp(1.5)
        for t in np.linspace(0.1, 0.9, 9):
            scalars = path_scalars(sched, float(t))
            a, s = scalars.alpha, scalars.sigma
            b = sched.beta(float(t))
            assert coefficient(NOISE_EPS, sched, float(t)) == pytest.approx(
                -b / (2 * s), rel=1e-12
            )
            assert coefficient(DATA_X0, sched, float(t)) == pytest.approx(
                b * a / (2 * s * s), rel=1e-12
            )
            assert coefficient(V_PRED, sched, float(t)) == pytest.approx(
                -b * a / (2 * s), rel=1e-12
            )
            assert coefficient(SCORE, sched, float(t)) == pytest.approx(
                b / 2, rel=1e-12
            )

    def test_fd_mode_close_to_analytic(self):
        sched = vp(2.0, fd_step=1e-4)
        for kind in (NOISE_EPS, DATA_X0, V_PRED, SCORE):
            got = coefficient(kind, sched, 0.6, derivative_mode="fd")
            ref = coefficient(kind, sched, 0.6)
            assert got == pytest.approx(ref, rel=1e-3)

    def test_sigma_guard_activates(self):
        # near t = 0 a vp schedule has sigma < floor
        sched = vp(2.0, alpha_floor=1e-3)
        tiny_t = 1e-7  # sigma ~ sqrt(2e-7) ~ 4.5e-4 < 1e-3
        with pytest.raises(IllConditionedMapError):
            coefficient(NOISE_EPS, sched, tiny_t)
        # while a comfortably interior query works
        assert math.isfinite(coefficient(NOISE_EPS, sched, 0.999))

    def test_alpha_guard_activates_on_linear(self):
        with pytest.raises(IllConditionedMapError) as err:
            coefficient(NOISE_EPS, linear(alpha_floor=1e-3), 0.9999)
        assert err.value.time == pytest.approx(0.9999)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            coefficient("nonsense", vp(), 0.5)


class TestRoundTripIdentities:
    def test_linear_path_closed_forms(self):
        # direct hand-derived values for alpha = 1 - t, sigma = t
        sched = linear()
        t = 0.4
        assert coefficient(NOISE_EPS, sched, t) == pytest.approx(-1.0 / (1 - t))
        assert coefficient(DATA_X0, sched, t) == pytest.approx((1 - t) / t + 1.0)
        a, s = 1 - t, t
        assert coefficient(V_PRED, sched, t) == pytest.approx(
            (-s - a) / (a * a + s * s)
        )
        assert coefficient(SCORE, sched, t) == pytest.approx(s + s * s / a)

    def test_score_is_minus_sigma_times_eps(self):
        for sched in (vp(2.0), linear(), generic_const(0.7)):
            for t in np.linspace(0.1, 0.9, 9):
                s = sched.sigma(float(t))
                lhs = coefficient(SCORE, sched, float(t))
                rhs = -s * coefficient(NOISE_EPS, sched, float(t))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBetaTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "beta.csv"
        t = np.linspace(0, 1, 11)
        b = 0.5 + 1.5 * t
        with open(path, "w", newline="") as fh:
            fh.write("t,beta\n")
            for ti, bi in zip(t, b):
                fh.write(f"{ti},{bi}\n")
        times, betas = load_beta_table(path)
        sched = Schedule(kind=VP_GENERIC, beta_times=times, beta_values=betas)
        assert sched.beta(0.5) == pytest.approx(1.25)
        scalars = path_scalars(sched, 1.0)
        a, s = scalars.alpha, scalars.sigma
        assert abs(a * a + s * s - 1.0) <= 1e-12

    def test_header_required(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("0.0,1.0\n1.0,2.0\n")
        with pytest.raises(DomainError):
            load_beta_table(path)

    def test_decreasing_times_rejected(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("t,beta\n0.0,1.0\n1.0,2.0\n0.5,1.5\n")
        with pytest.raises(DomainError):
            load_beta_table(path)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(DomainError):
            Schedule(
                kind=VP_GENERIC,
                beta_times=np.array([0.0, 0.3, 1.0]),
                beta_values=np.array([1.0, 1.0, 1.0]),
            )


class TestConstruction:
    def test_all_parameterization_kinds_known(self):
        assert set(PARAMETERIZATION_KINDS) == {
            NOISE_EPS,
            DATA_X0,
            V_PRED,
            SCORE,
            VELOCITY,
            CONSISTENCY,
        }

    def test_missing_beta0_rejected(self):
        with pytest.raises(DomainError):
            Schedule(kind=VP_CONST_BETA)

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            Schedule(kind="cosine")
