import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chordfield import transport
from chordfield.backbone import (
    BackboneModel,
    GaussianMixtureCondition,
    posterior_x0,
    sample_condition,
    velocity,
)
from chordfield.chord import ChordParams, chord_field
from chordfield.errors import (
    DegeneratePosteriorError,
    DivergenceError,
    DomainError,
    IllConditionedMapError,
)
from chordfield.preset_lib import PRESET_NAMES, load_preset
from chordfield.proxy import NS_PARTICLE, derive_stream, proxy_field
from chordfield.schedules import (
    LINEAR_INTERP,
    PARAMETERIZATION_KINDS,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    path_scalars,
)
from chordfield.transport import (
    DIVERGENCE_NORM,
    FIELD_KINDS,
    _batches,
    _guard_rows,
    _raise_unless_live,
    chordedit,
    chordedit_multi_noise,
    euler_march,
    integrate_rk4,
    make_control_field,
    particle_seed,
    proximal_refine,
    rk4_march,
    sample_particles,
)


def preset_model(name="two_blob_1d", schedule=None, output_kind="velocity"):
    src, tar = load_preset(name)
    return BackboneModel(
        schedule=schedule or Schedule(kind=LINEAR_INTERP),
        source=src,
        target=tar,
        output_kind=output_kind,
    )


def identical_model(dim=2):
    mix = GaussianMixtureCondition(
        [0.5, 0.5],
        [[0.5] * dim, [-0.5] * dim],
        [0.4, 0.6],
    )
    return BackboneModel(schedule=Schedule(kind=LINEAR_INTERP), source=mix, target=mix)


DEFAULTS = ChordParams()  # the documented transport defaults


def marginal_flow(model, cond):
    """The exact flow of the condition's noised marginals in t: toward larger t
    it noises the state, toward smaller t it denoises it to the condition's data
    (``velocity`` reports the generation direction, hence the sign flip)."""
    return lambda x, t: -velocity(model, x, t, cond)


class TestChordedit:
    def test_null_edit_identity(self):
        model = identical_model()
        x = np.array([0.3, -0.7])
        for seed in (0, 1, 99):
            for params in (
                ChordParams(use_prox=False),
                ChordParams(t=0.6, delta=0.3, step_scale=2.5, use_prox=False),
            ):
                res = chordedit(model, x, params, seed)
                np.testing.assert_array_equal(res.u_hat, np.zeros(2))
                np.testing.assert_array_equal(res.x_pred, x)
                np.testing.assert_array_equal(res.x_out, x)

    def test_zero_step_scale_limit(self):
        # thinnest allowed step: x_pred collapses onto the source
        model = preset_model()
        x = np.array([-2.0])
        params = ChordParams(step_scale=1e-300, use_prox=False)
        res = chordedit(model, x, params, seed=4)
        np.testing.assert_allclose(res.x_pred, x, atol=1e-290)

    def test_determinism(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, 0.5])
        a = chordedit(model, x, DEFAULTS, seed=7)
        b = chordedit(model, x, DEFAULTS, seed=7)
        np.testing.assert_array_equal(a.x_out, b.x_out)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)

    def test_result_invariants(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, 0.5])
        params = ChordParams(use_prox=False)
        res = chordedit(model, x, params, seed=3)
        np.testing.assert_array_equal(
            res.x_pred, x + params.step_scale * res.u_hat
        )
        np.testing.assert_array_equal(res.x_out, res.x_pred)
        assert res.energy == pytest.approx(float(res.u_hat @ res.u_hat) / 2)
        assert [t for t, _ in res.fields_queried] == [
            params.t - params.delta,
            params.t,
        ]

    def test_runaway_step_raises_with_source_state(self):
        # the single step goes through the same norm guard as the sub-steps
        model = preset_model("two_blob_1d")
        x = np.array([-2.0])
        params = ChordParams(step_scale=1e9)
        with pytest.raises(DivergenceError) as err:
            chordedit(model, x, params, seed=0)
        np.testing.assert_array_equal(err.value.last_state, x)

    def test_defaults_land_in_target_basin_1d(self):
        # transport defaults on the 1-D preset under the experiment schedule;
        # oracle cross-check via the reference denoising flow below
        model = preset_model(
            "two_blob_1d", schedule=Schedule(kind=VP_CONST_BETA, beta0=0.5)
        )
        tar = model.target
        chord_miss, naive_miss = [], []
        for seed in range(20):
            x = sample_particles(model, 1, seed).points[0]
            got = chordedit(model, x, DEFAULTS, seed=seed)
            naive = chordedit(model, x, ChordParams(delta=0.0), seed=seed)
            dist = lambda pt: min(abs(pt[0] - m[0]) for m in tar.means)
            chord_miss.append(dist(got.x_out))
            naive_miss.append(dist(naive.x_out))
        # the landings sit within 3 target stds on average and for the
        # frozen seed
        assert np.mean(chord_miss) <= 3.0 * float(tar.scales.max())
        assert chord_miss[0] <= 3.0 * float(tar.scales.max())
        # and on average the chord run beats the naive run from the same seed
        assert np.mean(chord_miss) < np.mean(naive_miss)

    def test_reference_flow_confirms_target_basin(self):
        model = preset_model(
            "two_blob_1d", schedule=Schedule(kind=VP_CONST_BETA, beta0=0.5)
        )
        x = np.array([-2.0])
        res = chordedit(model, x, DEFAULTS, seed=11)
        z = model.schedule.alpha(0.9) * x + model.schedule.sigma(0.9) * 0.3
        ref = integrate_rk4(marginal_flow(model, "tar"), z, 0.9, 0.0, 1000)
        # both the transport output and the reference denoised point live in
        # the target basin (positive half-line for this preset)
        assert res.x_out[0] > 0 and ref[0] > 0


class TestMultiNoise:
    def test_n1_bit_identical_to_single(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, -0.6])
        for seed in (0, 5, 123):
            a = chordedit(model, x, DEFAULTS, seed)
            b = chordedit_multi_noise(model, x, DEFAULTS, seed)
            np.testing.assert_array_equal(a.u_hat, b.u_hat)
            np.testing.assert_array_equal(a.x_pred, b.x_pred)
            np.testing.assert_array_equal(a.x_out, b.x_out)

    def test_forced_zero_draws_match_deterministic_run(self, monkeypatch):
        from chordfield import proxy as proxy_mod

        model = preset_model("two_blob_2d")
        x = np.array([-2.0, 0.6])
        params = ChordParams(n=3, use_prox=False)

        real = proxy_mod.SharedNoiseBatch.draws.func

        def zero_draws(self):
            return np.zeros((self.n, self.dim))

        monkeypatch.setattr(
            proxy_mod.SharedNoiseBatch, "draws", property(zero_draws)
        )
        try:
            multi = chordedit_multi_noise(model, x, params, seed=3)
            single = chordedit(
                model, x, ChordParams(n=1, use_prox=False), seed=3
            )
        finally:
            pass
        np.testing.assert_allclose(multi.u_hat, single.u_hat, atol=1e-14)

    def test_multi_noise_statistics_overlap(self):
        # endpoint-error distributions for n = 4 and n = 1 overlap within one
        # pooled standard deviation on the 2-D preset
        model = preset_model("two_blob_2d")
        params1 = ChordParams(n=1, use_prox=False)
        params4 = ChordParams(n=4, use_prox=False)
        tar = model.target

        def err(res):
            return min(
                float(np.linalg.norm(res.x_out - m)) for m in tar.means
            )

        e1, e4 = [], []
        for seed in range(20):
            x = sample_particles(model, 1, seed).points[0]
            e1.append(err(chordedit(model, x, params1, seed)))
            e4.append(err(chordedit_multi_noise(model, x, params4, seed)))
        pooled = math.sqrt((np.var(e1, ddof=1) + np.var(e4, ddof=1)) / 2)
        assert abs(np.mean(e1) - np.mean(e4)) <= pooled


class TestProximalRefine:
    def test_fixed_point_at_target_mode(self):
        model = preset_model("two_blob_1d")
        mode = model.target.means[0]
        out = proximal_refine(model, mode, 0.3, seed=0, eps=np.zeros(1))
        # single evaluation of the posterior-mean formula is its own oracle
        a, s = model.schedule.alpha(0.3), model.schedule.sigma(0.3)
        expected = posterior_x0(model, a * mode, 0.3, "tar")
        np.testing.assert_array_equal(out, expected)
        assert abs(out[0] - mode[0]) <= 0.2

    def test_identity_limit_at_small_t_c(self):
        model = preset_model("two_blob_1d")
        x = np.array([1.9])
        out = proximal_refine(model, x, 1e-6, seed=0, eps=np.zeros(1))
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_pulls_toward_nearer_mode(self):
        model = preset_model("stiff_2d", schedule=Schedule(kind=LINEAR_INTERP))
        x_pred = np.array([2.0, 0.25])  # between modes, nearer (2, 0.9)
        out = proximal_refine(model, x_pred, 0.3, seed=0, eps=np.zeros(2))
        d_before = np.linalg.norm(x_pred - np.array([2.0, 0.9]))
        d_after = np.linalg.norm(out - np.array([2.0, 0.9]))
        assert d_after < d_before

    def test_uses_target_condition_only(self):
        model = preset_model("two_blob_1d")
        out = proximal_refine(model, np.array([0.0]), 0.3, seed=1, eps=np.zeros(1))
        assert out[0] > 0.0  # pulled toward the target basin, never the source

    def test_shared_prox_noise_switch(self):
        from chordfield.proxy import SharedNoiseBatch

        model = preset_model("two_blob_2d")
        x = np.array([-2.0, 0.6])
        seed = 9
        default = chordedit(model, x, ChordParams(), seed)
        shared = chordedit(model, x, ChordParams(prox_shared_noise=True), seed)
        # same transport, different refinement draw
        np.testing.assert_array_equal(default.x_pred, shared.x_pred)
        assert not np.array_equal(default.x_out, shared.x_out)
        # the shared variant reuses transport draw 0 verbatim
        eps = SharedNoiseBatch(seed=seed, n=1, dim=2).draws[0]
        expected = proximal_refine(model, shared.x_pred, 0.3, seed, eps=eps)
        np.testing.assert_array_equal(shared.x_out, expected)

    def test_shared_prox_noise_with_decoupled_times_reuses_the_main_query_draw(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, 0.6])
        params = ChordParams(prox_shared_noise=True, share_noise_across_times=False)
        res = chordedit(model, x, params, 9)
        _, batch_curr = _batches(params, 9, 2)
        eps = batch_curr.draws[0]
        expected = proximal_refine(model, res.x_pred, params.t_c, 9, eps=eps)
        np.testing.assert_array_equal(res.x_out, expected)


class TestNoiseCoupling:
    def test_decoupled_times_change_the_estimate(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, -0.6])
        coupled = chordedit(model, x, ChordParams(use_prox=False), seed=4)
        decoupled = chordedit(
            model,
            x,
            ChordParams(use_prox=False, share_noise_across_times=False),
            seed=4,
        )
        assert not np.array_equal(coupled.u_hat, decoupled.u_hat)
        # both remain deterministic in the seed
        again = chordedit(
            model,
            x,
            ChordParams(use_prox=False, share_noise_across_times=False),
            seed=4,
        )
        np.testing.assert_array_equal(decoupled.u_hat, again.u_hat)

    def test_coupled_times_reuse_one_batch(self):
        # with sharing on, the two query times see identical draws: an
        # identical-conditions model keeps the pair consistent at zero
        model = identical_model()
        res = chordedit(model, np.array([0.1, 0.1]), ChordParams(use_prox=False), 3)
        np.testing.assert_array_equal(res.fields_queried[0][1], np.zeros(2))
        np.testing.assert_array_equal(res.fields_queried[1][1], np.zeros(2))


class TestMultiStep:
    def test_s1_chord_matches_chordedit_bit_exact(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, 0.6])
        params = ChordParams(use_prox=False)
        res = chordedit(model, x, params, seed=9)
        field = make_control_field(model, params, "chord", 9)
        traj, fields, live = euler_march(field, x, params.step_scale, 1)
        assert live
        np.testing.assert_array_equal(traj[-1], res.x_pred)
        np.testing.assert_array_equal(fields[0], res.u_hat)

    def test_identical_conditions_constant_trajectory(self):
        model = identical_model()
        x = np.array([0.2, 0.2])
        params = ChordParams(use_prox=False)
        field = make_control_field(model, params, "chord", 2)
        traj, fields, live = euler_march(field, x, params.step_scale / 4, 4)
        assert live and len(traj) == 5
        for pt in traj:
            np.testing.assert_array_equal(pt, x)
        for f in fields:
            np.testing.assert_array_equal(f, np.zeros(2))

    def test_bibo_step_bound(self):
        model = preset_model("two_blob_2d")
        x = np.array([-2.0, -0.6])
        params = ChordParams(use_prox=False)
        for steps in (1, 4, 8):
            h = params.step_scale / steps
            field = make_control_field(model, params, "chord", 5)
            traj, fields, live = euler_march(field, x, h, steps)
            assert live and len(fields) == steps
            for x_n, x_next, u in zip(traj, traj[1:], fields):
                lhs = np.linalg.norm(x_next)
                rhs = np.linalg.norm(x_n) + h * np.linalg.norm(u)
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_divergence_guard(self):
        model = preset_model("two_blob_1d")
        # drive the state over the norm guard with an absurd step scale
        params = ChordParams(step_scale=1e9, use_prox=False, t=0.9, delta=0.15)
        field = make_control_field(model, params, "naive", 0)
        traj, fields, live = euler_march(field, np.array([-2.0]), params.step_scale / 2, 2)
        assert not live and len(fields) < 2
        assert np.linalg.norm(traj[-1]) <= DIVERGENCE_NORM

    def test_divergence_names_the_sub_step_and_keeps_the_last_good_state(self):
        # u = 99 x with sub-steps of 1: the state grows 100-fold a sub-step,
        # reaches exactly the limit after the third and runs away in the fourth
        params = ChordParams(step_scale=5.0, use_prox=False)
        traj, fields, live = euler_march(
            lambda x, s=0.0: 99.0 * x, np.array([1.0]), params.step_scale / 5, 5
        )
        assert not live
        # the march stops at the sub-step that trips: 3 good ones, so sub-step 4/5
        assert len(fields) + 1 == 4 and len(traj) == 4
        np.testing.assert_array_equal(traj[-1], [DIVERGENCE_NORM])

    def test_invalid_step_count(self):
        model = preset_model("two_blob_1d")
        field = make_control_field(model, DEFAULTS, "chord", 0)
        with pytest.raises(DomainError):
            euler_march(field, np.array([-2.0]), DEFAULTS.step_scale, 0)


class TestReferenceSolve:
    def test_stationary_point_unmoved(self):
        mix = GaussianMixtureCondition([1.0], [[0.0]], [1.0])
        model = BackboneModel(
            schedule=Schedule(kind=VP_CONST_BETA, beta0=2.0), source=mix, target=mix
        )
        # the origin is the fixed point of a centered unit-variance vp flow
        out = integrate_rk4(marginal_flow(model, "src"), np.array([0.0]), 0.9, 0.1, 200)
        assert abs(out[0]) <= 1e-12

    def test_self_convergence(self):
        model = preset_model("two_blob_1d")
        x = np.array([0.5])
        a = integrate_rk4(marginal_flow(model, "tar"), x, 0.9, 0.05, 400)
        b = integrate_rk4(marginal_flow(model, "tar"), x, 0.9, 0.05, 800)
        assert np.linalg.norm(a - b) < 1e-8

    def test_single_gaussian_affine_flow_closed_form(self):
        mu, s0 = 1.1, 0.45
        mix = GaussianMixtureCondition([1.0], [[mu]], [s0])
        sched = Schedule(kind=VP_CONST_BETA, beta0=2.0)
        model = BackboneModel(schedule=sched, source=mix, target=mix)

        def flow_map(x0, t0, t1):
            a0, s0_ = sched.alpha(t0), sched.sigma(t0)
            a1, s1_ = sched.alpha(t1), sched.sigma(t1)
            v0 = a0 * a0 * s0 * s0 + s0_ * s0_
            v1 = a1 * a1 * s0 * s0 + s1_ * s1_
            m0, m1 = a0 * mu, a1 * mu
            return m1 + math.sqrt(v1 / v0) * (x0 - m0)

        for x0, t0, t1 in [(0.3, 0.2, 0.8), (1.6, 0.8, 0.1)]:
            got = integrate_rk4(marginal_flow(model, "src"), np.array([x0]), t0, t1, 800)
            assert got[0] == pytest.approx(flow_map(x0, t0, t1), abs=1e-8)


class TestControlField:
    def test_naive_is_single_time_query(self):
        from chordfield.proxy import SharedNoiseBatch, proxy_field

        model = preset_model("two_blob_2d")
        params = ChordParams()
        field = make_control_field(model, params, "naive", seed=6)
        x = np.array([-1.0, 0.0])
        batch = SharedNoiseBatch(seed=6, n=1, dim=2)
        np.testing.assert_array_equal(
            field(x), proxy_field(model, x, params.t, batch)
        )

    def test_unknown_kind_rejected(self):
        model = preset_model("two_blob_2d")
        with pytest.raises(DomainError):
            make_control_field(model, ChordParams(), "midpoint", seed=0)

    def test_seed_robustness_chord_tighter_than_naive(self):
        # dispersion over full seeded runs (source draw + estimator noise +
        # refinement draw): the chord runs are more reproducible than the
        # naive ones at the same settings
        model = preset_model("stiff_2d")  # linear path, as in the ablation
        tar = model.target

        def cov(errors):
            return np.std(errors, ddof=1) / np.mean(errors)

        chord_err, naive_err = [], []
        for seed in range(20):
            x = sample_particles(model, 1, seed).points[0]
            c = chordedit(model, x, ChordParams(), seed)
            n = chordedit(model, x, ChordParams(delta=0.0), seed)
            dist = lambda res: min(
                float(np.linalg.norm(res.x_out - m)) for m in tar.means
            )
            chord_err.append(dist(c))
            naive_err.append(dist(n))
        assert cov(chord_err) < cov(naive_err)


class TestParticles:
    def test_sampling_deterministic(self):
        model = preset_model("two_blob_2d")
        a = sample_particles(model, 50, seed=3).points
        b = sample_particles(model, 50, seed=3).points
        np.testing.assert_array_equal(a, b)

    def test_points_land_near_source(self):
        model = preset_model("two_blob_2d")
        pts = sample_particles(model, 400, seed=1).points
        assert pts.shape == (400, 2)
        assert abs(pts[:, 0].mean() - (-2.0)) < 0.2

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("count", [1, 7, 500])
    def test_bit_equal_to_a_fresh_philox(self, name, count):
        model = preset_model(name)
        for seed in (0, 1, 7, 2**63 - 1):
            key = np.array([derive_stream(seed, NS_PARTICLE), 0], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            want = sample_condition(model.source, fresh, np.empty((count, model.dim)))
            np.testing.assert_array_equal(sample_particles(model, count, seed).points, want)

    def test_particle_seeds_unique(self):
        seeds = {particle_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_rejects_empty(self):
        model = preset_model("two_blob_2d")
        with pytest.raises(DomainError):
            sample_particles(model, 0, seed=0)

    def test_a_particle_count_too_large_to_hold_is_a_domain_error(self):
        # 2**62 points of two coordinates: refused before any is drawn
        model = preset_model("two_blob_2d")
        with pytest.raises(DomainError, match="particles do not fit in memory"):
            sample_particles(model, 2**62, seed=0)

    def test_rows_are_allocated_before_any_seed_is_read(self):
        # an iterable of 2**62 seeds would take forever to list: the rows
        # are refused first, and not one seed is read
        model = preset_model("two_blob_2d")
        read = []
        seeds = (read.append(k) or k for k in range(2**62))
        with pytest.raises(DomainError, match="particles do not fit in memory"):
            sample_particles(model, 2**62, seeds)
        assert read == []

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(PRESET_NAMES),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
        st.booleans(),
    )
    def test_per_seed_rows_bit_equal_to_one_particle_each(self, name, seeds, lazy):
        # row i comes from seed i's key alone, whatever the other seeds are
        model = preset_model(name)
        got = sample_particles(model, len(seeds), iter(seeds) if lazy else seeds).points
        assert got.shape == (len(seeds), model.dim)
        for row, seed in zip(got, seeds):
            assert row.tobytes() == sample_particles(model, 1, seed).points[0].tobytes()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(PRESET_NAMES), st.integers(1, 40), st.integers(0, 41), st.booleans())
    def test_a_seed_count_other_than_the_row_count_is_a_domain_error(
        self, name, count, supplied, lazy
    ):
        assume(supplied != count)
        model = preset_model(name)
        seeds = [derive_stream(7, NS_PARTICLE, k) for k in range(supplied)]
        with pytest.raises(DomainError, match=f"{count} particles need exactly {count} seeds"):
            sample_particles(model, count, iter(seeds) if lazy else seeds)


class TestRk4:
    def test_linear_field_exact_solution(self):
        # dx/ds = A x has closed form; fourth-order integration nails it
        a_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def field(x, s):
            return a_mat @ x

        x0 = np.array([1.0, 0.0])
        got = integrate_rk4(field, x0, 0.0, math.pi / 2, steps=200)
        np.testing.assert_allclose(got, [0.0, -1.0], atol=1e-9)

    def test_divergence_raises(self):
        def field(x, s):
            return x * 1e3

        with pytest.raises(DivergenceError):
            integrate_rk4(field, np.array([1.0]), 0.0, 1.0, steps=100)


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


@st.composite
def control_fields_and_states(draw):
    """A control field of a preset model and rows of states near its source."""
    model = preset_model(
        draw(st.sampled_from(PRESETS)),
        draw(st.sampled_from(SCHEDULES)),
        draw(st.sampled_from(PARAMETERIZATION_KINDS)),
    )
    t = draw(st.floats(0.4, 1.0))
    params = ChordParams(
        t=t, delta=draw(st.sampled_from([0.0, 0.1, 0.25])), n=draw(st.sampled_from([1, 4]))
    )
    seed = draw(st.integers(0, 2**32 - 1))
    field = make_control_field(model, params, draw(st.sampled_from(["naive", "chord"])), seed)
    rng = np.random.default_rng(seed)
    count = draw(st.integers(1, 4))
    picks = rng.integers(0, model.source.n_components, count)
    return field, model.source.means[picks] + rng.normal(size=(count, model.dim))


def _run_or_error(run):
    try:
        return run()
    except (DivergenceError, IllConditionedMapError) as err:
        return err


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(control_fields_and_states(), st.integers(1, 5), st.floats(0.05, 1.0))
def test_rk4_rows_bit_equal_to_one_run_per_row(drawn, steps, span):
    field, states = drawn
    assert field.autonomous
    got = _run_or_error(lambda: integrate_rk4(field, states, 0.0, span, steps))
    want = [_run_or_error(lambda: integrate_rk4(field, x, 0.0, span, steps)) for x in states]
    if isinstance(got, Exception):
        assert all(type(w) is type(got) for w in want)
    else:
        np.testing.assert_array_equal(got, np.stack(want))


# norms of the row that may run away: at the guard's limit give or take an
# ulp, anywhere below twice the limit, or infinite
_ROW_NORMS = st.one_of(
    st.integers(-1, 1).map(lambda j: DIVERGENCE_NORM + j * np.spacing(DIVERGENCE_NORM)),
    st.floats(0.0, 2 * DIVERGENCE_NORM),
    st.just(math.inf),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    _ROW_NORMS,
    st.integers(0, 5),
    st.integers(1, 4),
    st.sampled_from([0.0, 1.0, 5.0]),
    st.integers(0, 2**32 - 1),
)
def test_rows_trip_the_guard_exactly_when_one_row_alone_does(norm, safe, dim, growth, seed):
    # one row that may run away among rows that never do (e^5 < 1000)
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.0, DIVERGENCE_NORM / 1000, safe + 1)
    runaway = int(rng.integers(0, safe + 1))
    norms[runaway] = norm
    unit = rng.normal(size=(safe + 1, dim))
    states = unit / np.linalg.norm(unit, axis=1, keepdims=True) * norms[:, None]

    def field(x, s):
        with np.errstate(invalid="ignore"):
            return growth * x

    batch = _run_or_error(lambda: integrate_rk4(field, states, 0.0, 1.0, 4))
    alone = [_run_or_error(lambda: integrate_rk4(field, x, 0.0, 1.0, 4)) for x in states]
    if not isinstance(alone[runaway], DivergenceError):
        assert not isinstance(batch, Exception)
        np.testing.assert_array_equal(batch, np.stack(alone))
        return
    assert isinstance(batch, DivergenceError)
    # the error carries every row's state from before the step that tripped
    assert batch.last_state.shape == states.shape
    np.testing.assert_array_equal(batch.last_state[runaway], alone[runaway].last_state)


def test_rows_at_the_guards_limit_trip_exactly_when_alone():
    # a row whose norm sits within an ulp of the limit: a batch norm that
    # rounds differently from the one-row norm would flip some verdicts
    rng = np.random.default_rng(7)

    def still(x, s):
        return np.zeros_like(x)

    for dim in (2, 3, 4):
        unit = rng.normal(size=(200, dim))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        for j in (-1, 0, 1):
            for row in unit * (DIVERGENCE_NORM + j * np.spacing(DIVERGENCE_NORM)):
                alone = _run_or_error(lambda: integrate_rk4(still, row, 0.0, 1.0, 1))
                rows = np.stack([1e-3 * row, row])
                batch = _run_or_error(lambda: integrate_rk4(still, rows, 0.0, 1.0, 1))
                assert isinstance(batch, DivergenceError) == isinstance(alone, DivergenceError)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_refinement_bit_equal_to_the_target_posterior(name, schedule, kind, times, seed):
    # the refinement keeps its time's constants on the model; it must agree
    # with the public posterior, and raise nothing for heads whose
    # coefficient is undefined at t_c
    model = preset_model(name, schedule, kind)
    rng = np.random.default_rng(seed)
    for t_c in times + times[::-1]:
        x, eps = rng.normal(size=(2, model.dim)) * 2.0
        scalars = path_scalars(schedule, t_c)
        want = posterior_x0(model, scalars.alpha * x + scalars.sigma * eps, t_c, "tar")
        np.testing.assert_array_equal(proximal_refine(model, x, t_c, seed, eps=eps), want)


@pytest.mark.parametrize("shape", [(3, 2), (1, 2)])
def test_refinement_rows_bit_equal_to_one_call_per_row(shape):
    # the default draw is one state's noise, shared by every row
    model = preset_model("two_blob_2d")
    rows = np.random.default_rng(5).normal(size=shape) * 2.0
    want = np.stack([proximal_refine(model, x, 0.3, seed=7) for x in rows])
    assert proximal_refine(model, rows, 0.3, seed=7).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3, 2), (1, 2), (2, 2, 2)])
def test_refinement_with_one_draw_per_row_bit_equal_to_one_call_per_row(shape):
    model = preset_model("two_blob_2d")
    rows, eps = np.random.default_rng(6).normal(size=(2,) + shape) * 2.0
    pairs = zip(rows.reshape(-1, 2), eps.reshape(-1, 2))
    want = np.stack([proximal_refine(model, x, 0.3, seed=7, eps=e) for x, e in pairs])
    want = want.reshape(shape)
    assert proximal_refine(model, rows, 0.3, seed=7, eps=eps).tobytes() == want.tobytes()


def _value_or_error_type(run):
    try:
        return run()
    except (DivergenceError, DomainError, IllConditionedMapError, DegeneratePosteriorError) as err:
        return type(err)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.sampled_from([0.0, 0.1, 0.25]),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.sampled_from([("chord", "naive"), ("naive", "chord")]),
    st.sampled_from([(), (3,), (2, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_kind_rows_bit_equal_to_one_field_per_kind(
    name, schedule, head, delta, n, share, kinds, lead, seed
):
    model = preset_model(name, schedule, head)
    params = ChordParams(t=0.8, delta=delta, n=n, share_noise_across_times=share)
    both = make_control_field(model, params, kinds, seed)
    assert both.autonomous
    rows = np.random.default_rng(seed).normal(size=lead + (len(kinds), model.dim)) * 2.0
    got = _value_or_error_type(lambda: both(rows))
    want = [
        _value_or_error_type(lambda: make_control_field(model, params, kind, seed)(rows[..., j, :]))
        for j, kind in enumerate(kinds)
    ]
    if isinstance(got, type):
        assert got in want
    else:
        assert got.shape == rows.shape
        np.testing.assert_array_equal(got, np.stack(want, axis=-2))


@pytest.mark.parametrize(
    "kinds, shape, queries",
    [
        ("naive", (2,), [(0.9, (2,))]),
        ("chord", (2,), [(0.9, (2,)), (0.75, (2,))]),
        ("chord", (5, 2), [(0.9, (5, 2)), (0.75, (5, 2))]),
        (("chord", "naive"), (2, 2), [("kernel", (2, 2, 1, 2))]),
        (("naive", "chord"), (3, 2, 2), [("kernel", (2, 6, 1, 2))]),
        (("naive",), (2, 1, 2), [(0.9, (2, 1, 2))]),
    ],
)
def test_one_query_at_t_serves_every_kind(monkeypatch, kinds, shape, queries):
    # one proxy query at t over all rows, one at t - delta over the chord rows;
    # a tuple with a chord kind makes no proxy query but one kernel pass over
    # noised rows (times, rows, n, d) instead: t - delta, then t
    import chordfield.backbone as backbone
    import chordfield.transport as transport

    seen, querying = [], []
    query, kernel = transport.proxy_field, backbone._Stack.x0

    def counted(model, x, t, batch):
        seen.append((t, np.shape(x)))
        querying.append(t)
        try:
            return query(model, x, t, batch)
        finally:
            querying.pop()

    def kernel_pass(stack, z, at):
        # the passes that a proxy query makes are counted by the query
        if not querying:
            seen.append(("kernel", np.shape(z)))
        return kernel(stack, z, at)

    monkeypatch.setattr(transport, "proxy_field", counted)
    monkeypatch.setattr(backbone._Stack, "x0", kernel_pass)
    model = preset_model("two_blob_2d")
    field = make_control_field(model, ChordParams(t=0.9, delta=0.15), kinds, seed=3)
    assert field(np.ones(shape)).shape == shape
    assert sorted(seen, reverse=True) == queries
    seen.clear()
    field(np.ones(shape))
    assert sorted(seen, reverse=True) == queries


def _two_query_reference(model, params, kinds, seed, rows):
    """The tuple-kind field as two proxy queries and a blend: one query at t
    over every row, one at t - delta over the chord rows."""
    batch_prev, batch_curr = _batches(params, seed, model.dim)
    t, delta, j = params.t, params.delta, kinds.index("chord")
    u = proxy_field(model, rows, t, batch_curr)
    r_prev = proxy_field(model, rows[..., j, :], t - delta, batch_prev)
    u[..., j, :] = chord_field(r_prev, u[..., j, :], t, delta)
    return u


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.sampled_from([0.0, 0.1, 0.8]),
    st.sampled_from([("chord", "naive"), ("naive", "chord")]),
    st.sampled_from([(), (3,), (2, 2)]),
    st.one_of(
        st.none(),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e200]),
        st.sampled_from(np.geomspace(1.2e154, 5.5e154, 24).tolist()),
    ),
    st.integers(0, 2**32 - 1),
)
def test_fused_tuple_field_bit_equal_to_two_queries(
    preset, schedule, head, n, share, delta, kinds, lead, bad, seed
):
    # delta = t puts the earlier query at time 0; a bad value (non-finite, or
    # far enough out that the posterior mass underflows at one or both times:
    # a naive row may fail at t - delta, where only chord rows are queried)
    # lands on one coordinate of one row of either kind
    model = preset_model(preset, schedule, head)
    params = ChordParams(t=0.8, delta=delta, n=n, share_noise_across_times=share)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=lead + (2, model.dim)) * 2.0
    if bad is not None:
        rows.reshape(-1)[rng.integers(rows.size)] = bad
    field = make_control_field(model, params, kinds, seed)  # raises nothing new
    with np.errstate(over="ignore"):
        got = _value_or_error_type(lambda: field(rows))
        want = _value_or_error_type(lambda: _two_query_reference(model, params, kinds, seed, rows))
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kinds", [("chord", "naive"), ("naive", "chord")])
@pytest.mark.parametrize(
    "preset, shape",
    [
        ("two_blob_2d", (2, 4)),
        ("two_blob_2d", (2, 1)),
        ("two_blob_2d", (3, 2, 3)),
        ("two_blob_1d", (2, 2)),
        ("two_blob_1d", (2, 2, 3)),
    ],
)
def test_tuple_field_rejects_rows_of_the_wrong_width(kinds, preset, shape):
    model = preset_model(preset)
    params = ChordParams(t=0.9, delta=0.15)
    rows = np.ones(shape)
    with pytest.raises(DomainError, match="anchor dimension"):
        _two_query_reference(model, params, kinds, 3, rows)
    with pytest.raises(DomainError, match="anchor dimension"):
        make_control_field(model, params, kinds, seed=3)(rows)


@pytest.mark.parametrize("kinds", [("chord", "naive"), ("naive", "chord")])
@pytest.mark.parametrize("delta", [0.15, 0.9], ids=["one_pass", "two_queries"])
@pytest.mark.parametrize("shape", [(3, 2), (1, 2), (2,), (), (4, 1, 2), (2, 3, 2)])
def test_tuple_field_rejects_a_kind_axis_of_the_wrong_length(kinds, delta, shape, monkeypatch):
    # delta = t puts the earlier query at time 0, below the sigma floor, where
    # the field makes two proxy queries instead of its one posterior pass
    model = preset_model("two_blob_2d")
    params = ChordParams(t=0.9, delta=delta)
    fallback = transport._two_time_pass(model, 0.9, delta, *_batches(params, 3, 2)) is None
    assert fallback == (delta == 0.9)
    field = make_control_field(model, params, kinds, seed=3)

    def no_query(*args):
        raise AssertionError("the field queried rows of the wrong shape")

    monkeypatch.setattr(transport, "_estimate", no_query)
    monkeypatch.setattr(transport, "proxy_field", no_query)
    with pytest.raises(DomainError, match="2 kinds"):
        field(np.ones(shape))


@pytest.mark.parametrize("kinds", [("chord", "naive"), ("naive", "chord")])
@pytest.mark.parametrize("share", [True, False])
def test_tuple_field_across_row_counts_bit_equal_to_fresh_fields(kinds, share):
    # the field keeps its time-only values for the last row count; a call
    # with another count, or the same count again, must not see stale values,
    # and no value it returned may change under a later call
    model = preset_model("ring_3blob_2d")
    params = ChordParams(t=0.8, delta=0.2, n=3, share_noise_across_times=share)
    field = make_control_field(model, params, kinds, seed=11)
    rng = np.random.default_rng(11)
    calls = []
    for lead in [(), (3,), (), (2, 2), (3,)]:
        rows = rng.normal(size=lead + (2, model.dim)) * 2.0
        got = field(rows)
        fresh = make_control_field(model, params, kinds, seed=11)(rows)
        assert got.tobytes() == fresh.tobytes()
        assert got.tobytes() == _two_query_reference(model, params, kinds, 11, rows).tobytes()
        calls.append((got, got.copy()))
    assert all(got.tobytes() == kept.tobytes() for got, kept in calls)


def test_tuple_field_values_are_read_only():
    model = preset_model("two_blob_2d")
    params = ChordParams(t=0.9, delta=0.15, n=2)
    alpha, noise, a_t, scalars, pair = transport._two_time_pass(
        model, 0.9, 0.15, *_batches(params, 3, model.dim)
    )(4)
    values = [alpha, noise, a_t, *pair]
    values += [scalars.alpha, scalars.sigma, scalars.alpha_dot, scalars.sigma_dot]
    assert all(isinstance(value, np.ndarray) for value in values)
    for value in values:
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0


_CONSTANT = np.array([[0.5, -1.0], [2.0, 0.25]])


@pytest.mark.parametrize(
    "same, copies",
    [
        (lambda x, s: _CONSTANT, lambda x, s: _CONSTANT.copy()),
        (lambda x, s: x, lambda x, s: x.copy()),
    ],
    ids=["constant", "identity"],
)
def test_integrators_never_write_into_field_values(same, copies):
    # a field may hand back the same array on every call, or its own input
    x0 = np.array([[0.1, 0.2], [0.3, -0.4]])
    got = integrate_rk4(same, x0, 0.0, 1.0, 8)
    assert got.tobytes() == integrate_rk4(copies, x0, 0.0, 1.0, 8).tobytes()
    trajectory, _, _ = euler_march(same, x0, 0.125, 8)
    want, _, _ = euler_march(copies, x0, 0.125, 8)
    assert trajectory[-1].tobytes() == want[-1].tobytes()
    assert _CONSTANT.tobytes() == np.array([[0.5, -1.0], [2.0, 0.25]]).tobytes()


@pytest.mark.parametrize(
    "kinds", [(), ("chord", "midpoint"), ("chord", "chord"), ["chord", "naive"], None]
)
def test_empty_unknown_or_repeated_kinds_rejected(kinds):
    with pytest.raises(DomainError):
        make_control_field(preset_model("two_blob_2d"), ChordParams(), kinds, seed=0)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.one_of(_ROW_NORMS, st.just(math.nan)), min_size=1, max_size=5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_guard_rows_agree_with_the_guard_row_by_row(norms, dim, seed):
    unit = np.random.default_rng(seed).normal(size=(len(norms), dim))
    with np.errstate(invalid="ignore"):
        states = unit / np.linalg.norm(unit, axis=1, keepdims=True) * np.array(norms)[:, None]
    ok = _guard_rows(states)
    assert ok.shape == (len(norms),)

    def trips(x):
        try:
            _raise_unless_live(_guard_rows(x), x, "a test")
        except DivergenceError as err:
            return str(err)
        return None

    for row, verdict in zip(states, ok):
        assert _guard_rows(row) == verdict
        assert (trips(row) is None) == verdict
    message = trips(states)
    assert (message is None) == ok.all()
    if message is not None:
        assert f"(rows {np.flatnonzero(~ok).tolist()})" in message


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.one_of(_ROW_NORMS, st.just(math.nan)), min_size=1, max_size=5),
    st.integers(1, 4),
    st.sampled_from([0.0, 1.0, 5.0]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_euler_march_rows_bit_equal_to_one_march_per_row(norms, dim, growth, steps, seed):
    # rows at the limit give or take an ulp, runaway, infinite and NaN rows
    # among tame ones, under a field that depends on the pseudo-time
    unit = np.random.default_rng(seed).normal(size=(len(norms) + 1, dim))
    with np.errstate(invalid="ignore"):
        states = unit / np.linalg.norm(unit, axis=1, keepdims=True)
        states *= np.array([*norms, 1.0])[:, None]

    def field(x, s):
        with np.errstate(invalid="ignore", over="ignore"):
            return growth * (1.0 + s) * x

    trajectory, fields, live = euler_march(field, states, 0.25, steps)
    assert live.shape == (len(states),)
    for j, x in enumerate(states):
        traj_j, fields_j, live_j = euler_march(field, x, 0.25, steps)
        assert live_j.shape == () and live[j] == live_j
        np.testing.assert_array_equal(trajectory[-1][j], traj_j[-1])
        # a row's states and fields up to its last good state are its own
        np.testing.assert_array_equal([t[j] for t in trajectory[: len(traj_j)]], traj_j)
        np.testing.assert_array_equal([u[j] for u in fields[: len(fields_j)]], fields_j)
        if live_j:
            assert len(fields_j) == len(fields) == steps


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.one_of(_ROW_NORMS, st.just(math.nan)), min_size=1, max_size=4),
    st.integers(1, 4),
    st.sampled_from([0.0, 1.0, 5.0]),
    st.integers(0, 2**32 - 1),
)
def test_rk4_rows_freeze_where_they_trip_while_the_rest_run_on(norms, dim, growth, seed):
    # rows that may run away among tame ones: the error carries each tame
    # row's own endpoint and each tripped row's own last good state
    rng = np.random.default_rng(seed)
    unit = rng.normal(size=(len(norms) + 2, dim))
    with np.errstate(invalid="ignore"):
        states = unit / np.linalg.norm(unit, axis=1, keepdims=True)
        states *= np.array([*norms, 1.0, DIVERGENCE_NORM / 1000])[:, None]
    states = states[rng.permutation(len(states))]

    def field(x, s):
        with np.errstate(invalid="ignore"):
            return growth * x

    batch = _run_or_error(lambda: integrate_rk4(field, states, 0.0, 1.0, 4))
    alone = [_run_or_error(lambda: integrate_rk4(field, x, 0.0, 1.0, 4)) for x in states]
    tripped = [j for j, a in enumerate(alone) if isinstance(a, DivergenceError)]
    ends = [a.last_state if j in tripped else a for j, a in enumerate(alone)]
    if not tripped:
        np.testing.assert_array_equal(batch, np.stack(ends))
        return
    assert isinstance(batch, DivergenceError)
    assert str(batch) == f"state diverged during reference integration (rows {tripped})"
    assert batch.last_state.tobytes() == np.stack(ends).tobytes()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1.0, 5.0, 40.0]), min_size=1, max_size=5),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_rows_field_marches_bit_equal_to_one_march_per_particle(growths, dim, steps, seed):
    # one field per row, the fastest of which run away part-way: each row of
    # a rows march is that row's own march, whichever rows trip and when
    states = np.random.default_rng(seed).normal(size=(len(growths), dim)) * 1e3
    fields = [lambda x, s, g=g: g * (1.0 + s) * x for g in growths]
    marches = (
        lambda field, x: rk4_march(field, x, 0.0, 1.0, steps),
        lambda field, x: euler_march(field, x, 0.25, steps),
    )
    for march in marches:
        trajectory, values, live = march(transport._rows_field(fields), states)
        assert live.shape == (len(states),)
        for j, (field, x) in enumerate(zip(fields, states)):
            traj_j, values_j, live_j = march(field, x)
            assert live[j] == live_j
            np.testing.assert_array_equal(trajectory[-1][j], traj_j[-1])
            np.testing.assert_array_equal([u[j] for u in values[: len(values_j)]], values_j)
        # no rows at all: the march stops at once, with nothing to stack
        trajectory, values, live = march(transport._rows_field([]), np.empty((0, dim)))
        assert live.shape == (0,) and values == [] and trajectory[-1].shape == (0, dim)


def test_integrators_take_pseudo_times_from_the_step_index():
    times = []

    def field(x, s):
        times.append(s)
        return -x

    x0 = np.array([1.0, -2.0])
    euler_march(field, x0, 0.1, 7)
    # a running sum would give 0.6 for the seventh, not 6 * 0.1
    assert times == [i * 0.1 for i in range(7)]
    times.clear()
    integrate_rk4(field, x0, 0.3, 1.1, 7)
    assert len(times) == 28 and times[-1] == 1.1
    with pytest.raises(DomainError):
        euler_march(field, x0, 0.1, 0)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.one_of(_ROW_NORMS, st.just(math.nan)), min_size=2, max_size=8),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_guard_rows_on_row_pairs_agree_row_by_row(norms, dim, seed):
    # rows laid out (P, 2, d), one pair of kinds per point
    norms = norms[: len(norms) // 2 * 2]
    unit = np.random.default_rng(seed).normal(size=(len(norms), dim))
    with np.errstate(invalid="ignore"):
        states = unit / np.linalg.norm(unit, axis=1, keepdims=True) * np.array(norms)[:, None]
    ok = _guard_rows(states.reshape(-1, 2, dim))
    assert ok.shape == (len(norms) // 2, 2)
    np.testing.assert_array_equal(ok.ravel(), [_guard_rows(x) for x in states])


@pytest.mark.parametrize(
    "row", [[math.nan, 0.0], [math.inf, 0.0], [-math.inf, math.inf], [1e300, 1e300]]
)
def test_guard_rejects_non_finite_and_overflowing_states(row):
    x = np.array(row)
    assert not _guard_rows(x)
    np.testing.assert_array_equal(_guard_rows(np.stack([np.ones(2), x])), [True, False])
    with pytest.raises(DivergenceError):
        _raise_unless_live(_guard_rows(x), x, "a test")


def test_guard_on_squared_norms_agrees_with_the_norms_either_side_of_the_limit():
    # the guard meets each squared norm with the limit squared, a double
    limit_sq = DIVERGENCE_NORM * DIVERGENCE_NORM
    assert limit_sq == DIVERGENCE_NORM**2 == 1e12
    # every double within 2e5 steps of it, as a squared norm
    squares = (np.array(limit_sq).view(np.int64) + np.arange(-200_000, 200_001)).view(float)
    np.testing.assert_array_equal(np.sqrt(squares) <= DIVERGENCE_NORM, squares <= limit_sq)
    # rows whose squared norms land on and next to it, and rows that are not
    # finite or run far away
    ulp = np.spacing(DIVERGENCE_NORM)
    near = [
        [DIVERGENCE_NORM + j * ulp, math.sqrt(m * np.spacing(limit_sq))]
        for j in range(-3, 4)
        for m in range(5)
    ]
    far = [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0], [1e200, 0.0], [-1e200, 1e200]]
    rows = np.array(near + [[math.sqrt(q), 0.0] for q in squares[::4001]] + far)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.vecdot(rows, rows)
        want = np.sqrt(sq) <= DIVERGENCE_NORM
    assert {np.nextafter(limit_sq, 0.0), limit_sq, np.nextafter(limit_sq, np.inf)} <= set(sq)
    assert want.any() and not want.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _guard_rows(rows)
        alone = [bool(_guard_rows(x)) for x in rows]
    np.testing.assert_array_equal(got, want)
    assert alone == want.tolist()


def test_guard_is_silent_where_the_squares_overflow_and_keeps_its_verdicts():
    limit = transport.DIVERGENCE_NORM
    near = [limit * (1 + k * np.finfo(float).eps) for k in (-3, 0, 3)]
    rows = np.array(
        [[1e300, 1e300], [1e200, -1e200], [1e154, 1e154], [2 * limit, 0.0], [math.nan, 1e300]]
        + [[v, 0.0] for v in near]
        + [[v / math.sqrt(2), -v / math.sqrt(2)] for v in near]
    )
    # the unclipped norms, overflow and all, are the verdicts to keep
    with np.errstate(over="ignore"):
        before = np.sqrt(np.vecdot(rows, rows)) <= limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = _guard_rows(rows)
        one_by_one = [bool(_guard_rows(x)) for x in rows]
    np.testing.assert_array_equal(ok, before)
    assert one_by_one == before.tolist()
    assert not ok[:2].any() and ok[5:7].all()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from([1, 4]),
    st.sampled_from([0.0, 0.1]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    # a step large enough for a far row to overshoot the guard, or the default
    st.sampled_from([1.0, 50.0]),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_chordedit_rows_bit_equal_to_one_call_per_state(
    name, n, delta, use_prox, prox_shared, share, step_scale, count, far, seed
):
    model = preset_model(name)
    params = ChordParams(
        delta=delta,
        n=n,
        step_scale=step_scale,
        use_prox=use_prox,
        prox_shared_noise=prox_shared,
        share_noise_across_times=share,
    )
    rng = np.random.default_rng(seed)
    states = model.source.means[rng.integers(0, model.source.n_components, count)]
    states = states + rng.normal(size=states.shape)
    if far:
        # one row far out, whose inward step may run past the guard's limit
        direction = rng.normal(size=model.dim)
        states[rng.integers(0, count)] = direction / np.linalg.norm(direction) * 8e5
    seeds = rng.integers(0, 2**63, count).tolist()
    res = chordedit(model, states, params, seeds)
    assert res.live.shape == (count,) and res.energy.shape == (count,)
    for i, (x, seed_i) in enumerate(zip(states, seeds)):
        alone = _run_or_error(lambda: chordedit(model, x, params, seed_i))
        assert res.live[i] == (not isinstance(alone, DivergenceError))
        if not res.live[i]:
            np.testing.assert_array_equal(alone.last_state, x)
            continue
        for field in ("x_pred", "x_out", "u_hat"):
            assert getattr(res, field)[i].tobytes() == getattr(alone, field).tobytes()
        assert [t for t, _ in res.fields_queried] == [t for t, _ in alone.fields_queried]
        for (_, got), (_, want) in zip(res.fields_queried, alone.fields_queried):
            assert got[i].tobytes() == want.tobytes()
        assert res.energy[i].tobytes() == np.float64(alone.energy).tobytes()
        # the BLAS dot of one state: a vectorised sum of squares differs in the last bit
        assert alone.energy == float(alone.u_hat @ alone.u_hat) / model.dim


def test_chordedit_rows_energy_is_each_rows_own_dot():
    # enough rows at d = 2 that a sum of squares other than the one-row dot
    # (an einsum, or (u * u).sum) moves the last bit of some row's energy
    model = preset_model("two_blob_2d")
    rng = np.random.default_rng(11)
    states = model.source.means[rng.integers(0, model.source.n_components, 200)]
    states = states + rng.normal(size=states.shape)
    res = chordedit(model, states, ChordParams(use_prox=False), list(range(200)))
    assert res.energy.tolist() == [float(u @ u) / model.dim for u in res.u_hat]


def test_chordedit_rows_flag_a_runaway_row_and_refine_the_rest():
    model = preset_model("two_blob_2d")
    params = ChordParams(step_scale=50.0)
    states = np.array([[-2.0, 0.5], [8e5, 0.0], [-1.5, -0.5]])
    res = chordedit(model, states, params, [3, 4, 5])
    np.testing.assert_array_equal(res.live, [True, False, True])
    # the runaway row keeps its unrefined step
    np.testing.assert_array_equal(res.x_out[1], res.x_pred[1])
    with pytest.raises(DivergenceError) as err:
        chordedit(model, states[1], params, 4)
    np.testing.assert_array_equal(err.value.last_state, states[1])
    for i in (0, 2):
        alone = chordedit(model, states[i], params, i + 3)
        assert res.x_out[i].tobytes() == alone.x_out.tobytes()


@pytest.mark.parametrize(
    "shape, seeds", [((3, 2), [1, 2]), ((3, 2), 1), ((2, 3, 2), [1, 2]), ((), 1)]
)
def test_chordedit_rejects_rows_without_one_seed_each(shape, seeds):
    model = preset_model("two_blob_2d")
    with pytest.raises(DomainError):
        chordedit(model, np.zeros(shape), DEFAULTS, seeds)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.booleans(),
    st.floats(0.05, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_chord_field_at_zero_delta_is_the_naive_field(
    name, schedule, head, n, share, use_prox, t, seed
):
    # at delta = 0 both queries sit at t, so every chord path takes the naive
    # field's draws, whether or not the two query times share their noise
    model = preset_model(name, schedule, head)
    params = ChordParams(
        t=t, delta=0.0, n=n, share_noise_across_times=share, use_prox=use_prox
    )
    x = np.random.default_rng(seed).normal(size=model.dim) * 2.0
    naive = _value_or_error_type(lambda: make_control_field(model, params, "naive", seed)(x))
    both = make_control_field(model, params, ("chord", "naive"), seed)
    got = [
        _value_or_error_type(lambda: make_control_field(model, params, "chord", seed)(x)),
        _value_or_error_type(lambda: chordedit(model, x, params, seed).u_hat),
        _value_or_error_type(lambda: both(np.stack([x, x]))[0]),
    ]
    for value in got:
        if isinstance(naive, type):
            assert value is naive
        else:
            assert value.tobytes() == naive.tobytes()


@pytest.mark.parametrize("shape", [(1,), (3,), (4, 1), (4, 3)])
def test_refinement_off_the_model_dimension_rejected(shape):
    # a state of d - 1 or d + 1 coordinates would broadcast against the draw
    with pytest.raises(DomainError, match="anchor dimension"):
        proximal_refine(preset_model("two_blob_2d"), np.zeros(shape), 0.3, seed=0)


@pytest.mark.parametrize(
    "x_shape, eps_shape",
    [((2, 2), (3,)), ((2, 2), (3, 2)), ((2, 2), (1,)), ((2, 2), (1, 2)), ((2,), (2, 2))],
)
def test_refinement_draw_neither_one_nor_one_per_row_rejected(monkeypatch, x_shape, eps_shape):
    # even an eps that would broadcast against the states is named, before the posterior
    def no_posterior(*args):
        raise AssertionError("posterior read before eps was checked")

    monkeypatch.setattr(transport, "_observe", no_posterior)
    with pytest.raises(DomainError, match=rf"eps of shape \({eps_shape[0]},"):
        proximal_refine(
            preset_model("two_blob_2d"), np.zeros(x_shape), 0.3, seed=0, eps=np.zeros(eps_shape)
        )


def _per_row(fields):
    """The rows field evaluated row by row: row i is ``fields[i]`` at that row."""
    return lambda x, s=0.0: np.array([f(x_i, s) for f, x_i in zip(fields, x)]).reshape(x.shape)


def _spied(field, calls):
    """``field`` appending to ``calls`` when called, with its attributes (``query`` among them)."""

    @functools.wraps(field)
    def spy(x, s=0.0):
        calls.append(x.shape)
        return field(x, s)

    return spy


def _marches_equal(got, want):
    """Two ``_march`` results, or the types of their errors, are the same bytes."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    (traj, values, live), (traj_w, values_w, live_w) = got, want
    assert np.stack(traj).tobytes() == np.stack(traj_w).tobytes()
    assert len(values) == len(values_w)
    assert all(u.tobytes() == w.tobytes() for u, w in zip(values, values_w))
    assert live.tobytes() == live_w.tobytes()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from(SCHEDULES),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.sampled_from(FIELD_KINDS),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([0, 1, 5]),
    st.integers(0, 2**32 - 1),
)
def test_batched_rows_field_bit_equal_to_one_field_per_row(
    name, schedule, head, kind, n, share, delta, count, seed
):
    # one-kind fields of one model, params and kind query every row at once,
    # each row under its own draws; the row-by-row path is the oracle
    model = preset_model(name, schedule, head)
    params = ChordParams(t=0.8, delta=delta, n=n, share_noise_across_times=share)
    calls = []
    fields = [
        _spied(make_control_field(model, params, kind, particle_seed(seed, i)), calls)
        for i in range(count)
    ]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, model.source.n_components, count)
    states = model.source.means[picks] + rng.normal(size=(count, model.dim))
    # every row, then a subset, as step_sweep marches the rows whose reference stayed tame
    keep = np.flatnonzero(rng.random(count) < 0.5)
    for rows, x in ((fields, states), ([fields[i] for i in keep], states[keep])):
        got = _value_or_error_type(lambda: transport._rows_field(rows)(x))
        assert calls == []  # the batched path calls no field
        want = _value_or_error_type(lambda: _per_row(rows)(x))
        assert got is want if isinstance(want, type) else got.tobytes() == want.tobytes()
        calls.clear()
    # a row far out, where an RK4 step of 64 overshoots, among the tame ones
    if count:
        states[0] = 9e5 / math.sqrt(model.dim)
    for march in (
        lambda field: rk4_march(field, states, 0.0, 64.0, 1),
        lambda field: euler_march(field, states, 0.5, 3),
    ):
        got = _value_or_error_type(lambda: march(transport._rows_field(fields)))
        assert calls == []
        _marches_equal(got, _value_or_error_type(lambda: march(_per_row(fields))))
        calls.clear()


def test_batched_rk4_march_freezes_the_runaway_row_alone():
    # the far row trips the guard where the tame rows take their step, each
    # row bit-equal to its own field's march
    model = preset_model("two_blob_2d")
    for kind, n in itertools.product(FIELD_KINDS, (1, 4)):
        params = ChordParams(t=0.8, delta=0.1, n=n)
        fields = [make_control_field(model, params, kind, particle_seed(7, i)) for i in range(4)]
        states = np.random.default_rng(7).normal(size=(4, 2))
        states[2] = [9e5, 0.0]
        got = rk4_march(transport._rows_field(fields), states, 0.0, 64.0, 1)
        assert got[2].tolist() == [True, True, False, True]
        _marches_equal(got, rk4_march(_per_row(fields), states, 0.0, 64.0, 1))
        for i, field in enumerate(fields):
            trajectory, _, live = rk4_march(field, states[i], 0.0, 64.0, 1)
            assert live == got[2][i]
            assert trajectory[-1].tobytes() == got[0][-1][i].tobytes()


def test_rows_field_evaluates_other_fields_row_by_row():
    # mixed kinds, other params or another model, wrappers without the fields'
    # attributes and tuple kinds each call every field on its own row
    model, params = preset_model("two_blob_2d"), ChordParams(n=2)
    naive, chord = (
        [make_control_field(model, params, kind, s) for s in (1, 2, 3)] for kind in FIELD_KINDS
    )
    elsewhere = [
        make_control_field(model, replace(params, delta=0.2), "chord", 4),
        make_control_field(preset_model("two_blob_2d"), params, "chord", 4),
        lambda x, s=0.0: chord[2](x, s),
    ]
    x = np.random.default_rng(0).normal(size=(3, 2))
    for odd in [naive[0], *elsewhere]:
        fields, calls = [chord[0], chord[1], odd], []
        got = transport._rows_field([_spied(f, calls) for f in fields])(x)
        assert calls == [(2,)] * 3
        assert got.tobytes() == _per_row(fields)(x).tobytes()
    both = [make_control_field(model, params, ("chord", "naive"), s) for s in (1, 2, 3)]
    pairs, calls = np.stack([x, x], axis=1), []
    got = transport._rows_field([_spied(f, calls) for f in both])(pairs)
    assert calls == [(2, 2)] * 3
    assert got.tobytes() == _per_row(both)(pairs).tobytes()
    # the same fields, all one kind, are queried together
    got = transport._rows_field([_spied(f, calls) for f in chord])(x)
    assert len(calls) == 3 and got.tobytes() == _per_row(chord)(x).tobytes()


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("delta, share", [(0.0, True), (0.0, False), (5e-8, True), (5e-8, False)])
def test_batched_rows_field_fails_where_the_query_time_fails(kind, delta, share):
    # sigma(1e-7) is below the floor of the noise head, and 2**62 draws do not
    # fit: the query time's constants fail before the draws are read, on the
    # batched path as row by row
    model = preset_model("two_blob_2d", Schedule(kind=VP_CONST_BETA, beta0=0.5), "noise_eps")
    params = ChordParams(t=1e-7, delta=delta, n=2**62, share_noise_across_times=share)
    fields = [make_control_field(model, params, kind, particle_seed(0, i)) for i in range(3)]
    x = np.zeros((3, 2))
    with pytest.raises(IllConditionedMapError, match="below floor") as want:
        _per_row(fields)(x)
    with pytest.raises(IllConditionedMapError) as got:
        transport._rows_field(fields)(x)
    assert str(got.value) == str(want.value)


def test_rows_field_is_not_batched_again():
    # a rows field carries no query, so a list of rows fields goes row by row
    model, params = preset_model("two_blob_2d"), ChordParams(n=2)
    fields = [make_control_field(model, params, "chord", s) for s in (1, 2)]
    rows = transport._rows_field(fields)
    assert getattr(rows, "query", None) is None
    x = np.random.default_rng(0).normal(size=(2, 2, 2))
    got = transport._rows_field([rows, rows])(x)
    assert got.tobytes() == np.stack([rows(x_i) for x_i in x]).tobytes()


def _closed(make):
    """``make``'s fields in a plain closure without their attributes, as a tracer wraps them."""

    def make_closed(*args):
        field = make(*args)
        return lambda x, s=0.0: field(x, s)

    return make_closed


def _chordedit_both_ways(model, states, params, seeds):
    """``chordedit`` over the rows with one query per time, then with the seeds' fields
    wrapped, which queries row by row; each run's result and its ``proxy_field`` shapes."""
    runs, query = [], transport.proxy_field
    for wrapped in (False, True):
        shapes = []

        def counted(model, x, t, batch):
            shapes.append(np.shape(x))
            return query(model, x, t, batch)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "proxy_field", counted)
            if wrapped:
                patch.setattr(transport, "make_control_field", _closed(make_control_field))
            runs.append((chordedit(model, states, params, seeds), shapes))
    return runs


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.sampled_from([1, 4]),
    st.sampled_from([0.0, 0.1]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_chordedit_rows_bit_equal_with_fields_wrapped(
    name, n, delta, use_prox, prox_shared, share, count, far, seed
):
    # one query per time over every row, or two per row once the fields lose
    # their query: the same bytes in every output
    model = preset_model(name)
    params = ChordParams(
        delta=delta,
        n=n,
        # a step long enough that the far row lands past the guard's limit
        step_scale=5000.0 if far else 1.0,
        use_prox=use_prox,
        prox_shared_noise=prox_shared,
        share_noise_across_times=share,
    )
    rng = np.random.default_rng(seed)
    states = model.source.means[rng.integers(0, model.source.n_components, count)]
    states = states + rng.normal(size=states.shape)
    if far:
        direction = rng.normal(size=model.dim)
        states[rng.integers(0, count)] = direction / np.linalg.norm(direction) * 9e5
    seeds = rng.integers(0, 2**63, count).tolist()
    (batched, rows), (wrapped, one_by_one) = _chordedit_both_ways(model, states, params, seeds)
    assert rows == [states.shape] * 2
    assert one_by_one == [(model.dim,)] * (2 * count)
    assert batched.live.sum() == count - far
    for field in ("x_pred", "x_out", "u_hat", "energy", "live"):
        got, want = getattr(batched, field), getattr(wrapped, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert [t for t, _ in batched.fields_queried] == [t for t, _ in wrapped.fields_queried]
    for (_, got), (_, want) in zip(batched.fields_queried, wrapped.fields_queried):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_anchor_dimension_error_reads_the_same_on_every_path():
    # rows of 3 coordinates for a 2-d model: the batched and the wrapped rows
    # field, and rows or one state through chordedit, all name one state's axis
    model = preset_model("two_blob_2d")
    fields = [make_control_field(model, DEFAULTS, "chord", s) for s in (1, 2, 3)]
    rows = np.zeros((3, 3))
    wrapped = [_closed(make_control_field)(model, DEFAULTS, "chord", s) for s in (1, 2, 3)]
    runs = [
        lambda: transport._rows_field(fields)(rows),
        lambda: transport._rows_field(wrapped)(rows),
        lambda: chordedit(model, rows, DEFAULTS, [1, 2, 3]),
        lambda: chordedit(model, rows[0], DEFAULTS, 1),
        lambda: proxy_field(model, rows[0], 0.5, _batches(DEFAULTS, 1, 2)[0]),
    ]
    messages = []
    for run in runs:
        with pytest.raises(DomainError, match="anchor dimension") as err:
            run()
        messages.append(str(err.value))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "make_control_field", _closed(make_control_field))
        with pytest.raises(DomainError, match="anchor dimension") as err:
            chordedit(model, rows, DEFAULTS, [1, 2, 3])
        messages.append(str(err.value))
    assert messages == [messages[0]] * 6 and "(3,)" in messages[0]


@pytest.mark.parametrize("kinds", [("chord", "naive"), ("naive", "chord")])
def test_tuple_field_below_the_floor_names_the_floor_before_the_draws(kinds):
    # 2**62 draws do not fit, but the fused pass reads none before it finds
    # sigma below the floor, so the field names the floor as a query would
    model = preset_model("two_blob_2d", Schedule(kind=VP_CONST_BETA, beta0=0.5), "noise_eps")
    params = ChordParams(t=1e-7, delta=0.0, n=2**62)
    field = make_control_field(model, params, kinds, 0)
    with pytest.raises(IllConditionedMapError, match="below floor") as want:
        proxy_field(model, np.zeros(2), 1e-7, _batches(params, 0, 2)[1])
    with pytest.raises(IllConditionedMapError) as got:
        field(np.zeros((1, 2, 2)))
    assert str(got.value) == str(want.value)


# the chord estimate is a convex combination of its two proxy queries, so no
# row's norm exceeds the larger of theirs; the blend and the norms round, and
# 4 ulp of the larger norm cover that (the excess measured 0 ulp)
CONVEX_SLACK_ULP = 4


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESET_NAMES),
    st.sampled_from([Schedule(kind=VP_CONST_BETA, beta0=0.5), Schedule(kind=LINEAR_INTERP)]),
    st.sampled_from([1, 4]),
    st.sampled_from([0.0, 0.1]),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
)
def test_chordedit_rows_never_exceed_their_larger_query(name, schedule, n, delta, seeds):
    model = preset_model(name, schedule)
    rows = sample_particles(model, len(seeds), seeds).points
    res = chordedit(model, rows, ChordParams(n=n, delta=delta), seeds)
    (_, r_prev), (_, r_curr) = res.fields_queried
    bound = np.maximum(np.linalg.norm(r_prev, axis=1), np.linalg.norm(r_curr, axis=1))
    excess = np.linalg.norm(res.u_hat, axis=1) - bound
    assert np.all(excess <= CONVEX_SLACK_ULP * np.spacing(bound))


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_a_wrapped_one_kind_field_keeps_its_query_and_the_rows_path(kind):
    # query and autonomous live on the field itself, so functools.wraps copies
    # them, and rows of wrapped fields are still queried all at once
    model, params = preset_model("two_blob_2d"), ChordParams(n=3)
    fields = [make_control_field(model, params, kind, particle_seed(4, i)) for i in range(3)]
    calls = []
    wrapped = [_spied(f, calls) for f in fields]
    for field, wrapper in zip(fields, wrapped):
        assert wrapper.query is field.query and wrapper.query is not None
        assert wrapper.autonomous is field.autonomous is True
    x = np.random.default_rng(4).normal(size=(3, 2))
    got = transport._rows_field(wrapped)(x)
    assert calls == []
    assert got.tobytes() == _per_row(fields)(x).tobytes()


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("shape", [(2,), (4, 2)])
def test_each_call_of_a_one_kind_field_returns_an_array_of_its_own(kind, shape):
    # an integrator may write into what a field returned: no later call, and
    # no state passed in, may share that memory
    model = preset_model("two_blob_2d")
    field = make_control_field(model, ChordParams(n=2), kind, seed=8)
    x = np.random.default_rng(8).normal(size=shape)
    first, second = field(x), field(x)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, x)
    want = second.copy()
    first += 1.0
    assert second.tobytes() == want.tobytes() == field(x).tobytes()


@pytest.mark.parametrize("kind", ["midpoint", "", None, ["chord"], "Chord"])
def test_an_unknown_single_kind_names_the_kinds(kind):
    with pytest.raises(DomainError) as err:
        make_control_field(preset_model("two_blob_2d"), ChordParams(), kind, seed=0)
    assert str(err.value) == "field kinds must be drawn from ('naive', 'chord')"


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESET_NAMES),
    st.sampled_from([Schedule(kind=VP_CONST_BETA, beta0=0.5), Schedule(kind=LINEAR_INTERP)]),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
)
def test_chordedit_rows_at_zero_delta_are_the_naive_field(name, schedule, n, share, seeds):
    # at delta = 0 both queries sit at t with t's draws, shared noise or not,
    # so each row's field is that row's naive field and the two queries agree
    model = preset_model(name, schedule)
    params = ChordParams(delta=0.0, n=n, share_noise_across_times=share)
    rows = sample_particles(model, len(seeds), seeds).points
    res = chordedit(model, rows, params, seeds)
    (_, r_prev), (_, r_curr) = res.fields_queried
    assert r_prev.tobytes() == r_curr.tobytes()
    for x, seed_i, u in zip(rows, seeds, res.u_hat):
        naive = make_control_field(model, params, "naive", seed_i)(x)
        assert u.tobytes() == naive.tobytes()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PRESET_NAMES),
    st.sampled_from([Schedule(kind=VP_CONST_BETA, beta0=0.5), Schedule(kind=LINEAR_INTERP)]),
    st.sampled_from([0.0, 0.1]),
    st.booleans(),
    st.booleans(),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
)
def test_chordedit_rows_at_one_draw_are_the_single_noise_path(
    name, schedule, delta, share, use_prox, seeds
):
    # at n = 1 the multi-noise estimator is the single-batch one, row by row
    model = preset_model(name, schedule)
    params = ChordParams(delta=delta, n=1, share_noise_across_times=share, use_prox=use_prox)
    rows = sample_particles(model, len(seeds), seeds).points
    multi = chordedit_multi_noise(model, rows, params, seeds)
    single = chordedit(model, rows, params, seeds)
    assert multi.live.all() and single.live.all()
    for field in ("x_pred", "x_out", "u_hat", "energy", "live"):
        assert getattr(multi, field).tobytes() == getattr(single, field).tobytes()
    for (t_m, got), (t_s, want) in zip(multi.fields_queried, single.fields_queried):
        assert t_m == t_s and got.tobytes() == want.tobytes()
    for i, (x, seed_i) in enumerate(zip(rows, seeds)):
        alone = chordedit(model, x, params, seed_i)
        for field in ("x_pred", "x_out", "u_hat"):
            assert getattr(multi, field)[i].tobytes() == getattr(alone, field).tobytes()
        for (_, got), (_, want) in zip(multi.fields_queried, alone.fields_queried):
            assert got[i].tobytes() == want.tobytes()


def test_a_march_holds_two_arrays_and_no_object_per_step():
    # 4,096 RK4 steps over 2 rows: the states and the first stages are two arrays
    # of 16 * steps * rows * d bytes between them; a list of per-step views and
    # values held about 1.4 MB here
    x0 = np.array([[0.5, -1.0], [2.0, 0.25]])
    field = lambda x, s: -x  # noqa: E731
    integrate_rk4(field, x0, 0.0, 1.0, 8)  # numpy's first-call allocations out of the count
    tracemalloc.start()
    try:
        integrate_rk4(field, x0, 0.0, 1.0, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4096 * x0.size + 64 * 1024


@pytest.mark.parametrize(
    "march, tame_taken",
    # u = x with steps of 1: a state grows 2-fold an Euler step and about
    # 2.708-fold an RK4 step, so from norm 1 the guard trips at step 20 or 14
    [
        (lambda field, x, steps: euler_march(field, x, 1.0, steps), 19),
        (lambda field, x, steps: rk4_march(field, x, 0.0, float(steps), steps), 13),
    ],
    ids=["euler", "rk4"],
)
def test_march_returns_arrays_cut_to_the_steps_taken(march, tame_taken):
    field = lambda x, s: x  # noqa: E731
    for x0 in (np.array([1e-9, 0.0]), np.full((3, 2), 1e-9), np.full((2, 3, 1), 1e-9)):
        trajectory, fields, live = march(field, x0, 5)
        assert trajectory.shape == (6,) + x0.shape and fields.shape == (5,) + x0.shape
        assert live.shape == x0.shape[:-1] and live.all()
        assert trajectory[0].tobytes() == x0.tobytes() and fields[0].tobytes() == x0.tobytes()
    # one state stops at its last good step
    trajectory, fields, live = march(field, np.array([1.0]), 25)
    assert not live and trajectory.shape == (tame_taken + 1, 1) and fields.shape == (tame_taken, 1)
    # a row that trips is frozen while the other goes on to the end
    trajectory, fields, live = march(field, np.array([[1.0], [1e-12]]), 25)
    assert live.tolist() == [False, True] and trajectory.shape == (26, 2, 1)
    assert fields.shape == (25, 2, 1) and (trajectory[tame_taken:, 0] == trajectory[-1, 0]).all()
    # every row trips: the march stops at the last step some row kept
    trajectory, fields, live = march(field, np.array([[1.0], [-1.0]]), 25)
    assert not live.any() and trajectory.shape == (tame_taken + 1, 2, 1)
    assert fields.shape == (tame_taken, 2, 1)
    # a first step that trips keeps no step and no field value
    trajectory, fields, live = march(field, np.array([2e6]), 25)
    assert not live and trajectory.tolist() == [[2e6]] and len(fields) == 0
