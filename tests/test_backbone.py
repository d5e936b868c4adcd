import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordfield.backbone import (
    _TIME_ENTRIES,
    BackboneModel,
    GaussianMixtureCondition,
    _head_residual,
    delta_drift,
    log_marginal_density,
    marginal_moments,
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
from chordfield.proxy import SharedNoiseBatch, _draw_sum, proxy_field
from chordfield.schedules import (
    LINEAR_INTERP,
    PARAMETERIZATION_KINDS,
    VELOCITY,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    coefficient,
    epsilon_coefficient_forms,
    path_scalars,
)


def single(mean, scale):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianMixtureCondition(
        weights=[1.0], means=[mean.tolist()], scales=[scale]
    )


def two_basin_1d(scale=0.1):
    return BackboneModel(
        schedule=Schedule(kind=LINEAR_INTERP),
        source=single([-2.0], scale),
        target=single([2.0], scale),
    )


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            GaussianMixtureCondition([0.5, 0.4], [[0.0], [1.0]], [1.0, 1.0])

    def test_scales_positive(self):
        with pytest.raises(DomainError):
            GaussianMixtureCondition([1.0], [[0.0]], [0.0])

    def test_dim_mismatch_between_conditions(self):
        with pytest.raises(DomainError):
            BackboneModel(
                schedule=Schedule(kind=LINEAR_INTERP),
                source=single([0.0], 1.0),
                target=single([0.0, 0.0], 1.0),
            )


class TestMarginalMoments:
    def test_no_noising_at_t0(self):
        cond = single([3.0, -1.0], 0.7)
        mean, var = marginal_moments(cond, 0, Schedule(kind=LINEAR_INTERP), 0.0)
        assert np.allclose(mean, [3.0, -1.0])
        assert var == pytest.approx(0.49)

    def test_vp_identity_for_unit_component(self):
        cond = single([0.0], 1.0)
        sched = Schedule(kind=VP_CONST_BETA, beta0=2.0)
        for t in (0.1, 0.5, 0.9):
            mean, var = marginal_moments(cond, 0, sched, t)
            assert np.allclose(mean, 0.0)
            assert var == pytest.approx(1.0, abs=1e-12)

    def test_direct_arithmetic_case(self):
        cond = single([2.0, 0.0], 0.5)
        mean, var = marginal_moments(cond, 0, Schedule(kind=LINEAR_INTERP), 0.5)
        assert np.allclose(mean, [1.0, 0.0])
        assert var == pytest.approx(0.3125)

    def test_bad_component_index(self):
        with pytest.raises(DomainError):
            marginal_moments(single([0.0], 1.0), 1, Schedule(kind=LINEAR_INTERP), 0.5)


class TestPosterior:
    def test_query_at_marginal_mean_returns_component_mean(self):
        model = two_basin_1d(scale=0.5)
        t = 0.6
        a = model.schedule.alpha(t)
        out = posterior_x0(model, np.array([a * 2.0]), t, "tar")
        assert out == pytest.approx([2.0], abs=1e-12)

    def test_sigma_zero_inverts_path(self):
        model = two_basin_1d()
        z = np.array([1.3])
        assert posterior_x0(model, z, 0.0, "src") == pytest.approx(z)

    def test_symmetric_bimodal_midpoint(self):
        mix = GaussianMixtureCondition(
            [0.5, 0.5], [[-2.0], [2.0]], [0.1, 0.1]
        )
        model = BackboneModel(
            schedule=Schedule(kind=LINEAR_INTERP), source=mix, target=mix
        )
        out = posterior_x0(model, np.array([0.0]), 0.5, "tar")
        assert out == pytest.approx([0.0], abs=1e-12)

    def test_responsibilities_sum_to_one(self):
        mix = GaussianMixtureCondition(
            [0.25, 0.25, 0.5], [[-1.0, 0.0], [1.0, 0.5], [0.0, -2.0]], [0.2, 0.4, 0.6]
        )
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.normal(size=2) * 3
            resp, _ = mix._stack.responsibilities(z, mix._stack.at(0.5, 0.5))
            assert abs(resp.sum() - 1.0) <= 1e-12

    def test_far_tail_query_is_stable(self):
        model = two_basin_1d(scale=0.05)
        out = posterior_x0(model, np.array([40.0]), 0.5, "tar")
        assert np.isfinite(out).all()

    def test_degenerate_mass_raises(self):
        model = two_basin_1d(scale=1e-3)
        # a query so extreme that every component log-mass is -inf
        with pytest.raises(DegeneratePosteriorError):
            posterior_x0(model, np.array([1e160]), 1e-4, "src")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_is_domain_error(self, bad):
        model = BackboneModel(
            schedule=Schedule(kind=LINEAR_INTERP),
            source=single([-2.0, 0.0], 0.3),
            target=single([2.0, 0.0], 0.3),
        )
        z = np.array([bad, 0.0])
        for query in (
            lambda: velocity(model, z, 0.5, "tar"),
            lambda: posterior_x0(model, z, 0.5, "src"),
            lambda: delta_drift(model, z, 0.5),
        ):
            with pytest.raises(DomainError, match="finite"):
                query()


class TestVelocity:
    def test_centered_query_uses_x0_branch_only(self):
        model = BackboneModel(
            schedule=Schedule(kind=LINEAR_INTERP),
            source=single([1.5], 0.4),
            target=single([1.5], 0.4),
        )
        t = 0.5
        a = model.schedule.alpha(t)
        v = velocity(model, np.array([a * 1.5]), t, "src")
        # at the marginal mean E[eps] = 0, so v = -alpha_dot * E[x0] = +mean
        assert v == pytest.approx([1.5], abs=1e-12)

    def test_identical_conditions_match_everywhere(self):
        mix = GaussianMixtureCondition(
            [0.3, 0.7], [[0.5, -1.0], [-0.5, 2.0]], [0.3, 0.8]
        )
        model = BackboneModel(
            schedule=Schedule(kind=VP_CONST_BETA, beta0=1.0), source=mix, target=mix
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.normal(size=2) * 2
            t = rng.uniform(0.05, 0.95)
            np.testing.assert_array_equal(
                velocity(model, z, t, "src"), velocity(model, z, t, "tar")
            )

    @pytest.mark.parametrize("kind", [LINEAR_INTERP, VP_CONST_BETA])
    def test_single_gaussian_matches_marginal_formula(self, kind):
        # independent oracle: the 1-D Gaussian marginal N(m_t, V_t) has
        # noising-direction flow  m_dot + (V_dot / 2V) (z - m); our velocity
        # is its generation-direction negative
        beta0 = 2.0
        sched = (
            Schedule(kind=kind)
            if kind == LINEAR_INTERP
            else Schedule(kind=kind, beta0=beta0)
        )
        mu, s0 = 1.2, 0.6
        model = BackboneModel(
            schedule=sched, source=single([mu], s0), target=single([mu], s0)
        )
        rng = np.random.default_rng(5)
        for _ in range(40):
            t = rng.uniform(0.05, 0.95)
            z = rng.normal(size=1) * 2.0
            a, s = sched.alpha(t), sched.sigma(t)
            ad, sd = sched.alpha_dot(t), sched.sigma_dot(t)
            m, v = a * mu, a * a * s0 * s0 + s * s
            m_dot = ad * mu
            v_dot = 2 * a * ad * s0 * s0 + 2 * s * sd
            oracle = -(m_dot + v_dot / (2 * v) * (z[0] - m))
            got = velocity(model, z, t, "src")
            assert got[0] == pytest.approx(oracle, abs=1e-8)


class TestObservable:
    def make(self, kind, schedule=None):
        sched = schedule or Schedule(kind=VP_CONST_BETA, beta0=1.0)
        return BackboneModel(
            schedule=sched,
            source=GaussianMixtureCondition(
                [0.5, 0.5], [[-2.0, 0.4], [-1.4, -0.4]], [0.5, 0.6]
            ),
            target=GaussianMixtureCondition(
                [0.4, 0.6], [[1.6, 0.5], [2.2, -0.5]], [0.3, 0.4]
            ),
            output_kind=kind,
        )

    def test_velocity_head_is_velocity_op(self):
        model = self.make(VELOCITY)
        z = np.array([0.3, -0.2])
        np.testing.assert_array_equal(
            observable(model, z, 0.6, "tar"), velocity(model, z, 0.6, "tar")
        )

    def test_eps_head_zero_at_posterior_consistent_query(self):
        model = self.make("noise_eps")
        t = 0.5
        # choose z so that z = alpha * x0_hat(z): solve by brief fixed-point
        z = np.array([1.0, 0.0])
        a = model.schedule.alpha(t)
        for _ in range(200):
            z = a * posterior_x0(model, z, t, "tar")
        eps = observable(model, z, t, "tar")
        assert np.linalg.norm(eps) <= 1e-8

    @pytest.mark.parametrize("kind", [k for k in PARAMETERIZATION_KINDS])
    @pytest.mark.parametrize("sched_kind", [LINEAR_INTERP, VP_CONST_BETA])
    def test_head_round_trip_to_velocity_residual(self, kind, sched_kind):
        sched = (
            Schedule(kind=LINEAR_INTERP)
            if sched_kind == LINEAR_INTERP
            else Schedule(kind=VP_CONST_BETA, beta0=2.0)
        )
        model = self.make(kind, schedule=sched)
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = rng.normal(size=2) * 2.0
            t = rng.uniform(0.1, 0.9)
            a_t = coefficient(kind, model.schedule, t)
            mapped = a_t * (
                observable(model, z, t, "tar") - observable(model, z, t, "src")
            )
            direct = delta_drift(model, z, t)
            assert np.linalg.norm(mapped - direct) <= 1e-8 * max(
                1.0, np.linalg.norm(direct)
            )

    def test_sigma_guard_for_eps_head(self):
        model = self.make("noise_eps")
        with pytest.raises(IllConditionedMapError):
            observable(model, np.array([0.0, 0.0]), 1e-7, "src")

    def test_score_head_matches_density_gradient(self):
        # finite-difference gradient of the known Gaussian log-density
        model = BackboneModel(
            schedule=Schedule(kind=VP_CONST_BETA, beta0=2.0),
            source=single([0.7], 0.5),
            target=single([0.7], 0.5),
            output_kind="score",
        )
        h = 1e-6
        for t in (0.3, 0.6, 0.9):
            for zval in (-1.0, 0.2, 1.5):
                z = np.array([zval])
                got = observable(model, z, t, "src")
                lo = log_marginal_density(model, z - h, t, "src")
                hi = log_marginal_density(model, z + h, t, "src")
                assert got[0] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)


class TestDeltaDrift:
    def test_identical_conditions_zero(self):
        mix = GaussianMixtureCondition([1.0], [[0.3, 0.3]], [0.5])
        model = BackboneModel(
            schedule=Schedule(kind=LINEAR_INTERP), source=mix, target=mix
        )
        out = delta_drift(model, np.array([0.1, -0.4]), 0.5)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_sign_points_toward_target_basin(self):
        model = two_basin_1d(scale=0.1)
        for t in (0.3, 0.5, 0.8):
            out = delta_drift(model, np.array([0.0]), t)
            assert out[0] > 0.0

    def test_affine_equivariance_of_single_gaussian_case(self):
        # scaling both means by k scales the residual at the scaled query by k
        # in the equal-variance single-Gaussian case, where the residual is
        # exactly linear in the mean separation
        def build(k):
            return BackboneModel(
                schedule=Schedule(kind=LINEAR_INTERP),
                source=single([-1.0 * k], 0.5),
                target=single([1.5 * k], 0.5),
            )

        t = 0.6
        base, scaled = build(1.0), build(2.5)
        for zval in (-0.5, 0.0, 1.0):
            v1 = delta_drift(base, np.array([zval]), t)
            v2 = delta_drift(scaled, np.array([2.5 * zval]), t)
            assert v2[0] == pytest.approx(2.5 * v1[0], rel=1e-10)


def _outcome(query):
    """The array a query returns, or the type of the error it raises."""
    try:
        return query()
    except (IllConditionedMapError, DegeneratePosteriorError) as err:
        return type(err)


def _same(batched, rows):
    if isinstance(batched, type) or any(isinstance(r, type) for r in rows):
        assert all(r is batched for r in rows)
    else:
        np.testing.assert_array_equal(batched, np.stack(rows))


@st.composite
def _random_models(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    k_src = draw(st.integers(1, 4))
    k_tar = draw(st.integers(1, 4).filter(lambda k: k != k_src))

    def mixture(k):
        weights = rng.uniform(0.1, 1.0, k)
        return GaussianMixtureCondition(
            weights / weights.sum(),
            rng.normal(size=(k, dim)) * 2.0,
            rng.uniform(0.05, 1.5, k),
        )

    schedule = draw(
        st.sampled_from(
            [
                Schedule(kind=LINEAR_INTERP),
                Schedule(kind=VP_CONST_BETA, beta0=2.0),
                Schedule(
                    kind=VP_GENERIC,
                    beta_times=np.linspace(0.0, 1.0, 11),
                    beta_values=0.1 + 9.9 * np.linspace(0.0, 1.0, 11),
                ),
            ]
        )
    )
    model = BackboneModel(
        schedule=schedule,
        source=mixture(k_src),
        target=mixture(k_tar),
        output_kind=draw(st.sampled_from(PARAMETERIZATION_KINDS)),
    )
    rows = rng.normal(size=(draw(st.integers(2, 6)), dim)) * rng.uniform(0.1, 6.0)
    return model, rows


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_random_models(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_kernel_rows_bit_equal_to_one_row_calls(model_rows, t):
    # the posterior kernel takes (..., d) rows; each row's result must not
    # depend on the rows that come with it
    model, rows = model_rows
    for cond in ("src", "tar"):
        for query in (posterior_x0, posterior_eps, velocity, observable):
            _same(
                _outcome(lambda: query(model, rows, t, cond)),
                [_outcome(lambda: query(model, z, t, cond)) for z in rows],
            )
    _same(
        _outcome(lambda: delta_drift(model, rows, t)),
        [_outcome(lambda: delta_drift(model, z, t)) for z in rows],
    )
    scalars = path_scalars(model.schedule, t)
    _same(
        _outcome(lambda: _head_residual(model, rows, scalars)),
        [_outcome(lambda: _head_residual(model, z[None], scalars)[0]) for z in rows],
    )


# times that exercise the per-time entries: both signed zeros, the ends,
# a vp sigma below the floor, and times the schedule rejects
_ENTRY_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e-7, 1.5, -0.25, math.nan]),
    st.floats(0.0, 1.0),
)
_ERRORS = (DomainError, IllConditionedMapError, DegeneratePosteriorError)


def _bits_or_error(query):
    try:
        return np.asarray(query()).view(np.uint64)
    except _ERRORS as err:
        return type(err)


def _same_bits(got, want):
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


def _fresh_proxy_field(model, x, t, batch):
    """proxy_field from scratch: reads no per-time entry of the model."""
    a_t = coefficient(model.output_kind, model.schedule, t)
    scalars = path_scalars(model.schedule, t)
    z = scalars.alpha * x + scalars.sigma * batch.draws
    return a_t * (_draw_sum(_head_residual(model, z, scalars)) / batch.n)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    _random_models(),
    st.lists(_ENTRY_TIMES, min_size=1, max_size=4),
    st.lists(st.integers(0, 7), min_size=2, max_size=12),
    st.integers(1, 4),
)
def test_time_entries_bit_equal_to_fresh_builds(model_rows, times, order, n):
    # interleaved and repeated query times on one model, for every head; a
    # time whose build raises must raise again on every call
    drawn, rows = model_rows
    batch = SharedNoiseBatch(seed=len(order), n=n, dim=drawn.dim)
    for kind in PARAMETERIZATION_KINDS:
        model = replace(drawn, output_kind=kind)
        for i in order:
            t, x = times[i % len(times)], rows[i % len(rows)]
            got = _bits_or_error(lambda: proxy_field(model, x, t, batch))
            want = _bits_or_error(lambda: _fresh_proxy_field(model, x, t, batch))
            _same_bits(got, want)
    # many distinct times never grow the model past its bound
    for t in np.linspace(0.3, 0.7, 2 * _TIME_ENTRIES + 3):
        got = _bits_or_error(lambda: proxy_field(model, rows[0], t, batch))
        assert len(model._times) <= _TIME_ENTRIES
    _same_bits(got, _bits_or_error(lambda: _fresh_proxy_field(model, rows[0], t, batch)))


def test_signed_zero_times_keep_separate_entries():
    # sigma(t) = t on the linear path, so -0.0 and 0.0 give different scalars
    model = two_basin_1d()
    batch = SharedNoiseBatch(seed=3, n=2, dim=1)
    for t in (0.0, -0.0, 0.0):
        proxy_field(model, np.array([0.5]), t, batch)
        sigma = model._time_entry(t)[1].sigma
        assert math.copysign(1.0, sigma) == math.copysign(1.0, t)
    assert len(model._times) == 2


def test_marginal_moments_variance_is_the_kernels():
    # one noised-variance formula: the moments report the posterior's variances
    mix = GaussianMixtureCondition(
        [0.2, 0.3, 0.5], [[-1.0, 0.0], [1.0, 0.5], [0.0, -2.0]], [0.21, 0.43, 1.7]
    )
    for sched in (Schedule(kind=LINEAR_INTERP), Schedule(kind=VP_CONST_BETA, beta0=3.0)):
        for t in np.linspace(0.0, 1.0, 17):
            a, s = sched.alpha(t), sched.sigma(t)
            variances = mix._stack.at(a, s).variances
            for k in range(3):
                mean, var = marginal_moments(mix, k, sched, t)
                assert var == variances[k]
                np.testing.assert_array_equal(mean, a * mix.means[k])


@st.composite
def _random_tables(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 40))
    betas = rng.uniform(0.05, 20.0, count)
    return Schedule(
        kind=VP_GENERIC, beta_times=np.linspace(0.0, 1.0, count), beta_values=betas
    )


# relative to max(1, |velocity residual|), as in acceptance criterion 2
IDENTITY_RTOL = 1e-8


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    _random_tables(),
    st.floats(0.05, 0.95),
    st.sampled_from(PARAMETERIZATION_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_coefficient_identities_on_random_vp_generic_tables(sched, t, kind, seed):
    rng = np.random.default_rng(seed)
    model = BackboneModel(
        schedule=sched,
        source=GaussianMixtureCondition(
            [0.4, 0.6], [[-2.0, 0.5], [-1.0, -0.5]], [0.5, 0.3]
        ),
        target=GaussianMixtureCondition([1.0], [[2.0, 0.0]], [0.35]),
        output_kind=kind,
    )
    z = rng.normal(size=(5, 2)) * 2.5
    mapped = coefficient(kind, sched, t) * (
        observable(model, z, t, "tar") - observable(model, z, t, "src")
    )
    direct = delta_drift(model, z, t)
    for m, d in zip(mapped, direct):
        assert np.linalg.norm(m - d) <= IDENTITY_RTOL * max(1.0, np.linalg.norm(d))
    general, vp_form, beta_form = epsilon_coefficient_forms(sched, t)
    scale = max(abs(general), abs(vp_form), abs(beta_form))
    assert abs(general - vp_form) <= 1e-6 * scale
    assert abs(general - beta_form) <= 1e-6 * scale


def test_time_entries_from_many_threads_stay_bounded_and_exact():
    model = two_basin_1d()
    batch = SharedNoiseBatch(seed=5, n=3, dim=1)
    times = np.linspace(0.2, 0.8, 3 * _TIME_ENTRIES)
    x = np.array([0.4])
    want = [_fresh_proxy_field(model, x, t, batch).view(np.uint64) for t in times]
    mismatches, sizes = [], []

    def work(offset):
        for j in range(2 * times.size):
            i = (offset + 7 * j) % times.size
            got = proxy_field(model, x, times[i], batch).view(np.uint64)
            if not np.array_equal(got, want[i]):
                mismatches.append(i)
            sizes.append(len(model._times))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(sizes) == 8 * 2 * times.size
    assert not mismatches
    assert max(sizes) <= _TIME_ENTRIES


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_posterior_eps_rejects_an_unknown_condition_at_every_time(t):
    # the condition is read before the sigma = 0 shortcut: at t = 0 on the
    # linear path, where sigma is 0, a bad one fails as it does at t = 0.5
    with pytest.raises(DomainError, match="condition must be 'src' or 'tar'"):
        posterior_eps(two_basin_1d(), np.zeros(1), t, "bogus")


_QUERIES = {
    "posterior_x0": lambda m, z: posterior_x0(m, z, 0.5, "src"),
    "posterior_eps": lambda m, z: posterior_eps(m, z, 0.5, "tar"),
    "velocity": lambda m, z: velocity(m, z, 0.5, "src"),
    "observable": lambda m, z: observable(m, z, 0.5, "tar"),
    "delta_drift": lambda m, z: delta_drift(m, z, 0.5),
    "log_marginal_density": lambda m, z: log_marginal_density(m, z, 0.5, "src"),
}


@pytest.mark.parametrize("query", sorted(_QUERIES))
@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("model_dim", [1, 2])
def test_queries_off_the_model_dimension_rejected(query, offset, lead, model_dim):
    # d - 1 and d + 1 coordinates would otherwise broadcast against the
    # mixture means (a 1-vector on a 2-d model returns a 2-vector)
    model = BackboneModel(
        Schedule(kind=VP_CONST_BETA, beta0=1.0),
        single([0.5] * model_dim, 0.4),
        single([-1.0] * model_dim, 0.6),
    )
    with pytest.raises(DomainError, match="anchor dimension"):
        _QUERIES[query](model, np.zeros(lead + (model_dim + offset,)))
    want = lead if query == "log_marginal_density" else lead + (model_dim,)
    assert np.shape(_QUERIES[query](model, np.zeros(lead + (model_dim,)))) == want
