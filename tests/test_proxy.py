import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordfield import transport
from chordfield.backbone import (
    _PIN_BYTES,
    _TIME_ENTRIES,
    BackboneModel,
    GaussianMixtureCondition,
    _head_residual,
    delta_drift,
    observable,
)
from chordfield.errors import (
    DegeneratePosteriorError,
    DomainError,
    IllConditionedMapError,
)
from chordfield.proxy import (
    NS_CELL,
    NS_COND_DECOUPLE,
    NS_PARTICLE,
    NS_PROX,
    NS_TIME_DECOUPLE,
    NS_TRIAL,
    SharedNoiseBatch,
    _derive_streams,
    _RowsBatch,
    _draw_sum,
    _estimate,
    _philox_fill,
    _philox_normals,
    _shared_generator,
    derive_stream,
    noising_sample,
    proxy_field,
    proxy_field_decoupled,
    sample_proxy_field,
)
from chordfield.schedules import (
    LINEAR_INTERP,
    PARAMETERIZATION_KINDS,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    coefficient,
    path_scalars,
)


def mixture(means, scales, weights=None):
    k = len(means)
    return GaussianMixtureCondition(
        weights=weights or [1.0 / k] * k, means=means, scales=scales
    )


def model_2d(output_kind="velocity", schedule=None):
    return BackboneModel(
        schedule=schedule or Schedule(kind=VP_CONST_BETA, beta0=1.0),
        source=mixture([[-2.0, 0.5], [-2.0, -0.5]], [0.5, 0.5]),
        target=mixture([[2.0, 0.5], [2.0, -0.5]], [0.35, 0.35]),
        output_kind=output_kind,
    )


class TestSharedNoiseBatch:
    def test_bit_identical_across_instances(self):
        a = SharedNoiseBatch(seed=123, n=5, dim=3).draws
        b = SharedNoiseBatch(seed=123, n=5, dim=3).draws
        np.testing.assert_array_equal(a, b)

    def test_draws_are_prefix_stable_in_n(self):
        # per-draw keying means draw i does not depend on the batch size
        small = SharedNoiseBatch(seed=9, n=2, dim=4).draws
        large = SharedNoiseBatch(seed=9, n=6, dim=4).draws
        np.testing.assert_array_equal(small, large[:2])

    def test_different_seeds_differ(self):
        a = SharedNoiseBatch(seed=1, n=3, dim=2).draws
        b = SharedNoiseBatch(seed=2, n=3, dim=2).draws
        assert not np.array_equal(a, b)

    def test_invalid_sizes(self):
        with pytest.raises(DomainError):
            SharedNoiseBatch(seed=0, n=0, dim=2)

    def test_bit_equal_to_a_fresh_generator_per_draw(self):
        # draw i comes from Philox keyed (seed, i) with its counter at zero;
        # batches are filled in turn, so no state may leak from one to the next
        def fresh(seed, n, dim):
            return np.stack(
                [
                    np.random.Generator(
                        np.random.Philox(
                            key=np.array([seed & ((1 << 64) - 1), i], dtype=np.uint64)
                        )
                    ).standard_normal(dim)
                    for i in range(n)
                ]
            )

        seeds = (0, 1, 2**63 + 5, 2**64 - 1)
        for n in (1, 4, 7):
            for dim in (1, 2, 5):
                for seed, other in zip(seeds, seeds[::-1]):
                    first = SharedNoiseBatch(seed=seed, n=n, dim=dim).draws
                    second = SharedNoiseBatch(seed=other, n=7, dim=dim + 1).draws
                    again = SharedNoiseBatch(seed=seed, n=n, dim=dim).draws
                    np.testing.assert_array_equal(first, fresh(seed, n, dim))
                    np.testing.assert_array_equal(second, fresh(other, 7, dim + 1))
                    np.testing.assert_array_equal(again, first)

    def test_derive_stream_separates_namespaces(self):
        seen = {
            derive_stream(42, ns, idx) for ns in range(1, 7) for idx in range(32)
        }
        assert len(seen) == 6 * 32

    @pytest.mark.parametrize("rows", [False, True])
    def test_a_batch_computes_its_draws_once(self, monkeypatch, rows):
        from chordfield import proxy

        fills = []
        fill = proxy._philox_fill

        def counting(out, keys, draw=None):
            fills.append(out.shape)
            return fill(out, keys, draw)

        monkeypatch.setattr(proxy, "_philox_fill", counting)
        batches = [SharedNoiseBatch(seed=s, n=3, dim=2) for s in (4, 5)]
        batch = _RowsBatch(batches) if rows else batches[0]
        first = batch.draws
        assert batch.draws is first
        assert fills == [(3, 2)] * (2 if rows else 1)
        # the class attribute is the descriptor itself, whose func is the fill
        cls = type(batch)
        assert cls.draws is cls.__dict__["draws"]
        assert cls.draws.func(batch).tobytes() == first.tobytes()
        # a fresh fill for a batch; rows restack the draws their batches keep
        assert len(fills) == 2


class TestNoisingSample:
    def test_identity_at_t0(self):
        sched = Schedule(kind=LINEAR_INTERP)
        x = np.array([0.4, -1.0])
        np.testing.assert_array_equal(
            noising_sample(sched, x, 0.0, np.array([5.0, 5.0])), x
        )

    def test_zero_eps_scales_anchor(self):
        sched = Schedule(kind=VP_CONST_BETA, beta0=2.0)
        x = np.array([1.0, 2.0])
        z = noising_sample(sched, x, 0.5, np.zeros(2))
        np.testing.assert_allclose(z, sched.alpha(0.5) * x)

    def test_direct_arithmetic(self):
        sched = Schedule(kind=LINEAR_INTERP)
        z = noising_sample(sched, np.array([2.0, 0.0]), 0.5, np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [1.5, 0.5])

    @pytest.mark.parametrize(
        "x, eps", [([0.1, 0.2], [1.0]), ([0.1], [1.0, 2.0]), ([0.1, 0.2], np.ones((3, 1)))]
    )
    def test_noise_off_the_state_dimension_rejected(self, x, eps):
        # a last axis of 1 would broadcast against the state's instead
        with pytest.raises(DomainError, match="does not match the state"):
            noising_sample(Schedule(kind=LINEAR_INTERP), x, 0.5, eps)

    def test_one_state_against_many_draws(self):
        # a state (d,) meets n draws (n, d): one noised sample per draw
        sched = Schedule(kind=VP_CONST_BETA, beta0=2.0)
        x, eps = np.array([0.1, 0.2]), np.arange(6.0).reshape(3, 2)
        z = noising_sample(sched, x, 0.5, eps)
        assert z.shape == (3, 2)
        for z_i, eps_i in zip(z, eps):
            assert z_i.tobytes() == noising_sample(sched, x, 0.5, eps_i).tobytes()


class TestProxyField:
    def test_identical_conditions_give_zero(self):
        mix = mixture([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.7])
        model = BackboneModel(
            schedule=Schedule(kind=LINEAR_INTERP), source=mix, target=mix
        )
        batch = SharedNoiseBatch(seed=7, n=4, dim=2)
        out = proxy_field(model, np.array([0.3, -0.3]), 0.7, batch)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_single_zero_draw_equals_delta_drift(self):
        model = model_2d()

        class _ZeroBatch(SharedNoiseBatch):
            @property
            def draws(self):
                return np.zeros((1, 2))

        batch = _ZeroBatch(seed=0, n=1, dim=2)
        x = np.array([-2.0, 0.1])
        t = 0.8
        out = proxy_field(model, x, t, batch)
        expected = delta_drift(model, model.schedule.alpha(t) * x, t)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("output_kind", PARAMETERIZATION_KINDS)
    def test_equals_per_condition_observables_bit_exact(self, output_kind):
        # reference: one observable call per draw and condition, as the
        # estimator is defined; conditions of unequal component counts
        model = BackboneModel(
            schedule=Schedule(kind=VP_CONST_BETA, beta0=1.0),
            source=mixture([[-2.0, 0.5]], [0.5]),
            target=mixture([[2.0, 0.5], [2.0, -0.5], [0.0, 1.5]], [0.35, 0.2, 0.6]),
            output_kind=output_kind,
        )
        batch = SharedNoiseBatch(seed=11, n=3, dim=2)
        x = np.array([-1.0, 0.4])
        for t in (0.3, 0.9):
            acc = np.zeros(2)
            for eps in batch.draws:
                z = noising_sample(model.schedule, x, t, eps)
                acc += observable(model, z, t, "tar") - observable(model, z, t, "src")
            expected = coefficient(output_kind, model.schedule, t) * (acc / batch.n)
            np.testing.assert_array_equal(proxy_field(model, x, t, batch), expected)

    @pytest.mark.parametrize("output_kind", PARAMETERIZATION_KINDS)
    def test_decoupled_equals_per_draw_definition_bit_exact(self, output_kind):
        # reference: per draw, one noised query under each condition from its
        # own batch, and one observable call each
        model = BackboneModel(
            schedule=Schedule(kind=VP_CONST_BETA, beta0=1.0),
            source=mixture([[-2.0, 0.5], [1.0, 1.0]], [0.5, 0.3]),
            target=mixture([[2.0, 0.5], [2.0, -0.5], [0.0, 1.5]], [0.35, 0.2, 0.6]),
            output_kind=output_kind,
        )
        batch_tar = SharedNoiseBatch(seed=5, n=4, dim=2)
        batch_src = SharedNoiseBatch(seed=6, n=4, dim=2)
        x = np.array([-1.0, 0.4])
        for t in (0.3, 0.9):
            acc = np.zeros(2)
            for eps_t, eps_s in zip(batch_tar.draws, batch_src.draws):
                z_t = noising_sample(model.schedule, x, t, eps_t)
                z_s = noising_sample(model.schedule, x, t, eps_s)
                obs_tar = observable(model, z_t, t, "tar")
                acc += obs_tar - observable(model, z_s, t, "src")
            expected = coefficient(output_kind, model.schedule, t) * (acc / 4)
            np.testing.assert_array_equal(
                proxy_field_decoupled(model, x, t, batch_tar, batch_src), expected
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_anchor_is_domain_error(self, bad):
        model = model_2d()
        batch = SharedNoiseBatch(seed=0, n=2, dim=2)
        with pytest.raises(DomainError, match="finite"):
            proxy_field(model, np.array([bad, 0.0]), 0.9, batch)
        with pytest.raises(DomainError, match="finite"):
            proxy_field_decoupled(model, np.array([0.0, bad]), 0.9, batch, batch)

    def test_noise_head_matches_velocity_head(self):
        sched = Schedule(kind=VP_CONST_BETA, beta0=1.0)
        m_vel = model_2d("velocity", sched)
        m_eps = model_2d("noise_eps", sched)
        batch = SharedNoiseBatch(seed=21, n=8, dim=2)
        x = np.array([-1.5, 0.2])
        for t in (0.5, 0.75, 0.9):
            r_vel = proxy_field(m_vel, x, t, batch)
            r_eps = proxy_field(m_eps, x, t, batch)
            assert np.linalg.norm(r_vel - r_eps) <= 1e-8 * max(
                1.0, np.linalg.norm(r_vel)
            )

    def test_determinism(self):
        model = model_2d()
        x = np.array([-2.0, 0.0])
        a = proxy_field(model, x, 0.9, SharedNoiseBatch(seed=5, n=3, dim=2))
        b = proxy_field(model, x, 0.9, SharedNoiseBatch(seed=5, n=3, dim=2))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        model = model_2d()
        with pytest.raises(DomainError):
            proxy_field(model, np.zeros(3), 0.9, SharedNoiseBatch(seed=0, n=1, dim=2))

    def test_sample_proxy_field_collects_times(self):
        model = model_2d()
        batch = SharedNoiseBatch(seed=3, n=2, dim=2)
        pf = sample_proxy_field(model, np.array([-2.0, 0.0]), [0.9, 0.75], batch)
        times = [t for t, _ in pf.series()]
        assert times == [0.75, 0.9]
        for _, vec in pf.series():
            assert vec.shape == (2,)


class TestEstimatorStatistics:
    def test_seed_mean_converges_to_large_n_value(self):
        # standard-error proxy: the spread of independent-seed means shrinks
        # like 1 / sqrt(total draws), within a factor of two
        model = model_2d()
        x = np.array([-2.0, 0.0])
        t = 0.9
        ref = proxy_field(model, x, t, SharedNoiseBatch(seed=999, n=4096, dim=2))
        estimates = np.array(
            [
                proxy_field(model, x, t, SharedNoiseBatch(seed=s, n=8, dim=2))
                for s in range(64)
            ]
        )
        pooled_mean = estimates.mean(axis=0)
        per_seed_sd = estimates.std(axis=0, ddof=1)
        se = per_seed_sd / np.sqrt(64)
        # the pooled mean should sit within ~3 standard errors of the
        # large-n reference (which carries its own small error)
        ref_se = per_seed_sd * np.sqrt(8.0 / 4096.0)
        tol = 3.0 * np.sqrt(se**2 + ref_se**2)
        assert np.all(np.abs(pooled_mean - ref) <= tol + 1e-12)

    def test_standard_error_scales_with_batch_size(self):
        # sixteen-fold larger batches shrink the seed-to-seed spread by
        # about 4x; accept the scaling within a factor of two
        model = model_2d()
        x = np.array([-2.0, 0.0])
        t = 0.9
        small = np.array(
            [proxy_field(model, x, t, SharedNoiseBatch(s, 8, 2)) for s in range(64)]
        )
        large = np.array(
            [
                proxy_field(model, x, t, SharedNoiseBatch(1000 + s, 128, 2))
                for s in range(64)
            ]
        )
        sd_small = np.linalg.norm(small.std(axis=0, ddof=1))
        sd_large = np.linalg.norm(large.std(axis=0, ddof=1))
        ratio = sd_small / sd_large
        assert 2.0 <= ratio <= 8.0  # ideal 4.0, factor-2 tolerance

    def test_zero_mean_measurement_noise(self):
        # empirical mean of (estimate - large-n value) sits within 3 SE of 0
        model = model_2d()
        x = np.array([-2.0, 0.3])
        t = 0.8
        ref = proxy_field(model, x, t, SharedNoiseBatch(seed=1234, n=4096, dim=2))
        resid = np.array(
            [
                proxy_field(model, x, t, SharedNoiseBatch(seed=s, n=8, dim=2)) - ref
                for s in range(64)
            ]
        )
        se = resid.std(axis=0, ddof=1) / np.sqrt(64)
        assert np.all(np.abs(resid.mean(axis=0)) <= 3.0 * se + 1e-12)

    @pytest.mark.parametrize("output_kind", ["velocity", "noise_eps", "data_x0"])
    @pytest.mark.parametrize("t", [0.6, 0.9])
    def test_shared_noise_variance_never_worse(self, output_kind, t):
        model = model_2d(output_kind)
        x = np.array([-2.0, 0.0])
        shared, decoupled = [], []
        for s in range(200):
            shared.append(proxy_field(model, x, t, SharedNoiseBatch(s, 1, 2)))
            bt = SharedNoiseBatch(derive_stream(s, NS_COND_DECOUPLE, 0), 1, 2)
            bs = SharedNoiseBatch(derive_stream(s, NS_COND_DECOUPLE, 1), 1, 2)
            decoupled.append(proxy_field_decoupled(model, x, t, bt, bs))
        var_shared = np.array(shared).var(axis=0).sum()
        var_decoupled = np.array(decoupled).var(axis=0).sum()
        assert var_shared <= var_decoupled


SCHEDULES = (
    Schedule(kind=LINEAR_INTERP),
    Schedule(kind=VP_CONST_BETA, beta0=2.0),
    Schedule(
        kind=VP_GENERIC,
        beta_times=np.linspace(0.0, 1.0, 11),
        beta_values=0.1 + 9.9 * np.linspace(0.0, 1.0, 11),
    ),
)


def _bits_or_error(query):
    """The bits of a query's array, or the type of the error it raises."""
    try:
        return np.asarray(query()).view(np.uint64)
    except (IllConditionedMapError, DegeneratePosteriorError) as err:
        return type(err)


@st.composite
def _mixtures_and_anchors(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))

    def mixture():
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.1, 1.0, k)
        return GaussianMixtureCondition(
            weights / weights.sum(), rng.normal(size=(k, dim)) * 2.0, rng.uniform(0.05, 1.5, k)
        )

    p, p1, p2 = (draw(st.integers(1, 4)) for _ in range(3))
    scale = rng.uniform(0.1, 6.0)
    return (
        mixture(),
        mixture(),
        rng.normal(size=(p, dim)) * scale,
        rng.normal(size=(p1, p2, dim)) * scale,
    )


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_mixtures_and_anchors(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.integers(0, 2**64 - 1))
def test_anchor_rows_bit_equal_to_one_call_per_anchor(drawn, t, seed):
    # (P, d) and (P1, P2, d) anchors through one pass, against one call per
    # anchor: every head, every schedule kind, n = 1 and 4
    source, target, flat, nested = drawn
    for schedule in SCHEDULES:
        for kind in PARAMETERIZATION_KINDS:
            model = BackboneModel(schedule, source, target, output_kind=kind)
            for n in (1, 4):
                batch = SharedNoiseBatch(seed=seed, n=n, dim=source.dim)
                for anchors in (flat, nested):
                    got = _bits_or_error(lambda: proxy_field(model, anchors, t, batch))
                    rows = anchors.reshape(-1, source.dim)
                    want = [_bits_or_error(lambda: proxy_field(model, x, t, batch)) for x in rows]
                    if isinstance(got, type):
                        assert all(w is got for w in want)
                    else:
                        assert got.shape == anchors.shape
                        np.testing.assert_array_equal(got.reshape(rows.shape), np.stack(want))


@pytest.mark.parametrize("shape", [(), (4, 3), (2, 2, 1), (0, 3)])
def test_anchor_rows_with_a_wrong_trailing_dimension_rejected(shape):
    batch = SharedNoiseBatch(seed=0, n=2, dim=2)
    with pytest.raises(DomainError, match="dimension"):
        proxy_field(model_2d(), np.zeros(shape), 0.9, batch)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=4),
    st.integers(0, 5),
    st.integers(1, 3),
)
def test_trial_noise_bit_equal_to_a_fresh_philox_per_trial(seeds, length, dim):
    # the risk study's (trials, T, d) noise, trial k keyed
    # (derive_stream(seed, NS_TRIAL, k), 0), against one new generator per trial
    keys = [(derive_stream(seed, NS_TRIAL, k), 0) for seed in seeds + [2**64 - 1] for k in range(3)]
    got = _philox_normals(keys, (length, dim))
    for pair, values in zip(keys, got):
        fresh = np.random.Generator(np.random.Philox(key=np.array(pair, dtype=np.uint64)))
        np.testing.assert_array_equal(values, fresh.standard_normal((length, dim)))


def test_a_draw_count_too_large_to_hold_is_a_domain_error():
    # the draws are allocated before any of their keys is made, so a count
    # that numpy cannot shape fails at once instead of listing 2**62 keys
    batch = SharedNoiseBatch(seed=0, n=2**62, dim=2)
    with pytest.raises(DomainError, match="do not fit in memory"):
        batch.draws


@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**63, 2**63 + 12345])
def test_seeds_with_bit_63_set_draw_what_a_fresh_philox_draws(seed):
    # a seed reads modulo 2**64, so -1 keys draw i as (2**64 - 1, i)
    key0 = seed & (2**64 - 1)
    got = SharedNoiseBatch(seed, 3, 2).draws
    for i, row in enumerate(got):
        fresh = np.random.Generator(np.random.Philox(key=np.array([key0, i], dtype=np.uint64)))
        assert row.tobytes() == fresh.standard_normal(2).tobytes()


def _one_draw_mean(model, x, t, batch):
    """proxy_field from scratch at one draw, the n-draw sum divided by n = 1."""
    scalars = path_scalars(model.schedule, t)
    z = scalars.alpha * x[..., None, :] + scalars.sigma * batch.draws
    a_t = coefficient(model.output_kind, model.schedule, t)
    return a_t * (_draw_sum(_head_residual(model, z, scalars)) / 1)


def _bytes_or_error(query):
    try:
        return np.asarray(query()).tobytes()
    except (IllConditionedMapError, DegeneratePosteriorError) as err:
        return type(err)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    _mixtures_and_anchors(),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, 2**64 - 1),
)
def test_one_draw_estimate_bytes_equal_to_the_draw_mean(drawn, t, seed):
    # bytes, so that the sign of a zero counts: every head and schedule kind,
    # one anchor and rows of anchors
    source, target, flat, _ = drawn
    batch = SharedNoiseBatch(seed=seed, n=1, dim=source.dim)
    for schedule in SCHEDULES:
        for kind in PARAMETERIZATION_KINDS:
            model = BackboneModel(schedule, source, target, output_kind=kind)
            for x in (flat[0], flat):
                got = _bytes_or_error(lambda: proxy_field(model, x, t, batch))
                assert got == _bytes_or_error(lambda: _one_draw_mean(model, x, t, batch))


def test_one_draw_estimate_of_a_negative_zero_residual_is_the_draw_mean():
    # at t = 1 on the linear path, the v head residual of a target at 0.0 and a
    # source at -0.0 is -0.0: the one-draw mean adds 0.0, as the n-draw sum does
    model = BackboneModel(
        Schedule(kind=LINEAR_INTERP),
        GaussianMixtureCondition([1.0], [[-0.0]], [0.5]),
        GaussianMixtureCondition([1.0], [[0.0]], [1.0]),
        output_kind="v_pred",
    )
    x, batch = np.array([-0.0]), SharedNoiseBatch(seed=41, n=1, dim=1)
    scalars = path_scalars(model.schedule, 1.0)
    residual = _head_residual(model, scalars.alpha * x + scalars.sigma * batch.draws, scalars)
    assert residual[0, 0] == 0.0 and np.signbit(residual[0, 0])
    assert proxy_field(model, x, 1.0, batch).tobytes() == _one_draw_mean(model, x, 1.0, batch).tobytes()


def _unpinned_estimate(model, x, t, batch):
    """proxy_field from the time entry's floats and broadcast constants alone."""
    a_t, s, pair = model._time_entry(t)
    return _estimate(model, x, s.alpha, s.sigma * batch.draws, a_t, s, pair)


def _floor_times(schedule):
    """The first time whose sigma clears the schedule's floor, and the time just below it."""
    lo, hi = 0.0, 1.0
    while math.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        if path_scalars(schedule, mid).sigma >= schedule.alpha_floor:
            hi = mid
        else:
            lo = mid
    return hi, lo


def _pinned(model, t, n):
    """Whether the model's values at (t, n) are pinned arrays, not the entry's floats."""
    return isinstance(model._time_values(t, n)[0], np.ndarray)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_mixtures_and_anchors(), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
def test_pinned_proxy_field_bytes_equal_to_the_unpinned_estimate(drawn, t, seed):
    # every schedule kind and head, n = 1 and 4, one anchor and rows of
    # anchors, at both ends, a drawn time and either side of the sigma floor;
    # each query twice, so that the second reads the kept pins
    source, target, flat, _ = drawn
    pinned = []
    for schedule in SCHEDULES:
        above, below = _floor_times(schedule)
        for kind in PARAMETERIZATION_KINDS:
            model = BackboneModel(schedule, source, target, output_kind=kind)
            for n in (1, 4):
                batch = SharedNoiseBatch(seed=seed, n=n, dim=source.dim)
                for u in (0.0, 1.0, t, above, below):
                    want = _bytes_or_error(lambda: _unpinned_estimate(model, flat, u, batch))
                    for x in (flat[0], flat, flat[0], flat):
                        got = _bytes_or_error(lambda: proxy_field(model, x, u, batch))
                        if x is flat:
                            assert got == want
                        else:
                            row = _bytes_or_error(lambda: _unpinned_estimate(model, x, u, batch))
                            assert got == row
                    if not isinstance(want, type):
                        sigma = path_scalars(schedule, u).sigma
                        pinned.append(_pinned(model, u, n))
                        assert pinned[-1] == (sigma >= schedule.alpha_floor)
                assert len(model._pins) <= _TIME_ENTRIES
    # the heads whose coefficient builds below the floor query it unpinned
    assert any(pinned) and not all(pinned)


def test_pins_are_read_only_and_shaped_to_one_row():
    model = model_2d()
    alpha, sigma, a_t, scalars, pair = model._time_values(0.8, 3)
    assert alpha.shape == sigma.shape == (3, 2) and a_t.shape == (2,)
    assert scalars.alpha.shape == scalars.sigma_dot.shape == (3, 2, 2)
    assert pair.alpha_means.shape == pair.pull.shape == (3, 4, 2)
    assert pair.variances.shape == pair.log_weights.shape == (3, 4)
    for value in (alpha, sigma, a_t, scalars.alpha, scalars.sigma_dot, *pair):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0


def test_a_time_below_the_floor_queries_with_floats():
    schedule = Schedule(kind=LINEAR_INTERP)
    model = model_2d(schedule=schedule)
    above, below = _floor_times(schedule)
    batch = SharedNoiseBatch(seed=2, n=2, dim=2)
    for t in (0.0, below):
        values = model._time_values(t, 2)
        assert not isinstance(values[0], np.ndarray) and (t, 2) not in model._pins
        got = proxy_field(model, np.array([0.5, -1.0]), t, batch)
        assert got.tobytes() == _unpinned_estimate(model, np.array([0.5, -1.0]), t, batch).tobytes()
    assert _pinned(model, above, 2)


def _pinned_bytes(values):
    """Bytes of one (time, draw count)'s pins that grow with the draw count."""
    alpha, sigma, _, scalars, pair = values
    return sum(value.nbytes for value in (alpha, sigma, *pair)) + 4 * scalars.alpha.nbytes


def test_a_draw_count_over_the_size_bound_queries_with_broadcast_constants():
    model = model_2d()
    one = _pinned_bytes(model_2d()._time_values(0.8, 1))
    most = _PIN_BYTES // one
    assert _pinned_bytes(model._time_values(0.8, most)) == most * one <= _PIN_BYTES
    assert _pinned(model, 0.8, most) and not _pinned(model, 0.8, most + 1)
    assert set(model._pins) == {(0.8, most)}
    x, batch = np.array([[0.5, -1.0], [-2.0, 0.25]]), SharedNoiseBatch(seed=9, n=most + 1, dim=2)
    got = proxy_field(model, x, 0.8, batch)
    assert got.tobytes() == _unpinned_estimate(model, x, 0.8, batch).tobytes()
    # the fused pass of a tuple-kind field pins at any draw count, and keeps its pins itself
    shaped = transport._two_time_pass(model, 0.8, 0.1, batch, batch)
    assert shaped is not None and shaped(3)[1].shape == (2, 3, most + 1, 2)
    assert set(model._pins) == {(0.8, most)}


def test_the_fused_pass_holds_no_per_draw_values_but_its_pins():
    # what a tuple-kind field keeps past its pins is as small as the time entries
    model, n = model_2d(), 2000
    batch_prev, batch_curr = (SharedNoiseBatch(seed=s, n=n, dim=2) for s in (1, 2))
    draws = batch_prev.draws, batch_curr.draws
    model._time_entry(0.7), model._time_entry(0.8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        shaped = transport._two_time_pass(model, 0.8, 0.1, batch_prev, batch_curr)
        alpha, noise, a_t, scalars, pair = shaped(1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    four = (scalars.alpha, scalars.sigma, scalars.alpha_dot, scalars.sigma_dot)
    pinned = sum(value.nbytes for value in (alpha, noise, a_t, *four, *pair))
    assert pinned <= held < pinned + 8 * n
    assert not model._pins
    # nor does the closure reach the single-time pins, nor a copy of the draws
    cells = [cell.cell_contents for cell in shaped.__wrapped__.__closure__]
    arrays = [v for v in cells if isinstance(v, np.ndarray)]
    for v in cells:
        if isinstance(v, tuple):
            arrays += [w for w in v if isinstance(w, np.ndarray)]
            arrays += [w for u in v if isinstance(u, tuple) for w in u if isinstance(w, np.ndarray)]
    assert all(v is draws[0] or v is draws[1] or v.size < n for v in arrays)


def test_an_evicted_time_entry_drops_its_pins():
    model = model_2d()
    batch = SharedNoiseBatch(seed=4, n=4, dim=2)
    x = np.array([0.5, -1.0])
    want = proxy_field(model, x, 0.8, batch).tobytes()
    assert (0.8, 4) in model._pins
    for t in np.linspace(0.3, 0.7, _TIME_ENTRIES):
        proxy_field(model, x, t, batch)
        assert len(model._pins) <= _TIME_ENTRIES
    assert 0.8 not in model._times and (0.8, 4) not in model._pins
    assert proxy_field(model, x, 0.8, batch).tobytes() == want


def test_pins_from_many_threads_stay_bounded_and_exact():
    # more (time, draw count) pairs than a model keeps pins for, from threads
    # with a short switch interval: every value stays that of the floats, and
    # the pins never pass their bound
    model, x = model_2d(), np.array([0.5, -1.0])
    times = np.linspace(0.3, 0.9, _TIME_ENTRIES // 2)
    batches = [SharedNoiseBatch(seed=6, n=n, dim=2) for n in (1, 2, 3)]
    want = {
        (i, j): _unpinned_estimate(model, x, t, batch).tobytes()
        for i, t in enumerate(times)
        for j, batch in enumerate(batches)
    }
    mismatches, sizes = [], []

    def work(offset):
        for k in range(2 * len(want)):
            i, j = (offset + 5 * k) % len(times), (offset + k) % len(batches)
            if proxy_field(model, x, times[i], batches[j]).tobytes() != want[i, j]:
                mismatches.append((i, j))
            sizes.append(len(model._pins))

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
    assert len(sizes) == 8 * 2 * len(want)
    assert not mismatches
    assert max(sizes) <= _TIME_ENTRIES


def _row_batches(p, n, dim, seed=0):
    """One shared batch of n draws, and a ``_RowsBatch`` of p per-row batches of n draws."""
    return SharedNoiseBatch(seed=seed, n=n, dim=dim), _RowsBatch(
        [SharedNoiseBatch(seed=seed + 1 + i, n=n, dim=dim) for i in range(p)]
    )


def test_rows_pins_are_read_only_and_shaped_to_the_rows():
    model, (p, n, d) = model_2d(), (3, 4, 2)
    x = np.linspace(-1.0, 1.0, p * d).reshape(p, d)
    proxy_field(model, x, 0.8, SharedNoiseBatch(seed=1, n=n, dim=d))
    assert set(model._pins) == {(0.8, n, p)}
    alpha, sigma, a_t, scalars, pair = model._pins[0.8, n, p]
    assert alpha.shape == sigma.shape == (p, n, d) and a_t.shape == (p, d)
    assert scalars.alpha.shape == scalars.sigma.shape == (p, n, 2, d)
    assert scalars.alpha_dot.shape == scalars.sigma_dot.shape == (p, n, 2, d)
    assert pair.alpha.shape == pair.sigma.shape == (p, n)
    assert pair.alpha_means.shape == pair.pull.shape == pair.means.shape == (p, n, 4, d)
    assert pair.variances.shape == pair.log_norm.shape == pair.log_weights.shape == (p, n, 4)
    # the values of one anchor's pins, broadcast to the rows
    one_alpha, one_sigma, one_a_t, one_scalars, one_pair = model_2d()._time_values(0.8, n)
    four = (scalars.alpha, scalars.sigma, scalars.alpha_dot, scalars.sigma_dot)
    one_four = (one_scalars.alpha, one_scalars.sigma, one_scalars.alpha_dot, one_scalars.sigma_dot)
    pinned = (alpha, sigma, a_t, *four, *pair)
    anchor = (one_alpha, one_sigma, one_a_t, *one_four, *one_pair)
    for value, one in zip(pinned, anchor):
        assert value.tobytes() == np.broadcast_to(one, value.shape).tobytes()
    for value in pinned:
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0


@pytest.mark.parametrize("p", [1, 3, 40])
@pytest.mark.parametrize("n", [1, 4])
def test_rows_pinned_proxy_field_bytes_equal_to_the_unpinned_estimate(p, n):
    # every schedule kind and head, one shared batch and per-row batches, each query
    # twice, so that the second reads the kept pins
    x = np.random.default_rng(p * n).normal(size=(p, 2)) * 2.0
    for schedule in SCHEDULES:
        above, _ = _floor_times(schedule)
        for kind in PARAMETERIZATION_KINDS:
            model = model_2d(output_kind=kind, schedule=schedule)
            for batch in _row_batches(p, n, 2, seed=7):
                for t in (0.3, 0.8, 1.0, above):
                    want = _bytes_or_error(lambda: _unpinned_estimate(model, x, t, batch))
                    for _ in range(2):
                        assert _bytes_or_error(lambda: proxy_field(model, x, t, batch)) == want
                    assert ((t, n, p) in model._pins) == (not isinstance(want, type))


def test_rows_whose_pins_pass_the_size_bound_take_one_anchors_pins():
    model, n = model_2d(), 4
    # one anchor's pins fit, and those of the smallest row count past the bound do not
    p = _PIN_BYTES // _pinned_bytes(model_2d()._time_values(0.8, n)) + 1
    x = np.random.default_rng(3).normal(size=(p, 2))
    for batch in _row_batches(p, n, 2, seed=2):
        got = proxy_field(model, x, 0.8, batch)
        assert got.tobytes() == _unpinned_estimate(model, x, 0.8, batch).tobytes()
        assert set(model._pins) == {(0.8, n)}
    fewer = x[: p - 1]
    proxy_field(model, fewer, 0.8, SharedNoiseBatch(seed=2, n=n, dim=2))
    assert set(model._pins) == {(0.8, n), (0.8, n, p - 1)}


def test_pins_over_many_row_counts_stay_bounded_and_exact():
    model, batch = model_2d(), SharedNoiseBatch(seed=8, n=2, dim=2)
    x = np.random.default_rng(5).normal(size=(3 * _TIME_ENTRIES, 2))
    for p in range(1, 3 * _TIME_ENTRIES + 1):
        got = proxy_field(model, x[:p], 0.8, batch)
        assert got.tobytes() == _unpinned_estimate(model, x[:p], 0.8, batch).tobytes()
        assert (0.8, 2, p) in model._pins and len(model._pins) <= _TIME_ENTRIES


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_proxy_queries_off_the_model_dimension_rejected(dim, lead):
    # anchors of dimension d - 1 and d + 1 under a batch of the model's
    # dimension and under one of the anchors', on the 2-d model
    model, x = model_2d(), np.zeros(lead + (dim,))
    for batch_dim in (2, dim):
        batch = SharedNoiseBatch(seed=0, n=2, dim=batch_dim)
        with pytest.raises(DomainError, match="anchor dimension"):
            proxy_field(model, x, 0.8, batch)
        with pytest.raises(DomainError, match="anchor dimension"):
            proxy_field_decoupled(model, x, 0.8, batch, batch)
        with pytest.raises(DomainError, match="anchor dimension"):
            sample_proxy_field(model, x, [0.8], batch)
    # a right anchor under draws of the wrong dimension
    batch, right = SharedNoiseBatch(seed=0, n=2, dim=dim), np.zeros(lead + (2,))
    with pytest.raises(DomainError, match="anchor dimension"):
        proxy_field(model, right, 0.8, batch)
    with pytest.raises(DomainError, match="anchor dimension"):
        proxy_field_decoupled(model, right, 0.8, batch, SharedNoiseBatch(seed=1, n=2, dim=2))


SEEDS = [0, 1, -1, 2**64 - 1, 2**70 + 5]
NAMESPACES = [NS_PARTICLE, NS_PROX, NS_TIME_DECOUPLE, NS_COND_DECOUPLE, NS_TRIAL, NS_CELL]


@pytest.mark.parametrize("seed", SEEDS)
def test_derived_streams_equal_one_derive_stream_per_index(seed):
    # under the RuntimeWarning gate: the uint64 products wrap without a warning
    ranges = [range(0), range(1), range(3, 4), range(2**32 - 3, 2**32 + 3), range(9, -3, -4)]
    for namespace in NAMESPACES:
        for indices in ranges:
            streams = _derive_streams(seed, namespace, indices)
            assert streams == [derive_stream(seed, namespace, k) for k in indices]
            assert all(type(s) is int for s in streams)


@pytest.mark.parametrize("index", [0, 1, 2**32 + 1, -1])
def test_derived_streams_equal_one_derive_stream_per_seed(index):
    for namespace in NAMESPACES:
        for seeds in ([], SEEDS[:1], SEEDS):
            streams = _derive_streams(seeds, namespace, index)
            assert streams == [derive_stream(s, namespace, index) for s in seeds]


def _fresh_normals(pair, dim):
    """The first ``dim`` standard normals of a new ``Philox(key=pair)`` generator."""
    key = np.array(pair, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(dim)


def _uint32_then_normal(gen, row):
    """A callback that draws one uint32, leaving the other half of its 64 bits buffered."""
    row[0] = gen.integers(0, 2**32, dtype=np.uint32)
    row[1:] = gen.standard_normal(len(row) - 1)


def _fresh_uint32_then_normal(pair, dim):
    row = np.empty(dim)
    key = np.array(pair, dtype=np.uint64)
    _uint32_then_normal(np.random.Generator(np.random.Philox(key=key)), row)
    return row


def test_philox_fills_interleaved_with_callback_fills_draw_what_a_fresh_philox_draws():
    # the default fill and a callback fill take turns on the shared state; the
    # callback leaves a buffered uint32 behind, which no later key may read
    seeds = (0, 7, 2**63 + 5, 2**64 - 1)
    for n in (1, 4):
        for seed in seeds:
            keys = [(seed, i) for i in range(n)]
            plain = _philox_fill(np.empty((n, 3)), iter(keys))
            called = _philox_fill(np.empty((n, 3)), keys, _uint32_then_normal)
            after = _philox_fill(np.empty((n, 3)), keys)
            for pair, p, c, a in zip(keys, plain, called, after):
                assert p.tobytes() == _fresh_normals(pair, 3).tobytes()
                assert c.tobytes() == _fresh_uint32_then_normal(pair, 3).tobytes()
                assert a.tobytes() == p.tobytes()
    # a buffered uint32 left by the generator itself, outside any fill
    _shared_generator().integers(0, 2**32, dtype=np.uint32)
    assert SharedNoiseBatch(5, 2, 3).draws.tobytes() == np.stack(
        [_fresh_normals((5, i), 3) for i in range(2)]
    ).tobytes()


def test_philox_fills_from_many_threads_equal_the_serial_fills():
    # the shared key changes only under the lock, so each thread's fills are
    # the serial ones, whatever the interleaving
    jobs = [(seed, n) for seed in range(8) for n in (1, 3, 4)]
    serial = {
        (seed, n): _philox_fill(np.empty((n, 2)), [(seed, i) for i in range(n)]) for seed, n in jobs
    }
    barrier, failures = threading.Barrier(8, timeout=60), []

    def work(offset):
        barrier.wait()
        for _ in range(20):
            for seed, n in jobs[offset:] + jobs[:offset]:
                keys = [(seed, i) for i in range(n)]
                draw = None if (seed + offset) % 2 else _uint32_then_normal
                got = _philox_fill(np.empty((n, 2)), keys, draw)
                if draw is None:
                    want = serial[(seed, n)]
                else:
                    want = np.stack([_fresh_uint32_then_normal(pair, 2) for pair in keys])
                if got.tobytes() != want.tobytes():
                    failures.append((offset, seed, n))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_more_keys_than_rows_fill_every_row_then_raise_index_error():
    # the rows are indexed as the keys come, so a surplus key fails at its row,
    # after the rows before it are filled, and leaves the generator usable
    out = np.zeros((2, 3))
    with pytest.raises(IndexError, match="index 2 is out of bounds for axis 0 with size 2"):
        _philox_fill(out, [(9, 0), (9, 1), (9, 2)])
    assert out.tobytes() == np.stack([_fresh_normals((9, i), 3) for i in range(2)]).tobytes()
    assert SharedNoiseBatch(9, 3, 3).draws[2].tobytes() == _fresh_normals((9, 2), 3).tobytes()
