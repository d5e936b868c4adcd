import csv
import functools
import json
import math
import os

import numpy as np
import pytest

from chordfield import diagnostics, experiments, transport
from chordfield.cli import main
from chordfield.config import DEFAULTS, UsageError, load_config, read_params
from chordfield.errors import (
    DegeneratePosteriorError,
    DivergenceError,
    DomainError,
    IllConditionedMapError,
)
from chordfield.experiments import InvariantFailure
from chordfield.proxy import NS_TRIAL, derive_stream


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def identical_conditions_config(tmp_path, preset_free=True):
    cfg = {
        "backbone": {
            "source": {
                "weights": [1.0],
                "means": [[0.5, -0.5]],
                "scales": [0.6],
            },
            "target": {
                "weights": [1.0],
                "means": [[0.5, -0.5]],
                "scales": [0.6],
            },
            "output_kind": "velocity",
        },
        "chord": {"use_prox": False},
        "params": {"particles": 120},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# the null edit: the source and target mixtures are the same, so every field
# is zero and every energy and endpoint error is 0
_SAME = '{"weights": [1], "means": [[1, 0]], "scales": [1]}'
NULL_EDIT = ["--override", f"backbone.source={_SAME}", "--override", f"backbone.target={_SAME}"]
# a target mean so far out that the posterior mass underflows for every component
_FAR = '{"weights": [1], "means": [[1e200, 0]], "scales": [1]}'
_FAR_BACKBONE = f'backbone={{"source": {_SAME}, "target": {_FAR}}}'


class TestConfig:
    def test_defaults_complete(self):
        for name in DEFAULTS:
            cfg = load_config(name)
            assert cfg.experiment == name
            assert cfg.schedule.get("kind")

    def test_unknown_experiment(self):
        with pytest.raises(UsageError):
            load_config("fourier")

    def test_flag_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "output_dir": "fromfile"}))
        cfg = load_config("toy", str(path), seed=9, output_dir="fromflag")
        assert cfg.seed == 9
        assert cfg.output_dir == "fromflag"

    def test_override_paths(self):
        cfg = load_config(
            "toy", overrides=["chord.delta=0.2", "params.particles=150"]
        )
        assert cfg.chord["delta"] == 0.2
        assert cfg.params["particles"] == 150

    def test_lambda_alias(self):
        from chordfield.config import build_chord_params

        params = build_chord_params({"lambda": 0.5})
        assert params.step_scale == 0.5

    def test_empty_config_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        with pytest.raises(UsageError):
            load_config("diagnostics", str(path))

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHORDFIELD_OUT", str(tmp_path / "envout"))
        code = main(["coeffs", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "envout" / "coeffs.csv").exists()

    def test_schedule_from_beta_csv(self, tmp_path):
        from chordfield.config import build_schedule

        path = tmp_path / "beta.csv"
        lines = ["t,beta"] + [f"{t},{0.5 + t}" for t in np.linspace(0, 1, 21)]
        path.write_text("\n".join(lines) + "\n")
        sched = build_schedule({"kind": "vp_generic", "beta_csv": str(path)})
        assert sched.beta(0.0) == pytest.approx(0.5)
        assert sched.beta(1.0) == pytest.approx(1.5)

    def test_schedule_from_inline_table(self):
        from chordfield.config import build_schedule

        t = list(np.linspace(0, 1, 11))
        sched = build_schedule(
            {"kind": "vp_generic", "beta_table": {"times": t, "values": [2.0] * 11}}
        )
        assert sched.beta(0.37) == pytest.approx(2.0)

    def test_bad_schedule_kind_is_usage_error(self):
        from chordfield.config import build_schedule

        with pytest.raises(UsageError):
            build_schedule({"kind": "cosine"})


class TestDeclaredParams:
    @pytest.mark.parametrize(
        "experiment, override",
        [
            ("coeffs", "params.t_values=5"),
            ("toy", "params.particles=NaN"),
            ("toy", "params.steps=NaN"),
            ("toy", "params.steps=true"),
            ("toy", "params=5"),
            ("step_sweep", 'params.s_values="abc"'),
            ("step_sweep", "params.reference_steps=NaN"),
            ("noise_ablation", "params.seeds=NaN"),
            ("risk", "params.trials=NaN"),
            ("risk", "params.series_value=NaN"),
            ("risk", "params.taps=2.7"),
            ("risk", 'params.noise_sigma="x"'),
            ("error_order", "params.horizon=NaN"),
            ("diagnostics", "params.lte_states=NaN"),
            # keys that no section declares
            ("toy", "schedule.alpha_flor=0.5"),
            ("toy", 'backbone.output_knd="score"'),
            ("toy", "schedul.kind=1"),
            ("step_sweep", "schedule.beta_ramp.pints=3"),
            # a section that the experiment never builds is read all the same
            ("risk", "schedule.alpha_flor=0.5"),
            ("coeffs", 'backbone.output_knd="score"'),
            # ints past the int64 range (2**63 is its first), and a null output directory
            ("toy", "params.particles=1e300"),
            ("toy", "params.particles=9223372036854775808"),
            ("toy", "output_dir=null"),
            # 2**62 noise draws: too many to hold, so refused before any is made
            ("noise_ablation", "params.n_values=[4611686018427387904]"),
            # 2**62 particles: the same, before any is sampled
            ("toy", "params.particles=4611686018427387904"),
            # a repeated list entry would write its rows, or count its cells, twice
            ("coeffs", "params.t_values=[0.5,0.5]"),
            ("step_sweep", "params.s_values=[1,2,4,2]"),
            ("noise_ablation", "params.n_values=[1,1.0]"),
            ("error_order", "params.h_values=[0.125,0.125,0.0625,0.015625]"),
        ],
    )
    def test_bad_inputs_usage_error(self, tmp_path, experiment, override):
        out = tmp_path / "run"
        assert main([experiment, "--out", str(out), "--override", override]) == 2
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "experiment, override",
        [
            # a march holds every state, so one too long to hold stops before its first step
            ("toy", "params.steps=1e15"),
            ("step_sweep", "params.reference_steps=1e15"),
            ("step_sweep", "params.s_values=[1,2,1e15]"),
            # 1.25e14 Euler steps per h, after the sweep's reference run
            ("error_order", "params.h_values=[8e-15,4e-15,2e-15,1e-15]"),
        ],
    )
    def test_march_too_long_to_hold_is_a_usage_error(self, tmp_path, capsys, experiment, override):
        out = tmp_path / "run"
        assert main([experiment, "--out", str(out), "--override", override]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert lines[0].endswith(" march steps do not fit in memory")
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, want",
        [(150, 150), (150.0, 150), (2.7, None), (True, None), ("150", None)],
    )
    def test_int_reads_integral_numbers_only(self, value, want):
        from chordfield.config import read_params

        cfg = load_config("toy")
        cfg.params["particles"] = value
        if want is None:
            with pytest.raises(UsageError, match="params.particles"):
                read_params(cfg)
        else:
            got = read_params(cfg).particles
            assert got == want and type(got) is int

    def test_undeclared_params_key_is_ignored(self):
        from chordfield.config import read_params

        # an experiment reads the params it declares and ignores the rest
        params = read_params(load_config("toy", overrides=["params.partcles=10"]))
        assert vars(params) == {"particles": 500, "steps": 1}

    def test_params_replaced_wholesale_keep_declared_defaults(self, tmp_path):
        # a params object in place of the section leaves every parameter it
        # does not name at its declared default, as dotted overrides do
        runs = {
            "whole": ['params={"s_values":[1,2,4],"reference_steps":8}'],
            "dotted": ["params.s_values=[1,2,4]", "params.reference_steps=8"],
        }
        csvs = []
        for tag, overrides in runs.items():
            flags = [f for o in overrides for f in ("--override", o)]
            assert main(["step_sweep", "--out", str(tmp_path / tag), *flags]) == 0
            csvs.append((tmp_path / tag / "step_sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]


class TestValuesOutsideParams:
    @pytest.mark.parametrize(
        "override",
        [
            "seed=NaN",
            "seed=1.5",
            "seed=true",
            "schedule.beta_ramp.points=NaN",
            "schedule.beta_ramp.points=2.5",
            'schedule.beta_ramp.base="x"',
            'schedule.fd_step="x"',
            "chord.n=NaN",
            "chord.n=true",
            'chord.use_prox="no"',
            # a configured mixture on which the posterior mass underflows
            _FAR_BACKBONE,
        ],
    )
    def test_bad_value_is_usage_error(self, tmp_path, override):
        out = tmp_path / "run"
        flags = ["--override", "params.particles=1", "--override", override]
        assert main(["step_sweep", "--out", str(out), *flags]) == 2
        assert not list(out.glob("*.csv"))

    def test_integral_floats_read_as_integers(self):
        from chordfield.config import build_schedule

        cfg = load_config("step_sweep", overrides=["seed=2.0"])
        assert cfg.seed == 2 and type(cfg.seed) is int
        ramp = {"kind": "vp_generic", "beta_ramp": {"points": 11.0}}
        assert len(build_schedule(ramp).beta_times) == 11


class TestSectionsOutsideParams:
    @pytest.mark.parametrize(
        "overrides",
        [
            ['schedule="x"'],
            ['schedule.beta_ramp="x"'],
            ["schedule.beta_table=5"],
            ['schedule.beta_table={"times": ["a", "b"], "values": [1, 2]}'],
            ['schedule.beta_table={"times": "x", "values": "y"}'],
            ["backbone=5"],
            ["backbone.source=5", "backbone.target=5"],
            ['backbone.source={"weights": "ab", "means": [[0, 0]], "scales": [1]}']
            + ['backbone.target={"weights": [1], "means": [[0, 0]], "scales": [1]}'],
            ["chord=5"],
            ["chord.t=true"],
            ["chord.delta=false"],
            ["chord.step_scale=true"],
            # one inline mixture without the other, and a table file that is not there
            [f"backbone.source={_SAME}"],
            [f"backbone.target={_SAME}"],
            ['schedule.beta_csv="missing.csv"'],
            # a step scale set twice, once through its alias
            ["chord.lambda=0.5", "chord.step_scale=2.0"],
        ],
        ids=" ".join,
    )
    def test_bad_section_or_chord_value_is_usage_error(self, tmp_path, overrides):
        # sections that are not objects, tables of strings, and booleans
        # that would read as 1.0 or 0.0
        out = tmp_path / "run"
        flags = ["--override", "params.particles=1"]
        for override in overrides:
            flags += ["--override", override]
        assert main(["step_sweep", "--out", str(out), *flags]) == 2
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "target, code",
        [
            # a string (a numeric one too) or a boolean is not a number
            ('{"weights": [1], "means": [[0, "1"]], "scales": [1]}', 2),
            ('{"weights": ["1"], "means": [[0, 1]], "scales": [1]}', 2),
            ('{"weights": [true], "means": [[0, 1]], "scales": [1]}', 2),
            ('{"weights": [1], "means": [[true, 0]], "scales": [1]}', 2),
            ('{"weights": [1], "means": [[0, 1]], "scales": [false]}', 2),
            ('{"weights": "1", "means": [[0, 1]], "scales": [1]}', 2),
            # scalars and a flat mean row read as one component, as numpy reads them
            ('{"weights": 1, "means": [[0, 1]], "scales": 1}', 0),
            ('{"weights": [1], "means": [0, 1], "scales": [1.5]}', 0),
            ('{"weights": [0.5, 0.5], "means": [[0, 1], [1.0, 0]], "scales": [1, 2]}', 0),
        ],
    )
    def test_mixture_entries_must_be_numbers(self, tmp_path, target, code):
        out = tmp_path / "run"
        flags = ["--override", "params.particles=1", "--override", f"backbone.target={target}"]
        flags += ["--override", 'backbone.source={"weights": [1], "means": [[0, 0]], "scales": [1]}']
        assert main(["step_sweep", "--out", str(out), *flags]) == code
        assert (out / "step_sweep.csv").exists() == (code == 0)

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            # 10**400, past the float range
            ("risk", ["params.series_value=1" + "0" * 400]),
            (
                "step_sweep",
                [
                    f"backbone.source={_SAME}",
                    'backbone.target={"weights": [1' + "0" * 400 + '], "means": [[1, 0]], "scales": [1]}',
                ],
            ),
            # past the digit limit of Python's str -> int, so not JSON either
            ("risk", ["params.series_value=1" + "0" * 5000]),
        ],
        ids=["series_value", "weights", "past_the_digit_limit"],
    )
    def test_numbers_past_the_float_range_are_usage_errors(self, tmp_path, experiment, overrides):
        out = tmp_path / "run"
        flags = [flag for override in overrides for flag in ("--override", override)]
        assert main([experiment, "--out", str(out), *flags]) == 2
        assert not list(out.glob("*.csv"))


class TestCoeffs:
    def test_velocity_column_all_one(self, tmp_path):
        out = tmp_path / "run"
        assert main(["coeffs", "--out", str(out), "--seed", "0"]) == 0
        rows = read_csv(out / "coeffs.csv")
        vel = [r for r in rows if r["kind"] == "velocity"]
        assert vel and all(float(r["coefficient"]) == 1.0 for r in vel)

    def test_vp_disagreement_below_tolerance(self, tmp_path):
        out = tmp_path / "run"
        main(["coeffs", "--out", str(out)])
        rows = read_csv(out / "coeffs.csv")
        eps_rows = [r for r in rows if r["kind"] == "noise_eps" and not r["error"]]
        assert eps_rows
        assert all(float(r["max_rel_disagreement"]) <= 1e-6 for r in eps_rows)

    def test_consistency_equals_data_x0(self, tmp_path):
        out = tmp_path / "run"
        main(["coeffs", "--out", str(out)])
        rows = read_csv(out / "coeffs.csv")
        by_key = {(r["t"], r["kind"]): r["coefficient"] for r in rows}
        for (t, kind), value in by_key.items():
            if kind == "consistency":
                assert value == by_key[(t, "data_x0")]

    def test_empty_grid_is_usage_error(self, tmp_path):
        code = main(
            ["coeffs", "--out", str(tmp_path), "--override", "params.t_count=0"]
        )
        assert code == 2

    def test_guard_rows_carry_error_column(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "coeffs",
                "--out",
                str(out),
                "--override",
                "params.t_values=[1e-7]",
            ]
        )
        assert code == 0  # partial failure is not fatal
        rows = read_csv(out / "coeffs.csv")
        guarded = [r for r in rows if r["error"]]
        assert guarded  # sigma-dividing kinds trip the floor near t = 0


def _loop_energy(fields, dim):
    """``bb_energy`` as a loop of one BLAS dot per step, summed in step order."""
    return sum(float(u @ u) for u in fields) / (len(fields) * dim)


def _nearest_mode_distance(x, mixture):
    """The distance of one state to the nearest mean, one norm per mean."""
    return min(float(np.linalg.norm(x - m)) for m in mixture.means)


class TestToy:
    def test_identical_conditions_no_motion(self, tmp_path):
        out = tmp_path / "run"
        cfg = identical_conditions_config(tmp_path)
        assert main(["toy", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        before = read_csv(out / "particles_before.csv")
        for method in ("naive", "chord"):
            after = read_csv(out / f"particles_after_{method}.csv")
            assert len(after) == len(before)
            for b, a in zip(before, after):
                assert b == a  # identical formatted coordinates

    def test_chord_beats_naive_on_default_preset(self, tmp_path):
        out = tmp_path / "run"
        assert main(["toy", "--out", str(out), "--seed", "0"]) == 0
        rows = {r["method"]: r for r in read_csv(out / "energy.csv")}
        assert float(rows["chord"]["mean_distance"]) < float(
            rows["naive"]["mean_distance"]
        )

    def test_small_particle_count_rejected(self, tmp_path):
        code = main(
            ["toy", "--out", str(tmp_path), "--override", "params.particles=50"]
        )
        assert code == 2

    def test_stiff_preset_divergence_counts_ordered(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "toy",
                "--out",
                str(out),
                "--seed",
                "1",
                "--override",
                'backbone.preset="stiff_2d"',
                "--override",
                "params.particles=150",
            ]
        )
        assert code == 0
        rows = {r["method"]: r for r in read_csv(out / "energy.csv")}
        assert int(rows["chord"]["diverged"]) <= int(rows["naive"]["diverged"])

    def test_mass_divergence_is_exit_three(self, tmp_path):
        # absurd step scale over two sub-steps trips the norm guard on
        # every particle
        code = main(
            [
                "toy",
                "--out",
                str(tmp_path / "run"),
                "--override",
                "chord.step_scale=1e9",
                "--override",
                "params.steps=2",
                "--override",
                "params.particles=100",
            ]
        )
        assert code == 3

    def test_multi_step_rows_match_one_transport_per_particle(self, tmp_path):
        # 30 of the 100 chord particles run away in three sub-steps, no naive one
        out = tmp_path / "run"
        overrides = ["params.steps=3", "chord.step_scale=500", "params.particles=100"]
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["toy", "--out", str(out), "--seed", "0", *flags]) == 0
        model, params = experiments._model_and_params(load_config("toy", overrides=overrides))
        points = transport.sample_particles(model, 100, 0).points
        energy_rows = {r["method"]: r for r in read_csv(out / "energy.csv")}
        for method in ("chord", "naive"):
            run_params = experiments._method_params(params, method)
            ends, energies = {}, []
            for i, x in enumerate(points):
                field = transport.make_control_field(
                    model, run_params, method, transport.particle_seed(0, i)
                )
                traj, fields, live = transport.euler_march(field, x, run_params.step_scale / 3, 3)
                if not live:
                    continue
                ends[i] = traj[-1]
                energies.append(_loop_energy(fields, model.dim))
            after = read_csv(out / f"particles_after_{method}.csv")
            assert [int(r["particle"]) for r in after] == list(ends)
            got = [[float(r[f"x{k}"]) for k in range(model.dim)] for r in after]
            np.testing.assert_array_equal(got, list(ends.values()))
            row = energy_rows[method]
            assert int(row["diverged"]) == 100 - len(ends)
            assert float(row["bb_energy"]) == float(np.mean(energies))
            distances = [_nearest_mode_distance(x, model.target) for x in ends.values()]
            assert float(row["mean_distance"]) == float(np.mean(distances))
        assert (energy_rows["chord"]["diverged"], energy_rows["naive"]["diverged"]) == ("30", "0")

    def test_every_row_running_away_in_the_first_sub_step_is_exit_three(self, tmp_path, capsys):
        # the march stops before any field value is kept: nothing to stack
        overrides = ["chord.step_scale=1e9", "params.steps=3", "params.particles=100"]
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["toy", "--out", str(tmp_path / "run"), *flags]) == 3
        message = "naive transport diverged on 100/100 particles"
        assert capsys.readouterr().err == f"divergence: {message}\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_single_step_mass_divergence_is_exit_three(self, tmp_path):
        # the same absurd step scale in one step trips the same guard
        code = main(
            [
                "toy",
                "--out",
                str(tmp_path / "run"),
                "--override",
                "chord.step_scale=1e9",
                "--override",
                "params.particles=100",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "overrides, code",
        [
            # the noise batch is too large to draw: a usage error mid-run
            (["chord.n=4611686018427387904"], 2),
            # every naive transport runs away
            (["chord.step_scale=1e9", "params.particles=100"], 3),
            # the posterior mass underflows on the first particle
            ([_FAR_BACKBONE], 2),
        ],
    )
    def test_failed_run_writes_no_csv(self, tmp_path, overrides, code):
        out = tmp_path / "run"
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["toy", "--out", str(out), *flags]) == code
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "overrides",
        [
            [],
            ["chord.share_noise_across_times=false", "chord.n=2"],
            ["chord.prox_shared_noise=true", "chord.n=3"],
        ],
    )
    def test_batched_and_row_by_row_queries_do_the_same_work(
        self, tmp_path, monkeypatch, capsys, overrides
    ):
        # one-step transport queries every particle's rows at once, or each
        # particle on its own once its fields are wrapped in a plain closure,
        # as a tracer wraps them: the same noised rows, draws and keys, and
        # the same bytes out
        from chordfield import proxy

        query, fill = transport.proxy_field, proxy.SharedNoiseBatch.draws.func
        work = {}

        def proxy_field(model, x, t, batch):
            work["calls"] += 1
            work["rows"] += np.asarray(x).size // model.dim * batch.n
            return query(model, x, t, batch)

        def draws(batch):
            work["draws"] += batch.n
            work["keys"].update((batch.seed & proxy._MASK64, i) for i in range(batch.n))
            return fill(batch)

        counted = functools.cached_property(draws)
        counted.__set_name__(proxy.SharedNoiseBatch, "draws")
        monkeypatch.setattr(proxy.SharedNoiseBatch, "draws", counted)
        monkeypatch.setattr(transport, "proxy_field", proxy_field)
        make = transport.make_control_field

        def closed(*args):
            field = make(*args)
            return lambda x, s=0.0: field(x, s)  # without the field's attributes

        flags = ["--override", "params.particles=100"]
        flags += [arg for override in overrides for arg in ("--override", override)]
        # sigma(1e-7) is below the noise head's floor, and 2**62 draws do not fit
        floor = ['backbone.output_kind="noise_eps"', "chord.t=1e-7", "chord.delta=0"]
        floor = [arg for o in [*floor, "chord.n=4611686018427387904"] for arg in ("--override", o)]
        names = [f"particles_after_{m}.csv" for m in ("chord", "naive")]
        names += ["particles_before.csv", "energy.csv", "summary.txt"]
        calls, seen, failed = [], [], []
        for wrapped in (False, True):
            if wrapped:
                monkeypatch.setattr(transport, "make_control_field", closed)
            work.update(calls=0, rows=0, draws=0, keys=set())
            out = tmp_path / f"wrapped_{wrapped}"
            assert main(["toy", "--out", str(out), *flags]) == 0
            calls.append(work["calls"])
            files = [(out / name).read_bytes() for name in names]
            seen.append((work["rows"], work["draws"], len(work["keys"]), files))
            capsys.readouterr()
            assert main(["toy", "--out", str(tmp_path / f"floor_{wrapped}"), *floor]) == 2
            failed.append(capsys.readouterr().err)
        # two queries per method: over every particle at once, or one per particle
        assert calls == [2 * 2, 2 * 2 * 100]
        assert seen[0] == seen[1]
        # per method and particle, one batch of n draws (two when decoupled at
        # delta > 0, one at the naive delta = 0), and one refinement draw unless shared
        n, decoupled = (2, True) if "chord.n=2" in overrides else (3 if overrides else 1, False)
        refine = 0 if "chord.prox_shared_noise=true" in overrides else 1
        assert seen[0][1] == 100 * (n * (2 + decoupled) + 2 * refine)
        assert failed[0] == failed[1] and "below floor" in failed[0]
        assert not list(tmp_path.glob("floor_*/*.csv"))


class TestStepSweep:
    def test_energy_trends(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "step_sweep",
                "--out",
                str(out),
                "--seed",
                "0",
                "--override",
                "params.particles=30",
            ]
        )
        assert code == 0
        rows = read_csv(out / "step_sweep.csv")
        energy = {
            (int(r["S"]), r["method"]): float(r["bb_energy"]) for r in rows
        }
        s_values = sorted({int(r["S"]) for r in rows})
        naive = [energy[(s, "naive")] for s in s_values]
        chord = [energy[(s, "chord")] for s in s_values]
        assert naive[0] > naive[-1]
        assert max(chord) / min(chord) <= max(naive) / min(naive)

    def test_one_field_per_particle_and_method(self, tmp_path, monkeypatch):
        # the reference and every step count march the same field
        from chordfield import experiments, transport

        made = []
        make = transport.make_control_field

        def counting(*args):
            made.append(args)
            return make(*args)

        monkeypatch.setattr(experiments, "make_control_field", counting)
        monkeypatch.setattr(transport, "make_control_field", counting)
        flags = ["--override", "params.particles=3", "--override", "params.reference_steps=8"]
        assert main(["step_sweep", "--out", str(tmp_path / "run"), *flags]) == 0
        assert len(made) == 2 * 3

    @pytest.mark.parametrize(
        "overrides", [[], ["chord.share_noise_across_times=false", "chord.n=2"]]
    )
    def test_batched_and_row_by_row_fields_do_the_same_work(self, tmp_path, monkeypatch, overrides):
        # every particle's rows in one query, or each field on its own row
        # inside a plain closure, as a tracer wraps it: the same noised rows,
        # draws and keys, and the same bytes out
        from chordfield import proxy

        query, fill = transport.proxy_field, proxy.SharedNoiseBatch.draws.func
        work = {}

        def proxy_field(model, x, t, batch):
            work["calls"] += 1
            work["rows"] += np.asarray(x).size // model.dim * batch.n
            return query(model, x, t, batch)

        def draws(batch):
            work["draws"] += batch.n
            work["keys"].update((batch.seed & proxy._MASK64, i) for i in range(batch.n))
            return fill(batch)

        counted = functools.cached_property(draws)
        counted.__set_name__(proxy.SharedNoiseBatch, "draws")
        monkeypatch.setattr(proxy.SharedNoiseBatch, "draws", counted)
        monkeypatch.setattr(transport, "proxy_field", proxy_field)
        make = transport.make_control_field

        def closed(*args):
            field = make(*args)
            return lambda x, s=0.0: field(x, s)  # without the field's attributes

        flags = ["--override", "params.particles=3", "--override", "params.reference_steps=8"]
        flags += [arg for override in overrides for arg in ("--override", override)]
        calls, seen = [], []
        for wrapped in (False, True):
            if wrapped:
                monkeypatch.setattr(experiments, "make_control_field", closed)
            work.update(calls=0, rows=0, draws=0, keys=set())
            out = tmp_path / f"wrapped_{wrapped}"
            assert main(["step_sweep", "--out", str(out), *flags]) == 0
            calls.append(work.pop("calls"))
            files = [(out / name).read_bytes() for name in ("step_sweep.csv", "summary.txt")]
            seen.append((work["rows"], work["draws"], len(work["keys"]), files))
        # every reference row stayed tame, so row by row is 3 calls for each batched one
        assert calls[1] == 3 * calls[0]
        assert seen[0] == seen[1]
        # 3 particles: one draw per method, or n = 2 at both chord times and at the naive t
        assert seen[0][1] == (3 * (2 * 2 + 2) if overrides else 3 * 2)

    def test_rows_match_one_reference_and_march_per_particle(self, tmp_path):
        # the naive march at S=8 runs away on 4 of the 20 particles
        out = tmp_path / "run"
        overrides = ["chord.step_scale=30", "params.reference_steps=256", "params.particles=20"]
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["step_sweep", "--out", str(out), "--seed", "0", *flags]) == 0
        cfg = load_config("step_sweep", overrides=overrides)
        model, params = experiments._model_and_params(cfg)
        s_values = read_params(cfg).s_values
        points = transport.sample_particles(model, 20, 0).points
        rows = {(int(r["S"]), r["method"]): r for r in read_csv(out / "step_sweep.csv")}
        for method in ("chord", "naive"):
            cells = {s: ([], []) for s in s_values}
            for i, x in enumerate(points):
                seed_i = transport.particle_seed(0, i)
                field = transport.make_control_field(model, params, method, seed_i)
                reference = transport.integrate_rk4(field, x, 0.0, 30.0, 256)
                for s in s_values:
                    traj, fields, live = transport.euler_march(field, x, 30.0 / s, s)
                    if live:
                        cells[s][0].append(_loop_energy(fields, model.dim))
                        cells[s][1].append(float(np.linalg.norm(traj[-1] - reference)))
            for s, (energies, errors) in cells.items():
                assert float(rows[(s, method)]["bb_energy"]) == float(np.mean(energies))
                assert float(rows[(s, method)]["endpoint_error_mean"]) == float(np.mean(errors))
            if method == "naive":
                assert [len(cells[s][0]) for s in s_values] == [20, 20, 20, 16, 20]

    def test_needs_s_one(self, tmp_path):
        code = main(
            [
                "step_sweep",
                "--out",
                str(tmp_path),
                "--override",
                "params.s_values=[2,4,8]",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the RK4 reference runs away on both particles, for every S
            (["chord.step_scale=1e9"], "chord at S=1 diverged on 2/2 particles"),
            # the reference holds, and one particle's naive march runs away at S=4
            (
                ["chord.step_scale=64", "params.reference_steps=256"],
                "naive at S=4 diverged on 1/2 particles",
            ),
        ],
    )
    def test_half_the_particles_diverged_is_exit_three(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "run"
        flags = ["--override", "params.particles=2"]
        for override in overrides:
            flags += ["--override", override]
        assert main(["step_sweep", "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err == f"divergence: {message}\n"
        assert not (out / "step_sweep.csv").exists()

    def test_null_edit_energy_ratio_is_nan(self, tmp_path):
        out = tmp_path / "run"
        flags = ["--override", "params.particles=2", *NULL_EDIT]
        assert main(["step_sweep", "--out", str(out), *flags]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert [line.rsplit(" ", 1)[1] for line in lines[1:]] == ["nan", "nan"]


class TestNoiseAblation:
    def test_single_cell_deterministic(self, tmp_path):
        args = [
            "noise_ablation",
            "--seed",
            "5",
            "--override",
            "params.n_values=[1]",
            "--override",
            "params.seeds=1",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "noise_ablation.csv").read_bytes() == (
            out_b / "noise_ablation.csv"
        ).read_bytes()
        rows = read_csv(out_a / "noise_ablation.csv")
        assert len(rows) == 2  # one chord row, one naive row

    def test_cov_orderings(self, tmp_path):
        out = tmp_path / "run"
        assert main(["noise_ablation", "--out", str(out), "--seed", "0"]) == 0
        rows = read_csv(out / "noise_ablation.csv")

        def cov(method, n):
            errs = np.array(
                [
                    float(r["endpoint_error"])
                    for r in rows
                    if r["method"] == method and int(r["n"]) == n
                ]
            )
            return errs.std(ddof=1) / errs.mean()

        assert cov("naive", 1) > cov("chord", 1)
        assert cov("chord", 1) <= 2.0 * cov("chord", 4)


class TestRisk:
    def test_variance_reduction_rows(self, tmp_path):
        out = tmp_path / "run"
        assert main(["risk", "--out", str(out), "--seed", "2"]) == 0
        rows = read_csv(out / "risk.csv")
        for r in rows:
            if r["kernel"] == "dirac":
                assert r["mse_naive"] == r["mse_chord"]
            else:
                assert float(r["mse_chord"]) < float(r["mse_naive"])

    @pytest.mark.parametrize(
        "override",
        [
            "params.grid_step=0",
            "params.series_length=-3",
            "params.noise_sigma=NaN",
            "params.noise_sigma=-0.2",
        ],
    )
    def test_bad_inputs_usage_error(self, tmp_path, override):
        out = tmp_path / "run"
        assert main(["risk", "--out", str(out), "--override", override]) == 2
        assert not (out / "risk.csv").exists()

    def test_each_trial_drawn_once(self, tmp_path, monkeypatch):
        # every kernel smooths the same trials: one draw per trial key
        drawn = []
        philox_normals = diagnostics._philox_normals

        def counting(keys, shape):
            drawn.extend(keys)
            return philox_normals(keys, shape)

        monkeypatch.setattr(diagnostics, "_philox_normals", counting)
        trials = 300
        flags = ["--seed", "4", "--override", f"params.trials={trials}"]
        assert main(["risk", "--out", str(tmp_path / "run"), *flags]) == 0
        keys = [(derive_stream(4, NS_TRIAL, k), 0) for k in range(trials)]
        assert drawn == keys


    def test_an_override_does_not_outlive_its_call(self, tmp_path):
        # the parser is built once per process and shared by every call
        flags = ["--override", "params.trials=100"]
        assert main(["risk", "--out", str(tmp_path / "override"), *flags]) == 0
        assert main(["risk", "--out", str(tmp_path / "default")]) == 0
        for name, trials in (("override", "100"), ("default", "400")):
            assert {r["trials"] for r in read_csv(tmp_path / name / "risk.csv")} == {trials}


class TestErrorOrder:
    def test_slopes_and_ratio(self, tmp_path):
        out = tmp_path / "run"
        assert main(["error_order", "--out", str(out), "--seed", "0"]) == 0
        text = (out / "summary.txt").read_text()
        slopes = {}
        ratio = None
        for line in text.splitlines():
            if "slope" in line:
                name, value = line.split(" slope ")
                slopes[name] = float(value)
            if "ratio" in line:
                ratio = float(line.rsplit(" ", 1)[1])
        assert 0.8 <= slopes["chord"] <= 1.2
        assert 0.8 <= slopes["naive"] <= 1.2
        assert ratio <= 1.05

    def test_paired_run_equals_one_sweep_per_method(self, tmp_path):
        from chordfield.diagnostics import global_error_sweep
        from chordfield.experiments import _model_and_params
        from chordfield.transport import make_control_field, sample_particles

        # the naive row diverges at every step size, the chord row only at
        # some, so each row is frozen on its own
        overrides = ["params.horizon=64", "params.h_values=[16,8,4,2]"]
        out = tmp_path / "run"
        flags = [f for o in overrides for f in ("--override", o)]
        assert main(["error_order", "--out", str(out), "--seed", "2", *flags]) == 0
        cfg = load_config("error_order", overrides=overrides)
        model, params = _model_and_params(cfg)
        x0 = sample_particles(model, 1, 2).points[0]
        h_values = cfg.params["h_values"]
        rows = read_csv(out / "error_order.csv")
        diverged = 0
        for method in ("chord", "naive"):
            field = make_control_field(model, params, method, 2)
            errors, _ = global_error_sweep(
                field, x0, h_values, horizon=cfg.params["horizon"]
            )
            got = {float(r["h"]): r["endpoint_error"] for r in rows if r["method"] == method}
            for h, err in zip(h_values, errors):
                if math.isfinite(err):
                    assert float(got[h]) == err
                else:
                    assert got[h] == "diverged"
                    diverged += 1
        assert diverged == 6

    def test_null_edit_error_ratio_is_nan(self, tmp_path):
        out = tmp_path / "run"
        assert main(["error_order", "--out", str(out), *NULL_EDIT]) == 0
        ratio = (out / "summary.txt").read_text().splitlines()[-1]
        assert ratio == "chord/naive error ratio at smallest h: nan"

    def test_fewer_than_four_step_sizes_exit_two_with_the_sweeps_message(self, tmp_path, capsys):
        # the step-size count is the sweep's rule: the run stops before any output
        out = tmp_path / "run"
        override = "params.h_values=[0.5,0.25,0.125]"
        assert main(["error_order", "--out", str(out), "--override", override]) == 2
        assert capsys.readouterr().err == "usage error: need at least 4 step sizes\n"
        assert not out.exists() and not list(tmp_path.rglob("*.csv"))

    def test_query_time_below_the_floor_names_the_floor(self, tmp_path, capsys):
        # the paired field's fused pass finds sigma(1e-7) below the noise head's
        # floor before it reads its 2**62 draws, which would not fit
        out = tmp_path / "run"
        overrides = ['backbone.output_kind="noise_eps"', "chord.t=1e-7", "chord.delta=0"]
        overrides += ["chord.n=4611686018427387904"]
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["error_order", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: sigma(t) = ") and "below floor" in err
        assert not list(tmp_path.rglob("*.csv"))


class TestDiagnostics:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["diagnostics", "--out", str(out), "--seed", "0"]) == 0
        text = (out / "summary.txt").read_text()
        assert "FAIL" not in text

    def test_zero_slack_fails_with_named_check(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "diagnostics",
                "--out",
                str(out),
                "--override",
                "params.lte_slack=0",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lte_bound_with_slack" in err

    def test_nan_slack_usage_error(self, tmp_path):
        out = tmp_path / "run"
        flags = ["--override", "params.lte_slack=NaN"]
        assert main(["diagnostics", "--out", str(out), *flags]) == 2
        assert not (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("states", [0, -1])
    def test_no_lte_states_usage_error(self, tmp_path, states):
        out = tmp_path / "run"
        flags = ["--override", f"params.lte_states={states}"]
        assert main(["diagnostics", "--out", str(out), *flags]) == 2
        assert not (out / "diagnostics.csv").exists()

    def test_empty_config_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        code = main(["diagnostics", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_null_edit_fails_only_the_global_error_check(self, tmp_path, capsys):
        # every error is 0: the slope and the chord/naive ratio are undefined
        out = tmp_path / "run"
        assert main(["diagnostics", "--out", str(out), *NULL_EDIT]) == 1
        assert "failing checks: global_error_first_order\n" in capsys.readouterr().err
        row = read_csv(out / "diagnostics.csv")[0]
        assert row["global_error_ratio"] == "nan"
        assert "global_error_ratio: nan" in (out / "summary.txt").read_text()


class TestReproducibility:
    @pytest.mark.parametrize("experiment", ["coeffs", "toy", "risk"])
    def test_byte_identical_reruns(self, tmp_path, experiment):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        extra = []
        if experiment == "toy":
            extra = ["--override", "params.particles=120"]
        assert main([experiment, "--out", str(out_a), "--seed", "11"] + extra) == 0
        assert main([experiment, "--out", str(out_b), "--seed", "11"] + extra) == 0
        for name in sorted(os.listdir(out_a)):
            if name.endswith(".csv"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("toy", ["params.particles=100"]),
            ("step_sweep", ["params.particles=2", "params.reference_steps=8"]),
            ("noise_ablation", ["params.n_values=[2]", "params.seeds=1"]),
            ("error_order", []),
            ("diagnostics", ["params.lte_states=1"]),
        ],
    )
    def test_every_draw_comes_from_the_shared_generator(
        self, tmp_path, monkeypatch, experiment, overrides
    ):
        from chordfield.proxy import _shared_generator

        _shared_generator()  # built once per process, before the count starts
        built = []
        for name in ("Philox", "Generator"):

            def counting(*args, _cls=getattr(np.random, name), **kwargs):
                built.append(_cls.__name__)
                return _cls(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counting)
        flags = [f for o in overrides for f in ("--override", o)]
        assert main([experiment, "--out", str(tmp_path / "run"), *flags]) == 0
        assert built == []

    def test_csv_uses_lf_endings(self, tmp_path):
        out = tmp_path / "run"
        main(["coeffs", "--out", str(out)])
        raw = (out / "coeffs.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestExitCodes:
    def test_domain_error_from_a_run_is_usage_error(self, tmp_path, capsys):
        # the step sizes pass config validation but span less than the
        # factor of 8 the error-order sweep needs
        code = main(
            [
                "error_order",
                "--out",
                str(tmp_path / "run"),
                "--override",
                "params.h_values=[0.3,0.2,0.1,0.05]",
            ]
        )
        assert code == 2
        assert "usage error: step sizes must span at least a factor of 8" in (
            capsys.readouterr().err
        )

    def test_ill_conditioned_map_from_a_run_is_usage_error(self, tmp_path, capsys):
        # delta = t puts the earlier query at t = 0, where the noise head's
        # coefficient divides by sigma(0) = 0
        code = main(
            [
                "toy",
                "--out",
                str(tmp_path / "run"),
                "--override",
                'backbone.output_kind="noise_eps"',
                "--override",
                "chord.t=0.9",
                "--override",
                "chord.delta=0.9",
                "--override",
                "params.particles=100",
            ]
        )
        assert code == 2
        assert "usage error: sigma(t) = 0.000e+00 below floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (DomainError, 2, "usage error"),
            (UsageError, 2, "usage error"),
            (IllConditionedMapError, 2, "usage error"),
            (DegeneratePosteriorError, 2, "usage error"),
            (InvariantFailure, 1, "invariant failure"),
            (DivergenceError, 3, "divergence"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_each_error_family_has_one_exit_code(
        self, tmp_path, monkeypatch, capsys, error, code, prefix
    ):
        def runner(cfg):
            raise error("raised by the run")

        monkeypatch.setitem(experiments.RUNNERS, "coeffs", runner)
        assert main(["coeffs", "--out", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err == f"{prefix}: raised by the run\n"


_RAGGED = '{"weights": [0.5, 0.5], "means": [[0, 0], [1]], "scales": [1, 1]}'


@pytest.mark.parametrize(
    "args, message",
    [
        (["toy", "--override", "chord.t"], "is not of the form key=value"),
        (["toy", "--override", ".=1"], "has an empty key"),
        (["toy", "--config", "@absent.json"], "config file not found"),
        (["toy", "--config", "@bad.json"], "config file is not valid JSON"),
        (["toy", "--config", "@list.json"], "config file must hold a JSON object"),
        (["toy", "--override", 'schedule={"kind": "vp_generic"}'], "vp_generic needs"),
        (
            ["toy", "--override", f"backbone={{\"source\": {_RAGGED}, \"target\": {_RAGGED}}}"],
            "invalid mixture section",
        ),
        (["toy", "--override", 'backbone.preset="no_such_preset"'], "unknown preset"),
        (["toy", "--override", 'backbone.preset=""'], "needs either a preset name"),
        (["toy", "--override", 'backbone.output_kind="logits"'], "invalid backbone section"),
        (["toy", "--override", "chord.t=2"], "invalid chord section"),
        ([], "usage: chordfield"),
    ],
)
def test_each_rejected_invocation_exits_two_and_writes_nothing(
    tmp_path, monkeypatch, capsys, args, message
):
    # "@name" is a config file in tmp_path; absent.json is never written
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    out = tmp_path / "run"
    monkeypatch.setenv("CHORDFIELD_OUT", str(out))
    assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert not out.exists() and not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("experiment, rows", [("noise_ablation", 20), ("diagnostics", 24)])
def test_a_runaway_transport_step_exits_three_and_writes_nothing(
    tmp_path, capsys, experiment, rows
):
    out = tmp_path / "run"
    assert main([experiment, "--out", str(out), "--override", "chord.step_scale=1e9"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"divergence: state diverged during the transport step (rows {list(range(rows))})"
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, override, count",
    [
        ("coeffs", "params.t_count=1e15", "1000000000000000 query times"),
        ("risk", "params.series_length=1e15", "1000000000000000 series values"),
        ("risk", "params.taps=1e15", "1000000000000001 kernel weights"),
        ("noise_ablation", "params.seeds=1e15", "1000000000000000 particles"),
        ("diagnostics", "params.lte_states=1e15", "1000000000000000 particles"),
        ("step_sweep", "schedule.beta_ramp.points=1e15", "1000000000000000 ramp points"),
    ],
)
def test_a_count_too_large_to_hold_exits_two_and_writes_nothing(
    tmp_path, capsys, experiment, override, count
):
    # refused when its array is allocated, before any of it is filled or listed
    out = tmp_path / "run"
    assert main([experiment, "--out", str(out), "--override", override]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"usage error: {count} do not fit in memory"
    assert not out.exists()


@pytest.mark.parametrize("experiment, overrides", [("step_sweep", []), ("toy", ["params.steps=3"])])
def test_a_query_time_below_the_floor_fails_alike_batched_row_by_row_and_in_one_step(
    tmp_path, monkeypatch, capsys, experiment, overrides
):
    # sigma(1e-7) is below the noise head's floor and 2**62 draws do not fit:
    # every path names the floor, as the query time's constants fail first
    overrides = [
        *overrides,
        'backbone.output_kind="noise_eps"',
        "chord.t=1e-7",
        "chord.delta=0",
        "chord.n=4611686018427387904",
    ]
    errors = []

    def run(name, extra=()):
        out = tmp_path / f"run{len(errors)}"
        flags = [arg for override in [*overrides, *extra] for arg in ("--override", override)]
        assert main([name, "--out", str(out), *flags]) == 2
        assert not out.exists() and not list(tmp_path.rglob("*.csv"))
        errors.append(capsys.readouterr().err)

    run(experiment)
    # one-step toy under the same schedule transports by chordedit, not by fields
    run("toy", ["params.steps=1", f"schedule={json.dumps(DEFAULTS[experiment]['schedule'])}"])
    make = transport.make_control_field

    def closed(*args):
        field = make(*args)
        return lambda x, s=0.0: field(x, s)  # without the field's attributes

    monkeypatch.setattr(experiments, "make_control_field", closed)
    run(experiment)
    assert "below floor" in errors[0]
    assert errors == [errors[0]] * 3


def _fmt_oracle(value) -> str:
    """One cell as the CSV writer formatted it cell by cell: strings as they
    are, ints through ``int``, anything else as a float with 17 digits."""
    if not isinstance(value, float):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
    return format(float(value), ".17g")


def test_write_csv_bytes_equal_to_a_cell_by_cell_join(tmp_path):
    # one row template per tuple of cell types; a column's type may change
    # from row to row, as error_order's "diverged" cells do, and rows may be lists
    tiny, huge = 5e-324, 1.7976931348623157e308
    rows = [
        (0, -0.0, math.inf, -math.inf, math.nan, "a"),
        (1, tiny, huge, -huge, -tiny, "b c"),
        (np.int64(-7), np.float64(0.1), np.float32(0.1), np.float64(-0.0), np.float32("nan"), ""),
        (True, False, 2**70, np.int32(3), np.float64(1e16), "diverged"),
        [2, 1 / 3, "diverged", np.float64(2.5), np.float32(-np.inf), "x"],
        ("chord", 0.25, "diverged", 3, np.uint8(255), "y"),
        ("chord", 0.25, 1.2459787850983302, 3.0, 1e-300, "z"),
        [np.float64(3.0), -1, np.int64(2**62), math.pi, np.float32(1e-45), "w"],
    ]
    header = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "sub" / "rows.csv"
    experiments.write_csv(str(path), header, rows)
    want = [",".join(header)] + [",".join(map(_fmt_oracle, row)) for row in rows]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    experiments.write_csv(str(path), header, [])
    assert path.read_bytes() == b"a,b,c,d,e,f\n"
