"""Experiment configuration: JSON file, embedded defaults, flag overrides.

A configuration is one JSON object with a section per module plus experiment
parameters. File values override the embedded defaults, command-line flags
override the file, and ``--override key=value`` (dotted paths, JSON-parsed
values) wins over everything. Each experiment declares its parameters, with
their defaults and domains, once in ``PARAMS``; ``read_params`` resolves them.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .backbone import BackboneModel, GaussianMixtureCondition
from .chord import ChordParams
from .diagnostics import BOUND_SLACK
from .errors import DomainError
from .preset_lib import load_preset
from .schedules import (
    LINEAR_INTERP,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    load_beta_table,
)

EXPERIMENTS = (
    "coeffs",
    "toy",
    "step_sweep",
    "noise_ablation",
    "risk",
    "error_order",
    "diagnostics",
)


class UsageError(Exception):
    """Bad configuration or flags; maps to exit code 2."""


# the ramped noise-rate table (it fills in a partial schedule.beta_ramp), and
# the sections that the step-sweep, error-order and diagnostics studies share:
# load_config deep-copies a section, so sharing one is safe
_RAMP = {"base": 0.05, "scale": 4.0, "power": 4, "points": 101}
_RAMPED = {
    "schedule": {"kind": VP_GENERIC, "beta_ramp": _RAMP},
    "backbone": {"preset": "two_blob_2d"},
    "chord": {"t": 0.7, "delta": 0.25, "use_prox": False},
}

DEFAULTS: dict[str, dict] = {
    "coeffs": {
        "schedule": {"kind": VP_CONST_BETA, "beta0": 2.0},
        "backbone": {"preset": "two_blob_2d"},
    },
    "toy": {
        "schedule": {"kind": VP_CONST_BETA, "beta0": 0.5},
        "backbone": {"preset": "two_blob_2d"},
    },
    "step_sweep": _RAMPED,
    "noise_ablation": {
        "schedule": {"kind": LINEAR_INTERP},
        "backbone": {"preset": "stiff_2d"},
    },
    "risk": {
        "schedule": {"kind": VP_CONST_BETA, "beta0": 1.0},
        "backbone": {"preset": "two_blob_2d"},
    },
    "error_order": _RAMPED,
    "diagnostics": _RAMPED,
}


class Param(NamedTuple):
    """A declared experiment parameter: an int or finite float ``kind``, or a
    non-empty list of one (``[int]``, ``[float]``), within ``[low, high]``.
    A ``None`` default leaves the parameter unset."""

    experiment: str
    name: str
    kind: type | list
    default: object
    low: float = -math.inf
    high: float = math.inf

    def read(self, value):
        """``value`` checked and converted to ``kind``; ``UsageError`` if bad."""
        if value is None and self.default is None:
            return None
        key = f"params.{self.name}"
        if not isinstance(self.kind, list):
            return _read_number(key, value, self.kind, self.low, self.high)
        return _read_list(key, value, self.kind[0], self.low, self.high)


def _read_list(key, value, kind, low=-math.inf, high=math.inf):
    """``value`` as a non-empty list of ``_read_number`` values."""
    if isinstance(value, list) and value:
        return [_read_number(key, v, kind, low, high) for v in value]
    raise UsageError(f"{key} must be a non-empty list, got {value!r}")


def _read_object(key, value) -> dict:
    """``value`` if it is a JSON object; ``UsageError`` naming ``key`` if not."""
    if not isinstance(value, dict):
        raise UsageError(f"{key} must be a JSON object, got {value!r}")
    return value


def _read_number(key, value, kind, low=-math.inf, high=math.inf):
    """``value`` as an int or finite float ``kind`` within ``[low, high]``;
    ``UsageError`` naming ``key`` if it is not one (an int past the float range
    is not finite). An integral float reads as an int; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        need = "a number"
    elif not abs(value) <= sys.float_info.max:
        need = "finite"
    elif kind is int and int(value) != value:
        need = "an integer"
    elif not low <= value <= high:
        need = f"in [{low}, {high}]"
    else:
        return kind(value)
    raise UsageError(f"{key} must be {need}, got {value!r}")


PARAMS = (
    Param("coeffs", "t_start", float, 0.05, 0.0, 1.0),
    Param("coeffs", "t_stop", float, 0.95, 0.0, 1.0),
    Param("coeffs", "t_count", int, 19, 1),
    Param("coeffs", "t_values", [float], None, 0.0, 1.0),
    Param("toy", "particles", int, 500, 100),
    Param("toy", "steps", int, 1, 1),
    Param("step_sweep", "s_values", [int], [1, 2, 4, 8, 16], 1),
    Param("step_sweep", "particles", int, 80, 1),
    Param("step_sweep", "reference_steps", int, 128, 1),
    Param("noise_ablation", "n_values", [int], [1, 2, 4], 1),
    Param("noise_ablation", "seeds", int, 20, 1),
    Param("risk", "noise_sigma", float, 0.2, 0.0),
    Param("risk", "trials", int, 400, 100),
    Param("risk", "series_length", int, 64, 1),
    Param("risk", "series_value", float, 1.7),
    Param("risk", "grid_step", float, 0.05, 0.0),  # the kernels reject 0
    Param("risk", "taps", int, 4, 1),
    # the sweep rejects a step size or horizon of 0
    Param("error_order", "h_values", [float], [0.125, 0.0625, 0.03125, 0.015625], 0.0),
    Param("error_order", "horizon", float, 1.0, 0.0),
    Param("diagnostics", "lte_slack", float, BOUND_SLACK, 0.0),
    Param("diagnostics", "lte_states", int, 8, 1),
)


def read_params(cfg: ExperimentConfig) -> SimpleNamespace:
    """Every parameter that ``cfg.experiment`` declares, read from
    ``cfg.params`` or defaulted; undeclared keys are ignored."""
    params = _read_object("params", cfg.params)
    resolved = {}
    for param in PARAMS:
        if param.experiment == cfg.experiment:
            resolved[param.name] = param.read(params.get(param.name, param.default))
    return SimpleNamespace(**resolved)


@dataclass
class ExperimentConfig:
    experiment: str
    schedule: dict = field(default_factory=dict)
    backbone: dict = field(default_factory=dict)
    chord: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "out"


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise UsageError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    path = [p for p in key.strip().split(".") if p]
    if not path:
        raise UsageError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an int past the digit limit of str -> int
        value = raw
    return path, value


def load_config(
    experiment: str,
    config_path: str | None = None,
    seed: int | None = None,
    output_dir: str | None = None,
    overrides: list[str] | None = None,
) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    merged = copy.deepcopy(DEFAULTS[experiment])
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError as err:
            raise UsageError(f"config file not found: {config_path}") from err
        except ValueError as err:
            raise UsageError(f"config file is not valid JSON: {err}") from err
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        if not file_cfg:
            raise UsageError("config file is empty")
        merged = _deep_merge(merged, file_cfg)
    if seed is not None:
        merged["seed"] = seed
    if output_dir is not None:
        merged["output_dir"] = output_dir
    for text in overrides or []:
        path, value = _parse_override(text)
        node = merged
        for part in path[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[path[-1]] = value
    return ExperimentConfig(
        experiment=experiment,
        schedule=merged.get("schedule", {}),
        backbone=merged.get("backbone", {}),
        chord=merged.get("chord", {}),
        params=merged.get("params", {}),
        seed=_read_number("seed", merged.get("seed", 0), int),
        output_dir=str(merged.get("output_dir", "out")),
    )


def build_schedule(section: dict) -> Schedule:
    kind = _read_object("schedule", section).get("kind")
    if kind not in (VP_CONST_BETA, VP_GENERIC, LINEAR_INTERP):
        raise UsageError(f"schedule.kind must be set to a known kind, got {kind!r}")
    # alpha_floor and fd_step, when unset, take the Schedule defaults
    kwargs = {
        k: _read_number(f"schedule.{k}", section[k], float)
        for k in ("alpha_floor", "fd_step")
        if k in section
    }
    if kind == VP_CONST_BETA:
        if "beta0" not in section:
            raise UsageError("vp_const_beta needs schedule.beta0")
        kwargs["beta0"] = _read_number("schedule.beta0", section["beta0"], float)
    if kind == VP_GENERIC:
        if "beta_csv" in section and section["beta_csv"]:
            times, values = load_beta_table(section["beta_csv"])
        elif "beta_table" in section:
            table = _read_object("schedule.beta_table", section["beta_table"])
            times, values = (
                np.asarray(_read_list(f"schedule.beta_table.{k}", table.get(k), float))
                for k in ("times", "values")
            )
        elif "beta_ramp" in section:
            ramp = {**_RAMP, **_read_object("schedule.beta_ramp", section["beta_ramp"])}
            number = lambda k, *rule: _read_number(f"schedule.beta_ramp.{k}", ramp[k], *rule)
            times = np.linspace(0.0, 1.0, number("points", int, 2))
            values = number("base", float) + number("scale", float) * times ** number(
                "power", float
            )
        else:
            raise UsageError(
                "vp_generic needs schedule.beta_csv, beta_table or beta_ramp"
            )
        kwargs["beta_times"] = times
        kwargs["beta_values"] = values
    try:
        return Schedule(kind=kind, **kwargs)
    except DomainError as err:
        raise UsageError(f"invalid schedule section: {err}") from err


def _read_numbers(key, value):
    """``value``, a number or a list of them, nested to any depth, with each
    number read by ``_read_number``: a boolean or a string is not one."""
    if isinstance(value, list):
        return [_read_numbers(key, v) for v in value]
    return _read_number(key, value, float)


def _condition(key: str, section: dict) -> GaussianMixtureCondition:
    try:
        return GaussianMixtureCondition(
            **{k: _read_numbers(f"{key}.{k}", section[k]) for k in ("weights", "means", "scales")}
        )
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"invalid mixture section: {err}") from err


def build_backbone(section: dict, schedule: Schedule) -> BackboneModel:
    output_kind = _read_object("backbone", section).get("output_kind", "velocity")
    # explicit inline mixtures win over a (possibly default-merged) preset name
    if "source" in section and "target" in section:
        source = _condition("backbone.source", section["source"])
        target = _condition("backbone.target", section["target"])
    elif "preset" in section and section["preset"]:
        try:
            source, target = load_preset(section["preset"])
        except DomainError as err:
            raise UsageError(str(err)) from err
    else:
        raise UsageError("backbone needs either a preset name or inline mixtures")
    try:
        return BackboneModel(
            schedule=schedule, source=source, target=target, output_kind=output_kind
        )
    except DomainError as err:
        raise UsageError(f"invalid backbone section: {err}") from err


def build_chord_params(section: dict) -> ChordParams:
    kwargs = dict(_read_object("chord", section))
    if "lambda" in kwargs:  # accepted alias for the step scale
        kwargs["step_scale"] = kwargs.pop("lambda")
    try:
        return ChordParams(**kwargs)
    except (TypeError, DomainError) as err:
        raise UsageError(f"invalid chord section: {err}") from err
