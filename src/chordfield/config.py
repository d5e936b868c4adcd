"""Experiment configuration: JSON file, embedded defaults, flag overrides.

A configuration is one JSON object with a section per module plus experiment
parameters. File values override the embedded defaults, command-line flags
override the file, and ``--override key=value`` (dotted paths, JSON-parsed
values) wins over everything. Every key is declared once, in ``CONFIG``, and
read by ``_read``, where an undeclared key is a usage error; ``params`` holds
what ``PARAMS`` declares per experiment, and ``read_params`` ignores the rest.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, get_type_hints

import numpy as np

from .backbone import BackboneModel, GaussianMixtureCondition
from .chord import ChordParams
from .diagnostics import BOUND_SLACK
from .errors import DomainError, _allocated
from .preset_lib import load_preset
from .schedules import (
    LINEAR_INTERP,
    VP_CONST_BETA,
    VP_GENERIC,
    Schedule,
    load_beta_table,
)


class UsageError(DomainError):
    """Bad configuration or flags; maps to exit code 2."""


# the ramped noise-rate table (it fills in a partial schedule.beta_ramp), and
# the sections that the step-sweep, error-order and diagnostics studies share:
# load_config deep-copies a section, so sharing one is safe
_RAMP = {"base": 0.05, "scale": 4.0, "power": 4.0, "points": 101}
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

EXPERIMENTS = tuple(DEFAULTS)

# every key of the schedule and backbone sections, with its kind (see _read);
# an inline mixture's keys are GaussianMixtureCondition's fields
_MIXTURE = get_type_hints(GaussianMixtureCondition)
SECTIONS = {
    "schedule": {
        "kind": str,
        "beta0": float,
        "alpha_floor": float,
        "beta_csv": str,
        "beta_table": {"times": [float], "values": [float]},
        "beta_ramp": {"base": float, "scale": float, "power": float, "points": (int, 2)},
    },
    "backbone": {"preset": str, "output_kind": str, "source": _MIXTURE, "target": _MIXTURE},
}
# the chord section is ChordParams' fields, plus lambda, an alias of step_scale
_CHORD = {**get_type_hints(ChordParams), "lambda": float}
CONFIG = {**SECTIONS, "chord": _CHORD, "params": dict, "seed": int, "output_dir": str}

_NAMES = {bool: "a boolean", str: "a string", dict: "a JSON object"}


def _read(key: str, value, kind, low=-math.inf, high=math.inf):
    """``value`` read as ``kind``; ``UsageError`` naming ``key`` if it is not one.

    A kind is a dict of declared keys (each a kind or a ``(kind, low)`` pair),
    where an undeclared key is an error; ``[kind]``, a non-empty list of one;
    ``np.ndarray``, a number or lists of them nested to any depth; ``bool``,
    ``str`` or ``dict``; or ``int`` or ``float``, a finite number in
    ``[low, high]``, an int also in the int64 range. An integral float reads
    as an int; a boolean, or a number past the float range, is not a number.
    """
    if isinstance(kind, dict):
        read = {}
        for k, v in _read(key, value, dict).items():
            name = f"{key}.{k}" if key else k
            if k not in kind:
                raise UsageError(f"unknown key {name}; choose from {', '.join(kind)}")
            spec = kind[k] if isinstance(kind[k], tuple) else (kind[k],)
            read[k] = _read(name, v, *spec)
        return read
    if isinstance(kind, list):
        if isinstance(value, list) and value:
            return [_read(key, v, kind[0], low, high) for v in value]
        raise UsageError(f"{key} must be a non-empty list, got {value!r}")
    if kind is np.ndarray:
        if isinstance(value, list):
            return [_read(key, v, kind) for v in value]
        return _read(key, value, float)
    if kind in _NAMES:
        if isinstance(value, kind):
            return value
        raise UsageError(f"{key} must be {_NAMES[kind]}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        need = "a number"
    elif not abs(value) <= sys.float_info.max:
        need = "finite"
    elif kind is int and int(value) != value:
        need = "an integer"
    elif kind is int and not -(2**63) <= value < 2**63:
        need = "within the int64 range"
    elif not low <= value <= high:
        need = f"in [{low}, {high}]"
    else:
        return kind(value)
    raise UsageError(f"{key} must be {need}, got {value!r}")


class Param(NamedTuple):
    """A declared experiment parameter: an int or finite float ``kind``, or a
    non-empty list of distinct ones (``[int]``, ``[float]``), within
    ``[low, high]``. A ``None`` default leaves the parameter unset."""

    experiment: str
    name: str
    kind: type | list
    default: object
    low: float = -math.inf
    high: float = math.inf


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
    params = _read("params", cfg.params, dict)
    resolved = {}
    for p in PARAMS:
        if p.experiment == cfg.experiment:
            value = params.get(p.name, p.default)
            if value is not None or p.default is not None:
                value = _read(f"params.{p.name}", value, p.kind, p.low, p.high)
                # a repeated entry would write its rows, and count its cells, twice
                if isinstance(value, list) and len(set(value)) < len(value):
                    raise UsageError(f"params.{p.name} repeats an entry: {value!r}")
            resolved[p.name] = value
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
    # every section is read, so a typo exits 2 in one the experiment never builds
    return ExperimentConfig(experiment, **_read("", merged, CONFIG))


def build_schedule(section: dict) -> Schedule:
    section = _read("schedule", section, SECTIONS["schedule"])
    # a key left unset takes the Schedule default; Schedule checks the kind
    kwargs = {k: section[k] for k in ("beta0", "alpha_floor") if k in section}
    if section.get("kind") == VP_GENERIC:
        if section.get("beta_csv"):
            try:
                times, values = load_beta_table(section["beta_csv"])
            except (OSError, ValueError) as err:  # a missing file, or a bad cell
                raise UsageError(f"schedule.beta_csv cannot be read: {err}") from err
        elif "beta_table" in section:
            times, values = (section["beta_table"].get(k) for k in ("times", "values"))
        elif "beta_ramp" in section:
            ramp = {**_RAMP, **section["beta_ramp"]}
            points = ramp["points"]
            times = _allocated(f"{points} ramp points", np.linspace, 0.0, 1.0, points)
            values = ramp["base"] + ramp["scale"] * times ** ramp["power"]
        else:
            raise UsageError("vp_generic needs schedule.beta_csv, beta_table or beta_ramp")
        kwargs["beta_times"], kwargs["beta_values"] = times, values
    try:
        return Schedule(kind=section.get("kind"), **kwargs)
    except DomainError as err:
        raise UsageError(f"invalid schedule section: {err}") from err


def build_backbone(section: dict, schedule: Schedule) -> BackboneModel:
    section = _read("backbone", section, SECTIONS["backbone"])
    # explicit inline mixtures win over a (possibly default-merged) preset name
    if ("source" in section) != ("target" in section):
        raise UsageError("backbone.source and backbone.target must be set together")
    if "source" in section:
        try:
            source = GaussianMixtureCondition(**section["source"])
            target = GaussianMixtureCondition(**section["target"])
        except (TypeError, ValueError) as err:  # a missing entry, or ragged means
            raise UsageError(f"invalid mixture section: {err}") from err
    elif section.get("preset"):
        try:
            source, target = load_preset(section["preset"])
        except DomainError as err:
            raise UsageError(str(err)) from err
    else:
        raise UsageError("backbone needs either a preset name or inline mixtures")
    output_kind = section.get("output_kind", "velocity")
    try:
        return BackboneModel(
            schedule=schedule, source=source, target=target, output_kind=output_kind
        )
    except DomainError as err:
        raise UsageError(f"invalid backbone section: {err}") from err


def build_chord_params(section: dict) -> ChordParams:
    kwargs = _read("chord", section, _CHORD)
    if "lambda" in kwargs:  # accepted alias for the step scale
        if "step_scale" in kwargs:
            raise UsageError("set chord.lambda or chord.step_scale, not both")
        kwargs["step_scale"] = kwargs.pop("lambda")
    try:
        return ChordParams(**kwargs)
    except DomainError as err:
        raise UsageError(f"invalid chord section: {err}") from err
