"""Frozen mixture presets for reproducible experiments.

Parameters are committed as JSON data so that experiment outputs and the
verification suite stay stable; edit the data files, not call sites, to
change a preset.
"""

from __future__ import annotations

import json
from importlib import resources

from .backbone import GaussianMixtureCondition
from .errors import DomainError

PRESET_NAMES = ("two_blob_1d", "two_blob_2d", "ring_3blob_2d", "stiff_2d")


def load_preset(name: str) -> tuple[GaussianMixtureCondition, GaussianMixtureCondition]:
    """Return the (source, target) mixtures of a named preset."""
    if name not in PRESET_NAMES:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    path = resources.files("chordfield").joinpath("presets").joinpath(f"{name}.json")
    data = json.loads(path.read_text(encoding="utf-8"))
    src, tar = (GaussianMixtureCondition(**data[side]) for side in ("source", "target"))
    if src.dim != data["dim"] or tar.dim != data["dim"]:
        raise DomainError(f"preset {name!r} data is dimensionally inconsistent")
    return src, tar
