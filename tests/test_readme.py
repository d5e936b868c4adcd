"""The README's parameter and configuration-key tables against the code.

Each table is read row by row and compared, in order and both ways, with
what ``config`` declares: a row for an undeclared name fails as surely as a
declared name without its row, and so does a changed kind, default or domain.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np

from chordfield.chord import ChordParams
from chordfield.config import CONFIG, PARAMS

README = Path(__file__).resolve().parents[1] / "README.md"


def table(header: str) -> list[list[str]]:
    """The cells of the README table under ``header``, without backticks."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def kind_name(kind) -> str:
    if isinstance(kind, tuple):
        kind, low = kind
        return f"{kind_name(kind)} in [{low}, inf]"
    if isinstance(kind, list):
        return f"{kind_name(kind[0])} list"
    return {np.ndarray: "nested numbers", dict: "object"}.get(kind, kind.__name__)


def declared_keys(kinds: dict, prefix: str = ""):
    """Every leaf key of ``kinds`` as ``(dotted key, kind name)``."""
    for name, spec in kinds.items():
        if isinstance(spec, dict):
            yield from declared_keys(spec, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", kind_name(spec)


class TestParameterTable:
    def test_rows_are_the_declared_params(self):
        rows = [row[:5] for row in table("| experiment | parameter | kind | default | domain | also |")]
        declared = [
            [
                p.experiment,
                p.name,
                kind_name(p.kind),
                "unset" if p.default is None else str(p.default),
                f"[{p.low}, {p.high}]",
            ]
            for p in PARAMS
        ]
        assert rows == declared


class TestConfigurationKeyTable:
    def test_rows_are_the_declared_keys(self):
        rows = [tuple(row[:2]) for row in table("| key | kind | also |")]
        assert rows == list(declared_keys(CONFIG))

    def test_chord_defaults_are_chord_params_defaults(self):
        # "default v" in the last column of a chord key is ChordParams' default
        defaults = {f.name: f.default for f in dataclasses.fields(ChordParams)}
        found = 0
        for key, _, also in table("| key | kind | also |"):
            section, _, name = key.partition(".")
            said = re.search(r"default (\S+?)[;,]?(?:\s|$)", also)
            if section == "chord" and said:
                value = {"true": True, "false": False}.get(said[1], said[1])
                assert str(value) == str(defaults[name]), key
                found += 1
        assert found == len(defaults)
