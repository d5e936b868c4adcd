"""Reference CSVs from the commit that introduced the benchmark.

``golden/<workload>.json.gz`` maps size -> seed -> CSV name -> CSV text. A
repetition's CSVs must match the reference of its seed cell by cell: text
cells exactly, numbers within ``RTOL`` relative (``ATOL`` absolute near 0).
The tolerance admits the last-digit changes a reordered summation makes and
nothing a changed algorithm would.

Regenerate (only when outputs are meant to change) with

    python3 perfbench/golden.py [--seeds 32]
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import math
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS, check_claims

HERE = os.path.dirname(os.path.abspath(__file__))
RTOL = 1e-9
ATOL = 1e-12


def path_for(workload: str) -> str:
    return os.path.join(HERE, "golden", f"{workload}.json.gz")


def load(workload: str) -> dict:
    with gzip.open(path_for(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def read_csvs(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), encoding="utf-8", newline="") as fh:
                out[name] = fh.read()
    return out


def _cells_match(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def compare(reference: dict, directory: str) -> list[str]:
    """Differences between a directory's CSVs and a reference; empty if none."""
    actual = read_csvs(directory)
    if sorted(actual) != sorted(reference):
        return [f"CSV files {sorted(actual)} differ from the reference {sorted(reference)}"]
    problems = []
    for name, text in reference.items():
        want = list(csv.reader(io.StringIO(text)))
        got = list(csv.reader(io.StringIO(actual[name])))
        if len(want) != len(got):
            problems.append(f"{name}: {len(got)} rows, reference has {len(want)}")
            continue
        for i, (row_w, row_g) in enumerate(zip(want, got)):
            if len(row_w) != len(row_g) or not all(map(_cells_match, row_w, row_g)):
                problems.append(f"{name} row {i}: {row_g} vs reference {row_w}")
                break
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32, help="seeds 0..N-1 at full size")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args()
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_runs", "golden")
    failed = False
    for name in args.workload or list(WORKLOADS):
        data = {}
        for size, seeds in (("full", range(args.seeds)), ("tiny", range(1))):
            for seed in seeds:
                out = os.path.join(scratch, f"{name}-{size}-{seed}")
                shutil.rmtree(out, ignore_errors=True)
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                     "--seed", str(seed), "--size", size, "--out", out],
                    check=True,
                )
                with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
                    (rep,) = json.load(fh)["reps"]
                rep0 = os.path.join(out, "rep0")
                problems = check_claims(name, rep0) if rep["exit"] == 0 else [str(rep)]
                print(name, size, seed, "ok" if not problems else problems, flush=True)
                failed |= bool(problems)
                data.setdefault(size, {})[str(seed)] = read_csvs(rep0)
                shutil.rmtree(out)
        os.makedirs(os.path.dirname(path_for(name)), exist_ok=True)
        with gzip.GzipFile(path_for(name), "wb", mtime=0) as raw:
            raw.write(json.dumps(data, sort_keys=True).encode("utf-8"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
