"""Correctness gate: an operation that fails it posts no timing.

An operation passes when it exits 0, its report.json holds the operation's
all-pass flag set to true, and, where a committed reference applies, every
column of its results.csv except `config_hash` matches the reference:
numbers within the package's bound tolerance, everything else exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

# The package certifies bounds at 1e-9 and clustering at 1e-10; a value
# recomputed with another summation order must land well inside both.
REL_TOL = 1e-9
ABS_TOL = 1e-10

_SKIP_COLUMNS = {"config_hash"}


def read_results(outdir: Path) -> dict:
    """The comparable columns of ``results.csv`` as {column: [cell, ...]}."""
    with open(outdir / "results.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {
        col: [row[k] for row in body]
        for k, col in enumerate(header)
        if col not in _SKIP_COLUMNS
    }


def _cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def compare(got: dict, want: dict) -> str | None:
    """First difference between two ``read_results`` tables, or None."""
    if list(got) != list(want):
        return f"columns {list(got)} != reference {list(want)}"
    for col, cells in want.items():
        if len(got[col]) != len(cells):
            return f"{len(got[col])} rows != reference {len(cells)}"
        for row, (a, b) in enumerate(zip(got[col], cells)):
            if not _cells_match(a, b):
                return f"{col}[{row}] = {a} != reference {b}"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int, seed_free: bool):
    """Reference tables {op: table} that apply at ``seed``, or None."""
    if not seed_free and seed != DEFAULT_SEED:
        return None
    data = json.loads(reference_path(workload).read_text())
    if data["seed"] != DEFAULT_SEED:
        raise RuntimeError(f"reference for {workload} was recorded at seed {data['seed']}")
    return data["ops"]


def check(op, returncode: int, outdir: Path, reference: dict | None) -> str | None:
    """Why ``op`` failed the gate, or None when it passed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads((outdir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}"
    if report.get(op.flag) is not True:
        return f"report.json {op.flag} is {report.get(op.flag)!r}"
    if reference is None:
        return None
    if op.name not in reference:
        return "no reference recorded for this operation"
    try:
        got = read_results(outdir)
    except (OSError, IndexError) as exc:
        return f"results.csv unreadable: {exc}"
    return compare(got, reference[op.name])
