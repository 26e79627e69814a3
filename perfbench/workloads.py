"""The benchmark's workloads: each is a fixed list of CLI operations.

Every input is derived from the workload seed: circuit JSON files
(`random_brickwork` -> `save_circuit`), config files, `random:K` state
specs and `--seed K`.  The program sees only the generated files and
arguments.  Paths are relative to the workload's work directory, which is
the current directory of every operation, so the config hashes in the
artifacts do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Draw scale of the bound suite.  Below 0.5 the two spreading checks already
# run one circuit per (geometry, depth), so the dense Heisenberg conjugation
# that dominates the full-scale suite still dominates here.
SUITE_SAMPLES = 0.1


@dataclass(frozen=True)
class Op:
    """One CLI invocation, `python -m asymlab <argv>`, writing into directory `name`."""

    name: str
    argv: tuple[str, ...]
    flag: str  # report.json key that must be true


# Workloads whose operations' numeric output does not depend on the seed:
# the committed reference applies at every seed, not only the default one.
SEED_FREE = frozenset({"sweeps"})


def _suite_ops(seed: int, work: Path) -> list[Op]:
    return [
        Op("bound-suite",
           ("verify", "bound-suite", "--samples", str(SUITE_SAMPLES),
            "--seed", str(seed), "--output", "bound-suite"),
           "all_passed"),
        Op("oracle-suite",
           ("verify", "oracle-suite", "--seed", str(seed), "--output", "oracle-suite"),
           "all_passed"),
    ]


def _sweeps_ops(seed: int, work: Path) -> list[Op]:
    sweeps = (
        ("dicke-half", ("dicke", "--n-min", "100", "--n-max", "2000000", "--points", "6")),
        ("dicke-quarter", ("dicke", "--ratio", "0.25", "--n-min", "16",
                           "--n-max", "2048", "--points", "8")),
        ("kink", ("kink", "--n-min", "10", "--n-max", "10000000", "--points", "8")),
        ("product", ("product", "--x", "0.3", "--n-min", "10", "--n-max", "20000",
                     "--points", "6")),
    )
    return [
        Op(name, argv + ("--seed", str(seed), "--output", name), "all_bounds_hold")
        for name, argv in sweeps
    ]


def _su2_ops(seed: int, work: Path) -> list[Op]:
    mixed = {
        "experiment": "su2-asymmetry",
        "geometry": {"dimension": 1, "linear_size": 10},
        "state_spec": {"kind": "random", "seed": seed, "rank": 4},
        "clustering_range": 2,
        "seed": seed,
        "output": "su2-mixed",
    }
    (work / "su2-mixed.json").write_text(json.dumps(mixed, indent=2) + "\n")
    return [
        Op("su2-pure",
           ("su2", "--state", f"random:{seed}", "--n", "12", "--clustering-range", "2",
            "--seed", str(seed), "--output", "su2-pure"),
           "all_bounds_hold"),
        Op("su2-mixed", ("run", "su2-mixed.json"), "all_bounds_hold"),
    ]


def _scan_ops(seed: int, work: Path) -> list[Op]:
    import numpy as np
    from asymlab.circuits import random_brickwork, save_circuit
    from asymlab.lattice import LatticeGeometry

    ops = []
    for salt, (name, dim, size) in enumerate((("ring20", 1, 20), ("torus4x4", 2, 4))):
        rng = np.random.default_rng([seed, salt])
        circuit = random_brickwork(LatticeGeometry(dim, size), 3, rng)
        save_circuit(circuit, work / f"{name}.json")
        ops.append(Op(
            name,
            ("clustering", "--circuit", f"{name}.json", "--input", "plus",
             "--dimension", str(dim), "--linear-size", str(size),
             "--seed", str(seed), "--output", name),
            "all_checks_hold",
        ))
    return ops


_MAKERS = {"suite": _suite_ops, "sweeps": _sweeps_ops, "su2": _su2_ops, "scan": _scan_ops}


def make_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's input files into ``work`` and return its operations."""
    return _MAKERS[workload](seed, work)
