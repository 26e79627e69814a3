"""Self-test of the benchmark itself.

Checks that the correctness gate trips on a corrupted reference value, a
non-zero exit code and a false all-pass flag, and that every wrapper listed
in `run.LAYER_FUNCTIONS` fires in the traced pass over the four workloads.
Run from the root of an asymlab checkout (takes about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import gate
import run as bench
from tracing import Tracer
from workloads import SEED_FREE


def check_gate(env) -> list[str]:
    problems = []
    workload = "sweeps"
    run = bench.Run(workload, gate.DEFAULT_SEED, env)
    op = run.ops[0]
    outdir = run.work / op.name
    code, *_ = run.run_op(op)
    reference = gate.load_reference(workload, gate.DEFAULT_SEED, workload in SEED_FREE)
    if gate.check(op, code, outdir, reference) is not None:
        problems.append(f"{op.name} fails the gate with its own reference")

    corrupted = copy.deepcopy(reference)
    cells = corrupted[op.name]["delta_s"]
    cells[0] = repr(float(cells[0]) * (1 + 1e-6))
    if gate.check(op, code, outdir, corrupted) is None:
        problems.append("a corrupted reference value does not fail the op")
    if gate.check(op, 4, outdir, reference) is None:
        problems.append("a non-zero exit code does not fail the op")

    flagged = run.work / "flag-false"
    shutil.copytree(outdir, flagged)
    report = json.loads((flagged / "report.json").read_text())
    report[op.flag] = False
    (flagged / "report.json").write_text(json.dumps(report))
    if gate.check(op, 0, flagged, reference) is None:
        problems.append("a false all-pass flag does not fail the op")
    return problems


def check_wrappers(env) -> list[str]:
    problems = []
    calls = {name: 0 for name in bench.LAYER_FUNCTIONS}
    for workload in bench.WORKLOADS:
        run = bench.Run(workload, gate.DEFAULT_SEED, env)
        reference = gate.load_reference(workload, gate.DEFAULT_SEED, workload in SEED_FREE)
        with Tracer(bench.LAYER_FUNCTIONS) as tracer:
            run.in_process_pass(reference)
        problems += [f"{workload}: {failure}" for failure in run.failures]
        for name, layer in tracer.stats.items():
            calls[name] += layer.calls
        if workload == "scan":
            if tracer.stats["circuits.heisenberg_conjugate"].calls != 0:
                problems.append("scan conjugated an operator above the cap")
            if tracer.stats["clustering.operator_spreading_range"].errors != 2:
                problems.append("scan did not refuse both spreading checks")
        print(f"traced {workload}: " + ", ".join(
            f"{name} {layer.calls}" for name, layer in tracer.stats.items() if layer.calls))
    problems += [f"wrapper {name} never fired" for name, n in calls.items() if n == 0]
    return problems


def main() -> int:
    try:
        bench.prepare()
    except RuntimeError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    problems = check_gate(env) + check_wrappers(env)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
