"""Benchmark of the asymlab CLI: seeded workloads, timed end to end and traced per layer.

Run from the root of an asymlab checkout (the directory holding `src/asymlab`
and `BENCHMARK.json`):

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

`--trace 0` runs the workload's CLI operations (`python -m asymlab ...`) as
fresh subprocesses, one at a time (a closed loop with one client), for about
`--seconds` seconds, and reports the end-to-end metrics of BENCHMARK.json.
`--trace 1` instead runs the same operations in this process through
`asymlab.cli.main(argv)`, after a warm-up once untraced and once with timing
wrappers around public functions of each module, and reports the per-layer
metrics.  Every
operation passes the correctness gate in `gate.py` or is counted as failed.

Each metric is printed as a line with its median, quartiles and sample count;
the last line of standard output is the JSON result
`{"correct", "attempted", "failed", "metrics"}`.  `--write-reference` records
the reference outputs of the workload at the default seed instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from tracing import Tracer
from workloads import SEED_FREE, SUITE_SAMPLES, make_ops

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
# `scan` is runnable here and covered by selftest.py and report.py, but is not
# a gated workload in BENCHMARK.json: its memory-bound statevector sweeps drift
# by up to 30 % between consecutive runs on a shared 2-core VM, more than any
# bound the benchmark may set.
WORKLOADS = ("suite", "sweeps", "su2", "scan")

SETUP_SAMPLES = 7  # cold `import asymlab` per run, reported as their median
IMPORT_SAMPLES = 5  # `-X importtime` samples per traced run
RUN_DEADLINE_S = 170  # the whole run, so that it exits within 180 s
IMPORT_TIMEOUT_S = 60

# Public functions wrapped in the traced pass, as <module>.<function>.
LAYER_FUNCTIONS = (
    "circuits.heisenberg_conjugate",
    "circuits.apply_circuit",
    "clustering.operator_spreading_range",
    "clustering.verify_cluster_property",
    "states.reduced_density_matrix",
    "states.apply_site_matrix",
    "states.von_neumann_entropy",
    "su2.build_schur_basis",
    "su2.su2_asymmetry",
    "su2.spin_moments",
    "su2.su2_twirl",
    "su2.su2_twirl_haar",
    "u1.u1_asymmetry",
    "u1.report_from_distribution",
    "closedforms.poisson_binomial",
    "closedforms.dicke_half_distribution",
    "closedforms.dicke_x_distribution",
    "closedforms.kink_distribution",
    "cli.main",
    "config.validate_config",
)
IMPORT_MODULES = ("numpy", "scipy.integrate", "scipy.special", "jsonschema", "asymlab")


class RunTimeout(BaseException):
    """Raised by the run deadline; a BaseException so no handler in the package swallows it."""


def _on_deadline(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_DEADLINE_S} s")


def stats(values) -> dict:
    """Median, quartiles and count of a sample."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.work = WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.ops = make_ops(workload, seed, self.work)
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.notes: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S - 5

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(float(value))

    def record(self, name: str, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}")

    # ---------------- subprocess operations ----------------

    def run_op(self, op) -> tuple[int, float, float, float]:
        """Run one op as a child; (exit code, wall s, cpu s, peak rss MB) of that child alone."""
        outdir = self.work / op.name
        shutil.rmtree(outdir, ignore_errors=True)
        with open(self.work / f"{op.name}.stderr", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "asymlab", *op.argv],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
                # running maximum over every child reaped so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def cold_imports(self, samples: int, flags=()) -> list[tuple[float, str]]:
        """Wall time and stderr of fresh `python -c "import asymlab"` runs."""
        out = []
        for _ in range(samples):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *flags, "-c", "import asymlab"],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=IMPORT_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"import asymlab failed: {proc.stderr.strip()}")
            out.append((wall, proc.stderr))
        return out

    def timed(self, seconds: float, reference):
        for wall, _ in self.cold_imports(SETUP_SAMPLES):
            self.add("setup_s", wall)
        start = time.monotonic()
        per_op: dict[str, list[tuple[float, float, float]]] = {op.name: [] for op in self.ops}
        while True:
            pass_wall = pass_cpu = 0.0
            for op in self.ops:
                code, wall, cpu, rss = self.run_op(op)
                self.record(op.name, gate.check(op, code, self.work / op.name, reference))
                per_op[op.name].append((wall, cpu, rss))
                pass_wall += wall
                pass_cpu += cpu
            self.add("run_s", pass_wall)
            self.add("cpu_s", pass_cpu)
            elapsed = time.monotonic() - start
            passes = len(self.samples["run_s"])
            # Stop where the run ends closest to the requested length.
            if elapsed + 0.5 * elapsed / passes >= seconds:
                break
        # Peak RSS is printed per op but is no end-to-end metric: identical runs
        # of `su2 --n 12` peak anywhere between 480 and 660 MB.
        for name, rows in per_op.items():
            wall, cpu, rss = (statistics.median(col) for col in zip(*rows))
            self.notes.append(f"op {name}: wall {wall:.4f} s, cpu {cpu:.4f} s, "
                              f"peak rss {rss:.1f} MB (median of {len(rows)})")

    # ---------------- in-process operations ----------------

    def in_process_pass(self, reference) -> float:
        """Run every op through `asymlab.cli.main`; returns the summed wall time."""
        from asymlab import cli

        total = 0.0
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            for op in self.ops:
                shutil.rmtree(op.name, ignore_errors=True)
                start = time.perf_counter()
                try:
                    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                        code = cli.main(list(op.argv))
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # an uncaught error fails this op only
                    code = -1
                    self.notes.append(f"op {op.name} raised {exc!r}")
                total += time.perf_counter() - start
                self.record(op.name, gate.check(op, code, Path(op.name), reference))
        finally:
            os.chdir(cwd)
        return total

    def time_checks(self, check_names):
        """Time each bound check alone, and the oracle suite, through the public API."""
        from asymlab import suite

        for name in check_names:
            start = time.perf_counter()
            try:
                (result,) = suite.bound_suite(self.seed, SUITE_SAMPLES, names=[name])
            except Exception as exc:  # e.g. the check was renamed: fail it, keep going
                result = None
                self.record(f"check {name}", repr(exc))
            wall = time.perf_counter() - start
            self.add(f"suite.check.{name}.wall_s", wall)
            if result is not None:
                self.record(f"check {name}", None if result.passed else "check failed")
                self.notes.append(f"check {name}: {wall:.4f} s, margin {result.margin:+.6e}")
        start = time.perf_counter()
        results = suite.oracle_suite(self.seed)
        self.add("suite.oracle.wall_s", time.perf_counter() - start)
        self.record("oracle suite", None if suite.all_passed(results) else "oracle failed")

    def traced(self, reference, check_names):
        for _, err in self.cold_imports(IMPORT_SAMPLES, ("-X", "importtime")):
            cumulative = {}
            for line in err.splitlines():
                if not line.startswith("import time:"):
                    continue
                _, cum, name = (part.strip() for part in line.split("|"))
                if cum.isdigit():  # skips the header line
                    cumulative.setdefault(name, int(cum) * 1e-6)
            for module in IMPORT_MODULES:
                self.add(f"import.{module}_s", cumulative.get(module, 0.0))

        # A first in-process pass pays one-off costs (lazy imports, first page
        # faults) that would otherwise be charged to the untraced pass.  On the
        # suite workload the per-check timings run the same code and serve.
        if self.workload == "suite":
            self.time_checks(check_names)
        else:
            for name in check_names:
                self.add(f"suite.check.{name}.wall_s", 0.0)
            self.add("suite.oracle.wall_s", 0.0)
            self.in_process_pass(reference)

        untraced = self.in_process_pass(reference)
        with Tracer(LAYER_FUNCTIONS) as tracer:
            traced = self.in_process_pass(reference)
        self.add("trace.untraced_wall_s", untraced)
        self.add("trace.wall_s", traced)
        self.add("trace.overhead_s", traced - untraced)
        for name, layer in tracer.stats.items():
            self.add(f"{name}.self_s", layer.self_s)
            self.add(f"{name}.calls", layer.calls)
            self.add(f"{name}.errors", layer.errors)
            self.add(f"{name}.out_bytes", layer.out_bytes)
        self.add("computed.largest_dense_bytes",
                 max(layer.out_bytes for layer in tracer.stats.values()))
        ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
        for name, layer in ranked[:6]:
            self.notes.append(f"self time {name}: {layer.self_s:.4f} s "
                              f"({100 * layer.self_s / traced:.1f} % of traced wall), "
                              f"{layer.calls} calls, {layer.errors} errors")

    def write_reference(self, path: Path):
        ops = {}
        for op in self.ops:
            code, *_ = self.run_op(op)
            reason = gate.check(op, code, self.work / op.name, None)
            if reason is not None:
                raise RuntimeError(f"{op.name}: {reason}")
            ops[op.name] = gate.read_results(self.work / op.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": self.seed, "ops": ops}, indent=1) + "\n")


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def prepare() -> int:
    """Point this process and its children at the checkout's `src`; returns nproc."""
    if not (SRC / "asymlab" / "__init__.py").is_file():
        raise RuntimeError(f"no src/asymlab under {ROOT}; run from the root of an asymlab checkout")
    # BLAS uses at most one thread per core available to this process.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    old_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old_path if old_path else "")
    sys.path.insert(0, str(SRC))
    import asymlab

    if Path(asymlab.__file__).resolve().parent != (SRC / "asymlab").resolve():
        raise RuntimeError(f"imported asymlab from {asymlab.__file__}, not from {SRC}")
    return nproc


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the workload's reference outputs at the default seed")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.write_reference and args.seed != gate.DEFAULT_SEED:
        return fail(f"references are recorded at seed {gate.DEFAULT_SEED}")

    try:
        nproc = prepare()
    except RuntimeError as exc:
        return fail(str(exc))

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        run = Run(args.workload, args.seed, dict(os.environ))
        if args.write_reference:
            path = gate.reference_path(args.workload)
            run.write_reference(path)
            print(f"wrote {path}")
            return 0
        reference = gate.load_reference(args.workload, args.seed, args.workload in SEED_FREE)
        kind = "per_layer" if args.trace else "end_to_end"
        if args.trace:
            checks = [m["name"].split(".")[2] for m in spec["per_layer"]
                      if m["name"].startswith("suite.check.")]
            run.traced(reference, checks)
        else:
            run.timed(args.seconds, reference)
    except (RunTimeout, RuntimeError) as exc:
        return fail(str(exc))
    finally:
        signal.alarm(0)

    print(f"machine: {json.dumps(machine_info(nproc), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"reference {'checked' if reference is not None else 'not recorded for this seed'}")
    metrics = {}
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        s = stats(run.samples[name])
        metrics[name] = {"value": s["median"], "unit": unit}
        print(f"metric {name} [{unit}]: median {s['median']:.6g}, "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}")
    for note in run.notes:
        print(note)
    failed = len(run.failures)
    print(f"fail_frac {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for failure in run.failures:
        print(f"failed {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
