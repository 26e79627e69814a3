"""Command-line entry point: `asymlab run/verify/dicke/kink/product/su2/clustering`.

Every command builds a config and runs it through ``run_experiment``.  Each
run writes three artifacts into the output directory (``verify`` only when
given ``--output``): results.csv (17-significant-digit values, one
config-hash column for provenance, byte-identical across reruns of the same
config), report.json (machine-readable summary including pass/fail of every
inequality, as each report decides it), and plot.gp (a gnuplot script
rendering the linearized asymmetry).

Exit codes: 0 success, 2 configuration error, 3 resource limit, 4 failed
invariant or bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# After numpy's import and after every threaded call, an idle OpenBLAS worker
# busy-waits 2**OPENBLAS_THREAD_TIMEOUT TSC cycles before it sleeps: 2**28 by
# default, about 0.13 s at 2 GHz, so an op kept a second core spinning through
# its pure-Python work.  2**24 (about 8 ms) still spans back-to-back BLAS calls.
# OpenBLAS reads the variable once, when numpy loads it, so this must come
# first; the thread count is untouched and a value already set wins.
OPENBLAS_IDLE_TIMEOUT = "24"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", OPENBLAS_IDLE_TIMEOUT)

import numpy as np  # noqa: E402  (after the OpenBLAS setting above)

# suite, su2 and clustering load inside the handlers that run them, so a
# closed-form sweep starts without them
from . import closedforms, lattice, u1
from .config import (
    NAMED_STATES,
    SUITE_EXPERIMENTS,
    SWEEP_EXPERIMENTS,
    SWEEP_POINTS_MAX,
    ExperimentConfig,
    build_state,
    circuit_depth_range,
    dicke_half_filling,
    load_config,
    read_json,
    state_spec_from_name,
    validate_config,
)
from .errors import AsymlabError, ConfigError, ResourceError, ValidationError
from .tolerances import CORRELATOR_TOL

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

LN2 = math.log(2.0)


# ---------------- value formatting and the artifact writer ----------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _in_base(data: dict, log_base: str) -> dict:
    """A report's ``to_dict()`` with its entropic fields, and only those, in ``log_base``.

    The entropic fields are ``delta_s``, ``shannon`` and every value of the
    ``bounds`` and ``margins`` sections; ``_report_row`` turns the sections into
    the ``bound_*`` and ``margin_*`` columns.
    """
    if log_base != "2":
        return data

    def bits(value):
        return None if value is None else value / LN2

    out = dict(data)
    for key, value in data.items():
        if key in ("bounds", "margins"):
            out[key] = {k: bits(v) for k, v in value.items()}
        elif key in ("delta_s", "shannon"):
            out[key] = bits(value)
    return out


def _report_row(report: dict, drop=()) -> dict:
    """results.csv row of a report's ``to_dict()``, keys not in ``drop``.

    The columns are ``n``, the report's scalars in its order, then every
    ``bound_*`` and every ``margin_*``.
    """
    row = {"n": report["n_sites"]}
    row.update((k, v) for k, v in report.items()
               if k not in ("n_sites", "bounds", "margins", *drop))
    for section, prefix in (("bounds", "bound_"), ("margins", "margin_")):
        row.update((prefix + k, v) for k, v in report[section].items() if k not in drop)
    return row


def _write_artifacts(cfg: ExperimentConfig, rows: list[dict], payload: dict, ok: bool,
                     plot: tuple) -> int:
    """Write results.csv, report.json and plot.gp into ``cfg.output``; the exit code of ``ok``.

    The CSV header is the row keys (the plotted columns when there are no rows)
    with ``config_hash`` last; the report gains ``config_hash``.  ``plot`` is
    (title, xlabel, ylabel, x, y, logx): results.csv column ``y`` against column
    ``x``, or against the row index when x is None.
    """
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    title, xlabel, ylabel, x, y, logx = plot
    header = [*(rows[0] if rows else (x, y)), "config_hash"]
    lines = [",".join(header)]
    lines += [",".join([*(_fmt(row[col]) for col in header[:-1]), cfg.hash]) for row in rows]
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    report = json.dumps({**payload, "config_hash": cfg.hash}, indent=2, sort_keys=True)
    (out / "report.json").write_text(report + "\n")
    xcol = 0 if x is None else header.index(x) + 1
    script = [
        f"# gnuplot script (config {cfg.hash})",
        'set datafile separator ","',
        f'set title "{title}"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        "set key left top",
        *(["set logscale xy"] if logx else []),
        f'plot "results.csv" every ::1 using {xcol}:{header.index(y) + 1} '
        f'with linespoints pointtype 7 title "{ylabel}"',
    ]
    (out / "plot.gp").write_text("\n".join(script) + "\n")
    return EXIT_OK if ok else EXIT_INVARIANT


def _check_output(path) -> None:
    """Refuse, before the run, an output directory that cannot take the artifacts.

    ``path`` need not exist, but its nearest existing ancestor (``path`` itself,
    if it exists) must be a directory, and no artifact's name in it may be one.
    """
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write output {path}: {existing} is not a directory")
    for name in ("results.csv", "report.json", "plot.gp"):
        if (out / name).is_dir():
            raise ConfigError(f"cannot write output {path}: {out / name} is a directory")


def _state_and_range(cfg: ExperimentConfig):
    """(state, circuit or None, clustering range) of a single-state config.

    The range is the config's ``clustering_range``; without one, a circuit state
    claims ``circuit_depth_range`` and any other state claims none.
    """
    state, circuit = build_state(cfg.state_spec, cfg.geometry.n_sites, cfg.seed)
    crange = cfg.clustering_range
    if crange is None and circuit is not None:
        crange = circuit_depth_range(circuit)
    return state, circuit, crange


# ---------------- sweep experiments ----------------

# a sweep's rows leave out the Shannon entropy and the clustering cap, which needs a geometry
_SWEEP_DROP = ("shannon", "clustering_range", "clustering")


def _fit_block(fit):
    if fit is None:
        return None
    block = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_residual": fit.max_residual,
        "n_points": fit.n_points,
        "units": "nats",
    }
    if fit.correction is not None:
        block["correction_coefficient"] = fit.correction
    return block


def _run_sweep(cfg: ExperimentConfig) -> int:
    ns = sorted(set(cfg.sweep))
    reports = [u1.u1_asymmetry(build_state(cfg.state_spec, n, cfg.seed)[0]) for n in ns]
    ok = all(rep.passed for rep in reports)

    points = [(rep.n_sites, rep.delta_s) for rep in reports]
    fit = closedforms.asymptotic_fit(points) if len(points) >= 3 else None
    fit_columns = {
        "fit_slope": fit.slope if fit else None,
        "fit_intercept": fit.intercept if fit else None,
        "fit_max_residual": fit.max_residual if fit else None,
    }
    rows = [
        _report_row(_in_base(rep.to_dict(), cfg.log_base), _SWEEP_DROP)
        | {"linearized": math.exp(rep.delta_s)} | fit_columns
        for rep in reports
    ]
    payload = {
        "experiment": cfg.experiment,
        "log_base": cfg.log_base,
        "fit": _fit_block(fit),
        "all_bounds_hold": ok,
        "rows": rows,
    }
    if cfg.experiment == "dicke-sweep":
        corrected = None
        if len(points) >= 4:
            corrected = closedforms.asymptotic_fit(points, correction_power=0.5)
        payload["fit_sqrt_corrected"] = _fit_block(corrected)
        reference = corrected if corrected is not None else fit
        payload["intercept_reference"] = {
            "fitted_intercept_nats": reference.intercept if reference else None,
            "quarter_pi": math.pi / 4.0,
            "log_quarter_pi": math.log(math.pi / 4.0),
            "note": (
                "reported for comparison only; no reference value is asserted"
            ),
        }
    return _write_artifacts(cfg, rows, payload, ok, (
        f"{cfg.experiment}: linearized asymmetry", "N", "exp(delta S)", "n", "linearized", True,
    ))


# ---------------- single-state experiments ----------------


def _run_u1(cfg: ExperimentConfig) -> int:
    state, _, crange = _state_and_range(cfg)
    rep = u1.u1_asymmetry(state, cfg.geometry, clustering_range=crange)
    report = _in_base(rep.to_dict(), cfg.log_base)
    row = _report_row(report, ("clustering_range",)) | {"linearized": math.exp(rep.delta_s)}
    ok = rep.passed
    payload = {
        "experiment": cfg.experiment,
        "log_base": cfg.log_base,
        "clustering_range": crange,
        "report": report,
        "all_bounds_hold": ok,
    }
    return _write_artifacts(cfg, [row], payload, ok, (
        "charge asymmetry", "N", "exp(delta S)", "n", "linearized", False,
    ))


def _run_su2(cfg: ExperimentConfig) -> int:
    from . import su2

    state, _, crange = _state_and_range(cfg)
    sectors = su2.spin_sectors(state)
    rep = su2.su2_asymmetry(sectors)
    casimir = (None if crange is None
               else su2.casimir_constraint_check(sectors, cfg.geometry, crange))

    report = _in_base(rep.to_dict(), cfg.log_base)
    row = _report_row(report)
    for key in ("bound", "lhs", "precursor_lhs"):
        row[f"casimir_{key}"] = getattr(casimir, key) if casimir else None
    row["linearized"] = math.exp(rep.delta_s)
    ok = rep.passed and (casimir is None or casimir.passed)
    payload = {
        "experiment": cfg.experiment,
        "log_base": cfg.log_base,
        "report": report,
        "casimir": None if casimir is None else casimir.to_dict(),
        "all_bounds_hold": ok,
    }
    return _write_artifacts(cfg, [row], payload, ok, (
        "rotation asymmetry", "N", "exp(delta S)", "n", "linearized", False,
    ))


def _run_clustering(cfg: ExperimentConfig) -> int:
    from . import clustering

    state, circuit, claimed = _state_and_range(cfg)
    circuit.assert_nearest_neighbor(cfg.geometry)
    report = clustering.verify_cluster_property(
        state, cfg.geometry, claimed, tol=cfg.tolerance
    )
    spread = None
    spread_note = None
    try:
        spread = clustering.operator_spreading_range(circuit, cfg.geometry)
    except ResourceError as exc:
        spread_note = str(exc)
    var = clustering.variance_bound_check(state, cfg.geometry, claimed)

    lightcone = lattice.lightcone_range(circuit.depth)
    ok = report.passed and var.passed and (spread is None or spread <= lightcone)
    rows = [{"distance": d, "max_abs_correlator": v} for d, v in report.distance_profile]
    payload = {
        "experiment": cfg.experiment,
        "claimed_range": claimed,
        "cluster_report": report.to_dict(),
        "operator_spread": spread,
        "operator_spread_note": spread_note,
        "lightcone_range": lightcone,
        "variance_check": var.to_dict(),
        "all_checks_hold": ok,
    }
    return _write_artifacts(cfg, rows, payload, ok, (
        "connected correlators by distance", "distance", "max |correlator|",
        "distance", "max_abs_correlator", False,
    ))


# ---------------- verification suites ----------------


def _run_suite(cfg: ExperimentConfig, write: bool) -> int:
    """Run the battery ``cfg.experiment`` and print one line per check; artifacts if ``write``."""
    from . import suite

    if cfg.experiment == "bound-suite":
        results = suite.bound_suite(cfg.seed, cfg.samples)
    else:
        results = suite.oracle_suite(cfg.seed)
    for res in results:
        print(res.line())
    ok = suite.all_passed(results)
    print(f"{'all checks passed' if ok else 'FAILED checks present'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    if not write:
        return EXIT_OK if ok else EXIT_INVARIANT
    rows = [{"check": r.name, "passed": r.passed, "margin": r.margin} for r in results]
    payload = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "all_passed": ok,
        # a check that raised has margin -inf, which JSON cannot hold; its
        # detail says why
        "checks": [
            {"name": r.name, "passed": r.passed,
             "margin": r.margin if math.isfinite(r.margin) else None,
             "detail": r.detail}
            for r in results
        ],
    }
    return _write_artifacts(cfg, rows, payload, ok, (
        "verification margins", "check index", "margin", None, "margin", False,
    ))


# ---------------- dispatch ----------------


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> int:
    """Run ``cfg`` and write its artifacts; a verification battery writes them only if ``write``."""
    if write or cfg.experiment not in SUITE_EXPERIMENTS:
        _check_output(cfg.output)
    if cfg.experiment in SUITE_EXPERIMENTS:
        return _run_suite(cfg, write)
    if cfg.experiment in SWEEP_EXPERIMENTS:
        return _run_sweep(cfg)
    if cfg.experiment == "u1-asymmetry":
        return _run_u1(cfg)
    if cfg.experiment == "su2-asymmetry":
        return _run_su2(cfg)
    if cfg.experiment == "circuit-clustering":
        return _run_clustering(cfg)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


# ---------------- argument parsing ----------------


def _log_spaced(n_min: int, n_max: int, points: int, even: bool) -> list[int]:
    if n_min < 1:
        raise ConfigError(f"--n-min {n_min} must be at least 1")
    if points < 1:
        raise ConfigError(f"--points {points} must be at least 1")
    if n_min > n_max:
        raise ConfigError(f"--n-min {n_min} exceeds --n-max {n_max}")
    if points > SWEEP_POINTS_MAX:
        raise ResourceError(f"--points {points} exceeds SWEEP_POINTS_MAX = {SWEEP_POINTS_MAX}")
    if n_max > 2**62:  # beyond every sweep cap, and past 2**63 the grid's int64 cast wraps
        raise ResourceError(f"--n-max {n_max} exceeds 2**62, the largest size of a sweep grid")
    # a set, not np.unique, which would load numpy.ma
    grid = np.round(np.logspace(math.log10(n_min), math.log10(n_max), points))
    raw = sorted({int(v) for v in grid})
    if even:
        # an odd value moves to its even neighbour in [n_min, n_max], the lower one when it fits
        raw = sorted({v if v % 2 == 0 else v - 1 if v > n_min else v + 1 for v in raw})
        if raw[-1] > n_max:
            raise ConfigError(f"[--n-min {n_min}, --n-max {n_max}] holds no even N "
                              "for a half-filled sweep")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymlab",
        description="exact workbench for symmetry asymmetry bounds on qubit lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")

    p_verify = sub.add_parser("verify", help="run a verification battery")
    p_verify.add_argument("battery", choices=["bound-suite", "oracle-suite"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=float, default=None,
                          help="bound-suite only: scale factor on every random draw "
                               "count (default 1)")
    p_verify.add_argument("--output", default=None,
                          help="also write results.csv/report.json/plot.gp here")

    for name, even in (("dicke", True), ("kink", False), ("product", False)):
        p = sub.add_parser(name, help=f"{name} closed-form sweep")
        p.add_argument("--n-min", type=int, default=100)
        p.add_argument("--n-max", type=int, default=100000 if even else 10000)
        p.add_argument("--points", type=int, default=4)
        p.add_argument("--output", default=f"{name}-sweep-out")
        p.add_argument("--log-base", choices=["e", "2"], default="e")
        p.add_argument("--seed", type=int, default=0)
        if name == "dicke":
            p.add_argument("--ratio", type=float, default=0.5)
        if name == "product":
            p.add_argument("--x", type=float, default=0.5)

    p_su2 = sub.add_parser("su2", help="rotation-group asymmetry of one state")
    p_su2.add_argument("--state", required=True,
                       help="statevector file (.npy or .json) or a named state: "
                            + ", ".join(sorted(NAMED_STATES)))
    p_su2.add_argument("--n", type=int, required=True,
                       help="number of sites, odd or even, up to the statevector cap "
                            "(every --state is pure)")
    p_su2.add_argument("--dimension", type=int, default=1)
    p_su2.add_argument("--clustering-range", type=int, default=None)
    p_su2.add_argument("--output", default="su2-out")
    p_su2.add_argument("--log-base", choices=["e", "2"], default="e")
    p_su2.add_argument("--seed", type=int, default=0)

    p_cl = sub.add_parser("clustering", help="certify clustering of a circuit state")
    p_cl.add_argument("--circuit", required=True, help="circuit JSON file")
    p_cl.add_argument("--input", default="zero",
                      help="zero | plus | ghz | random | random:SEED | state-spec JSON file")
    p_cl.add_argument("--dimension", type=int, default=1)
    p_cl.add_argument("--linear-size", type=int, required=True)
    p_cl.add_argument("--claimed-range", type=int, default=None,
                      help="override the default claim of twice the depth")
    p_cl.add_argument("--tolerance", type=float, default=CORRELATOR_TOL)
    p_cl.add_argument("--output", default="clustering-out")
    p_cl.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.command == "run":
        return load_config(args.config)
    if args.command == "verify":
        data = {"experiment": args.battery, "seed": args.seed}
        if args.samples is not None or args.battery == "bound-suite":
            # a bound-suite config always names its draw scale, which keeps its hash
            data["samples"] = 1.0 if args.samples is None else args.samples
        if args.output:
            data["output"] = args.output
        return validate_config(data)
    if args.command in ("dicke", "kink", "product"):
        data = {
            "experiment": f"{args.command}-sweep",
            "output": args.output,
            "log_base": args.log_base,
            "seed": args.seed,
        }
        if args.command == "dicke":
            data["state_spec"] = {"kind": "dicke", "ratio": args.ratio}
        if args.command == "product":
            data["state_spec"] = {"kind": "bernoulli", "x": args.x}
        even = args.command == "dicke" and dicke_half_filling(data["state_spec"])
        data["sweep"] = _log_spaced(args.n_min, args.n_max, args.points, even)
        return validate_config(data)
    if args.command == "su2":
        for flag, value in (("--n", args.n), ("--dimension", args.dimension)):
            if value < 1:
                raise ConfigError(f"{flag} {value} must be at least 1")
        # the integer root by bisection; a dimension above the bit length of n
        # leaves side 1, as 2**dimension > n
        linear, high = 1, 1 << (args.n.bit_length() // args.dimension + 1)
        while args.dimension <= args.n.bit_length() and linear < high:
            mid = (linear + high) // 2
            linear, high = (mid + 1, high) if mid**args.dimension < args.n else (linear, mid)
        if linear**args.dimension != args.n:
            raise ConfigError(
                f"--n {args.n} is not a {args.dimension}-dimensional torus size"
            )
        data = {
            "experiment": "su2-asymmetry",
            "geometry": {"dimension": args.dimension, "linear_size": linear},
            "state_spec": state_spec_from_name(
                args.state, lambda path: {"kind": "vector", "path": path}
            ),
            "output": args.output,
            "log_base": args.log_base,
            "seed": args.seed,
        }
        if args.clustering_range is not None:
            data["clustering_range"] = args.clustering_range
        return validate_config(data)
    if args.command == "clustering":
        spec = {"kind": "circuit", "path": args.circuit}
        if args.input != "zero":
            spec["input"] = state_spec_from_name(
                args.input, lambda path: read_json(path, "input spec")
            )
        data = {
            "experiment": "circuit-clustering",
            "geometry": {"dimension": args.dimension,
                         "linear_size": args.linear_size},
            "state_spec": spec,
            "output": args.output,
            "tolerance": args.tolerance,
            "seed": args.seed,
        }
        if args.claimed_range is not None:
            data["clustering_range"] = args.claimed_range
        return validate_config(data)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        # a battery run from the command line writes artifacts only when given --output
        return run_experiment(cfg, write=args.command != "verify" or args.output is not None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AsymlabError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
