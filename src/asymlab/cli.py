"""Command-line entry point: `asymlab run/verify/dicke/kink/product/su2/clustering`.

Every experiment writes three artifacts into the output directory:
results.csv (17-significant-digit values, one config-hash column for
provenance, byte-identical across reruns of the same config), report.json
(machine-readable summary including pass/fail of every inequality), and
plot.gp (a gnuplot script rendering the linearized asymmetry).

Exit codes: 0 success, 2 configuration error, 3 resource limit, 4 failed
invariant or bound.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# suite, su2 and clustering load inside the handlers that run them, so a
# closed-form sweep starts without them
from . import closedforms, lattice, u1
from .config import (
    NAMED_STATES,
    SWEEP_EXPERIMENTS,
    ExperimentConfig,
    build_state,
    circuit_depth_range,
    dicke_half_filling,
    load_config,
    state_spec_from_name,
    sweep_distribution,
    validate_config,
)
from .errors import (
    AsymlabError,
    ConfigError,
    PreconditionError,
    ResourceError,
    ValidationError,
)
from .tolerances import CORRELATOR_TOL, MARGIN_TOL, holds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

LN2 = math.log(2.0)


# ---------------- value formatting and artifact writers ----------------


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
    """``data`` with its entropic fields, and only those, converted from nats to ``log_base``.

    The entropic fields are ``delta_s``, ``shannon``, ``bound_*``, ``margin_*`` and
    every value of a ``bounds`` or ``margins`` section.
    """
    if log_base != "2":
        return data

    def bits(value):
        return None if value is None else value / LN2

    out = dict(data)
    for key, value in data.items():
        if key in ("bounds", "margins"):
            out[key] = {k: bits(v) for k, v in value.items()}
        elif key in ("delta_s", "shannon") or key.startswith(("bound_", "margin_")):
            out[key] = bits(value)
    return out


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in header))
    path.write_text("\n".join(lines) + "\n")


def _write_report(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_plot(path: Path, cfg_hash: str, title: str, xlabel: str, ylabel: str,
                header: list[str], x: str | None, y: str, logx: bool):
    """Plot results.csv column ``y`` against ``x``, named in ``header``; x None is the row index."""
    xcol = 0 if x is None else header.index(x) + 1
    ycol = header.index(y) + 1
    lines = [
        f"# gnuplot script (config {cfg_hash})",
        'set datafile separator ","',
        f'set title "{title}"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        "set key left top",
    ]
    if logx:
        lines.append("set logscale xy")
    lines.append(
        f'plot "results.csv" every ::1 using {xcol}:{ycol} '
        f'with linespoints pointtype 7 title "{ylabel}"'
    )
    path.write_text("\n".join(lines) + "\n")


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _bounds_hold(margins: dict) -> bool:
    """Pass rule over nats margins: Massey's cap is strict, every other cap allows MARGIN_TOL."""
    return all(
        v is None or (holds(v, strict=True) if key == "massey" else holds(v + MARGIN_TOL))
        for key, v in margins.items()
    )


# ---------------- sweep experiments ----------------


def _run_sweep(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    ns = sorted(set(cfg.sweep))
    reports = [u1.report_from_distribution(sweep_distribution(cfg, n), n) for n in ns]
    bounds_ok = all(_bounds_hold(rep.margins()) for rep in reports)

    def compute(rep: u1.AsymmetryReport) -> dict:
        margins = rep.margins()
        return {
            "n": rep.n_sites,
            "delta_s": rep.delta_s,
            "variance": rep.variance,
            "bound_log_n_plus_1": rep.bound_log_n_plus_1,
            "bound_massey": rep.bound_massey,
            "margin_log_n_plus_1": margins["log_n_plus_1"],
            "margin_massey": margins["massey"],
            "linearized": math.exp(rep.delta_s),
        }

    rows = list(map(compute, reports))

    points = [(row["n"], row["delta_s"]) for row in rows]
    fit = closedforms.asymptotic_fit(points) if len(points) >= 3 else None
    corrected = None
    if cfg.experiment == "dicke-sweep" and len(points) >= 4:
        corrected = closedforms.asymptotic_fit(points, correction_power=0.5)

    rows = [_in_base(row, cfg.log_base) for row in rows]
    for row in rows:
        row["fit_slope"] = fit.slope if fit else None
        row["fit_intercept"] = fit.intercept if fit else None
        row["fit_max_residual"] = fit.max_residual if fit else None
        row["config_hash"] = cfg.hash

    header = [
        "n", "delta_s", "variance", "bound_log_n_plus_1", "bound_massey",
        "margin_log_n_plus_1", "margin_massey", "linearized",
        "fit_slope", "fit_intercept", "fit_max_residual", "config_hash",
    ]
    _write_csv(out / "results.csv", header, rows)

    def fit_block(f):
        if f is None:
            return None
        block = {
            "slope": f.slope,
            "intercept": f.intercept,
            "max_residual": f.max_residual,
            "n_points": f.n_points,
            "units": "nats",
        }
        if f.correction is not None:
            block["correction_coefficient"] = f.correction
        return block

    payload = {
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "log_base": cfg.log_base,
        "fit": fit_block(fit),
        "all_bounds_hold": bounds_ok,
        "rows": [{k: row[k] for k in header if k != "config_hash"} for row in rows],
    }
    if cfg.experiment == "dicke-sweep":
        payload["fit_sqrt_corrected"] = fit_block(corrected)
        reference = corrected if corrected is not None else fit
        payload["intercept_reference"] = {
            "fitted_intercept_nats": reference.intercept if reference else None,
            "quarter_pi": math.pi / 4.0,
            "log_quarter_pi": math.log(math.pi / 4.0),
            "note": (
                "reported for comparison only; no reference value is asserted"
            ),
        }
    _write_report(out / "report.json", payload)
    _write_plot(
        out / "plot.gp", cfg.hash, f"{cfg.experiment}: linearized asymmetry",
        "N", "exp(delta S)", header, "n", "linearized", logx=True,
    )
    return EXIT_OK if bounds_ok else EXIT_INVARIANT


# ---------------- single-state experiments ----------------


def _run_u1(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    n = cfg.geometry.n_sites
    state, circuit = build_state(cfg.state_spec, n, cfg.seed)
    crange = cfg.clustering_range
    if crange is None and circuit is not None:
        crange = circuit_depth_range(circuit)
    rep = u1.u1_asymmetry(state, cfg.geometry, clustering_range=crange)
    margins = rep.margins()
    row = {
        "n": n,
        "delta_s": rep.delta_s,
        "shannon": rep.shannon,
        "variance": rep.variance,
        "bound_log_n_plus_1": rep.bound_log_n_plus_1,
        "bound_massey": rep.bound_massey,
        "bound_clustering": rep.bound_clustering,
        "margin_log_n_plus_1": margins["log_n_plus_1"],
        "margin_massey": margins["massey"],
        "margin_clustering": margins["clustering"],
        "linearized": math.exp(rep.delta_s),
        "config_hash": cfg.hash,
    }
    row = _in_base(row, cfg.log_base)
    header = list(row.keys())
    _write_csv(out / "results.csv", header, [row])

    ok = _bounds_hold(margins)
    payload = {
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "log_base": cfg.log_base,
        "clustering_range": crange,
        "report": _in_base(rep.to_dict(), cfg.log_base),
        "all_bounds_hold": ok,
    }
    _write_report(out / "report.json", payload)
    _write_plot(out / "plot.gp", cfg.hash, "charge asymmetry", "N",
                "exp(delta S)", header, "n", "linearized", logx=False)
    return EXIT_OK if ok else EXIT_INVARIANT


def _run_su2(cfg: ExperimentConfig) -> int:
    from . import su2

    out = _outdir(cfg)
    n = cfg.geometry.n_sites
    state, circuit = build_state(cfg.state_spec, n, cfg.seed)
    basis = su2.build_schur_basis(n)
    rep = su2.su2_asymmetry(state, basis)
    margins = rep.margins()

    crange = cfg.clustering_range
    if crange is None and circuit is not None:
        crange = circuit_depth_range(circuit)
    casimir = None
    if crange is not None:
        gauged, _ = su2.zero_transverse_rotation(state)
        casimir = su2.casimir_constraint_check(gauged, cfg.geometry, crange)

    row = {
        "n": n,
        "delta_s": rep.delta_s,
        "bound_sector_entropy": rep.bound_sector_entropy,
        "bound_support_dim": rep.bound_support_dim,
        "margin_sector_entropy": margins["sector_entropy"],
        "margin_support_dim": margins["support_dim"],
        "casimir_bound": casimir.bound if casimir else None,
        "casimir_lhs": casimir.lhs if casimir else None,
        "casimir_precursor_lhs": casimir.precursor_lhs if casimir else None,
        "linearized": math.exp(rep.delta_s),
        "config_hash": cfg.hash,
    }
    row = _in_base(row, cfg.log_base)
    header = list(row.keys())
    _write_csv(out / "results.csv", header, [row])

    ok = _bounds_hold(margins)
    if casimir is not None:
        ok = ok and casimir.passed
    payload = {
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "log_base": cfg.log_base,
        "report": _in_base(rep.to_dict(), cfg.log_base),
        "casimir": casimir.to_dict() if casimir else None,
        "all_bounds_hold": ok,
    }
    _write_report(out / "report.json", payload)
    _write_plot(out / "plot.gp", cfg.hash, "rotation asymmetry", "N",
                "exp(delta S)", header, "n", "linearized", logx=False)
    return EXIT_OK if ok else EXIT_INVARIANT


def _run_clustering(cfg: ExperimentConfig) -> int:
    from . import clustering

    out = _outdir(cfg)
    n = cfg.geometry.n_sites
    state, circuit = build_state(cfg.state_spec, n, cfg.seed)
    circuit.assert_nearest_neighbor(cfg.geometry)
    claimed = cfg.clustering_range
    if claimed is None:
        claimed = circuit_depth_range(circuit)
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

    rows = [
        {"distance": d, "max_abs_correlator": v, "config_hash": cfg.hash}
        for d, v in report.distance_profile
    ]
    header = ["distance", "max_abs_correlator", "config_hash"]
    _write_csv(out / "results.csv", header, rows)

    lightcone_ok = (
        spread is None or spread <= lattice.lightcone_range(circuit.depth)
    )
    ok = report.passed and var.passed and lightcone_ok
    payload = {
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "claimed_range": claimed,
        "cluster_report": report.to_dict(),
        "operator_spread": spread,
        "operator_spread_note": spread_note,
        "lightcone_range": lattice.lightcone_range(circuit.depth),
        "variance_check": var.to_dict(),
        "all_checks_hold": ok,
    }
    _write_report(out / "report.json", payload)
    _write_plot(out / "plot.gp", cfg.hash, "connected correlators by distance",
                "distance", "max |correlator|", header, "distance", "max_abs_correlator",
                logx=False)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------- verification suites ----------------


def _run_suite(cfg: ExperimentConfig, which: str = "bound-suite",
               quiet: bool = False, write: bool = True) -> int:
    from . import suite

    results = (
        suite.bound_suite(cfg.seed, cfg.samples)
        if which == "bound-suite"
        else suite.oracle_suite(cfg.seed)
    )
    if not quiet:
        for res in results:
            print(res.line())
    ok = suite.all_passed(results)
    if not quiet:
        print(f"{'all checks passed' if ok else 'FAILED checks present'} "
              f"({sum(r.passed for r in results)}/{len(results)})")
    if write:
        out = _outdir(cfg)
        rows = [
            {"check": r.name, "passed": r.passed, "margin": r.margin,
             "config_hash": cfg.hash}
            for r in results
        ]
        header = ["check", "passed", "margin", "config_hash"]
        _write_csv(out / "results.csv", header, rows)
        payload = {
            "experiment": which,
            "config_hash": cfg.hash,
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
        _write_report(out / "report.json", payload)
        _write_plot(out / "plot.gp", cfg.hash, "verification margins",
                    "check index", "margin", header, None, "margin", logx=False)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------- dispatch ----------------


def run_experiment(cfg: ExperimentConfig) -> int:
    if cfg.experiment in SWEEP_EXPERIMENTS:
        return _run_sweep(cfg)
    if cfg.experiment == "u1-asymmetry":
        return _run_u1(cfg)
    if cfg.experiment == "su2-asymmetry":
        return _run_su2(cfg)
    if cfg.experiment == "circuit-clustering":
        return _run_clustering(cfg)
    if cfg.experiment == "bound-suite":
        return _run_suite(cfg, "bound-suite", quiet=True)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


# ---------------- argument parsing ----------------


def _log_spaced(n_min: int, n_max: int, points: int, even: bool) -> list[int]:
    if n_min < 1:
        raise ConfigError(f"--n-min {n_min} must be at least 1")
    if points < 1:
        raise ConfigError(f"--points {points} must be at least 1")
    if n_min > n_max:
        raise ConfigError(f"--n-min {n_min} exceeds --n-max {n_max}")
    raw = np.unique(
        np.round(np.logspace(math.log10(n_min), math.log10(n_max), points))
    ).astype(int)
    if even:
        raw = np.unique(np.maximum(2, (raw // 2) * 2))
    return [int(v) for v in raw]


def _read_input_spec(path: str):
    """State spec of a circuit input read from a JSON file."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read input spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"input spec {path} is not valid JSON: {exc}") from exc


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
    p_su2.add_argument("--n", type=int, required=True, help="number of sites (even)")
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
        if args.samples is not None and args.battery == "oracle-suite":
            raise ConfigError("--samples applies to bound-suite only; "
                              "the oracle suite has fixed cases")
        samples = 1.0 if args.samples is None else args.samples
        data = {"experiment": "bound-suite", "seed": args.seed, "samples": samples}
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
        linear = round(args.n ** (1.0 / args.dimension))
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
            spec["input"] = state_spec_from_name(args.input, _read_input_spec)
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
        if args.command == "verify":
            return _run_suite(cfg, args.battery, quiet=False,
                              write=args.output is not None)
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AsymlabError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
