import ast
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asymlab import cli, states, su2, suite
from asymlab.circuits import apply_circuit, random_brickwork, save_circuit
from asymlab.closedforms import dicke_state, dicke_x_distribution
from asymlab.cli import main
from asymlab.config import (
    KINK_SWEEP_MAX,
    NAMED_STATES,
    SAMPLES_MAX,
    SWEEP_POINTS_MAX,
    build_state,
    validate_config,
)
from asymlab.errors import AsymlabError, PreconditionError
from asymlab.lattice import LatticeGeometry
from asymlab.states import ghz_state
from asymlab.suite import CheckResult, bound_suite
from asymlab.tolerances import MARGIN_TOL, holds
from asymlab.u1 import charge_distribution, shannon_entropy

LN2 = math.log(2.0)


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _read_report(outdir):
    return json.loads((outdir / "report.json").read_text())


def test_run_kink_sweep_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {"experiment": "kink-sweep", "sweep": [10, 100, 1000], "output": str(out)},
    )
    assert main(["run", cfg]) == 0
    for name in ("results.csv", "report.json", "plot.gp"):
        assert (out / name).exists()
    report = _read_report(out)
    assert report["all_bounds_hold"] is True
    assert_allclose(report["fit"]["slope"], 1.0, atol=1e-9)
    assert_allclose(report["fit"]["intercept"], 0.0, atol=1e-9)
    rows = report["rows"]
    assert [r["n"] for r in rows] == [10, 100, 1000]
    assert_allclose(rows[0]["delta_s"], math.log(10), atol=1e-12)
    assert_allclose(rows[0]["linearized"], 10.0, atol=1e-9)


def test_csv_is_byte_stable_across_reruns(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {"experiment": "dicke-sweep", "sweep": [100, 1000], "output": str(out)},
    )
    assert main(["run", cfg]) == 0
    first_csv = (out / "results.csv").read_bytes()
    first_json = (out / "report.json").read_bytes()
    assert main(["run", cfg]) == 0
    assert (out / "results.csv").read_bytes() == first_csv
    assert (out / "report.json").read_bytes() == first_json


def test_csv_has_seventeen_digit_floats_and_hash_column(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {"experiment": "kink-sweep", "sweep": [10, 100, 1000], "output": str(out)},
    )
    main(["run", cfg])
    lines = (out / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[-1] == "config_hash"
    row = lines[1].split(",")
    delta = row[header.index("delta_s")]
    # %.17g output round-trips the double exactly
    assert delta == f"{float(delta):.17g}"
    assert float(delta) == pytest.approx(math.log(10), abs=1e-14)
    assert len(row[-1]) == 12


def test_log_base_two_scales_entropies_but_not_linearized(tmp_path):
    out_e = tmp_path / "e"
    out_2 = tmp_path / "b2"
    base = {"experiment": "kink-sweep", "sweep": [16, 64, 256]}
    cfg_e = _write(tmp_path / "e.json", dict(base, output=str(out_e), log_base="e"))
    cfg_2 = _write(tmp_path / "b2.json", dict(base, output=str(out_2), log_base="2"))
    assert main(["run", cfg_e]) == 0
    assert main(["run", cfg_2]) == 0
    rows_e = _read_report(out_e)["rows"]
    rows_2 = _read_report(out_2)["rows"]
    for re_, r2 in zip(rows_e, rows_2):
        assert_allclose(r2["delta_s"], re_["delta_s"] / LN2, atol=1e-12)
        assert_allclose(r2["linearized"], re_["linearized"], atol=1e-9)
    # fits are reported in nats for either base
    assert_allclose(
        _read_report(out_2)["fit"]["slope"], _read_report(out_e)["fit"]["slope"], atol=1e-12
    )


def test_dicke_report_carries_both_intercept_references(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "experiment": "dicke-sweep",
            "sweep": [100, 1000, 10000, 100000],
            "output": str(out),
        },
    )
    assert main(["run", cfg]) == 0
    report = _read_report(out)
    ref = report["intercept_reference"]
    assert_allclose(ref["quarter_pi"], math.pi / 4.0)
    assert_allclose(ref["log_quarter_pi"], math.log(math.pi / 4.0))
    assert report["fit_sqrt_corrected"]["slope"] == pytest.approx(1.0, abs=0.01)
    assert report["fit"]["slope"] == pytest.approx(0.9865, abs=0.001)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {"experiment": "kink-sweep", "sweep": [10], "wat": 1},
    )
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2():
    assert main(["run", "/nonexistent/cfg.json"]) == 2


def test_oversized_system_exits_3(tmp_path, capsys):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "experiment": "u1-asymmetry",
            "geometry": {"dimension": 1, "linear_size": 30},
            "state_spec": {"kind": "ghz"},
            "output": str(tmp_path / "out"),
        },
    )
    assert main(["run", cfg]) == 3
    assert "resource error" in capsys.readouterr().err
    # a single-state run is held to its geometry's size, whatever else the config lists
    data = json.loads(Path(cfg).read_text())
    assert main(["run", _write(tmp_path / "listed.json", dict(data, sweep=[4]))]) == 3
    assert "30 sites exceed" in capsys.readouterr().err
    # a closed-form kind keeps the dense caps outside a U(1) run
    assert main(["su2", "--state", "kink", "--n", "14", "--output", str(tmp_path / "su2")]) == 3
    assert "density-matrix cap of 12" in capsys.readouterr().err


def test_bound_suite_samples_above_the_cap_exits_3_at_once(monkeypatch, capsys):
    # without the cap the suite would draw 1e300-scaled counts; one draw each fails fast instead
    monkeypatch.setattr(suite, "_count", lambda base, scale: 1)
    start = time.perf_counter()
    assert main(["verify", "bound-suite", "--samples", "1e300"]) == 3
    assert time.perf_counter() - start < 0.5
    assert "SAMPLES_MAX" in capsys.readouterr().err
    at_cap = validate_config({"experiment": "bound-suite", "samples": SAMPLES_MAX})
    assert at_cap.samples == SAMPLES_MAX


def test_env_override_lifts_the_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "5")
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "experiment": "u1-asymmetry",
            "geometry": {"dimension": 1, "linear_size": 6},
            "state_spec": {"kind": "ghz"},
            "output": str(tmp_path / "out"),
        },
    )
    assert main(["run", cfg]) == 3
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "8")
    assert main(["run", cfg]) == 0
    # under a raised cap, a site count too long to print is still named as linear^dimension
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "100000")
    data = json.loads(Path(cfg).read_text())
    data["geometry"] = {"dimension": 100000, "linear_size": 3}
    assert main(["run", _write(tmp_path / "wide.json", data)]) == 3
    assert "3^100000 sites exceed" in capsys.readouterr().err


def test_dicke_sweep_cap_follows_the_route_taken(tmp_path, capsys):
    """No ratio means half filling, so the half-filling cap applies; ratio 0.25 keeps 2048."""
    spec = {"kind": "dicke"}
    cfg = {"experiment": "dicke-sweep", "sweep": [100, 4000], "state_spec": spec,
           "output": str(tmp_path / "out")}
    assert main(["run", _write(tmp_path / "half.json", cfg)]) == 0
    assert (tmp_path / "out" / "results.csv").exists()
    spec["ratio"] = 0.25
    assert main(["run", _write(tmp_path / "quarter.json", cfg)]) == 3
    assert "DICKE_GENERAL_SWEEP_MAX" in capsys.readouterr().err


def test_failed_invariant_exits_4(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(3)
    geo = LatticeGeometry(1, 8)
    circ = random_brickwork(geo, 2, rng)
    circ_path = tmp_path / "circ.json"
    save_circuit(circ, circ_path)
    # claimed range 0 for a depth-2 circuit state fails the scan
    code = main(
        [
            "clustering",
            "--circuit",
            str(circ_path),
            "--linear-size",
            "8",
            "--claimed-range",
            "0",
            "--output",
            str(tmp_path / "out"),
        ]
    )
    assert code == 4
    report = _read_report(tmp_path / "out")
    assert report["all_checks_hold"] is False
    assert report["cluster_report"]["passed"] is False
    # main's handlers of a failed precondition and of any other package error
    for error, line in ((PreconditionError, "precondition failed"),
                        (AsymlabError, "invariant failure")):
        def fail(cfg, error=error):
            raise error("forced")

        monkeypatch.setattr(cli, "run_experiment", fail)
        capsys.readouterr()
        assert main(["kink", "--n-min", "10", "--n-max", "100"]) == 4
        assert capsys.readouterr().err == f"{line}: forced\n"


def test_clustering_command_passes_for_honest_claim(tmp_path):
    rng = np.random.default_rng(3)
    geo = LatticeGeometry(1, 8)
    circ = random_brickwork(geo, 2, rng)
    circ_path = tmp_path / "circ.json"
    save_circuit(circ, circ_path)
    code = main(
        [
            "clustering",
            "--circuit",
            str(circ_path),
            "--linear-size",
            "8",
            "--input",
            "random:5",
            "--output",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    report = _read_report(tmp_path / "out")
    assert report["claimed_range"] == 4
    assert report["operator_spread"] <= report["lightcone_range"]


def test_u1_run_on_ghz(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "experiment": "u1-asymmetry",
            "geometry": {"dimension": 1, "linear_size": 8},
            "state_spec": {"kind": "ghz"},
            "output": str(out),
        },
    )
    assert main(["run", cfg]) == 0
    report = _read_report(out)
    assert_allclose(report["report"]["delta_s"], LN2, atol=1e-12)
    assert report["all_bounds_hold"] is True


def test_su2_command_named_state(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["su2", "--state", "dicke", "--n", "4", "--output", str(out)]
    )
    assert code == 0
    report = _read_report(out)
    assert_allclose(report["report"]["delta_s"], math.log(5.0), atol=1e-10)


def test_su2_command_statevector_file(tmp_path):
    vec = np.zeros(16, dtype=complex)
    vec[0] = 1.0
    path = tmp_path / "polarized.npy"
    np.save(path, vec)
    out = tmp_path / "out"
    code = main(["su2", "--state", str(path), "--n", "4", "--output", str(out)])
    assert code == 0
    report = _read_report(out)
    assert_allclose(report["report"]["delta_s"], math.log(5.0), atol=1e-10)


def test_su2_command_rejects_odd_n(tmp_path, capsys):
    code = main(["su2", "--state", "ghz", "--n", "5", "--output", str(tmp_path)])
    assert code == 2
    assert "even" in capsys.readouterr().err


def _circuit_with_gate(tmp_path, gate, **fields):
    gate["unitary"] = [[float(i == j), 0.0] for i in range(4) for j in range(4)]
    circuit = {"n_qubits": 4, "depth": 1, "layers": [[gate]], **fields}
    path = _write(tmp_path / "circ.json", circuit)
    return ["clustering", "--circuit", path, "--linear-size", "4",
            "--output", str(tmp_path / "out")]


def _gate_without_sites(tmp_path, monkeypatch):
    return _circuit_with_gate(tmp_path, {})


def _gate_with_non_integer_site(tmp_path, monkeypatch):
    return _circuit_with_gate(tmp_path, {"sites": ["a", 1]})


def _gate_with_fractional_site(tmp_path, monkeypatch):
    return _circuit_with_gate(tmp_path, {"sites": [0, 1.5]})


def _circuit_n_qubits_not_int(tmp_path, monkeypatch):
    return _circuit_with_gate(tmp_path, {"sites": [0, 1]}, n_qubits="abc")


def _circuit_n_qubits_fractional(tmp_path, monkeypatch):
    return _circuit_with_gate(tmp_path, {"sites": [0, 1]}, n_qubits=4.5)


def _circuit_layers_not_a_list(tmp_path, monkeypatch):
    return _circuit_with_gate(tmp_path, {"sites": [0, 1]}, layers=5)


def _circuit_not_json(tmp_path, monkeypatch):
    path = tmp_path / "circ.json"
    path.write_text("{not json")
    return ["clustering", "--circuit", str(path), "--linear-size", "4",
            "--output", str(tmp_path / "out")]


def _max_qubits_not_int(tmp_path, monkeypatch):
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "abc")
    cfg = {
        "experiment": "u1-asymmetry",
        "geometry": {"dimension": 1, "linear_size": 4},
        "state_spec": {"kind": "ghz"},
        "output": str(tmp_path / "out"),
    }
    return ["run", _write(tmp_path / "cfg.json", cfg)]


def _su2_random_seed_not_int(tmp_path, monkeypatch):
    return ["su2", "--state", "random:x", "--n", "4", "--output", str(tmp_path / "out")]


def _su2_dimension_zero(tmp_path, monkeypatch):
    return ["su2", "--state", "random:3", "--n", "4", "--dimension", "0"]


def _su2_dimension_negative(tmp_path, monkeypatch):
    return ["su2", "--state", "random:3", "--n", "4", "--dimension", "-1"]


def _su2_n_negative(tmp_path, monkeypatch):
    return ["su2", "--state", "random:3", "--n", "-4", "--dimension", "2"]


def _clustering_with_input(tmp_path, name):
    path = tmp_path / "circ.json"
    save_circuit(random_brickwork(LatticeGeometry(1, 4), 1, 0), path)
    return ["clustering", "--circuit", str(path), "--input", name,
            "--linear-size", "4", "--output", str(tmp_path / "out")]


def _clustering_input_random_seed_not_int(tmp_path, monkeypatch):
    return _clustering_with_input(tmp_path, "random:x")


def _clustering_input_dicke(tmp_path, monkeypatch):
    return _clustering_with_input(tmp_path, "dicke")


def _clustering_input_kink(tmp_path, monkeypatch):
    return _clustering_with_input(tmp_path, "kink")


def _clustering_input_spec_file(tmp_path, spec):
    return _clustering_with_input(tmp_path, _write(tmp_path / "input.json", spec))


def _clustering_input_bernoulli_x_bool(tmp_path, monkeypatch):
    return _clustering_input_spec_file(tmp_path, {"kind": "bernoulli", "x": True})


def _clustering_input_bernoulli_x_string(tmp_path, monkeypatch):
    return _clustering_input_spec_file(tmp_path, {"kind": "bernoulli", "x": "abc"})


def _clustering_input_ghz_with_x(tmp_path, monkeypatch):
    return _clustering_input_spec_file(tmp_path, {"kind": "ghz", "x": 5})


def _dicke_ratio_just_above_half(tmp_path, monkeypatch):
    """Only a ratio of exactly 0.5 rounds N to even, so N = 101 has no integer k."""
    return ["dicke", "--ratio", "0.5000000000000001", "--n-min", "101", "--n-max", "1001",
            "--points", "3", "--output", str(tmp_path / "out")]


def _bound_suite_with_state_spec(tmp_path, monkeypatch):
    cfg = {"experiment": "bound-suite", "state_spec": {"kind": "ghz"},
           "output": str(tmp_path / "out")}
    return ["run", _write(tmp_path / "cfg.json", cfg)]


def _product_x_length_mismatch(tmp_path, monkeypatch):
    cfg = {
        "experiment": "product-sweep",
        "sweep": [10, 20],
        "state_spec": {"kind": "bernoulli", "x": [0.1, 0.9]},
        "output": str(tmp_path / "out"),
    }
    return ["run", _write(tmp_path / "cfg.json", cfg)]


def _product_x_nan(tmp_path, monkeypatch):
    return ["product", "--x", "nan", "--n-min", "10", "--n-max", "100", "--points", "3",
            "--output", str(tmp_path / "out")]


def _bound_suite_samples_nan(tmp_path, monkeypatch):
    return ["verify", "bound-suite", "--samples", "nan"]


def _bound_suite_samples_inf(tmp_path, monkeypatch):
    return ["verify", "bound-suite", "--samples", "inf"]


def _oracle_suite_with_samples(tmp_path, monkeypatch):
    # the oracle suite has no draw scale; 200 would also exceed SAMPLES_MAX
    return ["verify", "oracle-suite", "--samples", "200"]


def _config_json_nan(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "bound-suite", "samples": NaN}')
    return ["run", str(path)]


def _config_json_infinity(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "kink-sweep", "sweep": [10], "tolerance": Infinity, '
                    f'"output": "{tmp_path / "out"}"}}')
    return ["run", str(path)]


def _dicke_n_min_zero(tmp_path, monkeypatch):
    return ["dicke", "--n-min", "0", "--n-max", "100", "--output", str(tmp_path / "out")]


def _kink_n_min_negative(tmp_path, monkeypatch):
    return ["kink", "--n-min", "-3", "--n-max", "100", "--output", str(tmp_path / "out")]


def _product_points_negative(tmp_path, monkeypatch):
    return ["product", "--points", "-1", "--output", str(tmp_path / "out")]


def _gate_with_boolean_entries(tmp_path, monkeypatch):
    """The 2-site identity with its entries written as JSON booleans."""
    argv = _circuit_with_gate(tmp_path, {"sites": [0, 1]})
    circuit = json.loads((tmp_path / "circ.json").read_text())
    circuit["layers"][0][0]["unitary"] = [[i == j, False] for i in range(4) for j in range(4)]
    _write(tmp_path / "circ.json", circuit)
    return argv


def _gate_with_infinite_entry(tmp_path, monkeypatch):
    """The 2-site identity with its first entry written as 1e400, which JSON reads as inf."""
    argv = _circuit_with_gate(tmp_path, {"sites": [0, 1]})
    circuit = json.loads((tmp_path / "circ.json").read_text())
    circuit["layers"][0][0]["unitary"][0] = ["ENTRY", 0.0]
    (tmp_path / "circ.json").write_text(json.dumps(circuit).replace('"ENTRY"', "1e400"))
    return argv


def _su2_state_file(tmp_path, name, content):
    path = tmp_path / name
    if name.endswith(".npy"):
        np.save(path, content)
    else:
        path.write_text(json.dumps(content))
    return ["su2", "--state", str(path), "--n", "2", "--output", str(tmp_path / "out")]


def _state_file_boolean_pairs(tmp_path, monkeypatch):
    return _su2_state_file(tmp_path, "state.json",
                           [[True, False], [False, False], [False, False], [False, False]])


def _state_file_npy_booleans(tmp_path, monkeypatch):
    return _su2_state_file(tmp_path, "state.npy", np.array([True, False, False, False]))


def _state_file_nan(tmp_path, monkeypatch):
    return _su2_state_file(tmp_path, "state.json",
                           [[float("nan"), 0], [0, 0], [0, 0], [0, 0]])


def _state_file_infinity(tmp_path, monkeypatch):
    return _su2_state_file(tmp_path, "state.json",
                           [[float("inf"), 0], [0, 0], [0, 0], [0, 0]])


def _state_file_npy_nan(tmp_path, monkeypatch):
    return _su2_state_file(tmp_path, "state.npy", np.array([np.nan, 1.0, 0.0, 0.0]))


def _circuit_input_product_boolean_pairs(tmp_path, monkeypatch):
    site = [[True, False], [False, False]]
    spec = _write(tmp_path / "input.json", {"kind": "product", "amplitudes": [site] * 4})
    return _clustering_with_input(tmp_path, spec)


def _u1_run(tmp_path, spec, n):
    cfg = {"experiment": "u1-asymmetry", "geometry": {"dimension": 1, "linear_size": n},
           "output": str(tmp_path / "out")}
    if spec is not None:
        cfg["state_spec"] = spec
    return ["run", _write(tmp_path / "cfg.json", cfg)]


def _kink_sweep_without_sweep(tmp_path, monkeypatch):
    return ["run", _write(tmp_path / "cfg.json", {"experiment": "kink-sweep"})]


def _u1_without_state_spec(tmp_path, monkeypatch):
    return _u1_run(tmp_path, None, 4)


def _u1_dicke_k_past_n(tmp_path, monkeypatch):
    return _u1_run(tmp_path, {"kind": "dicke", "k": 9}, 6)


def _u1_half_dicke_at_odd_n(tmp_path, monkeypatch):
    return _u1_run(tmp_path, {"kind": "dicke"}, 5)


def _dicke_sweep_with_k_and_ratio(tmp_path, monkeypatch):
    cfg = {"experiment": "dicke-sweep", "sweep": [10, 20],
           "state_spec": {"kind": "dicke", "k": 2, "ratio": 0.9}, "output": str(tmp_path / "out")}
    return ["run", _write(tmp_path / "cfg.json", cfg)]


def _u1_bernoulli_list_too_short(tmp_path, monkeypatch):
    return _u1_run(tmp_path, {"kind": "bernoulli", "x": [0.1, 0.9]}, 4)


def _u1_product_with_a_zero_site(tmp_path, monkeypatch):
    site, zero = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
    return _u1_run(tmp_path, {"kind": "product", "amplitudes": [site, zero, site, site]}, 4)


def _state_file_npy_zero(tmp_path, monkeypatch):
    return _su2_state_file(tmp_path, "state.npy", np.zeros(4))


def _dicke_n_min_above_n_max(tmp_path, monkeypatch):
    return ["dicke", "--n-min", "100", "--n-max", "10", "--output", str(tmp_path / "out")]


# the message each of these cases must name
_MALFORMED_MESSAGES = {
    _kink_sweep_without_sweep: "requires a 'sweep' list",
    _u1_without_state_spec: "requires 'state_spec'",
    _u1_dicke_k_past_n: "outside [0, 6]",
    _u1_half_dicke_at_odd_n: "non-integer excitation count",
    _dicke_sweep_with_k_and_ratio: "'k' or 'ratio', not both",
    _u1_bernoulli_list_too_short: "bernoulli x lists 2 sites",
    _u1_product_with_a_zero_site: "zero local vector",
    _state_file_npy_zero: "zero vector",
    _dicke_n_min_above_n_max: "exceeds --n-max",
}


@pytest.mark.parametrize(
    "make_argv",
    [
        *_MALFORMED_MESSAGES,
        _gate_with_boolean_entries,
        _gate_with_infinite_entry,
        _state_file_boolean_pairs,
        _state_file_npy_booleans,
        _state_file_nan,
        _state_file_infinity,
        _state_file_npy_nan,
        _circuit_input_product_boolean_pairs,
        _gate_without_sites,
        _gate_with_non_integer_site,
        _gate_with_fractional_site,
        _circuit_n_qubits_not_int,
        _circuit_n_qubits_fractional,
        _circuit_layers_not_a_list,
        _circuit_not_json,
        _max_qubits_not_int,
        _product_x_length_mismatch,
        _su2_random_seed_not_int,
        _su2_dimension_zero,
        _su2_dimension_negative,
        _su2_n_negative,
        _clustering_input_random_seed_not_int,
        _clustering_input_dicke,
        _clustering_input_kink,
        _clustering_input_bernoulli_x_bool,
        _clustering_input_bernoulli_x_string,
        _clustering_input_ghz_with_x,
        _dicke_ratio_just_above_half,
        _bound_suite_with_state_spec,
        _product_x_nan,
        _bound_suite_samples_nan,
        _bound_suite_samples_inf,
        _oracle_suite_with_samples,
        _config_json_nan,
        _config_json_infinity,
        _dicke_n_min_zero,
        _kink_n_min_negative,
        _product_points_negative,
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, make_argv):
    assert main(make_argv(tmp_path, monkeypatch)) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert _MALFORMED_MESSAGES.get(make_argv, "") in err


_TORUS_ARGV = ["clustering", "--circuit", "never-read.json"]


@pytest.mark.parametrize("argv, expected", [
    (["kink", "--n-min", "10", "--n-max", "1000", "--points", str(10**13)], 3),
    (["dicke", "--n-min", "10", "--n-max", str(10**400)], 3),
    (["kink", "--n-min", "10", "--n-max", str(10**15)], 3),
    (["su2", "--state", "ghz", "--n", str(10**30)], 3),
    (["su2", "--state", "ghz", "--n", str(2**1100)], 3),
    (["su2", "--state", "ghz", "--n", "4", "--dimension", str(10**400)], 2),
    (_TORUS_ARGV + ["--linear-size", str(10**9)], 3),
    (_TORUS_ARGV + ["--linear-size", "2", "--dimension", str(10**9)], 3),
    (_TORUS_ARGV + ["--linear-size", str(10**9), "--dimension", str(10**9)], 3),
    (_TORUS_ARGV + ["--linear-size", str(10**2200), "--dimension", "2"], 3),
], ids=["points", "n-max-past-float", "n-max-past-cap", "n", "n-past-float", "dimension",
        "linear-size", "torus-dimension", "torus-both", "torus-side"])
def test_extreme_sizes_exit_at_once_without_allocating(
    tmp_path, monkeypatch, capsys, argv, expected
):
    """Each is refused with one line and its exit code before any large array or integer exists.

    A size past a cap exits 3; a size that names no torus exits 2.
    """
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = main(argv + ["--output", "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == expected, err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert peak < 2**24
    assert not (tmp_path / "out").exists()


def test_points_cap_is_checked_before_the_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    logspace = np.logspace
    sizes = []
    monkeypatch.setattr(np, "logspace", lambda *a, **k: sizes.append(a[2]) or logspace(*a, **k))
    at_cap = cli._log_spaced(10, 1000, SWEEP_POINTS_MAX, even=False)
    assert at_cap == list(range(10, 1001))
    assert main(["kink", "--points", str(SWEEP_POINTS_MAX + 1)]) == 3
    assert "SWEEP_POINTS_MAX" in capsys.readouterr().err
    assert sizes == [SWEEP_POINTS_MAX]


def _built_config(monkeypatch, argv):
    """The dict that the CLI hands to validate_config for ``argv``."""
    seen = []
    validate = cli.validate_config

    def capture(data):
        seen.append(data)
        return validate(data)

    monkeypatch.setattr(cli, "validate_config", capture)
    cli._config_from_args(cli.build_parser().parse_args(argv))
    (data,) = seen
    return data


_CLUSTERING_ARGV = ["clustering", "--circuit", "circ.json", "--linear-size", "4", "--input"]
_CLUSTERING_DATA = {
    "experiment": "circuit-clustering",
    "geometry": {"dimension": 1, "linear_size": 4},
    "output": "clustering-out",
    "tolerance": 1e-10,
    "seed": 0,
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_CLUSTERING_ARGV + ["zero"],
         dict(_CLUSTERING_DATA, state_spec={"kind": "circuit", "path": "circ.json"})),
        (_CLUSTERING_ARGV + ["plus"],
         dict(_CLUSTERING_DATA, state_spec={"kind": "circuit", "path": "circ.json",
                                            "input": {"kind": "bernoulli", "x": 0.5}})),
        (_CLUSTERING_ARGV + ["random:3"],
         dict(_CLUSTERING_DATA, state_spec={"kind": "circuit", "path": "circ.json",
                                            "input": {"kind": "random", "seed": 3}})),
        (["su2", "--state", "dicke", "--n", "4"],
         {"experiment": "su2-asymmetry", "geometry": {"dimension": 1, "linear_size": 4},
          "state_spec": {"kind": "dicke", "ratio": 0.5}, "output": "su2-out",
          "log_base": "e", "seed": 0}),
        (["dicke", "--ratio", "0.25", "--n-min", "16", "--n-max", "2048", "--points", "8"],
         {"experiment": "dicke-sweep", "sweep": [16, 32, 64, 128, 256, 512, 1024, 2048],
          "state_spec": {"kind": "dicke", "ratio": 0.25}, "output": "dicke-sweep-out",
          "log_base": "e", "seed": 0}),
        (["dicke"],
         {"experiment": "dicke-sweep", "sweep": [100, 1000, 10000, 100000],
          "state_spec": {"kind": "dicke", "ratio": 0.5}, "output": "dicke-sweep-out",
          "log_base": "e", "seed": 0}),
        (["verify", "bound-suite", "--samples", "0.1", "--seed", "3"],
         {"experiment": "bound-suite", "seed": 3, "samples": 0.1}),
        (["verify", "bound-suite"],
         {"experiment": "bound-suite", "seed": 0, "samples": 1.0}),
        (["verify", "oracle-suite", "--seed", "3", "--output", "out"],
         {"experiment": "bound-suite", "seed": 3, "samples": 1.0, "output": "out"}),
    ],
    ids=["clustering-zero", "clustering-plus", "clustering-random3", "su2-dicke",
         "dicke-quarter", "dicke-half", "bound-suite-samples", "bound-suite", "oracle-suite"],
)
def test_cli_config_dicts_are_pinned(monkeypatch, argv, expected):
    """The config dict, and so the config hash of every artifact, stays as it is."""
    assert _built_config(monkeypatch, argv) == expected


@pytest.mark.parametrize("name", sorted(NAMED_STATES))
def test_every_named_state_is_a_valid_su2_state(name):
    args = cli.build_parser().parse_args(["su2", "--state", name, "--n", "4"])
    cfg = cli._config_from_args(args)
    assert cfg.state_spec == NAMED_STATES[name]


def test_clustering_above_the_density_matrix_cap_reports_no_spread(tmp_path, monkeypatch):
    """N = 14 passes the scans on its statevector; spreading is refused, named and not fatal."""
    monkeypatch.delenv("ASYMLAB_MAX_QUBITS", raising=False)
    n = 14
    assert states.density_matrix_cap() < n <= states.statevector_cap()
    path = tmp_path / "circ.json"
    save_circuit(random_brickwork(LatticeGeometry(1, n), 1, np.random.default_rng(2)), path)
    out = tmp_path / "out"
    argv = ["clustering", "--circuit", str(path), "--linear-size", str(n), "--output", str(out)]
    assert main(argv) == 0
    report = _read_report(out)
    assert report["operator_spread"] is None
    assert "density-matrix cap" in report["operator_spread_note"]
    assert report["all_checks_hold"] is True


def test_dicke_spec_with_an_explicit_k(tmp_path):
    """'k' in place of a ratio: a u1-asymmetry run and a dicke-sweep at fixed k = 2."""
    spec = {"kind": "dicke", "k": 2}
    u1_out, sweep_out = tmp_path / "u1", tmp_path / "sweep"
    u1_cfg = {"experiment": "u1-asymmetry", "geometry": {"dimension": 1, "linear_size": 6},
              "state_spec": spec, "output": str(u1_out)}
    assert main(["run", _write(tmp_path / "u1.json", u1_cfg)]) == 0
    expected = shannon_entropy(charge_distribution(dicke_state(6, 2, axis="x")))
    assert_allclose(_read_report(u1_out)["report"]["delta_s"], expected, rtol=0, atol=1e-12)
    sweep_cfg = {"experiment": "dicke-sweep", "sweep": [10, 20, 40], "state_spec": spec,
                 "output": str(sweep_out)}
    assert main(["run", _write(tmp_path / "sweep.json", sweep_cfg)]) == 0
    rows = _read_report(sweep_out)["rows"]
    assert [row["n"] for row in rows] == [10, 20, 40]
    for row in rows:
        dist = dicke_x_distribution(row["n"], 2)
        assert_allclose(row["delta_s"], shannon_entropy(dist), rtol=0, atol=1e-12)


def _csv_row(outdir) -> dict:
    header, row = (outdir / "results.csv").read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("n", [30, 10**6])
def test_u1_run_of_a_kink_is_the_kink_sweep_row(tmp_path, n):
    """Past the statevector cap, a u1-asymmetry run of a kink spec takes the sweep's closed form."""
    u1_cfg = {"experiment": "u1-asymmetry", "geometry": {"dimension": 1, "linear_size": n},
              "state_spec": {"kind": "kink"}, "output": str(tmp_path / "u1")}
    sweep_cfg = {"experiment": "kink-sweep", "sweep": [n], "output": str(tmp_path / "sweep")}
    assert main(["run", _write(tmp_path / "u1.json", u1_cfg)]) == 0
    assert main(["run", _write(tmp_path / "sweep.json", sweep_cfg)]) == 0
    u1_row, sweep_row = _csv_row(tmp_path / "u1"), _csv_row(tmp_path / "sweep")
    for column in ("n", "delta_s", "variance", "bound_log_n_plus_1"):
        assert u1_row[column] == sweep_row[column], column


def test_u1_run_of_a_closed_form_spec_is_held_to_the_kind_cap(tmp_path, capsys):
    over = {"experiment": "u1-asymmetry", "state_spec": {"kind": "kink"},
            "geometry": {"dimension": 1, "linear_size": KINK_SWEEP_MAX + 1}}
    assert main(["run", _write(tmp_path / "over.json", over)]) == 3
    assert f"KINK_SWEEP_MAX = {KINK_SWEEP_MAX}" in capsys.readouterr().err
    # a site count with too many digits to print is named as linear^dimension
    over["geometry"] = {"dimension": 10**9, "linear_size": 2}
    assert main(["run", _write(tmp_path / "torus.json", over)]) == 3
    assert "2^1000000000 sites exceed KINK_SWEEP_MAX" in capsys.readouterr().err


def test_clustering_input_ghz_builds_a_circuit_state(tmp_path, monkeypatch):
    circ = random_brickwork(LatticeGeometry(1, 4), 2, np.random.default_rng(1))
    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    argv = ["clustering", "--circuit", str(path), "--input", "ghz", "--linear-size", "4"]
    cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert cfg.state_spec["input"] == {"kind": "ghz"}
    state, loaded = build_state(cfg.state_spec, 4, cfg.seed)
    assert loaded is not None
    assert_allclose(state.amplitudes, apply_circuit(ghz_state(4), circ).amplitudes, atol=1e-15)


def test_pass_rule_is_strict_for_massey_only():
    assert not cli._bounds_hold({"log_n_plus_1": 1.0, "massey": 0.0, "clustering": None})
    assert cli._bounds_hold({"log_n_plus_1": -5e-10, "massey": 1e-12, "clustering": None})
    assert not cli._bounds_hold({"log_n_plus_1": -2 * MARGIN_TOL, "massey": 1.0})
    assert cli._bounds_hold({"sector_entropy": -5e-10, "support_dim": 0.0})
    # the same rule decides the suites: margin 0.0 fails only when strict
    assert holds(0.0) and not holds(0.0, strict=True)
    assert CheckResult("any-check", 0.0).passed
    assert not CheckResult("massey-strict", 0.0, strict=True).passed
    assert CheckResult("massey-strict", 1e-300, strict=True).passed
    assert holds(-5e-10 + MARGIN_TOL)
    assert not holds(-2 * MARGIN_TOL + MARGIN_TOL)
    results = bound_suite(samples=0.05, names=["massey-strict", "asymmetry-log-cap"])
    assert [r.strict for r in results] == [False, True]  # suite order: log cap, then Massey


def test_readme_lists_the_named_states():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"`--state` accepts a named family \(([^)]*)\)", readme).group(1)
    names = [n for n in re.findall(r"`([^`]+)`", listed) if n != "random:SEED"]
    assert names == sorted(NAMED_STATES)


def test_verify_oracle_suite_passes(capsys):
    assert main(["verify", "oracle-suite", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "all checks passed" in text
    assert "FAIL" not in text


def test_verify_bound_suite_reduced_and_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "verify",
            "bound-suite",
            "--seed",
            "1",
            "--samples",
            "0.05",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "check,passed,margin,config_hash"
    assert len(lines) == 1 + 31
    report = _read_report(out)
    assert report["all_passed"] is True
    assert _plotted_columns(out) == (None, "margin")


def test_verify_bound_suite_reports_a_raising_check_as_failed(tmp_path, monkeypatch):
    from asymlab import su2

    monkeypatch.setattr(su2, "HAAR_QUADRATURE_TOL", -1.0)
    out = tmp_path / "out"
    code = main(["verify", "bound-suite", "--samples", "0.05", "--output", str(out)])
    assert code == 4
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 31
    failed = [line for line in lines[1:] if ",false," in line]
    assert len(failed) == 1
    assert failed[0].startswith("twirl-quadrature-match,false,-inf,")

    def reject(token):
        raise ValueError(f"report.json holds the non-JSON token {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    raised = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in raised] == ["twirl-quadrature-match"]
    assert raised[0]["margin"] is None
    assert raised[0]["detail"].startswith("raised ValidationError")


def test_verify_oracle_suite_reports_a_non_converging_quadrature_as_failed(tmp_path, monkeypatch):
    from asymlab import closedforms

    monkeypatch.setattr(closedforms, "TANH_SINH_TOL", -1.0)
    out = tmp_path / "out"
    assert main(["verify", "oracle-suite", "--output", str(out)]) == 4
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 13
    failed = [line for line in lines[1:] if ",false," in line]
    assert len(failed) == 1
    assert failed[0].startswith("arcsine-and-table-integrals,false,-inf,")
    (raised,) = [c for c in _read_report(out)["checks"] if not c["passed"]]
    assert raised["detail"].startswith("raised ValidationError: tanh-sinh rule did not converge")


def test_dicke_command_log_spaced_even_points(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "dicke",
            "--n-min",
            "100",
            "--n-max",
            "10000",
            "--points",
            "3",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_report(out)["rows"]
    ns = [r["n"] for r in rows]
    assert all(n % 2 == 0 for n in ns)
    assert ns == sorted(ns)


def _plotted_columns(out):
    """results.csv column names of plot.gp's ``using x:y`` (None for gnuplot's row index)."""
    header = (out / "results.csv").read_text().splitlines()[0].split(",")
    using = re.search(r"using (\d+):(\d+)", (out / "plot.gp").read_text())
    x, y = (int(col) for col in using.groups())
    return (header[x - 1] if x else None), header[y - 1]


def _clustering_argv(tmp_path, out):
    circ_path = tmp_path / "circ.json"
    save_circuit(random_brickwork(LatticeGeometry(1, 6), 1, np.random.default_rng(0)), circ_path)
    return ["clustering", "--circuit", str(circ_path), "--linear-size", "6",
            "--output", str(out)]


@pytest.mark.parametrize("make_argv, expected", [
    (lambda tmp, out: ["kink", "--n-min", "10", "--n-max", "1000", "--points", "3",
                       "--output", str(out)], ("n", "linearized")),
    (lambda tmp, out: ["run", _write(tmp / "cfg.json", {
        "experiment": "u1-asymmetry", "geometry": {"dimension": 1, "linear_size": 4},
        "state_spec": {"kind": "ghz"}, "output": str(out)})], ("n", "linearized")),
    (lambda tmp, out: ["su2", "--state", "dicke", "--n", "4", "--output", str(out)],
     ("n", "linearized")),
    (_clustering_argv, ("distance", "max_abs_correlator")),
], ids=["sweep", "u1", "su2", "clustering"])
def test_plot_columns_name_the_plotted_fields(tmp_path, make_argv, expected):
    out = tmp_path / "out"
    assert main(make_argv(tmp_path, out)) == 0
    assert _plotted_columns(out) == expected


@pytest.mark.parametrize("experiment, entropic, kept", [
    ("u1-asymmetry",
     ["delta_s", "shannon", "bound_log_n_plus_1", "bound_massey", "bound_clustering",
      "margin_log_n_plus_1", "margin_massey", "margin_clustering"],
     ["n", "variance", "linearized"]),
    ("su2-asymmetry",
     ["delta_s", "bound_sector_entropy", "bound_support_dim", "margin_sector_entropy",
      "margin_support_dim"],
     ["n", "casimir_bound", "casimir_lhs", "casimir_precursor_lhs", "linearized"]),
])
def test_log_base_two_divides_exactly_the_entropic_fields(tmp_path, experiment, entropic, kept):
    def run(log_base):
        out = tmp_path / log_base
        cfg = _write(tmp_path / f"{log_base}.json", {
            "experiment": experiment, "geometry": {"dimension": 1, "linear_size": 6},
            "state_spec": {"kind": "random", "seed": 2, "rank": 3}, "clustering_range": 2,
            "log_base": log_base, "output": str(out),
        })
        code = main(["run", cfg])
        header, row = (out / "results.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        del values["config_hash"]  # the output path is part of the config
        return code, {k: float(v) for k, v in values.items()}, _read_report(out)["report"]

    code_e, csv_e, rep_e = run("e")
    code_2, csv_2, rep_2 = run("2")
    assert code_2 == code_e
    assert sorted(csv_e) == sorted(entropic + kept)
    for key in entropic:
        assert csv_2[key] == csv_e[key] / LN2, key
    for key in kept:
        assert csv_2[key] == csv_e[key], key
    for key, value in rep_e.items():
        if key in ("bounds", "margins"):
            assert rep_2[key] == {k: v / LN2 for k, v in value.items()}, key
        else:
            assert rep_2[key] == (value / LN2 if key in ("delta_s", "shannon") else value), key


_SWEEP_COLUMNS = ("n,delta_s,variance,bound_log_n_plus_1,bound_massey,margin_log_n_plus_1,"
                  "margin_massey,linearized,fit_slope,fit_intercept,fit_max_residual,config_hash")
_SWEEP_KEYS = {"experiment", "config_hash", "log_base", "fit", "all_bounds_hold", "rows"}
_SU2_COLUMNS = ("n,delta_s,bound_sector_entropy,bound_support_dim,margin_sector_entropy,"
                "margin_support_dim,casimir_bound,casimir_lhs,casimir_precursor_lhs,linearized,"
                "config_hash")
_SU2_KEYS = {"experiment", "config_hash", "log_base", "report", "casimir", "all_bounds_hold"}
_SUITE_COLUMNS = "check,passed,margin,config_hash"
_SUITE_KEYS = {"experiment", "config_hash", "seed", "samples", "all_passed", "checks"}


def _state_run(experiment, **extra):
    return lambda tmp, out: ["run", _write(tmp / "cfg.json", {
        "experiment": experiment, "geometry": {"dimension": 1, "linear_size": 4},
        "state_spec": {"kind": "random", "seed": 1}, "output": str(out), **extra})]


@pytest.mark.parametrize("make_argv, columns, keys, flag", [
    (lambda tmp, out: ["dicke", "--n-min", "100", "--n-max", "10000", "--points", "4",
                       "--output", str(out)],
     _SWEEP_COLUMNS, _SWEEP_KEYS | {"fit_sqrt_corrected", "intercept_reference"},
     "all_bounds_hold"),
    (lambda tmp, out: ["kink", "--n-min", "10", "--n-max", "1000", "--points", "3",
                       "--output", str(out)],
     _SWEEP_COLUMNS, _SWEEP_KEYS, "all_bounds_hold"),
    (_state_run("u1-asymmetry", clustering_range=1),
     "n,delta_s,shannon,variance,bound_log_n_plus_1,bound_massey,bound_clustering,"
     "margin_log_n_plus_1,margin_massey,margin_clustering,linearized,config_hash",
     {"experiment", "config_hash", "log_base", "clustering_range", "report", "all_bounds_hold"},
     "all_bounds_hold"),
    (_state_run("su2-asymmetry", clustering_range=1), _SU2_COLUMNS, _SU2_KEYS, "all_bounds_hold"),
    (_state_run("su2-asymmetry"), _SU2_COLUMNS, _SU2_KEYS, "all_bounds_hold"),
    (_clustering_argv, "distance,max_abs_correlator,config_hash",
     {"experiment", "config_hash", "claimed_range", "cluster_report", "operator_spread",
      "operator_spread_note", "lightcone_range", "variance_check", "all_checks_hold"},
     "all_checks_hold"),
    (lambda tmp, out: ["run", _write(tmp / "cfg.json", {
        "experiment": "bound-suite", "samples": 0.05, "output": str(out)})],
     _SUITE_COLUMNS, _SUITE_KEYS, "all_passed"),
    (lambda tmp, out: ["verify", "oracle-suite", "--output", str(out)],
     _SUITE_COLUMNS, _SUITE_KEYS, "all_passed"),
], ids=["dicke", "kink", "u1", "su2-range", "su2", "clustering", "run-bound-suite",
        "verify-oracle-suite"])
def test_artifact_layout_is_pinned(tmp_path, make_argv, columns, keys, flag):
    """Column order, report keys and pass flag of every experiment's artifacts."""
    out = tmp_path / "out"
    assert main(make_argv(tmp_path, out)) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == columns
    assert all(line.count(",") == columns.count(",") for line in lines)
    report = _read_report(out)
    assert set(report) == keys
    assert report[flag] is True
    assert lines[1].rsplit(",", 1)[1] == report["config_hash"]
    if "casimir" in report:  # a claimed range, and only one, brings the Casimir columns
        casimir = lines[1].split(",")[6:9]
        assert (report["casimir"] is None) == (casimir == ["", "", ""])


def test_plot_script_references_the_csv(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "cfg.json",
        {"experiment": "kink-sweep", "sweep": [10, 100, 1000], "output": str(out)},
    )
    main(["run", cfg])
    script = (out / "plot.gp").read_text()
    assert 'set datafile separator ","' in script
    assert "results.csv" in script
    assert "logscale" in script


def test_mixed_su2_run_never_touches_a_dense_matrix(tmp_path, monkeypatch):
    """N = 10, rank 4: every eigensolve is a multiplicity block, no operator meets rho."""
    n = 10
    eig_shapes, site_shapes = [], []
    eigvalsh = np.linalg.eigvalsh
    kernel = states.apply_site_matrix

    def spy_eigvalsh(a, *args, **kwargs):
        eig_shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def spy_kernel(arr, *args, **kwargs):
        site_shapes.append(np.shape(arr))
        return kernel(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    for name, module in list(sys.modules.items()):
        if name.startswith("asymlab") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, spy_kernel)
    cfg = _write(tmp_path / "mixed.json", {
        "experiment": "su2-asymmetry",
        "geometry": {"dimension": 1, "linear_size": n},
        "state_spec": {"kind": "random", "seed": 0, "rank": 4},
        "clustering_range": 2,
        "output": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    largest_block = max(su2.multiplicity(n, s) for s in range(n // 2 + 1))
    assert largest_block == 90
    assert eig_shapes and max(max(shape) for shape in eig_shapes) <= largest_block
    assert site_shapes and (2**n, 2**n) not in site_shapes
    assert _read_report(tmp_path / "out")["casimir"] is not None


def test_console_entry_point_installed():
    # editable install exposes the asymlab executable
    import shutil

    exe = shutil.which("asymlab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "run", "/nonexistent.json"], capture_output=True, text=True
    )
    assert proc.returncode == 2


# ---------------- the OpenBLAS idle policy ----------------

PACKAGE_DIR = Path(cli.__file__).resolve().parent


def _environ_writes(tree: ast.Module) -> list[int]:
    """Lines that write os.environ or call os.putenv / os.unsetenv."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = ("get", "copy", "keys", "items", "values")
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            continue
        parent = parents[node]
        if node.attr in ("putenv", "unsetenv"):
            lines.append(node.lineno)
        elif node.attr == "environ" and not (
            (isinstance(parent, ast.Attribute) and parent.attr in reads)
            or (isinstance(parent, ast.Subscript) and isinstance(parent.ctx, ast.Load))
        ):
            lines.append(node.lineno)
    return lines


def test_cli_sets_the_openblas_timeout_first_and_no_other_module_writes_the_environment():
    body = ast.parse((PACKAGE_DIR / "cli.py").read_text()).body
    [(at, policy)] = [
        (i, node) for i, node in enumerate(body)
        if isinstance(node, ast.Expr) and "os.environ" in ast.unparse(node)
    ]
    assert ast.unparse(policy) == (
        "os.environ.setdefault('OPENBLAS_THREAD_TIMEOUT', OPENBLAS_IDLE_TIMEOUT)"
    )
    # only the standard library loads before it: numpy, and every asymlab module, after
    for i, node in enumerate(body):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and i < at:
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert getattr(node, "level", 0) == 0, ast.unparse(node)
            assert all(n.split(".")[0] in sys.stdlib_module_names for n in names), ast.unparse(node)
    assert any(
        isinstance(node, ast.Import) and node.names[0].name == "numpy" for node in body[at:]
    )
    writes = {
        path.name: _environ_writes(ast.parse(path.read_text()))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert writes.pop("cli.py") == [policy.lineno]
    assert all(lines == [] for lines in writes.values()), writes


def _fresh_environment(code: str, env: dict) -> dict:
    """Run ``code`` in a new interpreter with exactly ``env`` plus PYTHONPATH to this checkout."""
    env = dict(env, PYTHONPATH=str(PACKAGE_DIR.parent), PATH=os.environ.get("PATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, os\nprint(json.dumps(dict(os.environ)))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_sets_the_openblas_idle_timeout_and_no_thread_count():
    env = _fresh_environment("from asymlab.cli import main", {})
    assert env["OPENBLAS_THREAD_TIMEOUT"] == cli.OPENBLAS_IDLE_TIMEOUT == "24"
    assert not any(key.endswith("_NUM_THREADS") for key in env), env


def test_cli_import_keeps_a_preset_openblas_timeout():
    env = _fresh_environment("from asymlab.cli import main", {"OPENBLAS_THREAD_TIMEOUT": "28"})
    assert env["OPENBLAS_THREAD_TIMEOUT"] == "28"


def test_library_import_leaves_the_environment_alone():
    env = _fresh_environment("import asymlab.states, asymlab.su2", {})
    assert "OPENBLAS_THREAD_TIMEOUT" not in env
