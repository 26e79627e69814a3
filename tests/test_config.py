import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asymlab import closedforms, config
from asymlab.circuits import random_brickwork, save_circuit
from asymlab.config import (
    build_state,
    circuit_depth_range,
    config_hash,
    load_config,
    validate_config,
)
from asymlab.errors import ConfigError, ResourceError
from asymlab.lattice import LatticeGeometry
from asymlab.states import DensityMatrix, StateVector, ghz_state
from asymlab.u1 import charge_distribution, u1_asymmetry


def _sweep_cfg(**overrides):
    data = {"experiment": "dicke-sweep", "sweep": [100, 1000]}
    data.update(overrides)
    return data


def test_minimal_sweep_config_validates_with_defaults():
    cfg = validate_config(_sweep_cfg())
    assert cfg.experiment == "dicke-sweep"
    assert cfg.seed == 0
    assert cfg.samples == 1.0
    assert cfg.log_base == "e"
    assert cfg.state_spec == {"kind": "dicke", "ratio": 0.5}
    assert len(cfg.hash) == 12


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError):
        validate_config(_sweep_cfg(bogus=True))
    with pytest.raises(ConfigError):
        validate_config(
            {
                "experiment": "u1-asymmetry",
                "geometry": {"dimension": 1, "linear_size": 4, "extra": 2},
                "state_spec": {"kind": "ghz"},
            }
        )


@pytest.mark.parametrize(
    "data, where",
    [
        ({"experiment": "bound-suite", "samples": math.nan}, "samples"),
        ({"experiment": "bound-suite", "samples": math.inf}, "samples"),
        (_sweep_cfg(state_spec={"kind": "dicke", "ratio": -math.inf}), "state_spec/ratio"),
        (
            {"experiment": "product-sweep", "sweep": [2],
             "state_spec": {"kind": "bernoulli", "x": [0.5, math.nan]}},
            "state_spec/x/1",
        ),
    ],
)
def test_non_finite_numbers_are_rejected(data, where):
    with pytest.raises(ConfigError, match=f"at {where}: .* is not a finite number"):
        validate_config(data)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "time-travel"})


def test_config_hash_is_order_insensitive_and_content_sensitive():
    a = config_hash({"experiment": "kink-sweep", "sweep": [10, 20]})
    b = config_hash({"sweep": [10, 20], "experiment": "kink-sweep"})
    c = config_hash({"experiment": "kink-sweep", "sweep": [10, 21]})
    assert a == b
    assert a != c


def test_sweep_requires_matching_state_kind():
    with pytest.raises(ConfigError):
        validate_config(_sweep_cfg(state_spec={"kind": "kink"}))


def test_dicke_sweep_rejects_non_integer_filling():
    with pytest.raises(ConfigError):
        validate_config(
            {
                "experiment": "dicke-sweep",
                "sweep": [100, 101],
                "state_spec": {"kind": "dicke", "ratio": 0.5},
            }
        )


def test_sweep_envelope_caps_are_enforced():
    with pytest.raises(ResourceError):
        validate_config({"experiment": "kink-sweep", "sweep": [20_000_000]})
    with pytest.raises(ResourceError):
        validate_config({"experiment": "product-sweep", "sweep": [50_000]})


def test_state_experiment_requires_geometry():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "u1-asymmetry", "state_spec": {"kind": "ghz"}})


def test_statevector_cap_yields_resource_error():
    with pytest.raises(ResourceError):
        validate_config(
            {
                "experiment": "u1-asymmetry",
                "geometry": {"dimension": 1, "linear_size": 30},
                "state_spec": {"kind": "ghz"},
            }
        )


def test_su2_takes_odd_sites():
    for spec in ({"kind": "ghz"}, {"kind": "random", "rank": 4}):
        cfg = validate_config(
            {
                "experiment": "su2-asymmetry",
                "geometry": {"dimension": 1, "linear_size": 5},
                "state_spec": spec,
            }
        )
        assert cfg.geometry.n_sites == 5


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_sweep_cfg(seed=7)))
    cfg = load_config(path)
    assert cfg.seed == 7
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_build_state_product_amplitudes():
    spec = {
        "kind": "product",
        "amplitudes": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]],
    }
    state, circ = build_state(spec, 2, 0)
    assert circ is None
    assert isinstance(state, StateVector)
    assert_allclose(state.amplitudes, [0.6, 0.8, 0.0, 0.0], atol=1e-12)
    with pytest.raises(ConfigError):
        build_state(spec, 3, 0)


def test_build_state_bernoulli_scalar_and_vector():
    state, _ = build_state({"kind": "bernoulli", "x": 1.0}, 3, 0)
    assert_allclose(state.diagonal()[0], 1.0)
    state, _ = build_state({"kind": "bernoulli", "x": [1.0, 0.0, 1.0]}, 3, 0)
    assert_allclose(charge_distribution(state).probs[2], 1.0)
    with pytest.raises(ConfigError):
        build_state({"kind": "bernoulli", "x": [0.5, 0.5]}, 3, 0)


def test_build_state_named_states():
    ghz, _ = build_state({"kind": "ghz"}, 4, 0)
    assert_allclose(ghz.amplitudes, ghz_state(4).amplitudes, atol=0)
    kink, _ = build_state({"kind": "kink"}, 4, 0)
    assert_allclose(charge_distribution(kink).probs, [0.0, 0.25, 0.25, 0.25, 0.25])
    dicke, _ = build_state({"kind": "dicke", "ratio": 0.5}, 4, 0)
    assert_allclose(charge_distribution(dicke).probs[1::2], [0.0, 0.0], atol=1e-14)
    # ratio must give an integer excitation count: 0.4 * 6 = 2.4
    with pytest.raises(ConfigError):
        build_state({"kind": "dicke", "ratio": 0.4}, 6, 0)


def test_closed_form_state_forms_its_amplitudes_only_when_read():
    state, _ = build_state({"kind": "kink"}, 30, 0)
    assert (state.n_qubits, state.dim) == (30, 2**30)
    assert np.array_equal(charge_distribution(state).probs, closedforms.kink_distribution(30).probs)
    with pytest.raises(ResourceError, match="statevector cap"):
        state.factor
    for spec, dense in (
        ({"kind": "kink"}, closedforms.kink_state(6)),
        ({"kind": "dicke", "ratio": 0.5}, closedforms.dicke_state(6, 3, axis="x")),
        ({"kind": "bernoulli", "x": 0.3}, closedforms.product_charge_state(np.full(6, 0.3))),
    ):
        state, _ = build_state(spec, 6, 0)
        assert np.array_equal(state.amplitudes, dense.amplitudes)


@pytest.mark.parametrize(
    "spec",
    [{"kind": "kink"}, {"kind": "dicke"}, {"kind": "bernoulli", "x": 0.3}],
    ids=["kink", "dicke-half", "bernoulli"],
)
def test_closed_form_asymmetry_forms_no_statevector(spec):
    """At N = 20 the amplitudes alone take 16 MiB; the closed form is 21 probabilities."""
    tracemalloc.start()
    try:
        report = u1_asymmetry(build_state(spec, 20, 0)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    dense = StateVector(build_state(spec, 20, 0)[0].amplitudes)
    assert_allclose(report.delta_s, u1_asymmetry(dense).delta_s, rtol=0, atol=1e-10)


def test_build_state_random_is_seeded_and_rank_aware():
    a, _ = build_state({"kind": "random"}, 3, 11)
    b, _ = build_state({"kind": "random"}, 3, 11)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c, _ = build_state({"kind": "random", "seed": 12}, 3, 11)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    rho, _ = build_state({"kind": "random", "rank": 2}, 2, 0)
    assert isinstance(rho, DensityMatrix)
    assert np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-10) == 2


def test_build_state_vector_file(tmp_path):
    vec = np.zeros(8, dtype=complex)
    vec[3] = 1.0
    npy = tmp_path / "state.npy"
    np.save(npy, vec)
    state, _ = build_state({"kind": "vector", "path": str(npy)}, 3, 0)
    assert_allclose(state.diagonal()[3], 1.0)

    js = tmp_path / "state.json"
    js.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 1.0]]}))
    state, _ = build_state({"kind": "vector", "path": str(js)}, 1, 0)
    assert_allclose(state.diagonal(), [0.5, 0.5], atol=1e-12)

    with pytest.raises(ConfigError):
        build_state({"kind": "vector", "path": str(npy)}, 2, 0)
    with pytest.raises(ConfigError):
        build_state({"kind": "vector", "path": str(tmp_path / "nope.npy")}, 3, 0)


def test_build_state_circuit_applies_to_input(tmp_path):
    rng = np.random.default_rng(5)
    geo = LatticeGeometry(1, 4)
    circ = random_brickwork(geo, 2, rng)
    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    spec = {"kind": "circuit", "path": str(path)}
    state, loaded = build_state(spec, 4, 0)
    assert loaded is not None
    assert loaded.depth == 2
    assert circuit_depth_range(loaded) == 4
    # wrong system size is a config error
    with pytest.raises(ConfigError):
        build_state(spec, 6, 0)
    # nested circuits are rejected
    bad = {"kind": "circuit", "path": str(path), "input": {"kind": "circuit", "path": str(path)}}
    with pytest.raises(ConfigError):
        build_state(bad, 4, 0)


def test_circuit_clustering_config_requires_circuit_kind():
    with pytest.raises(ConfigError):
        validate_config(
            {
                "experiment": "circuit-clustering",
                "geometry": {"dimension": 1, "linear_size": 4},
                "state_spec": {"kind": "ghz"},
            }
        )


def test_circuit_kind_rejected_for_sweeps(tmp_path):
    with pytest.raises(ConfigError):
        validate_config(
            {
                "experiment": "dicke-sweep",
                "sweep": [100],
                "state_spec": {"kind": "circuit", "path": "x.json"},
            }
        )


def test_clustering_range_requires_geometry():
    with pytest.raises(ConfigError):
        validate_config(_sweep_cfg(clustering_range=2))


@pytest.mark.parametrize(
    "data, direct",
    [
        ({"experiment": "kink-sweep", "sweep": [10]}, closedforms.kink_distribution(10)),
        ({"experiment": "product-sweep", "sweep": [10],
          "state_spec": {"kind": "bernoulli", "x": 0.3}},
         closedforms.binomial_distribution(10, 0.3)),
        ({"experiment": "dicke-sweep", "sweep": [10]}, closedforms.dicke_half_distribution(5)),
        ({"experiment": "dicke-sweep", "sweep": [10],
          "state_spec": {"kind": "dicke", "ratio": 0.2}},
         closedforms.dicke_x_distribution(10, 2)),
        # per-site means, even when all equal, still take the product tree
        ({"experiment": "product-sweep", "sweep": [10],
          "state_spec": {"kind": "bernoulli", "x": [0.3] * 10}},
         closedforms.poisson_binomial(np.full(10, 0.3))),
    ],
)
def test_sweep_distribution_takes_each_closed_form(data, direct):
    cfg = validate_config(data)
    dist = charge_distribution(build_state(cfg.state_spec, 10, cfg.seed)[0])
    assert np.array_equal(dist.probs, direct.probs)


_GEOMETRY = {"dimension": 1, "linear_size": 4}
# one valid config per experiment and per branch of every oneOf in the schema
_VALID_CONFIGS = [
    {"experiment": "dicke-sweep", "sweep": [100, 1000], "seed": 3, "output": "out",
     "log_base": "2", "state_spec": {"kind": "dicke", "ratio": 0.25}},
    {"experiment": "dicke-sweep", "sweep": [10], "state_spec": {"kind": "dicke", "k": 2}},
    {"experiment": "kink-sweep", "sweep": [10], "state_spec": {"kind": "kink"}},
    {"experiment": "product-sweep", "sweep": [2], "state_spec": {"kind": "bernoulli", "x": 0.3}},
    {"experiment": "product-sweep", "sweep": [2],
     "state_spec": {"kind": "bernoulli", "x": [0.1, 0.9]}},
    {"experiment": "u1-asymmetry", "geometry": _GEOMETRY, "clustering_range": 2,
     "state_spec": {"kind": "product", "amplitudes": [[[1.0, 0.0], [0.0, 0.0]]]}},
    {"experiment": "u1-asymmetry", "geometry": _GEOMETRY, "state_spec": {"kind": "ghz"}},
    {"experiment": "su2-asymmetry", "geometry": _GEOMETRY,
     "state_spec": {"kind": "random", "seed": 1, "rank": 2}},
    {"experiment": "su2-asymmetry", "geometry": _GEOMETRY,
     "state_spec": {"kind": "vector", "path": "v.npy"}},
    {"experiment": "circuit-clustering", "geometry": _GEOMETRY, "tolerance": 1e-10,
     "state_spec": {"kind": "circuit", "path": "c.json", "input": None}},
    {"experiment": "circuit-clustering", "geometry": _GEOMETRY,
     "state_spec": {"kind": "circuit", "path": "c.json",
                    "input": {"kind": "random", "seed": 2, "rank": 1}}},
    {"experiment": "circuit-clustering", "geometry": _GEOMETRY,
     "state_spec": {"kind": "circuit", "path": "c.json",
                    "input": {"kind": "bernoulli", "x": [0.2, 0.8]}}},
    {"experiment": "circuit-clustering", "geometry": _GEOMETRY,
     "state_spec": {"kind": "circuit", "path": "c.json",
                    "input": {"kind": "product", "amplitudes": [[[1.0, 0.0], [0.0, 0.0]]]}}},
    {"experiment": "bound-suite", "samples": 0.5, "seed": 1},
]
# wrong types, values on and beyond every bound, and the bool/int/float/None edge cases
_EDGE_VALUES = [None, True, False, 0, 1, -1, 2, 0.0, 1.0, 2.0, 0.5, -0.5, 1.5, 1e300,
                "", "x", "e", "2", "ghz", [], [1], [0.5, 0.5], [[1.0, 0.0]], {}, {"kind": "ghz"}]


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _replaced(data, path, new):
    """A deep copy of ``data`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    out = copy.deepcopy(data)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return out


def _mutants(data):
    for path in _paths(data):
        target = data
        for key in path:
            target = target[key]
        for value in _EDGE_VALUES:
            yield _replaced(data, path, value)
        if isinstance(target, dict):
            yield _replaced(data, path, dict(target, bogus=1))
            for key in target:
                yield _replaced(data, path, {k: v for k, v in target.items() if k != key})
        if isinstance(target, list):
            yield _replaced(data, path, target[:-1])
            yield _replaced(data, path, target + target[-1:])


def test_schema_walker_agrees_with_jsonschema_on_every_mutant():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(config.schema())
    verdicts = []
    for data in _VALID_CONFIGS:
        config._check_schema(data)
        for mutant in _mutants(data):
            errors = sorted(validator.iter_errors(mutant), key=lambda e: list(e.absolute_path))
            try:
                config._check_schema(mutant)
                got = None
            except ConfigError as exc:
                got = str(exc)
            if errors:
                where = "/".join(map(str, errors[0].absolute_path)) or "<root>"
                assert got is not None and got.startswith(f"config invalid at {where}: "), (
                    mutant, errors[0].message, got)
            else:
                assert got is None, (mutant, got)
            verdicts.append(got is None)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 1000


@pytest.mark.parametrize("keyword, rule", [("pattern", "^o"), ("maxLength", 8),
                                           ("additionalProperties", True)])
def test_schema_walker_raises_on_a_keyword_it_does_not_implement(monkeypatch, keyword, rule):
    edited = copy.deepcopy(config.schema())
    edited["properties"]["output"][keyword] = rule
    monkeypatch.setattr(config, "_schema_cache", edited)
    with pytest.raises(NotImplementedError, match=keyword):
        validate_config({"experiment": "bound-suite", "output": "out"})
