"""Experiment configuration: schema validation, capability envelope, hashing.

Configs are JSON objects checked against the shipped draft-07 schema
(`schema/config.schema.json`, unknown keys are errors) by a small walker in
this module that interprets the keywords that file uses and raises on any
other, then checked against the capability envelope of the chosen
computational path before anything runs.  ``config_hash`` gives the short
provenance token echoed on every CSV row.

``build_state`` is the one place a state spec becomes a state, for sweeps
and single-state runs alike.  A bernoulli, dicke or kink spec becomes a
``states.ClosedFormState``, so every U(1) run of it (a sweep, or
``u1-asymmetry``) reads its closed-form charge distribution and is held to
the kind's cap (``_closed_form_cap``), while any other run reads its dense
amplitudes under the statevector cap; only a matrix-built state (a full-rank
``random`` spec) is held to the density-matrix cap, when it is drawn.  The
envelope check resolves a closed-form spec at every N of a U(1) run, which
runs the spec's own checks (a dicke count, a bernoulli list length) before
anything is computed.  A key that the experiment would not read is refused
(``_EXPERIMENT_KEYS``).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from . import closedforms, states
from .circuits import apply_circuit, circuit_from_dict
from .errors import ConfigError, ResourceError
from .lattice import LatticeGeometry
from .tolerances import CORRELATOR_TOL, RATIO_INTEGER_TOL, ZERO_NORM

SWEEP_EXPERIMENTS = ("dicke-sweep", "kink-sweep", "product-sweep")
STATE_EXPERIMENTS = ("u1-asymmetry", "su2-asymmetry", "circuit-clustering")
SUITE_EXPERIMENTS = ("bound-suite", "oracle-suite")
# runs that read only a state's charge distribution, so a closed-form spec keeps its closed form
U1_EXPERIMENTS = SWEEP_EXPERIMENTS + ("u1-asymmetry",)

# the keys each experiment reads besides "experiment"; any other key in its config is an error
_SINGLE_STATE_KEYS = frozenset({"geometry", "state_spec", "seed", "output", "clustering_range"})
_EXPERIMENT_KEYS = {
    **dict.fromkeys(SWEEP_EXPERIMENTS, {"state_spec", "sweep", "seed", "output", "log_base"}),
    "u1-asymmetry": _SINGLE_STATE_KEYS | {"log_base"},
    "su2-asymmetry": _SINGLE_STATE_KEYS | {"log_base"},
    "circuit-clustering": _SINGLE_STATE_KEYS | {"tolerance"},
    "bound-suite": {"seed", "samples", "output"},
    "oracle-suite": {"seed", "output"},
}

# closed-form envelopes, the largest N of every U(1) run of each kind; each is named in its error
DICKE_HALF_SWEEP_MAX = 2_000_000
DICKE_GENERAL_SWEEP_MAX = 2_048
KINK_SWEEP_MAX = 10_000_000
PRODUCT_SWEEP_MAX = 20_000
# log-spaced points of a command-line sweep; checked before the grid is allocated, never clamped
SWEEP_POINTS_MAX = 100_000
# bound-suite draw scale; every check's draw count grows linearly with it
SAMPLES_MAX = 100.0

_schema_cache: dict | None = None


def schema() -> dict:
    global _schema_cache
    if _schema_cache is None:
        text = (
            resources.files("asymlab").joinpath("schema/config.schema.json").read_text()
        )
        _schema_cache = json.loads(text)
    return _schema_cache


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    geometry: LatticeGeometry | None
    state_spec: dict | None
    sweep: tuple[int, ...] | None
    seed: int
    samples: float | None
    output: str
    log_base: str
    clustering_range: int | None
    tolerance: float
    hash: str


# the state a sweep runs when its config names none; its kind is the one the sweep requires
_DEFAULT_SPECS = {
    "dicke-sweep": {"kind": "dicke", "ratio": 0.5},
    "kink-sweep": {"kind": "kink"},
    "product-sweep": {"kind": "bernoulli", "x": 0.5},
}

# command-line state names; any other name is resolved by the caller's fallback
NAMED_STATES = {
    "zero": {"kind": "bernoulli", "x": 1.0},
    "plus": {"kind": "bernoulli", "x": 0.5},
    "ghz": {"kind": "ghz"},
    "dicke": {"kind": "dicke", "ratio": 0.5},
    "kink": {"kind": "kink"},
    "random": {"kind": "random"},
}


def state_spec_from_name(name: str, fallback) -> dict:
    """Spec of a command-line state name: an alias, ``random:SEED``, else ``fallback(name)``."""
    if name in NAMED_STATES:
        return dict(NAMED_STATES[name])
    if name.startswith("random:"):
        text = name.split(":", 1)[1]
        try:
            return {"kind": "random", "seed": int(text)}
        except ValueError:
            raise ConfigError(f"seed {text!r} in {name!r} is not an integer") from None
    return fallback(name)


# draft-07 type rules: a bool is no number, and a float with an integral value is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (
        (isinstance(v, int) and not isinstance(v, bool))
        or (isinstance(v, float) and v.is_integer())
    ),
}
# numeric bound keyword: (broken when op(value, bound), message)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
_ANNOTATIONS = ("$schema", "title", "definitions")
_REF_PREFIX = "#/definitions/"


def _json_equal(a, b) -> bool:
    """Equality of JSON scalars: unlike Python's ``==``, a bool never equals a number."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(value, node: dict, root: dict, path=()):
    """Yield (path, message) for each rule of schema ``node`` that ``value`` breaks.

    Interprets the draft-07 keywords that the shipped schema uses, in the order
    the node lists them, with jsonschema's messages; ``$ref`` resolves into
    ``root``'s definitions.  Any other keyword raises NotImplementedError, so a
    schema edit cannot go unchecked.
    """
    for key, rule in node.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref" and rule.startswith(_REF_PREFIX):
            target = root["definitions"][rule[len(_REF_PREFIX):]]
            yield from _schema_errors(value, target, root, path)
        elif key == "type" and rule in _TYPES:
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            if not any(_json_equal(value, each) for each in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "const":
            if not _json_equal(value, rule):
                yield path, f"{rule!r} was expected"
        elif key == "oneOf":
            valid = sum(not any(_schema_errors(value, sub, root, path)) for sub in rule)
            if valid == 0:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif valid > 1:
                yield path, f"{value!r} is valid under more than one of the given schemas"
        elif key in _BOUNDS:
            broken, text = _BOUNDS[key]
            if _TYPES["number"](value) and broken(value, rule):
                yield path, f"{value!r} {text} {rule!r}"
        elif key in ("minLength", "minItems"):
            if isinstance(value, str if key == "minLength" else list) and len(value) < rule:
                text = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{value!r} {text}"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > rule:
                text = "is expected to be empty" if rule == 0 else "is too long"
                yield path, f"{value!r} {text}"
        elif key == "items" and isinstance(rule, dict):
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _schema_errors(item, rule, root, path + (index,))
        elif key == "required":
            if isinstance(value, dict):
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, root, path + (name,))
        elif key == "additionalProperties" and rule is False:
            if isinstance(value, dict):
                extras = sorted(value.keys() - node.get("properties", {}).keys(), key=str)
                if extras:
                    listed = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    message = f"Additional properties are not allowed ({listed} {verb} unexpected)"
                    yield path, message
        else:
            raise NotImplementedError(f"config schema keyword {key!r}: {rule!r} is not supported")


def _check_schema(data: dict):
    """Raise ConfigError naming the first schema violation in path order."""
    errors = _schema_errors(data, schema(), schema())
    first = min(errors, key=lambda error: error[0], default=None)
    if first is not None:
        where = "/".join(str(p) for p in first[0]) or "<root>"
        raise ConfigError(f"config invalid at {where}: {first[1]}")


def _check_finite(value, path=()):
    """Reject NaN and +-Inf anywhere in a config; the schema's bounds let NaN through."""
    if isinstance(value, float) and not math.isfinite(value):
        where = "/".join(map(str, path)) or "<root>"
        raise ConfigError(f"config invalid at {where}: {value!r} is not a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _check_finite(item, path + (index,))


def _closed_form_cap(spec: dict):
    """(name, value): the largest N of a bernoulli, dicke or kink spec's closed form, or None."""
    kind = spec.get("kind")
    if kind == "dicke" and dicke_half_filling(spec):
        return "DICKE_HALF_SWEEP_MAX", DICKE_HALF_SWEEP_MAX
    return {"bernoulli": ("PRODUCT_SWEEP_MAX", PRODUCT_SWEEP_MAX),
            "dicke": ("DICKE_GENERAL_SWEEP_MAX", DICKE_GENERAL_SWEEP_MAX),
            "kink": ("KINK_SWEEP_MAX", KINK_SWEEP_MAX)}.get(kind)


def _check_envelope(cfg: ExperimentConfig) -> None:
    """Hold a sweep's N values, or a single-state run's N, to its cap.

    A U(1) run (a sweep, or ``u1-asymmetry``) of a closed-form spec is held to
    the kind's cap and resolved at each N, which runs the spec's own checks;
    any other single-state run is held to the statevector cap.
    """
    closed = cfg.experiment in U1_EXPERIMENTS and _closed_form_cap(cfg.state_spec)
    name, cap = closed or ("the statevector cap", states.statevector_cap())
    geo = cfg.geometry
    sizes = cfg.sweep if cfg.experiment in SWEEP_EXPERIMENTS else None
    if sizes is None:
        # there are at least 2^(dimension * (bits of the side - 1)) sites, so past that bound
        # the count exceeds the cap; in more than one dimension it is then never formed, since
        # it may have too many digits to print, and the message names linear^dimension
        bits = geo.dimension * (geo.linear_size.bit_length() - 1)
        sizes = () if geo.dimension > 1 and bits >= cap.bit_length() else (geo.n_sites,)
    if not sizes or max(sizes) > cap:
        sites = max(sizes) if sizes else f"{geo.linear_size}^{geo.dimension}"
        hint = "" if closed else " (override with ASYMLAB_MAX_QUBITS)"
        raise ResourceError(f"{cfg.experiment}: {sites} sites exceed {name} = {cap}{hint}")
    for n in sizes if closed else ():
        build_state(cfg.state_spec, n, cfg.seed)


def validate_config(data: dict) -> ExperimentConfig:
    """Schema check, semantic check, capability envelope; returns the config."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    _check_finite(data)
    _check_schema(data)
    experiment = data["experiment"]
    for key in data:
        if key != "experiment" and key not in _EXPERIMENT_KEYS[experiment]:
            raise ConfigError(f"{experiment} takes no {key!r}")

    # the schema takes an integral float such as 4.0 as an integer; it is read as one
    geometry = None
    if "geometry" in data:
        geometry = LatticeGeometry(
            int(data["geometry"]["dimension"]), int(data["geometry"]["linear_size"])
        )

    state_spec = data.get("state_spec")
    if state_spec is None and experiment in _DEFAULT_SPECS:
        state_spec = dict(_DEFAULT_SPECS[experiment])

    sweep = tuple(int(n) for n in data.get("sweep", ())) or None

    cfg = ExperimentConfig(
        experiment=experiment,
        geometry=geometry,
        state_spec=state_spec,
        sweep=sweep,
        seed=int(data.get("seed", 0)),
        samples=None if experiment == "oracle-suite" else float(data.get("samples", 1.0)),
        output=data.get("output", "."),
        log_base=data.get("log_base", "e"),
        clustering_range=None if "clustering_range" not in data else int(data["clustering_range"]),
        tolerance=float(data.get("tolerance", CORRELATOR_TOL)),
        hash=config_hash(data),
    )

    if cfg.samples is not None and cfg.samples > SAMPLES_MAX:
        raise ResourceError(f"samples {cfg.samples!r} exceeds SAMPLES_MAX = {SAMPLES_MAX}")

    if experiment in SWEEP_EXPERIMENTS:
        if cfg.sweep is None:
            raise ConfigError(f"{experiment} requires a 'sweep' list of N values")
        wanted = _DEFAULT_SPECS[experiment]["kind"]
        if cfg.state_spec.get("kind") != wanted:
            raise ConfigError(
                f"{experiment} needs a state_spec of kind '{wanted}', "
                f"got '{cfg.state_spec.get('kind')}'"
            )
        _check_envelope(cfg)

    if experiment in STATE_EXPERIMENTS:
        if cfg.geometry is None:
            raise ConfigError(f"{experiment} requires 'geometry'")
        if cfg.state_spec is None:
            raise ConfigError(f"{experiment} requires 'state_spec'")
        _check_envelope(cfg)
        if experiment == "circuit-clustering":
            if cfg.state_spec.get("kind") != "circuit":
                raise ConfigError(
                    "circuit-clustering requires a state_spec of kind 'circuit'"
                )
    return cfg


def read_json(path, what: str):
    """The JSON value in file ``path``; ConfigError naming ``what`` if it is not readable JSON."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # a JSON syntax error, or bytes that are not text
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return validate_config(read_json(path, "config"))


def _unit_vector(vec: np.ndarray) -> np.ndarray | None:
    """``vec`` / |vec| for finite entries, or None when |vec| < ZERO_NORM.

    A power of two, which rounds no normal value, first brings the largest real
    or imaginary part into [0.5, 1): the norm cannot overflow, and the quotient
    keeps every bit of the unscaled one.
    """
    parts = np.ascontiguousarray(vec, dtype=complex).view(np.float64)
    exponent = np.frexp(np.abs(parts).max())[1]
    scaled = np.ldexp(parts, -exponent).view(complex)
    norm = np.linalg.norm(scaled)
    return None if np.ldexp(norm, exponent) < ZERO_NORM else scaled / norm


def _product_from_amplitudes(amplitudes, n: int) -> states.StateVector:
    if not isinstance(amplitudes, list):
        raise ConfigError(f"product state amplitudes must be a list, got {amplitudes!r}")
    if len(amplitudes) != n:
        raise ConfigError(
            f"product state lists {len(amplitudes)} sites, geometry has {n}"
        )
    locals_ = []
    for pair in amplitudes:
        unit = _unit_vector(states.complex_from_pairs(pair, "product state site"))
        if unit is None:
            raise ConfigError("product state has a zero local vector")
        locals_.append(unit)
    return states.product_state(locals_)


def _bernoulli_vector(x, n: int) -> np.ndarray:
    """Per-site probabilities of a bernoulli spec on n sites; a list must have length n."""
    if isinstance(x, (int, float)):
        return np.full(n, float(x))
    arr = np.asarray(x, dtype=float)
    if arr.size != n:
        raise ConfigError(f"bernoulli x lists {arr.size} sites, state has {n}")
    return arr


def dicke_half_filling(spec: dict) -> bool:
    """Whether a dicke spec takes the half-filling closed form: no 'k', ratio 0.5 or unset."""
    return "k" not in spec and float(spec.get("ratio", 0.5)) == 0.5


def dicke_excitations(spec: dict, n: int) -> int:
    """Excitation count k of a dicke spec on n sites: its 'k', else 'ratio' * n."""
    if "k" in spec and "ratio" in spec:
        raise ConfigError("a dicke spec takes 'k' or 'ratio', not both")
    if "k" in spec:
        k = int(spec["k"])
    else:
        ratio = float(spec.get("ratio", 0.5))
        k_eff = ratio * n
        if abs(k_eff - round(k_eff)) > RATIO_INTEGER_TOL:
            raise ConfigError(f"dicke ratio {ratio} gives non-integer excitation count at N = {n}")
        k = int(round(k_eff))
    if not 0 <= k <= n:
        raise ConfigError(f"dicke k = {k} outside [0, {n}]")
    return k


def _load_vector(path, n: int) -> states.StateVector:
    """Read a full statevector from .npy (complex vector) or .json [[re, im], ...]."""
    try:
        if str(path).endswith(".npy"):
            raw = np.load(path)
            if raw.dtype.kind not in "iufc":
                raise ValueError(f"its {raw.dtype} entries are not integer, float or complex")
            vec = np.asarray(raw, dtype=complex)
        else:
            with open(path) as handle:
                data = json.load(handle)
            pairs = data["amplitudes"] if isinstance(data, dict) else data
            vec = states.complex_from_pairs(pairs, "amplitude")
    except OSError as exc:
        raise ConfigError(f"cannot read state file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"state file {path} is malformed: {exc}") from exc
    if vec.ndim != 1:
        raise ConfigError(f"state file {path} holds an array of shape {vec.shape}, not a vector")
    if vec.size != 2**n:
        raise ConfigError(
            f"state file {path} holds {vec.size} amplitudes, need {2**n} for {n} sites"
        )
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"state file {path} holds a NaN or infinite amplitude")
    unit = _unit_vector(vec)
    if unit is None:
        raise ConfigError(f"state file {path} holds a zero vector")
    return states.StateVector(unit)


def build_state(spec: dict, n: int, seed: int):
    """Resolve a state_spec on n sites; returns (state, circuit-or-None).

    This is the only code that turns a spec into a state.  A bernoulli, dicke
    or kink spec becomes a ``states.ClosedFormState`` that carries its closed-form
    charge distribution, and whose amplitudes are formed only if read.
    """
    kind = spec.get("kind")
    if kind == "product":
        return _product_from_amplitudes(spec["amplitudes"], n), None
    if kind == "bernoulli":
        x = _bernoulli_vector(spec["x"], n)
        law = (partial(closedforms.poisson_binomial, x) if isinstance(spec["x"], list)
               else partial(closedforms.binomial_distribution, n, spec["x"]))
        return states.ClosedFormState(n, law, partial(closedforms.product_charge_state, x)), None
    if kind == "dicke":
        k = dicke_excitations(spec, n)
        law = (partial(closedforms.dicke_half_distribution, k) if dicke_half_filling(spec)
               else partial(closedforms.dicke_x_distribution, n, k))
        dense = partial(closedforms.dicke_state, n, k, axis="x")
        return states.ClosedFormState(n, law, dense), None
    if kind == "kink":
        law, dense = partial(closedforms.kink_distribution, n), partial(closedforms.kink_state, n)
        return states.ClosedFormState(n, law, dense), None
    if kind == "ghz":
        return states.ghz_state(n), None
    if kind == "random":
        rng = np.random.default_rng([int(spec.get("seed", seed)), n])
        if "rank" in spec:
            return states.random_density_matrix(n, rng, rank=int(spec["rank"])), None
        return states.random_state(n, rng), None
    if kind == "vector":
        return _load_vector(spec["path"], n), None
    if kind == "circuit":
        circuit = circuit_from_dict(read_json(spec["path"], "circuit"))
        if circuit.n_qubits != n:
            raise ConfigError(
                f"circuit acts on {circuit.n_qubits} qubits, geometry has {n} sites"
            )
        inner = spec.get("input")
        if inner is None:
            base = states.zero_state(n)
        else:
            base, nested = build_state(inner, n, seed)
            if nested is not None:
                raise ConfigError("circuit input cannot itself be a circuit")
        return apply_circuit(base, circuit), circuit
    raise ConfigError(f"unknown state_spec kind {kind!r}")


__all__ = [
    "NAMED_STATES",
    "SWEEP_POINTS_MAX",
    "ExperimentConfig",
    "build_state",
    "canonical_json",
    "config_hash",
    "dicke_excitations",
    "dicke_half_filling",
    "load_config",
    "read_json",
    "schema",
    "state_spec_from_name",
    "validate_config",
]
