"""Brickwork circuits of two-site gates and local Kraus channels.

Gates act on explicit site tuples; a two-site gate matrix is indexed with the
first listed site as the more significant bit, so rows/columns run over
(00, 01, 10, 11).  Every gate and Kraus operator is applied through
``states.apply_site_matrix``, which contracts the gate into the (2,)*N view of
the array.  One gate loop, ``_apply_gates``, applies a circuit's gates to the
rows of an array: of a state's factor F, of rho and then of the transpose
(U rho U^dagger, conjugated gates on the second pass), and of the identity
for the circuit unitary U.  ``site_layer(n, u)`` is the one-layer circuit
u^{(x) N}, so every turn of a state by a global rotation goes through
``apply_circuit`` too.  Heisenberg conjugation applies a local operator A to
U's rows the same way and forms U^dagger (A U) with one dense product.
Brickwork bonds and the nearest-neighbor test ask ``lattice`` for the torus:
its neighbor rule, its distance and its size check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .lattice import LatticeGeometry, distance
from .states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    State,
    apply_site_matrix,
    bit_weights,
    complex_from_pairs,
)
from .tolerances import COMPLETENESS_TOL, UNITARITY_TOL


def _is_unitary(mat: np.ndarray) -> bool:
    d = mat.shape[0]
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(d)))) <= UNITARITY_TOL


@dataclass(frozen=True)
class Gate:
    """A 1- or 2-site unitary with the sites it acts on."""

    sites: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        mat = np.array(self.matrix, dtype=complex)
        if len(sites) not in (1, 2) or len(set(sites)) != len(sites):
            raise ValidationError(f"gate sites must be 1 or 2 distinct indices, got {sites}")
        d = 2 ** len(sites)
        if mat.shape != (d, d) or not np.all(np.isfinite(mat)):
            raise ValidationError(f"gate on {len(sites)} site(s) needs a finite {d}x{d} matrix")
        if not _is_unitary(mat):
            raise ValidationError(f"gate matrix is not unitary within {UNITARITY_TOL}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class BrickworkCircuit:
    """Layered circuit; gates within one layer act on disjoint sites."""

    n_qubits: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self):
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        for layer in layers:
            seen: set[int] = set()
            for gate in layer:
                for s in gate.sites:
                    if not 0 <= s < self.n_qubits:
                        raise ValidationError(f"gate site {s} outside [0, {self.n_qubits})")
                    if s in seen:
                        raise ValidationError(f"site {s} used twice within one layer")
                    seen.add(s)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def assert_nearest_neighbor(self, geometry: LatticeGeometry):
        """Require every two-site gate to couple lattice neighbors."""
        geometry.check_size(self.n_qubits, "circuit")
        for layer in self.layers:
            for gate in layer:
                if len(gate.sites) == 2 and distance(geometry, *gate.sites) != 1:
                    raise ValidationError(f"gate sites {gate.sites} are not nearest neighbors")


def _sandwich(mat: np.ndarray, op: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """Return op mat op^dagger for a local operator acting on the given sites."""
    left = apply_site_matrix(mat, op, sites)
    return apply_site_matrix(left.T, op.conj(), sites).T


def _apply_gates(arr: np.ndarray, circuit: BrickworkCircuit, conjugate=False) -> np.ndarray:
    """Every gate of the circuit in order, or its complex conjugate, applied to axis 0 of ``arr``."""
    for layer in circuit.layers:
        for gate in layer:
            op = gate.matrix.conj() if conjugate else gate.matrix
            arr = apply_site_matrix(arr, op, gate.sites)
    return arr


def apply_circuit(state: State, circuit: BrickworkCircuit) -> State:
    """Apply every layer in order; returns the same kind of state.

    A state with a factor F has each gate applied to the rows of F, so it
    stays factored (a pure state stays pure).  A state without one gets
    U rho U^dagger in two passes: every gate acts on the rows of rho, then
    every conjugated gate on the rows of the transpose; rho comes back
    C-contiguous.
    """
    if state.n_qubits != circuit.n_qubits:
        raise ValidationError(
            f"state has {state.n_qubits} qubits, circuit has {circuit.n_qubits}"
        )
    if state.factor is None:
        turned = _apply_gates(_apply_gates(state.matrix, circuit).T, circuit, conjugate=True)
        return DensityMatrix(np.ascontiguousarray(turned.T))
    return state.with_factor(_apply_gates(state.factor, circuit))


def circuit_unitary(circuit: BrickworkCircuit) -> np.ndarray:
    """The 2^N x 2^N circuit unitary U, every gate applied to the identity."""
    return _apply_gates(np.eye(2**circuit.n_qubits, dtype=complex), circuit)


def site_layer(n_qubits: int, u) -> BrickworkCircuit:
    """One layer with the single-site unitary u on every site: u^{(x) N}."""
    return BrickworkCircuit(n_qubits, (tuple(Gate((j,), u) for j in range(n_qubits)),))


def conjugate_by(operator: np.ndarray, sites, u: np.ndarray) -> np.ndarray:
    """U^dagger A U for a local operator A on ``sites``, or a (B, 2^m, 2^m) stack of them.

    A U is A applied to the rows of U (``apply_site_matrix``), so A is never
    embedded in the full space; each operator then costs one dense product
    U^dagger (A U).  A dense operator on all N qubits takes every qubit as
    ``sites``.
    """
    ops = np.asarray(operator)
    if ops.ndim not in (2, 3):
        raise ValidationError(f"operator must be a matrix or a stack of them, got {ops.shape}")
    u_dag = u.conj().T
    out = np.empty(ops.shape[:-2] + u.shape, dtype=complex)
    for b in np.ndindex(ops.shape[:-2]):
        np.matmul(u_dag, apply_site_matrix(u, ops[b], sites), out=out[b])
    return out


def heisenberg_conjugate(operator: np.ndarray, sites, circuit: BrickworkCircuit) -> np.ndarray:
    """Return U^dagger A U for the circuit unitary U and a local operator A on ``sites``.

    ``operator`` is one 2^m x 2^m matrix on the m ``sites`` or a (B, 2^m, 2^m)
    stack.  U is built once per call (``circuit_unitary``), and each operator
    then costs one local application and one dense product (``conjugate_by``).
    """
    return conjugate_by(operator, sites, circuit_unitary(circuit))


def backward_light_cone(
    circuit: BrickworkCircuit, site: int
) -> tuple[tuple[int, ...], BrickworkCircuit]:
    """Sites and gates that U^dagger P U can depend on, for P acting on ``site``.

    Walks the layers from last to first, keeping every gate that touches the
    support grown so far; every other gate meets the evolved operator as the
    identity and cancels exactly.  Returns the sorted cone sites and the kept
    gates as a circuit on len(sites) qubits, cone site ``sites[i]`` relabelled
    to qubit i.
    """
    if not 0 <= site < circuit.n_qubits:
        raise ValidationError(f"site {site} outside [0, {circuit.n_qubits})")
    support = {site}
    kept = []
    for layer in reversed(circuit.layers):
        touching = [gate for gate in layer if support.intersection(gate.sites)]
        for gate in touching:
            support.update(gate.sites)
        kept.append(touching)
    sites = tuple(sorted(support))
    index = {s: i for i, s in enumerate(sites)}
    layers = tuple(
        tuple(Gate(tuple(index[s] for s in gate.sites), gate.matrix) for gate in layer)
        for layer in reversed(kept)
        if layer
    )
    return sites, BrickworkCircuit(len(sites), layers)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map on a fixed site tuple."""

    support: tuple[int, ...]
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        support = tuple(int(s) for s in self.support)
        object.__setattr__(self, "support", support)
        if len(support) not in (1, 2) or len(set(support)) != len(support):
            raise ValidationError(f"channel support must be 1 or 2 distinct sites, got {support}")
        d = 2 ** len(support)
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (d, d) or not np.all(np.isfinite(op)):
                raise ValidationError(f"Kraus operator must be finite and {d}x{d}, got {op.shape}")
            op.flags.writeable = False
        total = sum(op.conj().T @ op for op in ops)
        dev = float(np.max(np.abs(total - np.eye(d))))
        if not dev <= COMPLETENESS_TOL:
            raise ValidationError(f"Kraus completeness violated by {dev:.3e}")
        object.__setattr__(self, "operators", ops)


def apply_channel(state: State, channel: KrausChannel) -> DensityMatrix:
    """Apply sum_k A_k rho A_k^dagger on the channel's support."""
    rho = state.matrix
    out = np.zeros_like(rho)
    for op in channel.operators:
        out = out + _sandwich(rho, op, channel.support)
    return DensityMatrix(out)


def hadamard_gate() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def cnot_gate() -> np.ndarray:
    """CNOT with the first listed site as control."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def swap_gate() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(rng)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def charge_conserving_gate(rng) -> np.ndarray:
    """Random two-site gate commuting with the total charge.

    Phases on the equal-bit basis states plus a Haar 2x2 block on {01, 10}.
    """
    rng = np.random.default_rng(rng)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
    block = haar_unitary(2, rng)
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = phases[0]
    gate[3, 3] = phases[1]
    gate[1:3, 1:3] = block
    return gate


def charge_conserving_unitary(n_qubits: int, rng) -> np.ndarray:
    """Dense random unitary block-diagonal in the charge sectors."""
    rng = np.random.default_rng(rng)
    d = 2**n_qubits
    weights = bit_weights(n_qubits)
    out = np.zeros((d, d), dtype=complex)
    for w in range(n_qubits + 1):
        sector = np.flatnonzero(weights == w)
        block = haar_unitary(sector.size, rng)
        out[np.ix_(sector, sector)] = block
    return out


def depolarizing_channel(site: int, p: float) -> KrausChannel:
    """Single-site depolarizing channel with error weight p split over X, Y, Z."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    eye = np.eye(2, dtype=complex)
    ops = [np.sqrt(1.0 - p) * eye]
    ops += [np.sqrt(p / 3.0) * m for m in (PAULI_X, PAULI_Y, PAULI_Z)]
    return KrausChannel((site,), tuple(ops))


def phase_flip_channel(site: int, p: float) -> KrausChannel:
    """Single-site channel applying Z with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    eye = np.eye(2, dtype=complex)
    return KrausChannel((site,), (np.sqrt(1.0 - p) * eye, np.sqrt(p) * PAULI_Z))


def full_dephasing_channel(site: int) -> KrausChannel:
    """Projective z-basis dephasing of one site."""
    p0 = np.diag([1.0 + 0.0j, 0.0])
    p1 = np.diag([0.0j, 1.0])
    return KrausChannel((site,), (p0, p1))


def random_diagonal_phase_channel(site: int, p: float, rng) -> KrausChannel:
    """Mix of identity and a random diagonal phase unitary on one site.

    Diagonal operators preserve every charge sector, so this is a symmetric
    channel for the charge twirl.
    """
    rng = np.random.default_rng(rng)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    eye = np.eye(2, dtype=complex)
    diag = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
    return KrausChannel((site,), (np.sqrt(1.0 - p) * eye, np.sqrt(p) * diag))


def _axis_pairs(geometry: LatticeGeometry, axis: int, offset: int) -> list[tuple[int, int]]:
    """Disjoint nearest-neighbor pairs along one axis at the given parity offset."""
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for site in range(geometry.n_sites):
        if geometry.coordinates(site)[axis] % 2 != offset % 2:
            continue
        j = geometry.neighbor(site, axis)
        if site == j or site in used or j in used:
            continue
        used.update((site, j))
        pairs.append((site, j))
    return pairs


def brickwork_layer_pairs(geometry: LatticeGeometry, layer_index: int) -> list[tuple[int, int]]:
    """Pair pattern of a brickwork layer: axes and parities alternate with depth."""
    axis = (layer_index // 2) % geometry.dimension
    offset = layer_index % 2
    return _axis_pairs(geometry, axis, offset)


def _brickwork(geometry: LatticeGeometry, depth: int, rng, draw_gate) -> BrickworkCircuit:
    """Depth-``depth`` brickwork of ``draw_gate(rng)`` gates, drawn layer by layer, pair by pair."""
    rng = np.random.default_rng(rng)
    layers = (tuple(Gate(p, draw_gate(rng)) for p in brickwork_layer_pairs(geometry, t))
              for t in range(depth))
    return BrickworkCircuit(geometry.n_sites, tuple(layers))


def random_brickwork(geometry: LatticeGeometry, depth: int, rng) -> BrickworkCircuit:
    """Depth-``depth`` brickwork of Haar-random nearest-neighbor gates."""
    return _brickwork(geometry, depth, rng, lambda gen: haar_unitary(4, gen))


def random_charge_conserving_brickwork(geometry: LatticeGeometry, depth: int, rng) -> BrickworkCircuit:
    """Brickwork whose every gate commutes with the total charge."""
    return _brickwork(geometry, depth, rng, charge_conserving_gate)


def _complex_to_pairs(mat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]


def _pairs_to_matrix(pairs, n_sites_on_gate: int) -> np.ndarray:
    d = 2**n_sites_on_gate
    flat = complex_from_pairs(pairs, "gate unitary")
    if flat.size != d * d:
        raise ValidationError(f"expected {d * d} complex entries, got {flat.size}")
    return flat.reshape(d, d)


def circuit_to_dict(circuit: BrickworkCircuit) -> dict:
    return {
        "n_qubits": circuit.n_qubits,
        "depth": circuit.depth,
        "layers": [
            [
                {"sites": list(g.sites), "unitary": _complex_to_pairs(g.matrix)}
                for g in layer
            ]
            for layer in circuit.layers
        ],
    }


def _json_int(value, what: str) -> int:
    """An integer field of circuit JSON: an int or an integral float, never a bool."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValidationError(f"circuit {what} must be an integer, got {value!r}")
    return int(value)


def circuit_from_dict(data: dict) -> BrickworkCircuit:
    if not isinstance(data, dict):
        raise ValidationError(f"circuit JSON must be an object, got {type(data).__name__}")
    try:
        layers_raw = data["layers"]
        depth = data["depth"]
    except KeyError as exc:
        raise ValidationError(f"circuit JSON missing key: {exc}") from exc
    if not isinstance(layers_raw, list) or not all(isinstance(x, list) for x in layers_raw):
        raise ValidationError("circuit layers must be a list of lists of gates")
    if _json_int(depth, "depth") != len(layers_raw):
        raise ValidationError(f"depth field {depth} != number of layers {len(layers_raw)}")
    layers = []
    max_site = -1
    for layer_raw in layers_raw:
        gates = []
        for g in layer_raw:
            try:
                sites = tuple(_json_int(s, "gate site") for s in g["sites"])
                matrix = _pairs_to_matrix(g["unitary"], len(sites))
            except ValidationError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"circuit gate is malformed: {exc!r}") from exc
            gates.append(Gate(sites, matrix))
            max_site = max(max_site, *sites)
        layers.append(tuple(gates))
    n_qubits = _json_int(data["n_qubits"], "n_qubits") if "n_qubits" in data else max_site + 1
    return BrickworkCircuit(n_qubits, tuple(layers))


def save_circuit(circuit: BrickworkCircuit, path):
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=1)


def load_circuit(path) -> BrickworkCircuit:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))
