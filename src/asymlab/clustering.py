"""Connected-correlator scans, operator spreading and the variance cap.

A state clusters at range Lambda when every connected two-point correlator of
single-site observables vanishes beyond that graph distance.  The scan runs
over the full Pauli basis at both sites, not only the charge, so symmetric
long-range order cannot hide.  Distances and the size check come from
``lattice``, one distance row per site.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ResourceError, ValidationError
from .circuits import (
    BrickworkCircuit,
    backward_light_cone,
    circuit_unitary,
    conjugate_by,
    heisenberg_conjugate,
)
from .lattice import LatticeGeometry
from .states import (
    PAULI,
    State,
    density_matrix_cap,
    qubit_count,
    reduced_density_matrix,
)
from .tolerances import CORRELATOR_TOL, IMAGINARY_TOL, MARGIN_TOL, SPREAD_THRESHOLD, holds
from .u1 import charge_distribution, clustering_variance_bound

CHARGE_OP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PAULI_STACK = np.stack([PAULI[a] for a in ("x", "y", "z")])  # (3, 2, 2): x, y, z
PAULI_STACK.flags.writeable = False


def _pair_tensor(state: State, i: int, j: int) -> np.ndarray:
    """Two-site reduced state as a (2,2,2,2) tensor t[ai, aj, bi, bj]."""
    rdm = reduced_density_matrix(state, [i, j])
    return rdm.reshape(2, 2, 2, 2)


def _connected_correlators(t: np.ndarray, ops_i: np.ndarray, ops_j: np.ndarray) -> np.ndarray:
    """Matrix c[a, b] = <A_a B_b> - <A_a><B_b> over two stacks of one-site operators.

    ``t`` is a ``_pair_tensor``; ``ops_i`` (shape (A, 2, 2)) acts on its first
    site and ``ops_j`` (shape (B, 2, 2)) on its second.
    """
    joint = np.einsum("ijkl,aki,blj->ab", t, ops_i, ops_j)
    mean_i = np.einsum("irkr,aki->a", t, ops_i)
    mean_j = np.einsum("rjrl,blj->b", t, ops_j)
    values = joint - np.outer(mean_i, mean_j)
    imag = float(np.max(np.abs(values.imag)))
    if imag > IMAGINARY_TOL:
        raise ValidationError(f"connected correlator has imaginary part {imag:.3e}")
    return values.real


def connected_correlator(
    state: State,
    site_i: int,
    site_j: int,
    op_i: np.ndarray | None = None,
    op_j: np.ndarray | None = None,
) -> float:
    """<O_i O_j> - <O_i><O_j> for single-site observables at distinct sites.

    Defaults to the local charge (1 + sigma^z)/2 at both sites.
    """
    if site_i == site_j:
        raise ValidationError("connected correlator needs two distinct sites")
    op_i = CHARGE_OP if op_i is None else np.asarray(op_i, dtype=complex)
    op_j = CHARGE_OP if op_j is None else np.asarray(op_j, dtype=complex)
    for op in (op_i, op_j):
        if op.shape != (2, 2) or not np.all(np.isfinite(op)):
            raise ValidationError(f"one-site observable must be finite and 2x2, got {op.shape}")
    t = _pair_tensor(state, site_i, site_j)
    value = float(_connected_correlators(t, op_i[None], op_j[None])[0, 0])
    cap = 2.0 * np.linalg.norm(op_i, 2) * np.linalg.norm(op_j, 2)
    if not abs(value) <= cap + MARGIN_TOL:  # a NaN fails too
        raise ValidationError(f"correlator {value!r} exceeds the operator-norm cap {cap!r}")
    return value


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of a full-pair, full-Pauli clustering scan.

    ``max_violation`` is the largest connected correlator found beyond the
    claimed range; ``effective_range`` is the largest distance at which any
    correlator exceeds the tolerance (0 when uncorrelated).
    """

    n_sites: int
    claimed_range: int
    tolerance: float
    max_violation: float
    effective_range: int
    distance_profile: tuple[tuple[int, float], ...]

    @property
    def passed(self) -> bool:
        return holds(self.tolerance - self.max_violation)

    def to_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed}


def verify_cluster_property(
    state: State,
    geometry: LatticeGeometry,
    claimed_range: int,
    tol: float = CORRELATOR_TOL,
) -> ClusterReport:
    """Scan all site pairs and all nine Pauli pairs against a claimed range."""
    geometry.check_size(state.n_qubits)
    if claimed_range < 0:
        raise ValidationError(f"claimed range must be >= 0, got {claimed_range}")
    n = state.n_qubits
    by_distance: dict[int, float] = {}
    for i in range(n):
        row = geometry.all_distances(i)
        for j in range(i + 1, n):
            d = int(row[j])
            t = _pair_tensor(state, i, j)
            worst = float(np.max(np.abs(_connected_correlators(t, PAULI_STACK, PAULI_STACK))))
            # the builtin max below would drop a NaN and pass the scan
            if not np.isfinite(worst):
                raise ValidationError(f"connected correlator at sites {i}, {j} is {worst!r}")
            by_distance[d] = max(by_distance.get(d, 0.0), worst)
    max_violation = max(
        (v for d, v in by_distance.items() if d > claimed_range), default=0.0
    )
    effective = max((d for d, v in by_distance.items() if v > tol), default=0)
    profile = tuple(sorted(by_distance.items()))
    return ClusterReport(
        n_sites=n,
        claimed_range=claimed_range,
        tolerance=tol,
        max_violation=max_violation,
        effective_range=effective,
        distance_profile=profile,
    )


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a complex (B, ...) stack, shape (B,)."""
    flat = np.ascontiguousarray(stack).reshape(stack.shape[0], -1).view(np.float64)
    return np.einsum("bi,bi->b", flat, flat)


def _support_mass_fractions(operators: np.ndarray) -> np.ndarray:
    """Per-site fraction of squared Pauli weight on strings acting there.

    ``operators`` is a (B, 2^n, 2^n) stack; returns a (B, n) array.  Uses that
    projecting site k to identity is orthogonal in the Hilbert-Schmidt inner
    product: mass_k = (|A|^2 - |Tr_k A|^2 / 2) / |A|^2.
    """
    n = qubit_count(operators.shape[-1])
    total = _squared_norms(operators)
    # a NaN or infinite norm fails here, before the spread's builtin max drops it
    if not np.all(np.isfinite(total) & (total > 0.0)):
        raise ValidationError("operator is identically zero or not finite")
    fractions = np.empty((operators.shape[0], n))
    for k in range(n):
        left, right = 2**k, 2 ** (n - 1 - k)
        t = operators.reshape(-1, left, 2, right, left, 2, right)
        kept = _squared_norms(t[:, :, 0, :, :, 0] + t[:, :, 1, :, :, 1]) / 2.0
        fractions[:, k] = (total - kept) / total
    return fractions


def _check_spreading_inputs(circuit: BrickworkCircuit, geometry: LatticeGeometry) -> int:
    n = circuit.n_qubits
    geometry.check_size(n, "circuit")
    cap = density_matrix_cap()
    if n > cap:
        raise ResourceError(
            f"N={n} exceeds the density-matrix cap of {cap} qubits for operator conjugation"
        )
    return n


def _seed_spread(
    geometry: LatticeGeometry, seed: int, sites: tuple[int, ...], evolved: np.ndarray
) -> int:
    """Spread of the x, y, z Paulis on ``seed`` conjugated through a circuit on ``sites``.

    ``evolved`` is their (3, 2^k, 2^k) stack; qubit i of the circuit is lattice
    site ``sites[i]``.
    """
    fractions = _support_mass_fractions(evolved)
    reached = np.flatnonzero(np.any(fractions > SPREAD_THRESHOLD, axis=0))
    row = geometry.all_distances(seed)
    return max((int(row[sites[i]]) for i in reached), default=0)


def operator_spreading_range(circuit: BrickworkCircuit, geometry: LatticeGeometry) -> int:
    """Measured Heisenberg spreading radius of the circuit.

    Conjugates every single-site Pauli through the circuit and reports the
    largest graph distance from the seed site to any site still carrying
    squared Pauli weight above SPREAD_THRESHOLD.  Each seed's Paulis are evolved
    on its backward light cone alone (``circuits.backward_light_cone``): sites
    outside the cone carry exactly zero weight.  For a cone of k sites the
    seed builds one 2^k x 2^k cone unitary U, applies each Pauli to U's rows on
    the seed alone and multiplies by U^dagger: one dense product per Pauli,
    8^k work and a few 4^k arrays.  N is still limited by the density-matrix
    cap.
    """
    n = _check_spreading_inputs(circuit, geometry)
    spread = 0
    for seed in range(n):
        sites, cone = backward_light_cone(circuit, seed)
        evolved = heisenberg_conjugate(PAULI_STACK, sites.index(seed), cone)
        spread = max(spread, _seed_spread(geometry, seed, sites, evolved))
    return spread


def _dense_spreading_range(circuit: BrickworkCircuit, geometry: LatticeGeometry) -> int:
    """Reference route of ``operator_spreading_range``: every Pauli on all N qubits.

    The full circuit unitary is built once and shared by every seed.
    """
    n = _check_spreading_inputs(circuit, geometry)
    u = circuit_unitary(circuit)
    sites = tuple(range(n))
    spread = 0
    for seed in range(n):
        evolved = conjugate_by(PAULI_STACK, seed, u)
        spread = max(spread, _seed_spread(geometry, seed, sites, evolved))
    return spread


@dataclass(frozen=True)
class VarianceCheck:
    """Charge-variance cap sigma^2 <= 2 z_Lambda N for a clustering state."""

    n_sites: int
    clustering_range: int
    variance: float
    bound: float

    @property
    def passed(self) -> bool:
        return holds(self.margin + MARGIN_TOL)

    @property
    def margin(self) -> float:
        return self.bound - self.variance

    def to_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed, "margin": self.margin}


def variance_bound_check(
    state: State, geometry: LatticeGeometry, clustering_range: int
) -> VarianceCheck:
    """Compare the measured charge variance against the clustering cap."""
    geometry.check_size(state.n_qubits)
    dist = charge_distribution(state)
    bound = clustering_variance_bound(geometry, clustering_range)
    return VarianceCheck(
        n_sites=state.n_qubits,
        clustering_range=clustering_range,
        variance=dist.variance,
        bound=bound,
    )
