"""Connected-correlator scans, operator spreading and the variance cap.

A state clusters at range Lambda when every connected two-point correlator of
single-site observables vanishes beyond that graph distance.  The scan runs
over the full Pauli basis at both sites, not only the charge, so symmetric
long-range order cannot hide.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, ValidationError
from .circuits import BrickworkCircuit, backward_light_cone, heisenberg_conjugate
from .lattice import LatticeGeometry, distance
from .states import (
    PAULI,
    State,
    apply_pauli,
    density_matrix_cap,
    reduced_density_matrix,
)
from .tolerances import CORRELATOR_TOL, IMAGINARY_TOL, MARGIN_TOL, SPREAD_THRESHOLD, holds
from .u1 import charge_distribution, clustering_variance_bound

CHARGE_OP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _pair_tensor(state: State, i: int, j: int) -> np.ndarray:
    """Two-site reduced state as a (2,2,2,2) tensor t[ai, aj, bi, bj]."""
    rdm = reduced_density_matrix(state, [i, j])
    return rdm.reshape(2, 2, 2, 2)


def _correlator_from_tensor(t: np.ndarray, op_i: np.ndarray, op_j: np.ndarray) -> float:
    joint = np.einsum("ijkl,ki,lj->", t, op_i, op_j)
    rho_i = np.einsum("arbr->ab", t)
    rho_j = np.einsum("rarb->ab", t)
    solo = np.einsum("ab,ba->", rho_i, op_i) * np.einsum("ab,ba->", rho_j, op_j)
    value = joint - solo
    if abs(value.imag) > IMAGINARY_TOL:
        raise ValidationError(f"connected correlator has imaginary part {value.imag:.3e}")
    return float(value.real)


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
        if op.shape != (2, 2):
            raise ValidationError(f"single-site observable must be 2x2, got {op.shape}")
    t = _pair_tensor(state, site_i, site_j)
    value = _correlator_from_tensor(t, op_i, op_j)
    cap = 2.0 * np.linalg.norm(op_i, 2) * np.linalg.norm(op_j, 2)
    if abs(value) > cap + MARGIN_TOL:
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
        return {
            "n_sites": self.n_sites,
            "claimed_range": self.claimed_range,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "effective_range": self.effective_range,
            "passed": self.passed,
            "distance_profile": [list(row) for row in self.distance_profile],
        }


def verify_cluster_property(
    state: State,
    geometry: LatticeGeometry,
    claimed_range: int,
    tol: float = CORRELATOR_TOL,
) -> ClusterReport:
    """Scan all site pairs and all nine Pauli pairs against a claimed range."""
    if geometry.n_sites != state.n_qubits:
        raise ValidationError(
            f"geometry has {geometry.n_sites} sites, state has {state.n_qubits}"
        )
    if claimed_range < 0:
        raise ValidationError(f"claimed range must be >= 0, got {claimed_range}")
    n = state.n_qubits
    paulis = list(PAULI.values())
    by_distance: dict[int, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(geometry, i, j)
            t = _pair_tensor(state, i, j)
            worst = 0.0
            for op_i in paulis:
                for op_j in paulis:
                    worst = max(worst, abs(_correlator_from_tensor(t, op_i, op_j)))
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


def _support_mass_fractions(operator: np.ndarray, n: int) -> np.ndarray:
    """Per-site fraction of squared Pauli weight on strings acting there.

    Uses that projecting site k to identity is orthogonal in the
    Hilbert-Schmidt inner product: mass_k = (|A|^2 - |Tr_k A|^2 / 2) / |A|^2.
    """
    total = float(np.sum(np.abs(operator) ** 2))
    if total <= 0.0:
        raise ValidationError("operator is identically zero")
    fractions = np.empty(n)
    for k in range(n):
        left, right = 2**k, 2 ** (n - 1 - k)
        t = operator.reshape(left, 2, right, left, 2, right)
        traced = np.einsum("asbcsd->abcd", t)
        kept = float(np.sum(np.abs(traced) ** 2)) / 2.0
        fractions[k] = (total - kept) / total
    return fractions


def _check_spreading_inputs(circuit: BrickworkCircuit, geometry: LatticeGeometry) -> int:
    n = circuit.n_qubits
    if geometry.n_sites != n:
        raise ValidationError(f"geometry has {geometry.n_sites} sites, circuit has {n}")
    cap = density_matrix_cap()
    if n > cap:
        raise ResourceError(
            f"N={n} exceeds the density-matrix cap of {cap} qubits for operator conjugation"
        )
    return n


def _seed_spread(
    geometry: LatticeGeometry,
    seed: int,
    sites: tuple[int, ...],
    circuit: BrickworkCircuit,
) -> int:
    """Spread of the three Paulis on ``seed``, conjugated through a circuit on ``sites``.

    Qubit i of ``circuit`` is lattice site ``sites[i]``.
    """
    k = len(sites)
    eye = np.eye(2**k, dtype=complex)
    spread = 0
    for axis in ("x", "y", "z"):
        op = apply_pauli(eye, sites.index(seed), axis, k)
        fractions = _support_mass_fractions(heisenberg_conjugate(op, circuit), k)
        for i in np.flatnonzero(fractions > SPREAD_THRESHOLD):
            spread = max(spread, distance(geometry, seed, sites[i]))
    return spread


def operator_spreading_range(circuit: BrickworkCircuit, geometry: LatticeGeometry) -> int:
    """Measured Heisenberg spreading radius of the circuit.

    Conjugates every single-site Pauli through the circuit and reports the
    largest graph distance from the seed site to any site still carrying
    squared Pauli weight above SPREAD_THRESHOLD.  Each seed's Paulis are evolved
    on its backward light cone alone (``circuits.backward_light_cone``): sites
    outside the cone carry exactly zero weight, and the work is 4^k per seed
    for a cone of k sites.  N is still limited by the density-matrix cap.
    """
    n = _check_spreading_inputs(circuit, geometry)
    spread = 0
    for seed in range(n):
        sites, cone = backward_light_cone(circuit, seed)
        spread = max(spread, _seed_spread(geometry, seed, sites, cone))
    return spread


def _dense_spreading_range(circuit: BrickworkCircuit, geometry: LatticeGeometry) -> int:
    """Reference route of ``operator_spreading_range``: every Pauli on all N qubits."""
    n = _check_spreading_inputs(circuit, geometry)
    spread = 0
    for seed in range(n):
        spread = max(spread, _seed_spread(geometry, seed, tuple(range(n)), circuit))
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
        return {
            "n_sites": self.n_sites,
            "clustering_range": self.clustering_range,
            "variance": self.variance,
            "bound": self.bound,
            "passed": self.passed,
            "margin": self.margin,
        }


def variance_bound_check(
    state: State, geometry: LatticeGeometry, clustering_range: int
) -> VarianceCheck:
    """Compare the measured charge variance against the clustering cap."""
    if geometry.n_sites != state.n_qubits:
        raise ValidationError(
            f"geometry has {geometry.n_sites} sites, state has {state.n_qubits}"
        )
    dist = charge_distribution(state)
    bound = clustering_variance_bound(geometry, clustering_range)
    return VarianceCheck(
        n_sites=state.n_qubits,
        clustering_range=clustering_range,
        variance=dist.variance,
        bound=bound,
    )
