"""Charge statistics, charge twirl and the asymmetry monotone.

The conserved charge is Q = sum_j (sigma^z_j + 1)/2 with sigma^z |0> = +|0>,
so a basis state's charge counts its |0> sites and runs over 0..N.  Entropies
are natural logarithms throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import LatticeGeometry, neighborhood_cardinality
from .states import (
    REDUCTION_BLOCK,
    DensityMatrix,
    State,
    StateVector,
    bit_weights,
    block_entropy,
    entropy_of_probabilities,
    von_neumann_entropy,
)
from .tolerances import MARGIN_TOL, NEGATIVE_ASYMMETRY_TOL, NEGATIVE_PROBABILITY_TOL, UNIT_SUM_TOL

# charges 0..REDUCTION_BLOCK-1; block b of a distribution adds b * REDUCTION_BLOCK
_CHARGE_GRID = np.arange(REDUCTION_BLOCK, dtype=float)


@dataclass(frozen=True)
class ChargeDistribution:
    """Probabilities of the charge values 0..N plus cached first two moments.

    ``from_probs`` copies its input, so a caller's array is never rewritten,
    not even its writeable flag.  ``from_fresh_probs`` takes over a float
    array that no one else holds (the closed forms hand over the vector they
    just built): entries in [NEGATIVE_PROBABILITY_TOL, 0) are clipped to 0 in
    place, and the array is frozen.  Validation and the moments run over
    blocks of REDUCTION_BLOCK entries, so the probability vector is the only
    N-sized array; a one-block input takes exactly the unblocked sums.  Each
    block's sums of p, q p and (q - mean)^2 p are numpy's pairwise sums over
    products formed in one block-sized scratch buffer.  They call no BLAS,
    so no BLAS thread pool is woken to spin through the calls that follow;
    under the CLI's idle policy (``OPENBLAS_THREAD_TIMEOUT`` =
    ``cli.OPENBLAS_IDLE_TIMEOUT``) a woken pool would spin about 8 ms, not
    0.13 s.  Their rounding error grows like the log of the block length.
    """

    probs: np.ndarray
    mean: float
    variance: float

    @classmethod
    def from_probs(cls, probs) -> "ChargeDistribution":
        return cls.from_fresh_probs(np.array(probs, dtype=float))

    @classmethod
    def from_fresh_probs(cls, p: np.ndarray) -> "ChargeDistribution":
        if p.ndim != 1 or p.size < 1:
            raise ValidationError("charge probabilities must form a non-empty 1-d array")
        total = mean = 0.0
        scratch = np.empty(min(p.size, REDUCTION_BLOCK))
        for start in range(0, p.size, REDUCTION_BLOCK):
            block = p[start : start + REDUCTION_BLOCK]
            low = float(block.min())
            if low < 0.0:
                if low < NEGATIVE_PROBABILITY_TOL:
                    raise ValidationError(
                        f"charge probability {low:.3e} below {NEGATIVE_PROBABILITY_TOL}"
                    )
                np.clip(block, 0.0, None, out=block)
            mass = float(block.sum())
            # NaN passes every comparison above; it and an infinity make the sum non-finite
            if not math.isfinite(mass):
                raise ValidationError(f"charge probabilities must be finite, got a sum {mass!r}")
            total += mass
            terms = np.multiply(block, _CHARGE_GRID[: block.size], out=scratch[: block.size])
            mean += float(terms.sum()) + start * mass
        if abs(total - 1.0) > UNIT_SUM_TOL:
            raise ValidationError(
                f"charge probabilities sum to {total!r}, not 1 within {UNIT_SUM_TOL}"
            )
        variance = 0.0
        for start in range(0, p.size, REDUCTION_BLOCK):
            block = p[start : start + REDUCTION_BLOCK]
            dev = np.subtract(_CHARGE_GRID[: block.size], mean - start, out=scratch[: block.size])
            np.square(dev, out=dev)
            variance += float(np.multiply(block, dev, out=dev).sum())
        p.flags.writeable = False
        return cls(p, mean, variance)

    @property
    def n_charges(self) -> int:
        return self.probs.size


def charge_values(n_qubits: int) -> np.ndarray:
    """Charge of every basis index: the number of 0-bits."""
    return n_qubits - bit_weights(n_qubits)


def charge_distribution(state: State) -> ChargeDistribution:
    """Measured distribution of the total charge of a state: its closed form when it has one."""
    if state.closed_form is not None:
        return state.closed_form()
    q = charge_values(state.n_qubits)
    probs = np.bincount(q, weights=state.diagonal(), minlength=state.n_qubits + 1)
    return ChargeDistribution.from_fresh_probs(probs)


def shannon_entropy(dist) -> float:
    """Shannon entropy in nats of a ChargeDistribution or raw probability array."""
    probs = dist.probs if isinstance(dist, ChargeDistribution) else dist
    return entropy_of_probabilities(probs)


def flat_distribution(n_values: int) -> ChargeDistribution:
    """Uniform distribution over charges 0..n_values-1; entropy ln(n_values)."""
    if n_values < 1:
        raise ValidationError(f"need at least one charge value, got {n_values}")
    return ChargeDistribution.from_fresh_probs(np.full(n_values, 1.0 / n_values))


def u1_twirl(state: State) -> DensityMatrix:
    """Dephase across charge sectors: keep only blocks with equal row/column charge.

    A reference for tests, oracles and the public API: it forms the dense
    2^N x 2^N twirl, which ``u1_asymmetry`` never does.
    """
    q = charge_values(state.n_qubits)
    mask = q[:, None] == q[None, :]
    return DensityMatrix(np.where(mask, state.matrix, 0.0))


def generating_function(source, alpha: float) -> complex:
    """Characteristic function <e^{i alpha Q}> of a state or charge distribution."""
    dist = source if isinstance(source, ChargeDistribution) else charge_distribution(source)
    q = np.arange(dist.n_charges)
    return complex(np.sum(dist.probs * np.exp(1j * alpha * q)))


def distribution_from_generating_function(values: np.ndarray) -> ChargeDistribution:
    """Invert G(alpha_k) sampled at alpha_k = 2 pi k / n_charges by inverse DFT.

    The n_charges samples give the charges 0..n_charges-1.
    """
    values = np.asarray(values, dtype=complex)
    n_charges = values.size
    q = np.arange(n_charges)
    alphas = 2.0 * np.pi * q / n_charges
    kernel = np.exp(-1j * np.outer(q, alphas))
    probs = np.real(kernel @ values) / n_charges
    return ChargeDistribution.from_fresh_probs(probs)


def massey_bound(variance: float) -> float:
    """Entropy bound (1/2) ln(2 pi e (variance + 1/12)) for integer-valued variables."""
    if variance <= 0.0:
        raise ValidationError(f"variance must be positive, got {variance}")
    return 0.5 * float(np.log(2.0 * np.pi * np.e * (variance + 1.0 / 12.0)))


def clustering_variance_bound(geometry: LatticeGeometry, radius: int) -> float:
    """Charge-variance cap 2 z_Lambda N for states clustering at range ``radius``."""
    return 2.0 * neighborhood_cardinality(geometry, radius) * geometry.n_sites


@dataclass(frozen=True)
class AsymmetryReport:
    """Asymmetry of one state with every applicable bound and its margin.

    ``delta_s`` and ``shannon`` are in nats.  ``bound_massey`` caps the charge
    Shannon entropy (hence also delta_s); the other bounds cap delta_s
    directly.  Margins are bound minus the quantity they cap; ``None`` marks a
    bound that does not apply (zero charge variance, or no clustering range
    supplied).
    """

    n_sites: int
    delta_s: float
    shannon: float
    variance: float
    bound_log_n_plus_1: float
    bound_massey: float | None
    bound_clustering: float | None
    clustering_range: int | None

    def margins(self) -> dict:
        out = {"log_n_plus_1": self.bound_log_n_plus_1 - self.delta_s}
        out["massey"] = None if self.bound_massey is None else self.bound_massey - self.shannon
        out["clustering"] = (
            None if self.bound_clustering is None else self.bound_clustering - self.delta_s
        )
        return out

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "delta_s": self.delta_s,
            "shannon": self.shannon,
            "variance": self.variance,
            "clustering_range": self.clustering_range,
            "bounds": {
                "log_n_plus_1": self.bound_log_n_plus_1,
                "massey": self.bound_massey,
                "clustering": self.bound_clustering,
            },
            "margins": self.margins(),
        }


def report_from_distribution(
    dist: ChargeDistribution,
    geometry: LatticeGeometry | None = None,
    clustering_range: int | None = None,
    delta_s: float | None = None,
) -> AsymmetryReport:
    """Report of a state with charge distribution ``dist`` and asymmetry ``delta_s``.

    None stands for a pure state's asymmetry, which is exactly H(p_q).  The
    charges 0..N of ``dist`` give the N = ``dist.n_charges - 1`` sites.
    """
    shannon = shannon_entropy(dist)
    delta_s = shannon if delta_s is None else delta_s
    n_sites = dist.n_charges - 1
    if delta_s < -NEGATIVE_ASYMMETRY_TOL:
        raise ValidationError(f"asymmetry {delta_s!r} is negative beyond tolerance")
    if delta_s > shannon + MARGIN_TOL:
        raise ValidationError(
            f"asymmetry {delta_s!r} exceeds the charge entropy {shannon!r} beyond tolerance"
        )
    massey = massey_bound(dist.variance) if dist.variance > 0.0 else None
    bound_cluster = None
    if clustering_range is not None:
        if geometry is None:
            raise ValidationError("clustering_range needs a lattice geometry")
        if geometry.n_sites != n_sites:
            raise ValidationError(
                f"geometry has {geometry.n_sites} sites, state has {n_sites}"
            )
        sigma_cap = clustering_variance_bound(geometry, clustering_range)
        bound_cluster = massey_bound(sigma_cap)
    return AsymmetryReport(
        n_sites=n_sites,
        delta_s=float(delta_s),
        shannon=float(shannon),
        variance=float(dist.variance),
        bound_log_n_plus_1=float(np.log(n_sites + 1)),
        bound_massey=massey,
        bound_clustering=bound_cluster,
        clustering_range=clustering_range,
    )


def u1_asymmetry(
    state: State,
    geometry: LatticeGeometry | None = None,
    clustering_range: int | None = None,
) -> AsymmetryReport:
    """Charge asymmetry Delta S = S(twirl(rho)) - S(rho) with its bounds.

    A pure state is ``report_from_distribution`` of its charge distribution,
    read from its closed form when it carries one.  For a mixed state the
    twirl is block-diagonal in the charge q, so S(twirl(rho)) is the sum over
    q of the ``block_entropy`` of F[rows_q] (factor route, from the smaller
    Gram matrix, at most r x r) or of rho[rows_q, rows_q] (matrix route), so
    the factor route forms no 2^N x 2^N matrix and neither route eigensolves
    one.  S(rho) comes from ``von_neumann_entropy``.
    """
    dist = charge_distribution(state)
    if isinstance(state, StateVector):
        return report_from_distribution(dist, geometry, clustering_range)
    fac = state.factor
    charges = charge_values(state.n_qubits)
    twirled = sum(
        block_entropy(fac[rows], factor=True) if fac is not None
        else block_entropy(state.matrix[np.ix_(rows, rows)])
        for rows in (charges == q for q in range(state.n_qubits + 1))
    )
    delta_s = twirled - von_neumann_entropy(state)
    return report_from_distribution(dist, geometry, clustering_range, delta_s)
