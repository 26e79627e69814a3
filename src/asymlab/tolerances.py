"""Every tolerance asymlab uses, and the one rule that turns a margin into pass/fail.

A margin is the signed distance from a quantity to its bound with the check's
tolerance already added, so ``holds(margin)`` needs no tolerance of its own:
a bound holds when its margin is >= 0, or > 0 for a strict inequality.  Only
Massey's entropy cap is strict.  Entropies are in nats.

This module imports nothing from asymlab; every other module takes its
tolerances from here, and no other module writes a tolerance value.
"""
from __future__ import annotations

# ---------------- validating states, gates and distributions ----------------

# |psi|^2 of a statevector equals 1 within this, relative to max(1, |psi|^2)
NORM_TOL = 1e-12
# largest |rho - rho^dagger| entry a density matrix may have
HERMITICITY_TOL = 1e-10
# a trace, or the total of a charge or spin-sector distribution, equals 1 within this
UNIT_SUM_TOL = 1e-10
# eigenvalues of a density matrix in [EIGENVALUE_FLOOR, 0) are rounding and clamp to 0
EIGENVALUE_FLOOR = -1e-10
# charge probabilities in [NEGATIVE_PROBABILITY_TOL, 0) are rounding and clamp to 0
NEGATIVE_PROBABILITY_TOL = -1e-12
# probabilities below this contribute nothing to a Shannon or von Neumann entropy
PROBABILITY_FLOOR = 1e-14
# largest |U^dagger U - I| entry a gate may have
UNITARITY_TOL = 1e-12
# largest |sum_k K_k^dagger K_k - I| entry a Kraus channel may have
COMPLETENESS_TOL = 1e-10
# a vector whose norm is below this is zero and has no direction
ZERO_NORM = 1e-12
# ratio * N within this of an integer gives an integer Dicke excitation count
RATIO_INTEGER_TOL = 1e-12
# a continuous charge density integrates to 1 within this
NORMALIZATION_TOL = 1e-8
# the ln N values of a scaling fit must span at least this
FIT_SPAN_FLOOR = 1e-9

# ---------------- caps, monotones and asymmetries ----------------

# a non-strict cap or monotone holds when its raw margin is >= -MARGIN_TOL
MARGIN_TOL = 1e-9
# an asymmetry below -NEGATIVE_ASYMMETRY_TOL is an error, not rounding
NEGATIVE_ASYMMETRY_TOL = 1e-9
# an asymmetry at most this is zero: the state is symmetric
ZERO_ASYMMETRY = 1e-10
# a twirl that moves some matrix entry by more than this marks the state as asymmetric
SYMMETRY_BREAK_MIN = 1e-6
# largest |Im| a connected correlator of Hermitian observables may have
IMAGINARY_TOL = 1e-9
# a connected correlator above this counts as correlated (the clustering scan's default)
CORRELATOR_TOL = 1e-10
# a site carries an evolved Pauli when its share of the squared Pauli weight exceeds this
SPREAD_THRESHOLD = 1e-12
# |<Sx>| and |<Sy>| after the gauge rotation that points the mean spin along +z
TRANSVERSE_TOL = 1e-9
# a charge sector whose total weight is below this contributes no entropy
EMPTY_SECTOR_WEIGHT = 1e-14
# two successive refinements of the Haar-quadrature rotation twirl agree within this
HAAR_QUADRATURE_TOL = 1e-8
# two successive step halvings of a tanh-sinh integral agree within this (absolute); its
# error then falls like exp(-const/h), so the finer level is accurate to rounding
TANH_SINH_TOL = 1e-12

# ---------------- bound-suite and oracle checks ----------------

# an integer count passes at margin INTEGER_SLACK - violations, so >= 0 means none
INTEGER_SLACK = 0.5
# an exact identity evaluated in doubles on a few qubits holds within this
EXACT_TOL = 1e-12
# an identity through eigensolves, Schur blocks, channels or closed forms holds within this
IDENTITY_TOL = 1e-10
# two routes to one entropy (nats) agree within this
ENTROPY_MATCH_TOL = 1e-9
# recurrence against exact-rational Krawtchouk values, relative, and their orthogonality
KRAWTCHOUK_REL_TOL = 1e-9
# tanh-sinh integrals of the flat and arcsine densities against their exact integrals
QUADRATURE_TOL = 1e-9
# twirling commutes with a global rotation u^{(x)N} within this (matrix entries)
ROTATION_COVARIANCE_TOL = 1e-8
# the Haar-quadrature twirl matches the Schur-basis twirl within this (matrix entries)
HAAR_MATCH_TOL = 1e-6
# the kink entropy fit has slope 1 and intercept 0 within this
KINK_FIT_TOL = 1e-6
# a large-N asymptotic (slope, arcsine density, table integral) holds at the checked N within this
ASYMPTOTIC_TOL = 0.01
# sup error of the normal approximation to Binomial(n, 1/2), in units of 1/sigma
GAUSSIAN_SUP_TOL = 0.02


def holds(margin: float, strict: bool = False) -> bool:
    """The pass rule: a margin, tolerance included, passes when >= 0 (> 0 if strict)."""
    return bool(margin > 0.0 if strict else margin >= 0.0)
