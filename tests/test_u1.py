import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asymlab.circuits import apply_circuit, random_brickwork, random_charge_conserving_brickwork
from asymlab.errors import ValidationError
from asymlab.lattice import LatticeGeometry
from asymlab.states import (
    REDUCTION_BLOCK,
    DensityMatrix,
    basis_state,
    ghz_state,
    plus_state,
    random_density_matrix,
    random_state,
    von_neumann_entropy,
    zero_state,
)
from asymlab.tolerances import ENTROPY_MATCH_TOL, NEGATIVE_PROBABILITY_TOL, PROBABILITY_FLOOR
from asymlab.u1 import (
    ChargeDistribution,
    charge_distribution,
    charge_values,
    clustering_variance_bound,
    distribution_from_generating_function,
    flat_distribution,
    generating_function,
    massey_bound,
    report_from_distribution,
    shannon_entropy,
    u1_asymmetry,
    u1_twirl,
)

LN2 = math.log(2.0)


def test_charge_counts_zero_bits():
    q = charge_values(3)
    # index 0 = |000> has charge 3; index 7 = |111> has charge 0
    assert q[0] == 3 and q[7] == 0
    assert q[0b110] == 1


def test_charge_distribution_of_basis_and_plus_states():
    d = charge_distribution(basis_state([0, 1, 0, 1]))
    assert_allclose(d.probs, [0.0, 0.0, 1.0, 0.0, 0.0])
    d = charge_distribution(plus_state(4))
    binom = np.array([math.comb(4, k) for k in range(5)]) / 16.0
    assert_allclose(d.probs, binom, atol=1e-14)
    assert_allclose(d.mean, 2.0)
    assert_allclose(d.variance, 1.0)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        ChargeDistribution.from_probs([0.6, 0.6])
    with pytest.raises(ValidationError):
        ChargeDistribution.from_probs([1.2, -0.2])
    # tiny negatives from rounding are clipped
    d = ChargeDistribution.from_probs([1.0 + 1e-13, -1e-13])
    assert d.probs[1] == 0.0
    # NaN and infinities fail every comparison with a tolerance; the sum catches them
    for bad in ([math.nan, 1.0], [1.0, math.nan], [math.nan], [math.inf, 0.0],
                [0.5, 0.5, math.inf], [1.0, -math.inf]):
        with pytest.raises(ValidationError):
            ChargeDistribution.from_probs(bad)


def _moments_unblocked(p):
    """The unblocked formulas: clip, then H, the mean and the variance over the whole vector."""
    p = np.clip(p, 0.0, None)
    kept = p[p >= PROBABILITY_FLOOR]
    q = np.arange(p.size, dtype=float)
    mean = float(p @ q)
    return float(-np.sum(kept * np.log(kept))), mean, float(p @ (q - mean) ** 2)


@pytest.mark.parametrize(
    "size", [REDUCTION_BLOCK - 1, REDUCTION_BLOCK, REDUCTION_BLOCK + 1, 3 * REDUCTION_BLOCK + 7]
)
def test_blocked_moments_and_entropy_match_the_unblocked_sums(size):
    rng = np.random.default_rng(size)
    p = rng.random(size) ** 4
    # entries below the entropy floor and rounding negatives, spread over the blocks
    tiny, negative = rng.integers(0, size, 40), np.append(rng.integers(0, size, 40), size - 1)
    p[tiny] = p[negative] = 0.0
    p /= p.sum()
    p[tiny] = 0.3 * PROBABILITY_FLOOR
    p[negative] = 0.5 * NEGATIVE_PROBABILITY_TOL
    p.flags.writeable = False
    before = p.copy()
    dist = ChargeDistribution.from_probs(p)
    # the caller's array keeps its values and its flag; the distribution holds a clipped copy
    assert np.array_equal(p, before) and not p.flags.writeable
    assert dist.probs.min() == 0.0 and not dist.probs.flags.writeable
    writable = before.copy()
    ChargeDistribution.from_probs(writable)
    assert np.array_equal(writable, before) and writable.flags.writeable
    entropy, mean, variance = _moments_unblocked(p)
    eps = np.finfo(float).eps
    assert abs(shannon_entropy(dist) - entropy) <= 4 * eps * entropy
    assert abs(dist.mean - mean) <= 4 * eps * mean
    assert abs(dist.variance - variance) <= 4 * eps * variance


def test_a_twirled_pure_state_does_not_keep_its_density_matrix():
    # a pure state forms rho on each read; a factored one caches it
    psi = random_state(10, np.random.default_rng(1))
    u1_twirl(psi)
    assert "matrix" not in vars(psi)
    assert psi.matrix is not psi.matrix
    factored = random_density_matrix(3, np.random.default_rng(2), rank=2)
    assert factored.matrix is factored.matrix


def test_blocked_moments_match_fsum_over_the_same_products():
    # the block sums are pairwise, so they stay within a few eps of the
    # correctly rounded sum of the very products they add
    p = np.random.default_rng(7).random(10**6 + 1) ** 4
    p /= p.sum()
    dist = ChargeDistribution.from_probs(p)
    q = np.arange(p.size, dtype=float)
    mean = math.fsum((p * q).tolist())
    variance = math.fsum((p * (q - dist.mean) ** 2).tolist())
    eps = np.finfo(float).eps
    assert abs(dist.mean - mean) <= 4 * eps * mean
    assert abs(dist.variance - variance) <= 4 * eps * variance


def test_flat_distribution_entropy():
    assert_allclose(shannon_entropy(flat_distribution(11)), math.log(11))


def test_twirl_dephases_and_preserves_diagonal():
    rho = u1_twirl(ghz_state(3))
    # |000><111| straddles two charge sectors and must vanish
    assert rho.matrix[0, 7] == 0.0
    assert_allclose(rho.diagonal(), ghz_state(3).diagonal(), atol=1e-14)


def test_twirl_is_idempotent_and_charge_preserving():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(3, rng)
    once = u1_twirl(rho)
    assert_allclose(u1_twirl(once).matrix, once.matrix, atol=1e-14)
    assert_allclose(
        charge_distribution(once).probs, charge_distribution(rho).probs, atol=1e-12
    )


def test_asymmetry_of_ghz_is_ln_two():
    rep = u1_asymmetry(ghz_state(8))
    assert_allclose(rep.delta_s, LN2, atol=1e-12)
    assert rep.bound_log_n_plus_1 == pytest.approx(math.log(9))


def test_asymmetry_zero_for_charge_eigenstates():
    for psi in (zero_state(5), basis_state([1, 0, 1, 1, 0])):
        assert u1_asymmetry(psi).delta_s == pytest.approx(0.0, abs=1e-12)


def test_pure_state_asymmetry_equals_charge_entropy_by_dense_route():
    rng = np.random.default_rng(14)
    for _ in range(5):
        psi = random_state(4, rng)
        rho = DensityMatrix(psi.matrix)
        dense = von_neumann_entropy(u1_twirl(rho)) - von_neumann_entropy(rho)
        assert_allclose(dense, shannon_entropy(charge_distribution(psi)), atol=1e-9)


def _dense_asymmetry(rho):
    """The reference route: eigensolve the whole dense twirl, then subtract S(rho)."""
    return von_neumann_entropy(u1_twirl(rho)) - von_neumann_entropy(rho)


def test_sector_route_matches_the_dense_twirl():
    rng = np.random.default_rng(15)
    for n in range(3, 11):
        rho = random_density_matrix(n, rng, rank=4)
        assert rho.factor is not None
        assert_allclose(u1_asymmetry(rho).delta_s, _dense_asymmetry(rho), rtol=0, atol=1e-12,
                        err_msg=f"factored n={n}")
    for n in range(2, 9):
        rho = random_density_matrix(n, rng)
        assert rho.factor is None
        assert_allclose(u1_asymmetry(rho).delta_s, _dense_asymmetry(rho), rtol=0, atol=1e-12,
                        err_msg=f"matrix-built n={n}")
    # 6 columns on 4 rows: every charge block and F itself take the Gram B B^dagger
    wide = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    rho = DensityMatrix.from_factor(wide / np.linalg.norm(wide))
    assert_allclose(u1_asymmetry(rho).delta_s, _dense_asymmetry(rho), rtol=0, atol=1e-12)


def test_mixed_state_asymmetry_nonnegative_and_below_entropy_bound():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rho = random_density_matrix(3, rng)
        rep = u1_asymmetry(rho)
        assert rep.delta_s >= -1e-12
        assert rep.delta_s <= rep.shannon + 1e-9


def test_massey_bound_values():
    assert_allclose(
        massey_bound(2.0), 0.5 * math.log(2 * math.pi * math.e * (2.0 + 1.0 / 12.0))
    )
    with pytest.raises(ValidationError):
        massey_bound(0.0)


def test_massey_bound_dominates_entropy_on_random_distributions():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.dirichlet(np.ones(rng.integers(2, 12)))
        d = ChargeDistribution.from_probs(p)
        if d.variance == 0.0:
            continue
        assert shannon_entropy(d) < massey_bound(d.variance)


def test_clustering_variance_bound_counts_neighborhood():
    geo = LatticeGeometry(1, 10)
    # radius 2 ball on a ring holds 5 sites
    assert clustering_variance_bound(geo, 2) == 2.0 * 5 * 10


def test_generating_function_inversion_round_trip():
    psi = ghz_state(4)
    n_charges = 5
    samples = np.array(
        [generating_function(psi, 2.0 * np.pi * k / n_charges) for k in range(n_charges)]
    )
    d = distribution_from_generating_function(samples)
    assert_allclose(d.probs, charge_distribution(psi).probs, atol=1e-12)


def test_report_margins_and_exact_bound_saturation():
    rep = report_from_distribution(flat_distribution(7))
    # flat over N+1 charges attains ln(N+1) exactly
    assert_allclose(rep.delta_s, rep.bound_log_n_plus_1, atol=1e-14)
    margins = rep.margins()
    assert margins["log_n_plus_1"] == pytest.approx(0.0, abs=1e-14)
    assert margins["massey"] > 0.0
    assert margins["clustering"] is None


def test_reports_compute_the_charge_entropy_once(monkeypatch):
    from asymlab import u1

    calls = []
    entropy = u1.entropy_of_probabilities

    def counting(probs):
        calls.append(len(probs))
        return entropy(probs)

    monkeypatch.setattr(u1, "entropy_of_probabilities", counting)
    rep = report_from_distribution(flat_distribution(7))
    assert calls == [7] and rep.shannon == rep.delta_s
    calls.clear()
    u1_asymmetry(plus_state(4))
    assert calls == [5]


def test_report_includes_clustering_bound_when_range_given():
    geo = LatticeGeometry(1, 6)
    rep = u1_asymmetry(plus_state(6), geo, clustering_range=0)
    assert rep.bound_clustering == pytest.approx(massey_bound(2.0 * 1 * 6))
    assert rep.margins()["clustering"] > 0.0


def test_report_rejects_mismatched_geometry():
    geo = LatticeGeometry(1, 5)
    with pytest.raises(ValidationError):
        u1_asymmetry(plus_state(6), geo, clustering_range=1)


def test_charge_distribution_brute_force_cross_check():
    # independent route: enumerate bitstrings of a product state
    rng = np.random.default_rng(33)
    amps = rng.random((4, 2)) + 1j * rng.random((4, 2))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    from asymlab.states import product_state

    psi = product_state(list(amps))
    probs = np.zeros(5)
    for bits in itertools.product((0, 1), repeat=4):
        w = np.prod([abs(amps[i, b]) ** 2 for i, b in enumerate(bits)])
        probs[4 - sum(bits)] += w
    assert_allclose(charge_distribution(psi).probs, probs, atol=1e-12)


@pytest.mark.parametrize("dimension,size", [(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 3)])
def test_charge_conserving_circuits_leave_u1_asymmetry_unchanged(dimension, size):
    """Delta S(U rho U^dagger) = Delta S(rho) for U commuting with the charge, on every route."""
    geo = LatticeGeometry(dimension, size)
    n = geo.n_sites
    rng = np.random.default_rng([dimension, size])
    factored = random_density_matrix(n, rng, rank=3)
    for state in (random_state(n, rng), factored, DensityMatrix(factored.matrix)):
        before = u1_asymmetry(state).delta_s
        moved = apply_circuit(state, random_charge_conserving_brickwork(geo, 3, rng))
        assert (moved.factor is None) == (state.factor is None)
        assert abs(u1_asymmetry(moved).delta_s - before) <= ENTROPY_MATCH_TOL
    # a generic circuit does move it, so the identity above is not vacuous
    generic = apply_circuit(factored, random_brickwork(geo, 3, rng))
    assert abs(u1_asymmetry(generic).delta_s - u1_asymmetry(factored).delta_s) > 1e-3
