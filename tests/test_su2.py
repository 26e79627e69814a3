import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from asymlab import su2
from asymlab.circuits import apply_circuit, haar_unitary, random_brickwork, site_layer
from asymlab.closedforms import dicke_state
from asymlab.clustering import variance_bound_check, verify_cluster_property
from asymlab.errors import ResourceError, ValidationError
from asymlab.lattice import LatticeGeometry
from asymlab.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    StateVector,
    apply_site_matrix,
    basis_state,
    density_matrix_cap,
    ghz_state,
    plus_state,
    product_state,
    random_density_matrix,
    random_state,
    reduced_density_matrix,
    von_neumann_entropy,
    zero_state,
)
from asymlab.su2 import (
    HAAR_MAX_REFINEMENTS,
    _coupling_terms,
    _dense_schur_basis,
    build_schur_basis,
    casimir_constraint_check,
    multiplicity,
    sector_distribution,
    spin_moments,
    su2_asymmetry,
    su2_shannon_rhs,
    su2_support_bound,
    su2_twirl,
    su2_twirl_haar,
    zero_transverse_rotation,
)
from asymlab.tolerances import HAAR_QUADRATURE_TOL
from asymlab.u1 import charge_distribution, u1_asymmetry


def _turn(state, u: np.ndarray):
    """u^{(x) N} applied to a state, by ``apply_circuit`` of one ``site_layer``."""
    return apply_circuit(state, site_layer(state.n_qubits, u))


def _dense_sectors(basis) -> list[tuple[int, int, int]]:
    """(2s, start, multiplicity) of each spin's columns in ``basis.dense()``, s decreasing."""
    out, start = [], 0
    for two_s, columns in basis.paths.items():
        out.append((two_s, start, columns[0].shape[1]))
        start += (two_s + 1) * columns[0].shape[1]
    return out


def _column_spins(basis) -> list[tuple[float, float]]:
    """(s, m) of every column of ``basis.dense()``: column start + alpha (2s+1) + (s - m)."""
    spins = {}
    for two_s, start, mult in _dense_sectors(basis):
        for alpha in range(mult):
            for c in range(two_s + 1):
                spins[start + alpha * (two_s + 1) + c] = (two_s / 2, two_s / 2 - c)
    return [spins[col] for col in range(2**basis.n_qubits)]


def test_multiplicity_worked_values():
    # two qubits: one triplet, one singlet
    assert multiplicity(2, 1) == 1
    assert multiplicity(2, 0) == 1
    # four qubits: 1 quintet, 3 triplets, 2 singlets
    assert multiplicity(4, 2) == 1
    assert multiplicity(4, 1) == 3
    assert multiplicity(4, 0) == 2
    # three qubits: 1 quartet, 2 doublets
    assert multiplicity(3, 1.5) == 1
    assert multiplicity(3, 0.5) == 2
    # s must be N/2 minus a whole number, and in [0, N/2]
    for n, s in ((5, 1), (4, 0.5), (3, 0), (4, 3), (3, 2.5), (3, -0.5), (4, -1)):
        with pytest.raises(ValidationError, match=f"no spin {s} among {n} qubits"):
            multiplicity(n, s)


@pytest.mark.parametrize("n", range(1, 14))
def test_sector_dimensions_tile_the_hilbert_space(n):
    total = sum((2 * s + 1) * multiplicity(n, s) for s in n / 2 - np.arange(n // 2 + 1))
    assert total == 2**n
    # the support cap never exceeds ln 2^N, the entropy of the maximally mixed state
    assert su2_support_bound(n) <= n * math.log(2.0) + 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_schur_basis_is_orthonormal(n):
    matrix = build_schur_basis(n).dense()
    gram = matrix.conj().T @ matrix
    assert_allclose(gram, np.eye(2**n), atol=1e-12)


def test_schur_basis_two_qubits_is_triplet_singlet():
    basis = build_schur_basis(2)
    matrix = basis.dense()
    # one triplet (columns 0..2 hold m = 1, 0, -1), then one singlet
    assert _dense_sectors(basis) == [(2, 0, 1), (0, 3, 1)]
    starts = {two_s: start for two_s, start, _mult in _dense_sectors(basis)}
    v = matrix[:, starts[0]]
    expected = np.zeros(4)
    expected[1], expected[2] = 1.0, -1.0
    expected /= np.sqrt(2.0)
    assert_allclose(np.abs(np.vdot(expected, v)), 1.0, atol=1e-12)
    trip_top = matrix[:, starts[2]]
    assert_allclose(np.abs(trip_top), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_schur_columns_diagonalize_the_casimir():
    # build S^2 = Sx^2 + Sy^2 + Sz^2 densely from collective Paulis
    from asymlab.states import PAULI

    for n in (3, 4):
        basis = build_schur_basis(n)
        d = 2**n
        s_ops = []
        for axis in ("x", "y", "z"):
            acc = np.zeros((d, d), dtype=complex)
            for site in range(n):
                acc += apply_site_matrix(np.eye(d, dtype=complex), PAULI[axis], site)
            s_ops.append(acc / 2.0)
        s2 = sum(op @ op for op in s_ops)
        matrix = basis.dense()
        for col, (s, m) in enumerate(_column_spins(basis)):
            v = matrix[:, col]
            assert_allclose(s2 @ v, s * (s + 1.0) * v, atol=1e-10)
            assert_allclose(s_ops[2] @ v, m * v, atol=1e-10)


def test_coupling_terms_are_orthogonal_condon_shortley_clebsch_gordan():
    """The j (x) 1/2 table checked from first principles, not against a second table.

    W maps (parent column p, new bit b) to (child spin J, child column c): it
    is orthogonal, and J_- = j_- (x) 1 + 1 (x) sigma^- takes column c to
    sqrt((J + M)(J - M + 1)) times column c + 1, M = J - c, with the positive
    root; the m = J column's coefficient at parent m = j is positive
    (Condon-Shortley).
    """
    for two_j in range(64):
        d = two_j + 1
        children = {}
        for two_j_new, bit, columns, parents, coef in _coupling_terms(two_j):
            child = children.setdefault(two_j_new, np.zeros((two_j_new + 1, d, 2)))
            child[np.arange(columns.start, columns.stop),
                  np.arange(parents.start, parents.stop), bit] = coef[:, 0]
        w = np.concatenate([children[k].reshape(k + 1, 2 * d) for k in sorted(children)])
        assert np.abs(w @ w.T - np.eye(2 * d)).max() <= 1e-14
        p = np.arange(two_j)
        lower = np.kron(np.diag(np.sqrt((two_j - p) * (p + 1.0)), -1), np.eye(2))
        lower += np.kron(np.eye(d), [[0.0, 0.0], [1.0, 0.0]])
        for two_j_new, child in children.items():
            v = child.reshape(two_j_new + 1, 2 * d)
            c = np.arange(two_j_new)
            expected = np.vstack([np.sqrt((two_j_new - c) * (c + 1.0))[:, None] * v[1:],
                                  np.zeros(2 * d)])
            # the ladder coefficients reach (2j + 1)/2, so allow that many roundings
            assert np.abs(v @ lower.T - expected).max() <= 1e-14 * d
            assert child[0, 0].max() > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 10])
def test_block_basis_equals_dense_reference(n):
    basis = build_schur_basis(n)
    assert np.array_equal(basis.dense(), _dense_schur_basis(n))
    assert np.array_equal(np.sort(np.concatenate(basis.rows)), np.arange(2**n))
    weights = [bin(int(r)).count("1") for r in np.concatenate(basis.rows)]
    assert weights == sorted(weights)
    assert [rows.size for rows in basis.rows] == [math.comb(n, w) for w in range(n + 1)]
    assert list(basis.paths) == list(range(n, -1, -2))
    for two_s, columns in basis.paths.items():
        assert len(columns) == two_s + 1
        for c, vectors in enumerate(columns):
            # column c holds m = s - c, on the rows of weight w = N/2 - m
            w = (n - two_s) // 2 + c
            assert vectors.shape == (math.comb(n, w), multiplicity(n, two_s / 2))


def test_schur_basis_is_built_once_per_n_and_capped_on_every_call(monkeypatch):
    basis = build_schur_basis(6)
    assert build_schur_basis(6) is basis
    for part in basis.rows + sum(basis.paths.values(), ()):
        assert not part.flags.writeable
    assert isinstance(basis.rows, tuple)
    assert all(isinstance(columns, tuple) for columns in basis.paths.values())
    with pytest.raises(TypeError):
        basis.paths[6] = ()
    with pytest.raises(TypeError):
        del basis.paths[6]
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "4")
    with pytest.raises(ResourceError):
        build_schur_basis(6)
    assert build_schur_basis(4) is build_schur_basis(4)


def test_block_basis_takes_odd_n_with_half_integer_spins():
    for n in (1, 3, 5):
        basis = build_schur_basis(n)
        assert list(basis.paths) == list(range(n, 0, -2))
        assert [columns[0].shape[1] for columns in basis.paths.values()] == [
            multiplicity(n, two_s / 2) for two_s in range(n, 0, -2)]


def test_no_spin_route_takes_zero_qubits():
    """N = 0 is refused with one line; a one-amplitude state is not read as N = 1."""
    for call in (lambda: su2_asymmetry(StateVector(np.ones(1))),
                 lambda: sector_distribution(DensityMatrix(np.ones((1, 1)))),
                 lambda: build_schur_basis(0), lambda: su2_support_bound(0)):
        with pytest.raises(ValidationError, match="N >= 1 qubits, got 0") as info:
            call()
        assert "\n" not in str(info.value)


def _dense_twirl(rho: np.ndarray, basis) -> np.ndarray:
    """Reference twirl: rotate by the full dense basis, m-average each sector, rotate back."""
    matrix = basis.dense()
    rot = matrix.T @ rho @ matrix
    out = np.zeros_like(rot)
    for two_s, start, mult in _dense_sectors(basis):
        width = two_s + 1
        size = mult * width
        r = rot[start : start + size, start : start + size].reshape(mult, width, mult, width)
        avg = np.einsum("ambm->ab", r) / width
        out[start : start + size, start : start + size] = np.kron(avg, np.eye(width))
    return matrix @ out @ matrix.T


def _dense_sector_table(rho: np.ndarray, basis) -> np.ndarray:
    n = basis.n_qubits
    matrix = basis.dense()
    diag = np.real(np.diag(matrix.T @ rho @ matrix))
    expected = np.zeros((n // 2 + 1, n + 1))
    for col, (s, m) in enumerate(_column_spins(basis)):
        # row r holds s = r + (N mod 2)/2
        expected[int(s), int(m + n / 2)] += diag[col]
    return np.clip(expected, 0.0, None)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_block_routes_match_dense_reference_for_density_matrices(n):
    rng = np.random.default_rng(200 + n)
    basis = build_schur_basis(n)
    for rank in (1, 3, 2**n):
        rho = random_density_matrix(n, rng, rank=min(rank, 2**n))
        assert np.abs(rho.matrix.imag).max() > 1e-2 * np.abs(rho.matrix).max()
        twirl = _dense_twirl(rho.matrix, basis)
        delta = von_neumann_entropy(DensityMatrix(twirl)) - von_neumann_entropy(rho)
        table = _dense_sector_table(rho.matrix, basis)
        for state in (rho, DensityMatrix(np.asfortranarray(rho.matrix))):
            assert_allclose(su2_asymmetry(state).delta_s, delta, rtol=0, atol=1e-12)
            assert_allclose(sector_distribution(state).p_sm, table, rtol=0, atol=1e-12)
            assert_allclose(su2_twirl(state).matrix, twirl, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 10])
def test_block_routes_match_dense_reference_for_pure_states(n):
    rng = np.random.default_rng(300 + n)
    basis = build_schur_basis(n)
    psi = random_state(n, rng)
    rho = psi.matrix
    twirl = _dense_twirl(rho, basis)
    delta = von_neumann_entropy(DensityMatrix(twirl))
    assert_allclose(su2_asymmetry(psi).delta_s, delta, rtol=0, atol=1e-12)
    assert_allclose(
        sector_distribution(psi).p_sm, _dense_sector_table(rho, basis), rtol=0, atol=1e-12
    )
    assert_allclose(su2_twirl(psi).matrix, twirl, rtol=0, atol=1e-12)


def test_asymmetry_of_non_psd_matrix_raises():
    # Hermitian and unit trace, but 1.2 |singlet><singlet| - 0.2 |00><00| has eigenvalue -0.2
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    mat = 1.2 * np.outer(singlet, singlet)
    mat[0, 0] -= 0.2
    rho = DensityMatrix(mat)
    with pytest.raises(ValidationError):
        su2_asymmetry(rho)


def test_pure_routes_at_n12_stay_far_below_the_dense_basis():
    # the dense 2^12 x 2^12 basis alone is 134 MB; an empty memo makes this a fresh build
    su2._schur_basis.cache_clear()
    tracemalloc.start()
    try:
        build_schur_basis(12)
        build_peak = tracemalloc.get_traced_memory()[1]
        psi = random_state(12, np.random.default_rng(12))
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        rep = su2_asymmetry(psi)
        sector_distribution(psi)
        route_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak < 64e6
    assert route_peak < 64e6
    assert 0.0 <= rep.delta_s <= rep.bound_sector_entropy + 1e-9


def _peak_bytes(call):
    """(value, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factored_mixed_route_forms_no_dense_rho():
    """A rank-4 draw at N = 10 stays factored through every factor-route kernel.

    Each kernel peaks below one complex 2^N x 2^N array (16 MB) and leaves rho
    unformed; its value then matches that of the matrix-built state.
    """
    n = 10
    cap = 16 * 4**n
    geo = LatticeGeometry(1, n)
    build_schur_basis(n)  # the shared basis is not a state's memory

    def su2_chain():
        rho = random_density_matrix(n, np.random.default_rng(10), rank=4)
        su2_asymmetry(rho)
        turned, _u = zero_transverse_rotation(rho)
        casimir_constraint_check(turned, geo, 2)
        return rho, turned.state

    (rho, gauged), peak = _peak_bytes(su2_chain)
    assert peak < cap
    for state in (rho, gauged):
        assert np.array_equal(state.matrix, state.factor @ state.factor.conj().T)

    rho = random_density_matrix(n, np.random.default_rng(11), rank=4)
    circuit = random_brickwork(geo, 2, np.random.default_rng(12))
    kernels = {
        "charge_distribution": lambda s: charge_distribution(s).probs,
        "reduced_density_matrix": lambda s: reduced_density_matrix(s, [7, 2, 3]),
        "verify_cluster_property": lambda s: [
            v for _d, v in verify_cluster_property(s, geo, 2).distance_profile
        ],
        "variance_bound_check": lambda s: variance_bound_check(s, geo, 2).variance,
        "apply_circuit": lambda s: apply_circuit(s, circuit),
        "u1_asymmetry": lambda s: u1_asymmetry(s).delta_s,
    }
    values = {}
    for name, kernel in kernels.items():
        values[name], peak = _peak_bytes(lambda: kernel(rho))
        assert peak < cap, name
        assert "matrix" not in vars(rho), name
    out = values.pop("apply_circuit")
    assert out.factor is not None and "matrix" not in vars(out)
    values["apply_circuit"] = out.matrix
    dense = DensityMatrix(rho.matrix)
    for name, kernel in kernels.items():
        expected = kernel(dense)
        if name == "apply_circuit":
            assert expected.factor is None
            expected = expected.matrix
        assert_allclose(values[name], expected, rtol=0, atol=1e-12, err_msg=name)


def test_sector_distribution_of_known_states():
    table = sector_distribution(zero_state(2))
    # |00> is pure triplet with m = +1
    assert_allclose(table.p_s, [0.0, 1.0], atol=1e-14)
    assert_allclose(table.p_sm[1, 2], 1.0, atol=1e-14)
    ghz_table = sector_distribution(ghz_state(2))
    assert_allclose(ghz_table.p_s, [0.0, 1.0], atol=1e-14)
    # the m marginal, indexed by m + N/2
    assert_allclose(ghz_table.p_sm.sum(axis=0), [0.5, 0.0, 0.5], atol=1e-14)


def test_twirl_idempotent_and_trace_preserving():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(4, rng)
    once = su2_twirl(rho)
    assert_allclose(np.trace(once.matrix).real, 1.0, atol=1e-12)
    assert_allclose(su2_twirl(once).matrix, once.matrix, atol=1e-12)


def test_twirl_matches_haar_quadrature():
    rng = np.random.default_rng(9)
    for n in (2, 4, 6, 8):
        for rho in (
            DensityMatrix(random_state(n, rng).matrix),
            random_density_matrix(n, rng, rank=3),
            random_density_matrix(n, rng),
        ):
            exact = su2_twirl(rho)
            quad = su2_twirl_haar(rho)
            assert_allclose(quad.matrix, exact.matrix, atol=1e-12)


def _euler_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    za = np.diag(np.exp([-0.5j * alpha, 0.5j * alpha]))
    zc = np.diag(np.exp([-0.5j * gamma, 0.5j * gamma]))
    cb, sb = np.cos(beta / 2.0), np.sin(beta / 2.0)
    return za @ np.array([[cb, -sb], [sb, cb]], dtype=complex) @ zc


def _per_node_haar_twirl(rho: DensityMatrix) -> np.ndarray:
    """The same sum taken node by node: u^{(x) N} rho u^{(x) N dagger} per Euler node."""
    n = rho.n_qubits
    previous = None
    k, n_beta = 2 * n + 2, n + 2
    for _ in range(HAAR_MAX_REFINEMENTS):
        angles = 2.0 * np.pi * np.arange(k) / k
        nodes, gl_weights = leggauss(n_beta)
        acc = np.zeros_like(rho.matrix)
        for beta, w in zip(np.arccos(nodes), gl_weights):
            for alpha in angles:
                for gamma in angles:
                    u = _euler_unitary(alpha, beta, gamma)
                    acc += (w / 2.0 / k / k) * _turn(rho, u).matrix
        if previous is not None and np.max(np.abs(acc - previous)) <= HAAR_QUADRATURE_TOL:
            return acc
        previous = acc
        k, n_beta = 2 * k, 2 * n_beta
    raise AssertionError("per-node reference did not converge")


def test_haar_quadrature_matches_per_node_sum():
    rng = np.random.default_rng(23)
    cases = [
        DensityMatrix(random_state(2, rng).matrix),
        random_density_matrix(2, rng),
        random_density_matrix(4, rng, rank=3),
    ]
    for rho in cases:
        assert_allclose(su2_twirl_haar(rho).matrix, _per_node_haar_twirl(rho), atol=1e-12)


def test_haar_quadrature_raises_when_it_cannot_converge(monkeypatch):
    monkeypatch.setattr(su2, "HAAR_QUADRATURE_TOL", -1.0)
    with pytest.raises(ValidationError, match="did not converge"):
        su2_twirl_haar(random_density_matrix(2, np.random.default_rng(5)))


def test_asymmetry_zero_for_rotation_invariant_states():
    # singlet is SU(2) invariant
    singlet = StateVector(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0))
    assert su2_asymmetry(singlet).delta_s == pytest.approx(0.0, abs=1e-10)


def test_polarized_state_asymmetry_is_log_n_plus_1():
    for n in (2, 4, 6):
        rep = su2_asymmetry(zero_state(n))
        assert_allclose(rep.delta_s, math.log(n + 1), atol=1e-10)
        # saturates the sector-entropy bound: p_s ln(2s+1) with s = n/2, H = 0
        assert_allclose(rep.bound_sector_entropy, math.log(n + 1), atol=1e-12)


def test_pure_state_block_route_matches_dense_twirl():
    rng = np.random.default_rng(17)
    for _ in range(5):
        psi = random_state(4, rng)
        fast = su2_asymmetry(psi).delta_s
        dense = von_neumann_entropy(su2_twirl(psi))
        assert_allclose(fast, dense, atol=1e-9)


def test_asymmetry_invariant_under_global_rotation():
    rng = np.random.default_rng(23)
    psi = random_state(4, rng)
    base = su2_asymmetry(psi).delta_s
    for _ in range(3):
        u = haar_unitary(2, rng)
        rotated = su2_asymmetry(_turn(psi, u)).delta_s
        assert_allclose(rotated, base, atol=1e-9)


def test_sector_entropy_bound_and_support_bound_hold():
    rng = np.random.default_rng(31)
    for n in (2, 4):
        for _ in range(10):
            state = random_state(n, rng)
            rep = su2_asymmetry(state)
            assert rep.delta_s <= rep.bound_sector_entropy + 1e-9
            assert rep.delta_s <= rep.bound_support_dim + 1e-9
            table = sector_distribution(state)
            assert_allclose(rep.bound_sector_entropy, su2_shannon_rhs(table), atol=1e-12)


def test_sector_distribution_of_density_matrix_reads_the_rotated_diagonal():
    rng = np.random.default_rng(47)
    for n in (2, 4, 6):
        basis = build_schur_basis(n)
        for rank in (1, 3, None):
            rho = random_density_matrix(n, rng, rank=rank)
            assert np.abs(rho.matrix.imag).max() > 1e-3
            table = sector_distribution(rho)
            assert_allclose(table.p_sm, _dense_sector_table(rho.matrix, basis), rtol=0, atol=1e-14)


def test_support_bound_value():
    # N=2: sum over s of (2s+1) min(n_s, 2s+1) = 1*1 + 3*1 = 4
    assert_allclose(su2_support_bound(2), math.log(4.0), atol=1e-14)
    # N=4: 1*min(2,1) + 3*min(3,3) + 5*min(1,5) = 1 + 9 + 5 = 15
    assert_allclose(su2_support_bound(4), math.log(15.0), atol=1e-14)
    # N=1: one doublet, 2; N=3: 4*min(1,4) + 2*min(2,2) = 8
    assert_allclose(su2_support_bound(1), math.log(2.0), atol=1e-14)
    assert_allclose(su2_support_bound(3), math.log(8.0), atol=1e-14)


def test_spin_moments_of_polarized_state():
    mom = spin_moments(zero_state(4))
    assert_allclose(mom["sz"], 2.0, atol=1e-12)
    assert_allclose(mom["sz2"], 4.0, atol=1e-12)
    assert_allclose(mom["s2"], 2.0 * 3.0, atol=1e-12)
    assert abs(mom["sx"]) < 1e-12 and abs(mom["sy"]) < 1e-12


def test_spin_moments_density_matrix_route_agrees():
    rng = np.random.default_rng(41)
    psi = random_state(3, rng)
    a = spin_moments(psi)
    b = spin_moments(DensityMatrix(psi.matrix))
    for key in a:
        assert_allclose(a[key], b[key], atol=1e-10)


def _eigen_mixture_moments(rho: DensityMatrix) -> dict:
    """Sum_k p_k spin_moments(psi_k) over the eigenvectors of rho, via the pure route."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    total: dict = {}
    for p, vec in zip(evals, evecs.T):
        for key, value in spin_moments(StateVector(vec)).items():
            total[key] = total.get(key, 0.0) + p * value
    return total


@pytest.mark.parametrize("n", range(2, 10))
def test_spin_moments_of_density_matrix_match_eigen_mixture(n):
    rng = np.random.default_rng(100 + n)
    for rank in (1, 3, 2**n):
        rho = random_density_matrix(n, rng, rank=min(rank, 2**n))
        expected = _eigen_mixture_moments(rho)
        got = spin_moments(rho)
        fortran = spin_moments(DensityMatrix(np.asfortranarray(rho.matrix)))
        assert set(got) == set(expected)
        for key in expected:
            assert_allclose(got[key], expected[key], atol=1e-12, err_msg=f"{key} rank {rank}")
            assert_allclose(fortran[key], expected[key], atol=1e-12, err_msg=f"{key} F order")


@pytest.mark.parametrize("n", [3, 4, 7])
def test_spin_moments_of_density_matrix_closed_forms(n):
    ghz = spin_moments(DensityMatrix(ghz_state(n).matrix))
    assert_allclose(
        [ghz[k] for k in ("sx", "sy", "sz", "sx2", "sy2", "sz2")],
        [0.0, 0.0, 0.0, n / 4, n / 4, n**2 / 4],
        atol=1e-12,
    )
    mixed = spin_moments(DensityMatrix(np.eye(2**n) / 2**n))
    assert_allclose(
        [mixed[k] for k in ("sx", "sy", "sz", "sx2", "sy2", "sz2", "s2")],
        [0.0, 0.0, 0.0, n / 4, n / 4, n / 4, 3 * n / 4],
        atol=1e-12,
    )
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    for axis, local in (("x", plus_x), ("y", plus_y)):
        rho = product_state([np.outer(local, local.conj())] * n)
        assert isinstance(rho, DensityMatrix)
        mom = spin_moments(rho)
        for other in {"x", "y", "z"} - {axis}:
            assert_allclose(mom[f"s{other}"], 0.0, atol=1e-12)
            assert_allclose(mom[f"s{other}2"], n / 4, atol=1e-12)
        assert_allclose(mom[f"s{axis}"], n / 2, atol=1e-12)
        assert_allclose(mom[f"s{axis}2"], n**2 / 4, atol=1e-12)


def _dense_collective_spin(n: int) -> list[np.ndarray]:
    """S_x, S_y and S_z of N qubits as 2^N x 2^N matrices, site 0 the most significant bit."""
    out = []
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        total = np.zeros((2**n,) * 2, dtype=complex)
        for site in range(n):
            total += np.kron(np.kron(np.eye(2**site), pauli), np.eye(2 ** (n - 1 - site)))
        out.append(total / 2.0)
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_moment_matrix_matches_dense_traces(n):
    """M_ab = Re <S_a S_b> of F and of the gathered rho against Tr(rho S_a S_b)."""
    rng = np.random.default_rng(300 + n)
    spin = _dense_collective_spin(n)
    entries = {"sx2": (0, 0), "sy2": (1, 1), "sz2": (2, 2),
               "sxy": (0, 1), "sxz": (0, 2), "syz": (1, 2)}
    for rank in (1, 4, 2**n):
        rho = random_density_matrix(n, rng, rank=min(rank, 2**n))
        for state in (rho, DensityMatrix(rho.matrix)):
            mom = spin_moments(state)
            for key, (a, b) in entries.items():
                want = float(np.real(np.trace(rho.matrix @ spin[a] @ spin[b])))
                assert_allclose(mom[key], want, rtol=0, atol=1e-13, err_msg=f"{key} rank {rank}")


def test_rotated_density_matrix_is_c_contiguous():
    rng = np.random.default_rng(53)
    rho = random_density_matrix(4, rng, rank=2)
    u = haar_unitary(2, rng)
    assert _turn(DensityMatrix(rho.matrix), u).matrix.flags.c_contiguous
    plus_x = np.array([[0.5, 0.5], [0.5, 0.5]])
    gauged = zero_transverse_rotation(product_state([plus_x] * 4))[0].state
    assert isinstance(gauged, DensityMatrix)
    assert gauged.matrix.flags.c_contiguous


def test_zero_transverse_rotation_aligns_mean_spin():
    rng = np.random.default_rng(47)
    for _ in range(5):
        psi = random_state(3, rng)
        gauged, u = zero_transverse_rotation(psi)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        mom = spin_moments(gauged)
        assert abs(mom["sx"]) < 1e-9 and abs(mom["sy"]) < 1e-9
        assert mom["sz"] >= -1e-9
        # rotation is collective, so the total-spin magnitude is untouched
        assert_allclose(mom["s2"], spin_moments(psi)["s2"], atol=1e-9)


def test_zero_transverse_rotation_turns_a_spin_along_minus_z_by_pi_about_x():
    n = 4
    down = basis_state([1] * n)
    for state in (down, DensityMatrix.from_factor(down.factor), DensityMatrix(down.matrix)):
        assert_allclose(spin_moments(state)["sz"], -n / 2, atol=1e-12)
        gauged, u = zero_transverse_rotation(state)
        assert_allclose(u, -1j * PAULI_X, rtol=0, atol=1e-15)
        assert (gauged.state.factor is None) == (state.factor is None)
        mom = spin_moments(gauged)
        assert_allclose([mom["sx"], mom["sy"], mom["sz"]], [0.0, 0.0, n / 2], atol=1e-12)


def test_zero_transverse_rotation_turns_a_reading_and_returns_the_turned_reading():
    """Given a reading, it reads only the turned state; the check read is the one returned."""
    rng = np.random.default_rng(49)
    for state in (random_state(3, rng), random_density_matrix(4, rng, rank=2),
                  random_density_matrix(3, rng)):
        sectors = su2.spin_sectors(state)
        turned, u = zero_transverse_rotation(sectors)
        assert_allclose(turned.state.diagonal(), _turn(state, u).diagonal(), rtol=0, atol=1e-14)
        assert turned.moments == su2.spin_sectors(turned.state).moments
        for key, value in zero_transverse_rotation(state)[0].moments.items():
            assert turned.moments[key] == value, key
    aligned = su2.spin_sectors(zero_state(3))
    assert zero_transverse_rotation(aligned)[0] is aligned


def test_zero_transverse_rotation_refuses_nan_moments(monkeypatch):
    """A NaN mean spin has no axis, and a NaN moment after the turn fails the post-turn check."""
    sectors = su2.spin_sectors(plus_state(4))
    nan = dict.fromkeys(sectors.moments, math.nan)
    for moments in (nan, {**sectors.moments, "sy": math.inf}):
        with pytest.raises(ValidationError, match="not finite"):
            zero_transverse_rotation(dataclasses.replace(sectors, moments=moments))
    with pytest.raises(ValidationError, match="not finite"):
        casimir_constraint_check(dataclasses.replace(sectors, moments=nan),
                                 LatticeGeometry(1, 4), 1)
    read = su2.spin_sectors

    def nan_once_turned(state):
        reading = read(state)
        return reading if state is sectors else dataclasses.replace(reading, moments=nan)

    monkeypatch.setattr(su2, "spin_sectors", nan_once_turned)
    with pytest.raises(ValidationError, match="failed to null"):
        zero_transverse_rotation(sectors)


def test_global_rotation_of_a_vector_is_the_kronecker_power():
    rng = np.random.default_rng(61)
    for n in (1, 3, 5):
        psi = random_state(n, rng).amplitudes
        u = haar_unitary(2, rng)
        power = np.ones((1, 1), dtype=complex)
        for _ in range(n):
            power = np.kron(power, u)
        rotated = _turn(StateVector(psi), u).amplitudes
        assert rotated.shape == psi.shape
        assert_allclose(rotated, power @ psi, rtol=0, atol=1e-14)


def test_casimir_check_of_an_ungauged_state_gives_the_gauged_report():
    geo = LatticeGeometry(1, 4)
    psi = _turn(zero_state(4), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    gauged, _u = zero_transverse_rotation(psi)
    rep, ref = (casimir_constraint_check(state, geo, 1) for state in (psi, gauged))
    assert_allclose([rep.lhs, rep.precursor_lhs], [ref.lhs, ref.precursor_lhs], rtol=0, atol=1e-12)
    # polarized along x: <S^2> - <S_x^2> = N/2
    assert_allclose(rep.lhs, 2.0, rtol=0, atol=1e-12)
    assert rep.passed and rep.precursor_passed


@pytest.mark.parametrize("n", range(2, 10))
def test_casimir_check_is_blind_to_a_global_rotation(n):
    """u^{(x) N} turns <S> and M together, so lhs and precursor stay, on either route."""
    rng = np.random.default_rng(400 + n)
    geo = LatticeGeometry(1, n)
    for state in (random_state(n, rng), random_density_matrix(n, rng, rank=4),
                  random_density_matrix(n, rng)):
        u = haar_unitary(2, rng)
        moved = _turn(state, u)
        assert (moved.factor is None) == (state.factor is None)
        base, turned = (casimir_constraint_check(st, geo, 1) for st in (state, moved))
        assert_allclose([turned.lhs, turned.precursor_lhs], [base.lhs, base.precursor_lhs],
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_casimir_check_at_zero_and_antiparallel_mean_spin(n):
    """GHZ has <S> = 0, so n = z; |1^N> has <S> along -z: both read <S_z^2>."""
    geo = LatticeGeometry(1, n)
    ghz = casimir_constraint_check(ghz_state(n), geo, 1)
    # <S^2> = N/2 + N^2/4, <S_z^2> = N^2/4 and |<S>| = 0
    assert_allclose([ghz.lhs, ghz.precursor_lhs], [n / 2, n / 2 + n**2 / 4], rtol=0, atol=1e-12)
    down = basis_state([1] * n)
    for state in (down, DensityMatrix(down.matrix)):
        rep = casimir_constraint_check(state, geo, 1)
        # polarized along -z: <S^2> - <S_z^2> = <S^2> - |<S>|^2 = N/2
        assert_allclose([rep.lhs, rep.precursor_lhs], [n / 2, n / 2], rtol=0, atol=1e-12)


def test_casimir_check_peaks_at_three_factors(monkeypatch):
    """On a rank-4 factor at N = 14 (1 MiB) the check allocates at most three copies of F.

    Its peak is that of the one ``couple_factor`` of ``spin_sectors``, which
    holds the blocks of k and of k + 1 coupled sites; each block then leaves
    only its entropy share and its (2s + 1) x (2s + 1) R_s, the moments' source.
    """
    monkeypatch.delenv("ASYMLAB_MAX_QUBITS", raising=False)
    n = 14
    rho = random_density_matrix(n, np.random.default_rng(140), rank=4)
    geo = LatticeGeometry(1, n)
    rep, peak = _peak_bytes(lambda: casimir_constraint_check(rho, geo, 2))
    assert peak <= 3.0 * rho.factor.nbytes
    assert rep.passed and rep.precursor_passed


def test_casimir_check_on_polarized_and_dicke_states():
    geo = LatticeGeometry(1, 4)
    rep = casimir_constraint_check(zero_state(4), geo, 1)
    # <S^2> - <Sz^2> = N/2 for full polarization
    assert_allclose(rep.lhs, 2.0, atol=1e-10)
    assert rep.passed and rep.precursor_passed
    assert rep.c_lambda == 1.5 * 3

    dicke = dicke_state(4, 2, axis="x")
    gauged, _ = zero_transverse_rotation(dicke)
    rep = casimir_constraint_check(gauged, geo, 2)
    assert rep.passed


def test_ghz_passes_main_but_fails_precursor_at_zero_range():
    n = 10
    geo = LatticeGeometry(1, n)
    rep = casimir_constraint_check(ghz_state(n), geo, 0)
    # <S^2> = N/2 + N^2/4 here; <Sz^2> soaks up the N^2 part but |<S>|^2 = 0
    assert rep.passed
    assert not rep.precursor_passed
    assert rep.precursor_lhs > rep.bound


def test_rotated_factor_matches_dense_global_rotation():
    """``apply_circuit`` of a site layer: the factor route against the matrix route."""
    rng = np.random.default_rng(59)
    for n in (2, 4, 6, 8):
        rho = random_density_matrix(n, rng, rank=3)
        u = haar_unitary(2, rng)
        fac = _turn(rho, u).factor
        dense = _turn(DensityMatrix(rho.matrix), u)
        assert dense.factor is None
        assert np.max(np.abs(fac @ fac.conj().T - dense.matrix)) <= 1e-14
        # the gauge rotation turns the factor and keeps it
        gauged, g = zero_transverse_rotation(rho)
        assert gauged.state.factor is not None
        turned = _turn(DensityMatrix(rho.matrix), g)
        assert np.max(np.abs(gauged.state.matrix - turned.matrix)) <= 1e-14
        bare, g_bare = zero_transverse_rotation(DensityMatrix(rho.matrix))
        assert bare.state.factor is None
        assert_allclose(g, g_bare, atol=1e-14)
        moments = spin_moments(gauged)
        for key, value in spin_moments(bare).items():
            assert_allclose(moments[key], value, atol=1e-12, err_msg=key)



def _casimir(table) -> float:
    """<S^2> = sum_s p_s s(s+1) of a sector table."""
    return float(np.sum(table.p_s * table.spins * (table.spins + 1)))


def _su2_readings(state) -> dict:
    """Everything su2 reads off one state, flattened to arrays for comparison."""
    out = {f"moment {k}": v for k, v in spin_moments(state).items()}
    gauged, u = zero_transverse_rotation(state)
    out["gauge u"] = u
    out["gauged rho"] = gauged.state.matrix
    rep = su2_asymmetry(state)
    out["delta_s"] = rep.delta_s
    out["sector bound"] = rep.bound_sector_entropy
    out["p_sm"] = sector_distribution(state).p_sm
    return out


@pytest.mark.parametrize("n", range(2, 11))
def test_factor_route_matches_matrix_route(n):
    """A factored rho and the same matrix without its factor go two independent routes."""
    rng = np.random.default_rng(700 + n)
    # a full-rank draw carries no factor, so r < 2^N
    for rank in (r for r in (1, 2, 3, 4) if r < 2**n):
        rho = random_density_matrix(n, rng, rank=rank)
        assert rho.factor is not None
        factored = _su2_readings(rho)
        bare = _su2_readings(DensityMatrix(rho.matrix))
        for key, value in bare.items():
            assert_allclose(factored[key], value, rtol=0, atol=1e-12, err_msg=f"{key} r={rank}")
        # <S^2> of the coupled sector table against tr M of the ladder moments
        assert_allclose(_casimir(sector_distribution(rho)), factored["moment s2"],
                        rtol=0, atol=1e-12, err_msg=f"r={rank}")


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_rank_one_factor_matches_its_statevector(n):
    rho = random_density_matrix(n, np.random.default_rng(800 + n), rank=1)
    psi = StateVector(rho.factor[:, 0])
    pure = _su2_readings(psi)
    for key, value in _su2_readings(rho).items():
        assert_allclose(value, pure[key], rtol=0, atol=1e-14, err_msg=key)


def test_asymmetry_transforms_each_state_once(monkeypatch):
    """One coupling of F for a state with a factor, one rotation of rho for one without."""
    calls = []
    for name in ("couple_factor", "_spin_parts"):
        def spy(arr, *rest, _name=name, _kernel=getattr(su2, name)):
            calls.append(_name)
            return _kernel(arr, *rest)

        monkeypatch.setattr(su2, name, spy)
    rng = np.random.default_rng(61)
    rho = random_density_matrix(4, rng, rank=2)
    for state, route in ((random_state(4, rng), "couple_factor"), (rho, "couple_factor"),
                         (DensityMatrix(rho.matrix), "_spin_parts")):
        calls.clear()
        su2_asymmetry(state)
        assert calls == [route]


@pytest.mark.parametrize("n", [7, 8])
def test_matrix_route_multiplicity_blocks_equal_the_coupled_factor(n):
    """sum_m V^T rho_ww V of each spin equals B_s B_s^dagger of ``couple_factor(F)``.

    Entry by entry: entropies and tables would not see the paths alpha permuted.
    """
    rho = random_density_matrix(n, np.random.default_rng(700 + n), rank=3)
    coupled = su2.couple_factor(rho.factor)
    parts = su2._spin_parts(rho.matrix, build_schur_basis(n))
    assert list(parts) == sorted(coupled, reverse=True)
    for two_s, block in coupled.items():
        flat = block.reshape(len(block), -1)
        assert np.abs(sum(parts[two_s]) - flat @ flat.conj().T).max() <= 1e-15


@pytest.mark.parametrize("n, rank", [(16, 1), (14, 4), (10, 1000)])
def test_coupling_route_peaks_at_a_few_factors(n, rank):
    """su2_asymmetry of a pure or rank-r state holds a few copies of F (1 MiB, 16 MB) at most.

    rho would take 2^N / r times F, and the basis is never built.  At r = 1000
    the spin-side Gram B_s^dagger B_s of the top spin alone would be 1.8 GiB:
    each entropy comes from the smaller Gram and only R_s = Tr_r of it is kept.
    """
    rng = np.random.default_rng(900 + n)
    state = random_state(n, rng) if rank == 1 else random_density_matrix(n, rng, rank=rank)
    rep, peak = _peak_bytes(lambda: su2_asymmetry(state))
    assert peak < 4 * state.factor.nbytes
    assert 0.0 <= rep.delta_s <= rep.bound_sector_entropy + 1e-9


def test_pure_and_factored_states_never_build_the_schur_basis(monkeypatch):
    def refuse(n_qubits):
        raise AssertionError(f"Schur basis built for N = {n_qubits}")

    monkeypatch.setattr(su2, "build_schur_basis", refuse)
    rng = np.random.default_rng(62)
    rho = random_density_matrix(6, rng, rank=4)
    for state in (random_state(8, rng), rho, dicke_state(6, 3, axis="x")):
        su2_asymmetry(state)
        sector_distribution(state)
    with pytest.raises(AssertionError, match="N = 6"):
        su2_asymmetry(DensityMatrix(rho.matrix))


def test_coupling_takes_odd_n_and_the_sector_routes_run_it():
    """Odd N couples to half-integer spins with the right multiplicities, and |0^N> saturates."""
    for n in (1, 3, 5):
        blocks = su2.couple_factor(zero_state(n).factor)
        assert sorted(blocks) == list(range(n % 2, n + 1, 2))
        for two_s, block in blocks.items():
            k = (n - two_s) // 2
            assert len(block) == math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        # |0...0> is all in the top spin, at m = +N/2
        assert_allclose(np.abs(blocks[n][0, 0, 0]), 1.0, rtol=0, atol=1e-15)
        rep = su2_asymmetry(zero_state(n))
        assert_allclose(rep.delta_s, math.log(n + 1), rtol=0, atol=1e-15)
        assert_allclose(rep.bound_sector_entropy, rep.delta_s, rtol=0, atol=1e-15)
        table = sector_distribution(zero_state(n))
        assert_allclose(table.spins, np.arange(n % 2, n + 1, 2) / 2, rtol=0, atol=0)
        assert table.p_sm[-1, -1] == pytest.approx(1.0, abs=1e-15)


def _singlets(n: int) -> StateVector:
    """Two-site singlets on sites (0, 1), (2, 3), ..., with |0> on the last site at odd N."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    amps = np.ones(1)
    for _ in range(n // 2):
        amps = np.kron(amps, singlet)
    return StateVector(np.kron(amps, [1.0, 0.0]) if n % 2 else amps)


@pytest.mark.parametrize("n", [16, 15])
def test_singlet_products_read_their_exact_anchors(n):
    """Singlets are all spin 0: Delta S = 0, p_0 = 1 and every moment 0.

    With one |0> site added (odd N) the state is all spin 1/2 at m = +1/2:
    Delta S = ln 2, <S_z> = 1/2 and <S_a^2> = 1/4 for each axis, so <S^2> = 3/4.
    """
    sectors = su2.spin_sectors(_singlets(n))
    odd = n % 2
    p_sm = np.zeros_like(sectors.table.p_sm)
    # row 0 holds the least spin, s = 0 or 1/2; column N/2 + m its projection m = s
    p_sm[0, (n + odd) // 2] = 1.0
    assert_allclose(sectors.table.p_sm, p_sm, rtol=0, atol=1e-12)
    assert_allclose(su2_asymmetry(sectors).delta_s, odd * math.log(2), rtol=0, atol=1e-12)
    quarter = odd / 4
    moments = {"sx": 0, "sy": 0, "sz": odd / 2, "sx2": quarter, "sy2": quarter, "sz2": quarter,
               "sxy": 0, "sxz": 0, "syz": 0, "s2": 3 * quarter}
    assert sectors.moments.keys() == moments.keys()
    for key, value in moments.items():
        assert_allclose(sectors.moments[key], value, rtol=0, atol=1e-12, err_msg=key)


def test_coupling_matches_the_basis_route_at_n11():
    """Twirled entropy, p_{s,m} and every moment of F against those of rho without its factor.

    ``test_factor_route_matches_matrix_route`` compares whole readings up to
    N = 10; here the matrix-built S(rho) would eigensolve 2^11 x 2^11, so only
    the ``spin_sectors`` readings are compared: the moments off R_s against
    the gather of rho's entries.
    """
    n = 11
    rng = np.random.default_rng(1100 + n)
    for state in (random_state(n, rng), random_density_matrix(n, rng, rank=4)):
        coupled, basis = su2.spin_sectors(state), su2.spin_sectors(DensityMatrix(state.matrix))
        assert_allclose(coupled.twirled_entropy, basis.twirled_entropy, rtol=0, atol=1e-12)
        assert_allclose(coupled.table.p_sm, basis.table.p_sm, rtol=0, atol=1e-14)
        for key, value in basis.moments.items():
            assert_allclose(coupled.moments[key], value, rtol=0, atol=1e-12, err_msg=key)


def _pauli_moments(fac: np.ndarray) -> dict:
    """``spin_moments`` of rho = F F^dagger from S_a F = sum_j sigma^a_j F / 2, one site at a time.

    <S_a> = Re tr(F^dagger S_a F) and M_ab = Re tr((S_a F)^dagger S_b F).
    """
    n = fac.shape[0].bit_length() - 1
    phis = {axis: sum(apply_site_matrix(fac, pauli, site) for site in range(n)) / 2.0
            for axis, pauli in zip("xyz", (PAULI_X, PAULI_Y, PAULI_Z))}
    out = {f"s{a}": float(np.real(np.vdot(fac, phi))) for a, phi in phis.items()}
    for a, b in ("xx", "yy", "zz", "xy", "xz", "yz"):
        out[f"s{a}2" if a == b else f"s{a}{b}"] = float(np.real(np.vdot(phis[a], phis[b])))
    out["s2"] = out["sx2"] + out["sy2"] + out["sz2"]
    return out


def test_factored_kernels_run_above_the_density_matrix_cap(monkeypatch):
    """At N = 14 every kernel that a rank-4 state reaches keeps F; reading rho is refused."""
    monkeypatch.delenv("ASYMLAB_MAX_QUBITS", raising=False)
    n = 14
    assert density_matrix_cap() < n
    rho = random_density_matrix(n, np.random.default_rng(14), rank=4)
    # the moments of the coupled blocks against those of sum_j sigma^a_j applied to F
    moments, reference = spin_moments(rho), _pauli_moments(rho.factor)
    for key, value in reference.items():
        assert_allclose(moments[key], value, rtol=0, atol=1e-12, err_msg=key)
    gauged, _u = zero_transverse_rotation(rho)
    assert max(abs(spin_moments(gauged)[k]) for k in ("sx", "sy")) <= 1e-9
    assert_allclose(su2_asymmetry(gauged).delta_s, su2_asymmetry(rho).delta_s, rtol=0, atol=1e-10)
    pair = reduced_density_matrix(rho, [0, n - 1])
    assert pair.shape == (4, 4) and abs(np.trace(pair) - 1.0) <= 1e-12
    out = apply_circuit(rho, random_brickwork(LatticeGeometry(1, n), 1, np.random.default_rng(15)))
    assert_allclose(von_neumann_entropy(out), von_neumann_entropy(rho), rtol=0, atol=1e-12)
    for state in (rho, gauged.state, out):
        assert state.factor is not None and "matrix" not in vars(state)
        with pytest.raises(ResourceError, match="density-matrix cap of 12"):
            state.matrix


@pytest.mark.parametrize("n, rank, message", [
    (25, 4, "statevector cap of 24"),
    # 2^14 rows x 2^11 columns hold more entries than rho at N = 12
    (14, 2**11, r"exceeds 4\^12 entries"),
    (14, 2**14, "density-matrix cap of 12"),
])
def test_random_density_matrix_refuses_over_cap_draws_before_drawing(monkeypatch, n, rank, message):
    monkeypatch.delenv("ASYMLAB_MAX_QUBITS", raising=False)

    def draw():
        with pytest.raises(ResourceError, match=message):
            random_density_matrix(n, np.random.default_rng(0), rank=rank)

    _value, peak = _peak_bytes(draw)
    assert peak < 2**20
