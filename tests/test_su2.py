import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from asymlab import su2
from asymlab.circuits import apply_circuit, haar_unitary, random_brickwork
from asymlab.closedforms import dicke_state
from asymlab.clustering import variance_bound_check, verify_cluster_property
from asymlab.errors import PreconditionError, ResourceError, ValidationError
from asymlab.lattice import LatticeGeometry
from asymlab.states import (
    PAULI_X,
    DensityMatrix,
    StateVector,
    apply_site_matrix,
    basis_state,
    ghz_state,
    product_state,
    random_density_matrix,
    random_state,
    reduced_density_matrix,
    von_neumann_entropy,
    zero_state,
)
from asymlab.su2 import (
    HAAR_MAX_REFINEMENTS,
    _dense_schur_basis,
    build_schur_basis,
    casimir_constraint_check,
    global_rotation,
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


def _rotate_all(psi: StateVector, u: np.ndarray) -> StateVector:
    amps = psi.amplitudes
    for site in range(psi.n_qubits):
        amps = apply_site_matrix(amps, u, site)
    return StateVector(amps)


def _column_spins(basis) -> list[tuple[int, int]]:
    """(s, m) of every column of ``basis.dense()``: column start + alpha (2s+1) + (s - m)."""
    spins = {}
    for s, start, mult in basis.sectors:
        for alpha in range(mult):
            for m in range(-s, s + 1):
                spins[start + alpha * (2 * s + 1) + (s - m)] = (s, m)
    return [spins[col] for col in range(2**basis.n_qubits)]


def test_multiplicity_worked_values():
    # two qubits: one triplet, one singlet
    assert multiplicity(2, 1) == 1
    assert multiplicity(2, 0) == 1
    # four qubits: 1 quintet, 3 triplets, 2 singlets
    assert multiplicity(4, 2) == 1
    assert multiplicity(4, 1) == 3
    assert multiplicity(4, 0) == 2
    with pytest.raises(ValidationError):
        multiplicity(3, 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sector_dimensions_tile_the_hilbert_space(n):
    total = sum((2 * s + 1) * multiplicity(n, s) for s in range(n // 2 + 1))
    assert total == 2**n


@pytest.mark.parametrize("n", [2, 4, 6])
def test_schur_basis_is_orthonormal(n):
    matrix = build_schur_basis(n).dense()
    gram = matrix.conj().T @ matrix
    assert_allclose(gram, np.eye(2**n), atol=1e-12)


def test_schur_basis_two_qubits_is_triplet_singlet():
    basis = build_schur_basis(2)
    matrix = basis.dense()
    # one triplet (columns 0..2 hold m = 1, 0, -1), then one singlet
    assert basis.sectors == ((1, 0, 1), (0, 3, 1))
    starts = {s: start for s, start, _mult in basis.sectors}
    v = matrix[:, starts[0]]
    expected = np.zeros(4)
    expected[1], expected[2] = 1.0, -1.0
    expected /= np.sqrt(2.0)
    assert_allclose(np.abs(np.vdot(expected, v)), 1.0, atol=1e-12)
    trip_top = matrix[:, starts[1]]
    assert_allclose(np.abs(trip_top), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_schur_columns_diagonalize_the_casimir():
    n = 4
    basis = build_schur_basis(n)
    # build S^2 = Sx^2 + Sy^2 + Sz^2 densely from collective Paulis
    from asymlab.states import PAULI

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


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_block_basis_equals_dense_reference(n):
    basis = build_schur_basis(n)
    assert np.array_equal(basis.dense(), _dense_schur_basis(n))
    assert np.array_equal(np.sort(np.concatenate(basis.rows)), np.arange(2**n))
    weights = [bin(int(r)).count("1") for r in np.concatenate(basis.rows)]
    assert weights == sorted(weights)
    for w, (rows, block) in enumerate(zip(basis.rows, basis.blocks)):
        assert rows.size == math.comb(n, w)
        assert block.shape == (rows.size, rows.size)
        assert [s for s, _first, mult in basis.segments(w) for _ in range(mult)] == sorted(
            (s for s, m in _column_spins(basis) if m == n // 2 - w), reverse=True
        )


def test_schur_basis_is_built_once_per_n_and_capped_on_every_call(monkeypatch):
    basis = build_schur_basis(6)
    assert build_schur_basis(6) is basis
    for part in basis.rows + basis.blocks:
        assert not part.flags.writeable
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "4")
    with pytest.raises(ResourceError):
        build_schur_basis(6)
    assert build_schur_basis(4) is build_schur_basis(4)


def test_block_basis_rejects_odd_n():
    for n in (1, 3):
        with pytest.raises(ValidationError):
            build_schur_basis(n)


def _dense_twirl(rho: np.ndarray, basis) -> np.ndarray:
    """Reference twirl: rotate by the full dense basis, m-average each sector, rotate back."""
    matrix = basis.dense()
    rot = matrix.T @ rho @ matrix
    out = np.zeros_like(rot)
    for s, start, mult in basis.sectors:
        width = 2 * s + 1
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
        expected[s, m + n // 2] += diag[col]
    return np.clip(expected, 0.0, None)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
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


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
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
        gauged, _u = zero_transverse_rotation(rho)
        casimir_constraint_check(gauged, geo, 2)
        return rho, gauged

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
                    acc += (w / 2.0 / k / k) * global_rotation(rho.matrix, u)
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
        rotated = su2_asymmetry(_rotate_all(psi, u)).delta_s
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


def test_rotated_density_matrix_is_c_contiguous():
    rng = np.random.default_rng(53)
    rho = random_density_matrix(4, rng, rank=2)
    u = haar_unitary(2, rng)
    assert global_rotation(rho.matrix, u).flags.c_contiguous
    plus_x = np.array([[0.5, 0.5], [0.5, 0.5]])
    gauged, _ = zero_transverse_rotation(product_state([plus_x] * 4))
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
        assert (gauged.factor is None) == (state.factor is None)
        mom = spin_moments(gauged)
        assert_allclose([mom["sx"], mom["sy"], mom["sz"]], [0.0, 0.0, n / 2], atol=1e-12)


def test_global_rotation_of_a_vector_is_the_kronecker_power():
    rng = np.random.default_rng(61)
    for n in (1, 3, 5):
        psi = random_state(n, rng).amplitudes
        u = haar_unitary(2, rng)
        power = np.ones((1, 1), dtype=complex)
        for _ in range(n):
            power = np.kron(power, u)
        rotated = global_rotation(psi, u)
        assert rotated.shape == psi.shape
        assert_allclose(rotated, power @ psi, rtol=0, atol=1e-14)


def test_casimir_check_requires_gauged_input():
    geo = LatticeGeometry(1, 4)
    psi = _rotate_all(zero_state(4), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    with pytest.raises(PreconditionError):
        casimir_constraint_check(psi, geo, 1)


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
    rng = np.random.default_rng(59)
    for n in (2, 4, 6, 8):
        rho = random_density_matrix(n, rng, rank=3)
        u = haar_unitary(2, rng)
        fac = su2._rotate_rows(rho.factor, u)
        dense = global_rotation(rho.matrix, u)
        assert np.max(np.abs(fac @ fac.conj().T - dense)) <= 1e-14
        # the gauge rotation turns the factor and keeps it
        gauged, g = zero_transverse_rotation(rho)
        assert gauged.factor is not None
        assert np.max(np.abs(gauged.matrix - global_rotation(rho.matrix, g))) <= 1e-14
        bare, g_bare = zero_transverse_rotation(DensityMatrix(rho.matrix))
        assert bare.factor is None
        assert_allclose(g, g_bare, atol=1e-14)
        moments = spin_moments(gauged)
        for key, value in spin_moments(bare).items():
            assert_allclose(moments[key], value, atol=1e-12, err_msg=key)



def _su2_readings(state) -> dict:
    """Everything su2 reads off one state, flattened to arrays for comparison."""
    out = {f"moment {k}": v for k, v in spin_moments(state).items()}
    gauged, u = zero_transverse_rotation(state)
    out["gauge u"] = u
    out["gauged rho"] = gauged.matrix
    if state.n_qubits % 2 == 0:
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


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_rank_one_factor_matches_its_statevector(n):
    rho = random_density_matrix(n, np.random.default_rng(800 + n), rank=1)
    psi = StateVector(rho.factor[:, 0])
    pure = _su2_readings(psi)
    for key, value in _su2_readings(rho).items():
        assert_allclose(value, pure[key], rtol=0, atol=1e-14, err_msg=key)


def test_asymmetry_transforms_each_state_once(monkeypatch):
    frames = []
    schur_frame = su2._schur_frame

    def spy(state, basis):
        frames.append(state)
        return schur_frame(state, basis)

    monkeypatch.setattr(su2, "_schur_frame", spy)
    rng = np.random.default_rng(61)
    rho = random_density_matrix(4, rng, rank=2)
    for state in (random_state(4, rng), rho, DensityMatrix(rho.matrix)):
        frames.clear()
        su2_asymmetry(state)
        assert frames == [state]
