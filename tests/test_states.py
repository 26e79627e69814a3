import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asymlab.errors import ResourceError, ValidationError
from asymlab.tolerances import EIGENVALUE_FLOOR
from asymlab.states import (
    PAULI,
    DensityMatrix,
    StateVector,
    apply_site_matrix,
    basis_state,
    bit_weights,
    block_entropy,
    entropy_of_probabilities,
    floored_spectrum,
    ghz_state,
    plus_state,
    product_state,
    random_density_matrix,
    random_state,
    reduced_density_matrix,
    von_neumann_entropy,
    zero_state,
)


def test_statevector_requires_normalization():
    for bad in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValidationError):
            StateVector(np.array(bad, dtype=complex))
    psi = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    assert psi.dim == 2
    assert_allclose(psi.diagonal(), [0.5, 0.5])


def test_states_read_n_off_their_arrays():
    assert StateVector(np.eye(8)[5]).n_qubits == 3
    assert DensityMatrix(np.eye(4) / 4.0).n_qubits == 2
    assert StateVector(np.ones(1)).n_qubits == 0
    factored = DensityMatrix.from_factor(np.eye(16)[:, :2] / math.sqrt(2.0))
    assert (factored.n_qubits, factored.dim) == (4, 16)
    assert "matrix" not in vars(factored)


@pytest.mark.parametrize("length", [0, 3, 6, 12])
def test_a_leading_axis_that_is_not_a_power_of_two_raises(length):
    from asymlab import circuits, clustering, su2

    vec = np.full(length, 1.0 / math.sqrt(max(length, 1)), dtype=complex)
    mat = np.eye(length, dtype=complex) / max(length, 1)
    calls = [
        lambda: StateVector(vec),
        lambda: DensityMatrix(mat),
        lambda: apply_site_matrix(vec, PAULI["x"], 0),
        lambda: apply_site_matrix(mat, PAULI["z"], 0),
        lambda: circuits._apply_gates(mat, circuits.site_layer(2, PAULI["x"])),
        lambda: su2._gathered_moments(mat),
        lambda: su2.couple_factor(mat),
        lambda: circuits._sandwich(mat, PAULI["x"], (0,)),
        lambda: clustering._support_mass_fractions(mat[None]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="is not 2\\^N long"):
            call()
    with pytest.raises(ValidationError, match="factor needs 2 axes"):
        su2.couple_factor(np.ones(4))


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))
    for value in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.0, value], [value, 0.0]]))
    rho = DensityMatrix(np.eye(2) / 2.0)
    assert_allclose(rho.purity(), 0.5)


def test_states_are_frozen():
    psi = zero_state(2)
    rho = DensityMatrix(psi.matrix)
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.amplitudes = np.zeros(4, dtype=complex)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.matrix = np.eye(4) / 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.n_qubits = 3


def test_negative_spectrum_rejected_at_entropy_time():
    rho = DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValidationError):
        von_neumann_entropy(rho)


def test_purity_handles_complex_off_diagonals():
    # (|0> + i|1>)/sqrt(2): pure, so purity must be exactly 1
    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    rho = DensityMatrix(np.outer(v, v.conj()))
    assert_allclose(rho.purity(), 1.0, atol=1e-14)


def test_basis_state_orders_site_zero_first():
    psi = basis_state([1, 0, 0])
    # site 0 is the most significant bit
    assert np.flatnonzero(psi.amplitudes).tolist() == [4]


def test_product_state_matches_kron():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.6, 0.8])
    psi = product_state([v0, v1])
    assert isinstance(psi, StateVector)
    assert_allclose(psi.amplitudes, np.kron(v0, v1))


def test_product_state_with_mixed_factor_is_mixed():
    rho = product_state([np.array([1.0, 0.0]), np.eye(2) / 2.0])
    assert isinstance(rho, DensityMatrix)
    assert_allclose(rho.diagonal(), [0.5, 0.5, 0.0, 0.0])


def test_ghz_and_plus_states():
    ghz = ghz_state(3)
    assert_allclose(ghz.diagonal()[[0, 7]], [0.5, 0.5])
    assert_allclose(plus_state(2).diagonal(), np.full(4, 0.25))


def test_bit_weights_matches_popcount():
    w = bit_weights(6)
    ref = np.array([bin(i).count("1") for i in range(64)])
    assert np.array_equal(w, ref)


def test_entropy_of_probabilities():
    assert entropy_of_probabilities(np.array([1.0, 0.0])) == 0.0
    assert_allclose(entropy_of_probabilities(np.full(8, 0.125)), math.log(8))


def test_von_neumann_entropy_pure_and_maximally_mixed():
    assert von_neumann_entropy(random_state(3, 5)) == 0.0
    rho = DensityMatrix(np.eye(4) / 4.0)
    assert_allclose(von_neumann_entropy(rho), math.log(4), atol=1e-12)


def test_von_neumann_entropy_spectrum():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(3, rng)
    evals = np.linalg.eigvalsh(rho.matrix)
    expected = -np.sum(evals * np.log(evals))
    assert_allclose(von_neumann_entropy(rho), expected, atol=1e-10)


def test_apply_site_matrix_flips_the_named_site():
    psi = zero_state(2)
    flipped = apply_site_matrix(psi.amplitudes, PAULI["x"], 0)
    assert np.flatnonzero(flipped).tolist() == [2]
    flipped = apply_site_matrix(psi.amplitudes, PAULI["x"], 1)
    assert np.flatnonzero(flipped).tolist() == [1]


def _dense_local(op, sites, n):
    """Dense 2^n x 2^n matrix of ``op`` on ``sites``: kron with the identity, then permute."""
    rest = [s for s in range(n) if s not in sites]
    in_gate_order = np.kron(op, np.eye(2 ** len(rest)))
    # position m in (sites, rest) bit order holds the basis index idx[m] in site order
    idx = np.arange(2**n).reshape((2,) * n).transpose(list(sites) + rest).reshape(-1)
    dense = np.empty_like(in_gate_order)
    dense[np.ix_(idx, idx)] = in_gate_order
    return dense


def test_apply_site_matrix_agrees_with_kron():
    n = 5
    rng = np.random.default_rng(3)
    psi = random_state(n, rng).amplitudes
    mat = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    site_tuples = [(a,) for a in range(n)]
    site_tuples += [(a, b) for a in range(n) for b in range(n) if a != b]
    for sites in site_tuples:
        d = 2 ** len(sites)
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dense = _dense_local(op, sites, n)
        assert_allclose(apply_site_matrix(psi, op, sites), dense @ psi, atol=1e-12)
        assert_allclose(apply_site_matrix(mat, op, sites), dense @ mat, atol=1e-12)


def test_apply_site_matrix_site_forms_and_rejections():
    n = 5
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for site in range(n):
        assert np.array_equal(
            apply_site_matrix(mat, u, site), apply_site_matrix(mat, u, (site,))
        )
    gate = np.eye(4)
    for sites, op in [(5, u), (-1, u), ((0, 5), gate), ((2, 2), gate), ((0, 1), u), (0, gate)]:
        with pytest.raises(ValidationError):
            apply_site_matrix(mat, op, sites)


def test_reduced_density_matrix_of_ghz():
    rho1 = reduced_density_matrix(ghz_state(3), [0])
    assert_allclose(rho1, np.eye(2) / 2.0, atol=1e-12)
    rho2 = reduced_density_matrix(ghz_state(3), [0, 2])
    assert_allclose(np.diag(rho2), [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_random_states_are_reproducible():
    a = random_state(4, np.random.default_rng(9)).amplitudes
    b = random_state(4, np.random.default_rng(9)).amplitudes
    assert np.array_equal(a, b)


def test_random_density_matrix_rank():
    rho = random_density_matrix(3, np.random.default_rng(1), rank=2)
    evals = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(evals > 1e-12) == 2


def test_statevector_cap_enforced(monkeypatch):
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "4")
    with pytest.raises(ResourceError):
        zero_state(5)
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "6")
    assert zero_state(5).n_qubits == 5


def test_an_over_cap_density_read_raises_before_allocating(monkeypatch):
    psi = random_state(9, np.random.default_rng(0))
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "6")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            psi.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # rho itself would take 4 MiB
    assert "matrix" not in vars(psi)


def test_every_state_answers_one_protocol():
    """factor, matrix, diagonal() and with_factor(F) of pure, factored and matrix-built states."""
    rng = np.random.default_rng(41)
    psi = random_state(3, rng)
    factored = random_density_matrix(3, rng, rank=2)
    built = DensityMatrix(factored.matrix)
    assert psi.factor.shape == (8, 1) and built.factor is None
    with pytest.raises(ValueError):
        psi.factor[0, 0] = 1.0
    assert np.array_equal(psi.matrix, psi.factor @ psi.factor.conj().T)
    for state in (psi, factored, built):
        assert not state.matrix.flags.writeable
        assert_allclose(state.diagonal(), np.real(np.diag(state.matrix)), rtol=0, atol=1e-15)
    for state in (psi, factored):
        rebuilt = state.with_factor(1j * state.factor)
        assert type(rebuilt) is type(state)
        assert_allclose(rebuilt.matrix, state.matrix, rtol=0, atol=1e-15)
    dense = DensityMatrix(psi.matrix)
    assert dense.factor is None and np.array_equal(dense.matrix, psi.matrix)


def test_reduced_density_matrix_factor_route_matches_matrix_route():
    rng = np.random.default_rng(43)
    for state in (random_state(4, rng), random_density_matrix(4, rng, rank=3)):
        dense = DensityMatrix(state.matrix)
        for sites in ([0], [2, 0], [3, 1, 2], [0, 1, 2, 3]):
            assert_allclose(reduced_density_matrix(state, sites),
                            reduced_density_matrix(dense, sites), rtol=0, atol=1e-14)


def test_floored_spectrum_clamps_only_above_the_floor():
    evals = np.array([-0.5 * abs(EIGENVALUE_FLOOR), 0.25, 0.75])
    assert np.array_equal(floored_spectrum(evals), [0.0, 0.25, 0.75])
    with pytest.raises(ValidationError):
        floored_spectrum(np.array([2.0 * EIGENVALUE_FLOOR, 1.0]))


def _entropy_of_spectrum(mat):
    """-sum lambda ln lambda over the positive eigenvalues of a Hermitian matrix, in full."""
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def test_block_entropy_counts_copies_and_takes_either_gram():
    rng = np.random.default_rng(37)
    for rows, cols in ((5, 3), (3, 5), (4, 4), (1, 6), (6, 1)):
        b = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        b *= np.sqrt(0.4) / np.linalg.norm(b)  # a block of weight tr X = 0.4, not 1
        x = b @ b.conj().T
        for copies in (1, 2, 5):
            expected = _entropy_of_spectrum(np.kron(np.eye(copies), x / copies))
            assert_allclose(block_entropy(x, copies=copies), expected, rtol=0, atol=1e-13)
            assert_allclose(block_entropy(b, factor=True, copies=copies),
                            block_entropy(x, copies=copies), rtol=0, atol=1e-13)
    assert block_entropy(np.zeros((3, 2)), factor=True, copies=3) == 0.0
    assert block_entropy(np.zeros((2, 2))) == 0.0


def _gaussian(n, seed, rank):
    """The complex Gaussian 2^n x rank matrix A that random_density_matrix draws."""
    rng = np.random.default_rng(seed)
    d = 2**n
    return rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))


def _wishart(n, seed, rank):
    """rho = A A^dagger / tr of the draw, formed whole."""
    a = _gaussian(n, seed, rank)
    mat = a @ a.conj().T
    mat /= np.real(np.trace(mat))
    return mat


def test_random_density_matrix_keeps_factor_below_full_rank_only():
    for n, rank in ((3, 2), (4, 5), (3, 8), (4, 16)):
        rho = random_density_matrix(n, np.random.default_rng(17), rank=rank)
        if rank == 2**n:
            assert rho.factor is None
            assert np.array_equal(rho.matrix, _wishart(n, 17, rank))
            continue
        a = _gaussian(n, 17, rank)
        assert np.array_equal(rho.factor, a / np.sqrt(np.sum(a.real**2) + np.sum(a.imag**2)))
        # rho is formed on its first read, as F F^dagger
        assert "matrix" not in vars(rho)
        assert np.array_equal(rho.matrix, rho.factor @ rho.factor.conj().T)
        assert np.max(np.abs(rho.matrix - _wishart(n, 17, rank))) <= 1e-15
    full = random_density_matrix(3, np.random.default_rng(17))
    assert full.factor is None
    assert np.array_equal(full.matrix, _wishart(3, 17, 8))


def test_random_density_matrix_draws_its_factor_in_place():
    """A rank-4 draw at N = 18 (F = 16 MiB) peaks below 2.6 F, with the bits of (X + iY) / |.|.

    A is filled by its real and imaginary parts and scaled in place; the peak is
    A, ``from_factor``'s copy of it and one real temporary of its norm.
    """
    tracemalloc.start()
    try:
        rho = random_density_matrix(18, np.random.default_rng(41), rank=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * rho.factor.nbytes
    a = _gaussian(18, 41, 4)
    a /= np.sqrt(np.sum(a.real**2) + np.sum(a.imag**2))
    assert np.array_equal(rho.factor.view(float), a.view(float))


def test_gram_entropy_matches_dense_eigensolve():
    rng = np.random.default_rng(29)
    for n in range(1, 11):
        for rank in sorted({r for r in (1, 2, 4, 2**n - 1) if r < 2**n}):
            rho = random_density_matrix(n, rng, rank=rank)
            assert rho.factor is not None
            dense = entropy_of_probabilities(floored_spectrum(np.linalg.eigvalsh(rho.matrix)))
            assert_allclose(von_neumann_entropy(rho), dense, atol=1e-12,
                            err_msg=f"n={n} rank={rank}")


def test_density_matrix_rejects_a_wrong_factor():
    fac = random_density_matrix(3, np.random.default_rng(31), rank=3).factor
    # any F V with V unitary is an equally exact factor
    v = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3))[0]
    assert DensityMatrix.from_factor(fac @ v).factor.shape == (8, 3)
    bad = [fac[:, 0], fac[:-1], fac.T, 1.001 * fac]
    for value in (np.nan, np.inf):
        poisoned = fac.copy()
        poisoned[2, 1] = value
        bad.append(poisoned)
    for wrong in bad:
        with pytest.raises(ValidationError):
            DensityMatrix.from_factor(wrong)


def test_factor_is_read_only():
    rho = random_density_matrix(3, np.random.default_rng(37), rank=2)
    with pytest.raises(ValueError):
        rho.factor[0, 0] = 1.0
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    for name in ("factor", "matrix"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rho, name, None)
    source = rho.factor.copy()
    held = DensityMatrix.from_factor(source)
    source[0, 0] = 5.0
    assert held.factor[0, 0] != 5.0
