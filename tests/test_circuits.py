import numpy as np
import pytest
from numpy.testing import assert_allclose

from asymlab.circuits import (
    BrickworkCircuit,
    Gate,
    KrausChannel,
    apply_channel,
    apply_circuit,
    brickwork_layer_pairs,
    charge_conserving_gate,
    charge_conserving_unitary,
    circuit_from_dict,
    circuit_to_dict,
    cnot_gate,
    depolarizing_channel,
    full_dephasing_channel,
    haar_unitary,
    hadamard_gate,
    heisenberg_conjugate,
    load_circuit,
    phase_flip_channel,
    random_brickwork,
    save_circuit,
    swap_gate,
)
from asymlab.errors import ValidationError
from asymlab.lattice import LatticeGeometry
from asymlab.states import DensityMatrix, StateVector, ghz_state, plus_state, zero_state
from asymlab.u1 import charge_distribution


def _dense_unitary(circuit: BrickworkCircuit) -> np.ndarray:
    d = 2**circuit.n_qubits
    cols = []
    for j in range(d):
        amps = np.zeros(d, dtype=complex)
        amps[j] = 1.0
        psi = apply_circuit(StateVector(amps), circuit)
        cols.append(psi.amplitudes)
    return np.array(cols).T


def test_gate_rejects_non_unitary():
    with pytest.raises(ValidationError):
        Gate((0,), np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValidationError):
        Gate((0, 0), np.eye(4))


def test_layer_rejects_overlapping_gates():
    g = Gate((0, 1), np.eye(4))
    h = Gate((1, 2), np.eye(4))
    with pytest.raises(ValidationError):
        BrickworkCircuit(3, ((g, h),))
    BrickworkCircuit(3, ((g,), (h,)))


def test_ghz_preparation_circuit():
    h = Gate((0,), hadamard_gate())
    c01 = Gate((0, 1), cnot_gate())
    c12 = Gate((1, 2), cnot_gate())
    circ = BrickworkCircuit(3, ((h,), (c01,), (c12,)))
    out = apply_circuit(zero_state(3), circ)
    assert_allclose(out.amplitudes, ghz_state(3).amplitudes, atol=1e-14)


def test_apply_circuit_density_matrix_matches_statevector():
    rng = np.random.default_rng(4)
    geo = LatticeGeometry(1, 4)
    circ = random_brickwork(geo, 2, rng)
    psi = plus_state(4)
    out_vec = apply_circuit(psi, circ)
    out_rho = apply_circuit(DensityMatrix(psi.matrix), circ)
    expected = np.outer(out_vec.amplitudes, out_vec.amplitudes.conj())
    assert_allclose(out_rho.matrix, expected, atol=1e-12)


def test_swap_layer_permutes_sites():
    circ = BrickworkCircuit(2, ((Gate((0, 1), swap_gate()),),))
    psi = StateVector(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    out = apply_circuit(psi, circ)
    assert np.flatnonzero(out.amplitudes).tolist() == [2]


def _conjugation_cases():
    """Rings of N = 2..6 and the 2x2 torus at depth 0..3, with one rng for operators."""
    rng = np.random.default_rng(7)
    geometries = [LatticeGeometry(1, n) for n in range(2, 7)] + [LatticeGeometry(2, 2)]
    for geo in geometries:
        for depth in range(4):
            yield random_brickwork(geo, depth, rng), rng


def test_heisenberg_conjugate_is_adjoint_of_evolution():
    """U^dagger A U against u from the column-by-column ``_dense_unitary``."""
    for circ, rng in _conjugation_cases():
        d = 2**circ.n_qubits
        u = _dense_unitary(circ)
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert_allclose(heisenberg_conjugate(op, circ), u.conj().T @ op @ u,
                        rtol=0, atol=1e-12, err_msg=f"N={circ.n_qubits} depth={circ.depth}")


def test_heisenberg_conjugate_of_a_stack_equals_per_operator_calls():
    for circ, rng in _conjugation_cases():
        d = 2**circ.n_qubits
        ops = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        stacked = heisenberg_conjugate(ops, circ)
        assert stacked.shape == (3, d, d)
        for op, out in zip(ops, stacked):
            assert_allclose(out, heisenberg_conjugate(op, circ), rtol=0, atol=1e-13)


def test_heisenberg_conjugate_rejects_wrong_shapes():
    circ = random_brickwork(LatticeGeometry(1, 3), 1, np.random.default_rng(0))
    for shape in ((4, 4), (8, 4), (2, 2, 8, 8), (8,)):
        with pytest.raises(ValidationError):
            heisenberg_conjugate(np.zeros(shape, dtype=complex), circ)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, np.random.default_rng(0))
    assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    v = haar_unitary(4, np.random.default_rng(0))
    assert np.array_equal(u, v)


def test_charge_conserving_gate_is_block_diagonal():
    g = charge_conserving_gate(np.random.default_rng(2))
    # basis order 00,01,10,11: charge blocks are {0}, {1,2}, {3}
    assert abs(g[0, 1]) + abs(g[0, 2]) + abs(g[0, 3]) < 1e-14
    assert abs(g[3, 0]) + abs(g[3, 1]) + abs(g[3, 2]) < 1e-14
    assert abs(g[1, 0]) + abs(g[2, 0]) < 1e-14


def test_charge_conserving_unitary_preserves_charge_distribution():
    rng = np.random.default_rng(6)
    u = charge_conserving_unitary(3, rng)
    psi = StateVector(u @ ghz_state(3).amplitudes)
    assert_allclose(
        charge_distribution(psi).probs,
        charge_distribution(ghz_state(3)).probs,
        atol=1e-12,
    )


def test_brickwork_layer_pairs_cover_disjoint_edges():
    geo = LatticeGeometry(1, 6)
    even = brickwork_layer_pairs(geo, 0)
    odd = brickwork_layer_pairs(geo, 1)
    assert sorted(even) == [(0, 1), (2, 3), (4, 5)]
    assert sorted(odd) == [(1, 2), (3, 4), (5, 0)]
    geo2 = LatticeGeometry(2, 4)
    for layer in range(4):
        pairs = brickwork_layer_pairs(geo2, layer)
        flat = [s for p in pairs for s in p]
        assert len(flat) == len(set(flat))


def test_random_brickwork_respects_geometry():
    rng = np.random.default_rng(5)
    geo = LatticeGeometry(2, 3)
    circ = random_brickwork(geo, 4, rng)
    assert circ.depth == 4
    circ.assert_nearest_neighbor(geo)


def test_channel_completeness_enforced():
    bad = [np.eye(2) * 0.9]
    with pytest.raises(ValidationError):
        KrausChannel((0,), tuple(bad))


def test_depolarizing_channel_mixes_towards_identity():
    rho = DensityMatrix(zero_state(1).matrix)
    out = apply_channel(rho, depolarizing_channel(0, 0.75))
    assert_allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_phase_flip_channel_damps_coherence():
    rho = DensityMatrix(plus_state(1).matrix)
    out = apply_channel(rho, phase_flip_channel(0, 0.25))
    assert_allclose(out.matrix[0, 1], 0.5 * (1.0 - 2 * 0.25), atol=1e-12)


def test_full_dephasing_kills_coherence():
    rho = DensityMatrix(plus_state(1).matrix)
    out = apply_channel(rho, full_dephasing_channel(0))
    assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-14)


def test_channel_preserves_trace_on_random_input():
    rng = np.random.default_rng(8)
    from asymlab.states import random_density_matrix

    rho = random_density_matrix(2, rng)
    for chan in (depolarizing_channel(1, 0.3), phase_flip_channel(0, 0.6)):
        out = apply_channel(rho, chan)
        assert_allclose(np.trace(out.matrix).real, 1.0, atol=1e-12)


def test_circuit_json_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    geo = LatticeGeometry(1, 4)
    circ = random_brickwork(geo, 3, rng)
    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    loaded = load_circuit(path)
    assert loaded.n_qubits == circ.n_qubits
    assert loaded.depth == circ.depth
    for la, lb in zip(circ.layers, loaded.layers):
        for ga, gb in zip(la, lb):
            assert ga.sites == gb.sites
            assert_allclose(ga.matrix, gb.matrix, atol=1e-15)


def test_circuit_dict_round_trip_rejects_bad_depth():
    circ = BrickworkCircuit(2, ((Gate((0, 1), swap_gate()),),))
    data = circuit_to_dict(circ)
    data["depth"] = 5
    with pytest.raises(ValidationError):
        circuit_from_dict(data)
