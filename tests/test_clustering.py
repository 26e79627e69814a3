import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from asymlab import clustering, states
from asymlab.circuits import (
    BrickworkCircuit,
    Gate,
    backward_light_cone,
    heisenberg_conjugate,
    random_brickwork,
    random_charge_conserving_brickwork,
    swap_gate,
)
from asymlab.clustering import (
    PAULI_STACK,
    _connected_correlators,
    _dense_spreading_range,
    _pair_tensor,
    connected_correlator,
    operator_spreading_range,
    variance_bound_check,
    verify_cluster_property,
)
from asymlab.errors import ResourceError, ValidationError
from asymlab.lattice import LatticeGeometry, lightcone_range
from asymlab.states import (
    PAULI,
    DensityMatrix,
    StateVector,
    apply_site_matrix,
    ghz_state,
    plus_state,
    product_state,
    random_density_matrix,
    random_state,
    zero_state,
)
from asymlab.tolerances import IMAGINARY_TOL
from asymlab.u1 import charge_distribution


def _random_product(n, rng):
    locals_ = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        locals_.append(v / np.linalg.norm(v))
    return product_state(locals_)


def test_connected_correlator_of_product_state_vanishes():
    rng = np.random.default_rng(0)
    psi = _random_product(5, rng)
    for i in range(5):
        for j in range(i + 1, 5):
            for a in "xyz":
                for b in "xyz":
                    c = connected_correlator(psi, i, j, PAULI[a], PAULI[b])
                    assert abs(c) < 1e-12


def test_connected_correlator_of_ghz():
    psi = ghz_state(4)
    zz = connected_correlator(psi, 0, 3, PAULI["z"], PAULI["z"])
    # <ZZ> = 1, <Z> = 0, so the connected part is 1
    assert_allclose(zz, 1.0, atol=1e-12)
    zx = connected_correlator(psi, 0, 3, PAULI["z"], PAULI["x"])
    assert abs(zx) < 1e-12


def _expectation(state, site_ops):
    """<prod of Paulis> from the statevector or Tr rho P ..., applying each Pauli in turn."""
    if isinstance(state, StateVector):
        out = state.amplitudes
        for site, axis in site_ops:
            out = apply_site_matrix(out, PAULI[axis], site)
        return np.vdot(state.amplitudes, out)
    out = state.matrix
    for site, axis in site_ops:
        out = apply_site_matrix(out, PAULI[axis], site)
    return np.trace(out)


def test_nine_correlator_kernel_matches_direct_pauli_expectations():
    rng = np.random.default_rng(21)
    for n in range(2, 7):
        for state in (random_state(n, rng), random_density_matrix(n, rng),
                      random_density_matrix(n, rng, rank=2)):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    got = _connected_correlators(_pair_tensor(state, i, j), PAULI_STACK, PAULI_STACK)
                    assert got.shape == (3, 3)
                    for a, pa in enumerate("xyz"):
                        for b, pb in enumerate("xyz"):
                            joint = _expectation(state, [(j, pb), (i, pa)])
                            solo = (_expectation(state, [(i, pa)])
                                    * _expectation(state, [(j, pb)]))
                            want = joint - solo
                            assert abs(want.imag) < 1e-12
                            assert abs(got[a, b] - want.real) < 1e-12, (n, i, j, pa, pb)
                            single = connected_correlator(state, i, j, PAULI[pa], PAULI[pb])
                            assert abs(single - want.real) < 1e-12


def test_correlator_with_imaginary_part_is_rejected():
    # (|00> + i|11>)/sqrt(2) has <s+ s+> = i/2 and <s+> = 0 for s+ = |0><1|
    amps = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for state in (StateVector(amps), DensityMatrix(StateVector(amps).matrix)):
        t = _pair_tensor(state, 0, 1)
        with pytest.raises(ValidationError, match="imaginary"):
            connected_correlator(state, 0, 1, raising, raising)
        with pytest.raises(ValidationError, match="imaginary"):
            _connected_correlators(t, np.concatenate([PAULI_STACK, raising[None]]), raising[None])
    # just above and just below the tolerance
    small = raising * 2.0 * IMAGINARY_TOL
    state = StateVector(amps)
    with pytest.raises(ValidationError, match="imaginary"):
        connected_correlator(state, 0, 1, small * 1.5, np.eye(2) + raising)
    connected_correlator(state, 0, 1, small * 0.5, np.eye(2) + raising)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_connected_correlator_rejects_non_finite_observables(bad):
    state = plus_state(3)
    observable = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="finite"):
        connected_correlator(state, 0, 2, observable, PAULI["z"])
    with pytest.raises(ValidationError, match="finite"):
        connected_correlator(state, 0, 2, PAULI["z"], observable)


def test_verify_cluster_property_on_product_state():
    rng = np.random.default_rng(1)
    geo = LatticeGeometry(1, 6)
    rep = verify_cluster_property(_random_product(6, rng), geo, 0)
    assert rep.passed
    assert rep.effective_range == 0
    assert rep.max_violation < 1e-12


def test_verify_cluster_property_flags_ghz():
    geo = LatticeGeometry(1, 8)
    rep = verify_cluster_property(ghz_state(8), geo, 0)
    assert not rep.passed
    assert rep.effective_range == geo.diameter
    assert rep.max_violation > 0.9


def test_circuit_state_clusters_within_twice_the_depth():
    rng = np.random.default_rng(2)
    for geo, depth in ((LatticeGeometry(1, 8), 1), (LatticeGeometry(1, 10), 2), (LatticeGeometry(2, 3), 2)):
        circ = random_brickwork(geo, depth, rng)
        from asymlab.circuits import apply_circuit

        psi = apply_circuit(_random_product(geo.n_sites, rng), circ)
        rep = verify_cluster_property(psi, geo, 2 * lightcone_range(depth), tol=1e-9)
        assert rep.passed, rep.max_violation


def test_cluster_report_distance_profile_is_sorted_and_complete():
    geo = LatticeGeometry(1, 6)
    rep = verify_cluster_property(plus_state(6), geo, 0)
    dists = [d for d, _ in rep.distance_profile]
    assert dists == sorted(set(dists))
    assert max(dists) == geo.diameter


def test_nan_correlator_fails_the_cluster_scan(monkeypatch):
    """The scan's builtin max dropped a NaN: |0^6> passed with an all-zero profile."""
    monkeypatch.setattr(clustering, "_connected_correlators",
                        lambda t, ops_i, ops_j: np.full((len(ops_i), len(ops_j)), np.nan))
    with pytest.raises(ValidationError, match="nan"):
        verify_cluster_property(zero_state(6), LatticeGeometry(1, 6), 1)
    with pytest.raises(ValidationError, match="nan"):
        connected_correlator(zero_state(6), 0, 3)


def test_verify_cluster_property_validation():
    geo = LatticeGeometry(1, 5)
    with pytest.raises(ValidationError):
        verify_cluster_property(plus_state(6), geo, 0)
    with pytest.raises(ValidationError):
        verify_cluster_property(plus_state(5), geo, -1)


def test_operator_spreading_identity_and_swap():
    geo = LatticeGeometry(1, 4)
    ident = BrickworkCircuit(4, ())
    assert operator_spreading_range(ident, geo) == 0
    sw = BrickworkCircuit(
        4, ((Gate((0, 1), swap_gate()), Gate((2, 3), swap_gate())),)
    )
    assert operator_spreading_range(sw, geo) == 1


def test_operator_spreading_bounded_by_lightcone():
    rng = np.random.default_rng(3)
    for depth in (1, 2, 3):
        geo = LatticeGeometry(1, 8)
        circ = random_brickwork(geo, depth, rng)
        assert operator_spreading_range(circ, geo) <= lightcone_range(depth)


def _spreading_cases():
    rng = np.random.default_rng(11)
    for n in range(4, 10):
        geo = LatticeGeometry(1, n)
        for depth in range(5):
            yield random_brickwork(geo, depth, rng), geo
    torus = LatticeGeometry(2, 3)
    for depth in (1, 2, 3):
        yield random_brickwork(torus, depth, rng), torus
    for geo in (LatticeGeometry(1, 7), torus):
        yield random_charge_conserving_brickwork(geo, 3, rng), geo
    ring = LatticeGeometry(1, 6)
    yield BrickworkCircuit(6, ()), ring
    swaps = tuple(Gate((2 * i, 2 * i + 1), swap_gate()) for i in range(3))
    shifted = tuple(Gate((2 * i + 1, (2 * i + 2) % 6), swap_gate()) for i in range(3))
    yield BrickworkCircuit(6, (swaps,)), ring
    yield BrickworkCircuit(6, (swaps, shifted)), ring


def test_light_cone_spreading_equals_dense_spreading():
    for circ, geo in _spreading_cases():
        cone = operator_spreading_range(circ, geo)
        dense = _dense_spreading_range(circ, geo)
        assert type(cone) is int and cone == dense, (geo, circ.depth)


def _embedded_cone_conjugate(sites, cone, seed, axis, n):
    """Cone-route U^dagger P U tensored with identity off the cone, in lattice order."""
    k = len(sites)
    local = heisenberg_conjugate(PAULI[axis], sites.index(seed), cone)
    order = list(sites) + [s for s in range(n) if s not in sites]
    full = np.kron(local, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    back = np.argsort(order)
    return full.transpose(list(back) + [n + b for b in back]).reshape(2**n, 2**n)


def test_light_cone_operator_matches_dense_conjugation():
    n = 7
    geo = LatticeGeometry(1, n)
    for seed in range(3):
        circ = random_brickwork(geo, 3, np.random.default_rng(seed))
        for site in (0, 3, n - 1):
            sites, cone = backward_light_cone(circ, site)
            assert site in sites and len(sites) <= 2 * circ.depth + 1
            dropped = BrickworkCircuit(cone.n_qubits, (cone.layers[0][1:],) + cone.layers[1:])
            for axis in "xyz":
                dense = heisenberg_conjugate(PAULI[axis], site, circ)
                embedded = _embedded_cone_conjugate(sites, cone, site, axis, n)
                assert np.max(np.abs(embedded - dense)) < 1e-12
                mutant = _embedded_cone_conjugate(sites, dropped, site, axis, n)
                assert np.max(np.abs(mutant - dense)) > 1e-6


def test_spreading_applies_each_cone_gate_once_per_seed(monkeypatch):
    """Seed s applies exactly G_s + 3 local operators: G_s cone gates, then its 3 Paulis."""
    kernel = states.apply_site_matrix
    cone_of = clustering.backward_light_cone
    per_seed: list[list] = []

    def spy_kernel(*args, **kwargs):
        per_seed[-1][1] += 1
        return kernel(*args, **kwargs)

    def spy_cone(circuit, site):
        sites, cone = cone_of(circuit, site)
        per_seed.append([sum(len(layer) for layer in cone.layers), 0])
        return sites, cone

    for name, module in list(sys.modules.items()):
        if name.startswith("asymlab") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, spy_kernel)
    monkeypatch.setattr(clustering, "backward_light_cone", spy_cone)
    rng = np.random.default_rng(8)
    for geo, depth in ((LatticeGeometry(1, 8), 3), (LatticeGeometry(2, 3), 3)):
        per_seed.clear()
        operator_spreading_range(random_brickwork(geo, depth, rng), geo)
        assert len(per_seed) == geo.n_sites
        assert all(gates > 0 for gates, _ in per_seed)
        for gates, applied in per_seed:
            assert applied == gates + 3, (geo, gates, applied)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_operator_fails_the_spread(monkeypatch, bad):
    """A NaN weight fraction is never above threshold, so the spread dropped its sites."""
    geo = LatticeGeometry(1, 6)
    circ = random_brickwork(geo, 2, np.random.default_rng(4))

    def spoiled(conjugate):
        def wrapped(*args, **kwargs):
            out = conjugate(*args, **kwargs).copy()
            out[:, 0, 0] = bad
            return out
        return wrapped

    for name in ("heisenberg_conjugate", "conjugate_by"):
        monkeypatch.setattr(clustering, name, spoiled(getattr(clustering, name)))
    for route in (operator_spreading_range, _dense_spreading_range):
        with pytest.raises(ValidationError, match="not finite"):
            route(circ, geo)


def test_operator_spreading_rejects_large_systems(monkeypatch):
    monkeypatch.setenv("ASYMLAB_MAX_QUBITS", "6")
    geo = LatticeGeometry(1, 8)
    circ = BrickworkCircuit(8, ())
    with pytest.raises(ResourceError):
        operator_spreading_range(circ, geo)


def test_variance_bound_check_on_plus_state():
    geo = LatticeGeometry(1, 10)
    chk = variance_bound_check(plus_state(10), geo, 0)
    assert_allclose(chk.variance, 2.5, atol=1e-12)
    assert chk.bound == 2.0 * 1 * 10
    assert chk.passed and chk.margin > 0


def test_variance_bound_check_flags_ghz_at_zero_range():
    n = 10
    geo = LatticeGeometry(1, n)
    chk = variance_bound_check(ghz_state(n), geo, 0)
    assert_allclose(chk.variance, n * n / 4.0, atol=1e-10)
    assert not chk.passed
    # saturated neighborhood clears the same state
    assert variance_bound_check(ghz_state(n), geo, geo.diameter).passed


def test_variance_matches_charge_distribution():
    rng = np.random.default_rng(4)
    psi = random_state(5, rng)
    geo = LatticeGeometry(1, 5)
    chk = variance_bound_check(psi, geo, 1)
    assert_allclose(chk.variance, charge_distribution(psi).variance, atol=1e-12)
