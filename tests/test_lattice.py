from collections import deque

import numpy as np
import pytest

from asymlab import clustering, su2, u1
from asymlab.circuits import BrickworkCircuit, Gate, swap_gate
from asymlab.errors import ValidationError
from asymlab.lattice import (
    LatticeGeometry,
    ball,
    clustering_range,
    distance,
    lightcone_range,
    neighborhood_cardinality,
)
from asymlab.states import zero_state


@pytest.mark.parametrize("dimension,linear_size", [(1, 7), (2, 4), (3, 3)])
def test_coordinate_round_trip(dimension, linear_size):
    geo = LatticeGeometry(dimension, linear_size)
    for site in range(geo.n_sites):
        assert geo.site_index(geo.coordinates(site)) == site


def test_invalid_geometry_rejected():
    with pytest.raises(ValidationError):
        LatticeGeometry(0, 4)
    with pytest.raises(ValidationError):
        LatticeGeometry(2, 0)


def test_distance_is_a_metric():
    geo = LatticeGeometry(2, 4)
    n = geo.n_sites
    d = np.array([[distance(geo, i, j) for j in range(n)] for i in range(n)])
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert np.all(d[~np.eye(n, dtype=bool)] > 0)
    # triangle inequality over all site triples
    assert np.all(d[:, :, None] <= d[:, None, :] + d[None, :, :])


def test_distance_wraps_around_the_torus():
    geo = LatticeGeometry(1, 10)
    assert distance(geo, 0, 9) == 1
    assert distance(geo, 0, 5) == 5
    assert geo.diameter == 5


def test_ball_sizes_on_the_ring():
    geo = LatticeGeometry(1, 9)
    assert ball(geo, 4, 0).tolist() == [4]
    assert ball(geo, 0, 1).tolist() == [0, 1, 8]
    assert neighborhood_cardinality(geo, 2) == 5
    assert neighborhood_cardinality(geo, geo.diameter) == geo.n_sites
    assert neighborhood_cardinality(geo, geo.diameter + 3) == geo.n_sites


def test_ball_size_is_center_independent():
    for geo in (LatticeGeometry(1, 8), LatticeGeometry(2, 5)):
        for radius in range(geo.diameter + 1):
            sizes = {ball(geo, c, radius).size for c in range(geo.n_sites)}
            assert sizes == {neighborhood_cardinality(geo, radius)}


def test_two_dimensional_ball_is_the_diamond():
    geo = LatticeGeometry(2, 7)
    # l1 diamond on an unsaturated torus: 1 + 2r(r+1)
    for r in range(4):
        assert neighborhood_cardinality(geo, r) == 1 + 2 * r * (r + 1)


def test_lightcone_range_matches_depth():
    assert lightcone_range(0) == 0
    assert lightcone_range(3) == 3
    # a depth-D output clusters at Lambda = 2D
    assert [clustering_range(d) for d in range(4)] == [0, 2, 4, 6]
    for rule in (lightcone_range, clustering_range):
        with pytest.raises(ValidationError):
            rule(-1)


def _bfs_distances(dimension, m):
    """All-pairs graph distances by breadth-first search on the torus graph (+-1 per axis, mod m)."""
    shape = (m,) * dimension
    coords = np.indices(shape).reshape(dimension, -1)
    steps = []
    for axis in range(dimension):
        for step in (1, -1):
            moved = coords.copy()
            moved[axis] = (moved[axis] + step) % m
            steps.append(np.ravel_multi_index(tuple(moved), shape).tolist())
    n = m**dimension
    out = np.full((n, n), -1)
    for source in range(n):
        row = out[source]
        row[source] = 0
        queue = deque([source])
        while queue:
            site = queue.popleft()
            for table in steps:
                j = table[site]
                if row[j] < 0:
                    row[j] = row[site] + 1
                    queue.append(j)
    return out


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("m", range(1, 7))
def test_distance_kernel_matches_breadth_first_search(dimension, m):
    geo = LatticeGeometry(dimension, m)
    bfs = _bfs_distances(dimension, m)
    n = geo.n_sites
    assert geo.diameter == bfs.max()
    radii = range(geo.diameter + 2)
    cardinality = [neighborhood_cardinality(geo, r) for r in radii]
    for i in range(n):
        assert np.array_equal(geo.all_distances(i), bfs[i])
        assert [distance(geo, i, j) for j in range(n)] == bfs[i].tolist()
        for r in radii:
            assert ball(geo, i, r).tolist() == np.flatnonzero(bfs[i] <= r).tolist()
            assert cardinality[r] == np.count_nonzero(bfs[i] <= r)


def _size_checks():
    """The six checks that an N-qubit input fits the geometry, each on a 3-qubit input,
    with the word their message uses for that input."""
    psi = zero_state(3)
    circuit = BrickworkCircuit(3, ((Gate((0, 1), swap_gate()),),))
    return {
        "assert_nearest_neighbor": ("circuit", lambda geo: circuit.assert_nearest_neighbor(geo)),
        "verify_cluster_property": (
            "state", lambda geo: clustering.verify_cluster_property(psi, geo, 1)),
        "operator_spreading_range": (
            "circuit", lambda geo: clustering.operator_spreading_range(circuit, geo)),
        "variance_bound_check": ("state", lambda geo: clustering.variance_bound_check(psi, geo, 1)),
        "casimir_constraint_check": (
            "state", lambda geo: su2.casimir_constraint_check(psi, geo, 1)),
        "report_from_distribution": ("state", lambda geo: u1.report_from_distribution(
            u1.charge_distribution(psi), geo, clustering_range=1)),
    }


@pytest.mark.parametrize("name", sorted(_size_checks()))
def test_size_checks_name_both_counts(name):
    holder, check = _size_checks()[name]
    with pytest.raises(ValidationError) as excinfo:
        check(LatticeGeometry(1, 4))
    assert str(excinfo.value) == f"geometry has 4 sites, {holder} has 3"
