"""Periodic hypercubic lattice geometry: the one module that knows the torus.

Sites live on a ``dimension``-dimensional torus with ``linear_size`` sites per
axis and are addressed by a flat index obtained from row-major flattening of
the coordinate tuple.  All distances are graph distances of the
nearest-neighbor graph, i.e. sums over axes of the wrapped one-dimensional
distance, and all come from one kernel (``LatticeGeometry.all_distances``).
Every other module asks this one for the torus: the distance, the neighbor one
step up an axis (``LatticeGeometry.neighbor``), whether an N-qubit object fits
the geometry (``LatticeGeometry.check_size``) and the range Lambda = 2D at
which a depth-D circuit's output clusters (``clustering_range``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class LatticeGeometry:
    """Torus geometry: ``linear_size ** dimension`` qubit sites.

    Attributes
    ----------
    dimension : int
        Number of axes, at least 1.
    linear_size : int
        Sites per axis, at least 1.
    """

    dimension: int
    linear_size: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError(f"lattice dimension must be >= 1, got {self.dimension}")
        if self.linear_size < 1:
            raise ValidationError(f"lattice linear size must be >= 1, got {self.linear_size}")

    @property
    def n_sites(self) -> int:
        return self.linear_size ** self.dimension

    @property
    def diameter(self) -> int:
        """Largest graph distance realized on the torus."""
        return self.dimension * (self.linear_size // 2)

    def coordinates(self, site: int) -> tuple[int, ...]:
        """Coordinate tuple of a flat site index (row-major order)."""
        self._check_site(site)
        coords = []
        rem = site
        for _ in range(self.dimension):
            rem, c = divmod(rem, self.linear_size)
            coords.append(c)
        return tuple(reversed(coords))

    def site_index(self, coords) -> int:
        """Flat index of a coordinate tuple (row-major order)."""
        if len(coords) != self.dimension:
            raise ValidationError(
                f"expected {self.dimension} coordinates, got {len(coords)}"
            )
        idx = 0
        for c in coords:
            if not 0 <= c < self.linear_size:
                raise ValidationError(f"coordinate {c} outside [0, {self.linear_size})")
            idx = idx * self.linear_size + c
        return idx

    def _check_site(self, site: int):
        if not 0 <= site < self.n_sites:
            raise ValidationError(f"site {site} outside [0, {self.n_sites})")

    def check_size(self, n: int, holder: str = "state"):
        """Require an ``n``-qubit state (or circuit, ...) to have one qubit per site."""
        if n != self.n_sites:
            raise ValidationError(f"geometry has {self.n_sites} sites, {holder} has {n}")

    def neighbor(self, site: int, axis: int) -> int:
        """The site one step up ``axis`` from ``site``, wrapping around the torus."""
        coords = list(self.coordinates(site))
        coords[axis] = (coords[axis] + 1) % self.linear_size
        return self.site_index(coords)

    def _axis_distances(self, site: int) -> np.ndarray:
        """Per-axis wrapped distances from ``site`` to every site, shape (dimension, n_sites)."""
        m = self.linear_size
        flat = np.arange(self.n_sites)
        own = self.coordinates(site)
        dists = np.empty((self.dimension, self.n_sites), dtype=np.int64)
        for axis in range(self.dimension):
            stride = m ** (self.dimension - 1 - axis)
            c = (flat // stride) % m
            d = np.abs(c - own[axis])
            dists[axis] = np.minimum(d, m - d)
        return dists

    def all_distances(self, site: int) -> np.ndarray:
        """Graph distance from ``site`` to every site, shape (n_sites,)."""
        return self._axis_distances(site).sum(axis=0)


def distance(geometry: LatticeGeometry, i: int, j: int) -> int:
    """Graph distance between sites ``i`` and ``j`` on the torus."""
    geometry._check_site(j)
    return int(geometry.all_distances(i)[j])


def ball(geometry: LatticeGeometry, center: int, radius: int) -> np.ndarray:
    """Flat indices of all sites within graph distance ``radius`` of ``center``."""
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    return np.flatnonzero(geometry.all_distances(center) <= radius)


def neighborhood_cardinality(geometry: LatticeGeometry, radius: int) -> int:
    """Number of sites within graph distance ``radius`` of any fixed site.

    The torus is site-transitive, so the count does not depend on the center;
    it saturates at ``n_sites`` once ``radius`` reaches the diameter.
    """
    return int(ball(geometry, 0, radius).size)


def lightcone_range(depth: int) -> int:
    """Spread radius certified for a depth-``depth`` brickwork of nearest-neighbor gates.

    Each layer moves operator support by at most one graph-distance unit, so a
    depth-D circuit maps a single-site operator into the radius-D ball.
    """
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    return depth


def clustering_range(depth: int) -> int:
    """Range Lambda = 2D at which the output of a depth-``depth`` circuit on a product input clusters.

    Two operators a distance beyond twice the light-cone radius have disjoint
    backward cones, so their connected correlator vanishes on a product input.
    """
    # read through the module global, so a patched lightcone_range moves every Lambda too
    return 2 * lightcone_range(depth)
