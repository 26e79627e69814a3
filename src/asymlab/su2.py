"""Collective-spin sectors, the full-rotation twirl and its bounds.

One table of j (x) 1/2 Clebsch-Gordan terms, ``_coupling_terms`` (closed form,
Condon-Shortley signs), couples one more site onto every spin j carried so
far.  Each child spin stacks its coupling paths alpha by parent spin, j
increasing, so every use of the table numbers the paths alike.  It is
applied two ways:

- ``couple_factor`` applies it to a state's factor F (2^N x r), splitting off
  site 0, 1, ..., N-1 in turn: the sequential Schur transform (Bacon, Chuang
  and Harrow, PRL 97, 170502 (2006)).  It gives each spin sector's
  coefficients [C_{s,m}]_m in O(N r 2^N) and holds a few copies of F, with no
  basis and no 2^N x 2^N matrix, so it runs to the statevector cap.
- ``build_schur_basis`` applies it to basis columns carried on their own
  weight's rows only, giving a real orthogonal change of basis that
  block-diagonalizes every u^{(x) N}.  The reference ``_dense_schur_basis`` is
  ``couple_factor`` of the 2^N x 2^N identity.

Every basis vector has a definite S_z = m, so it lies inside one Hamming-weight
subspace w = N/2 - m.  The basis is stored per spin, as the coupling builds
it: the sorted basis indices ``rows[w]`` of each weight w, and for each spin
s and column c (m = s - c) one real C(N, w) x n_s array ``paths[2s][c]``
whose column alpha (the coupling path) is the vector (s, m, alpha) on
``rows[w]``.  At N = 12 the arrays hold 22 MB against 134 MB for the
2^N x 2^N matrix.  The basis is a function of N alone, so
``build_schur_basis`` builds it once per N in a process, within the
density-matrix cap, and every caller reads N off the state.
``SchurBasis.dense()`` assembles the full matrix for tests and oracles only.
Its columns are grouped by total spin s in decreasing order; within a sector
the coupling path index is the outer label and m runs from +s down to -s
inside each path.

A state is read once, by ``spin_sectors``, which takes the factor route or
the matrix route by the route rule of ``states`` and returns a
``SpinSectors``: the twirled entropy S(twirl rho), the sector table p_{s,m}
and every spin moment.  A state with a factor (a pure state, or a factored
rho) is coupled once by ``couple_factor``.  Each spin block B_s gives its
``states.block_entropy`` with 2s + 1 copies, the sector's share of the
twirled entropy, and its spin-side matrix R_s = Tr_r B_s^dagger B_s,
(2s + 1) x (2s + 1); then the block is dropped.  diag R_s is p_{s,m}, and
R_s's diagonals at offsets 0, 1 and 2 give every spin mean and second moment
against the S_z weights and S_+ ladder stencils of each spin
(``_ladder_moments``), so no kernel applies a one-site operator to F.  A
matrix-built rho goes through the basis spin by spin too: ``_spin_parts``
gives each spin's parts V^T rho_ww V, one per m, whose traces are p_{s,m}
and whose sum is the multiplicity block that gives the share; its moments
come from one gather of its entries (``_gathered_moments``).
``su2_asymmetry``, ``sector_distribution``, ``spin_moments`` and
``casimir_constraint_check`` each take a state or its ``SpinSectors``, so a
run that needs two of them reads the state once.  ``casimir_constraint_check``
reads the spin along the mean-spin direction n off the moment matrix,
<S_n^2> = n^T M n, so no run turns a state; ``zero_transverse_rotation``,
which does, is the reference the suites and tests hold that reading to.  It
takes a state or its reading, turns the state by u^{(x) N} with
``circuits.apply_circuit`` of one ``circuits.site_layer``, and returns the
turned state's reading, so it reads each state once.
``su2_twirl`` divides each multiplicity block by 2s + 1 and rotates it back;
it and ``su2_twirl_haar``, which turns rho the same way at each quadrature
node, are references for tests and oracles, and with the suites they are the
only callers of the basis besides matrix-built states.

Every N >= 1 runs, odd N with half-integer spins.  Inside this module a spin
is labelled by the integer 2s (the keys of ``couple_factor``,
``SchurBasis.paths``, ``_spin_parts`` and R_s), and m by 2m = N - 2w; public
values stay in units of s: ``SectorTable.spins`` and the argument of
``multiplicity``.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from numpy.polynomial.legendre import leggauss

from .circuits import apply_circuit, site_layer
from .errors import ValidationError
from .lattice import LatticeGeometry, neighborhood_cardinality
from .states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    State,
    _check_cap,
    bit_weights,
    block_entropy,
    density_matrix_cap,
    entropy_of_probabilities,
    qubit_count,
    von_neumann_entropy,
)
from .tolerances import (
    HAAR_QUADRATURE_TOL,
    MARGIN_TOL,
    NEGATIVE_ASYMMETRY_TOL,
    TRANSVERSE_TOL,
    UNIT_SUM_TOL,
    ZERO_NORM,
    holds,
)

C_LAMBDA_PREFACTOR = 1.5
# grid doublings the Haar quadrature may take to reach HAAR_QUADRATURE_TOL
HAAR_MAX_REFINEMENTS = 6


def multiplicity(n_qubits: int, s: float) -> int:
    """Number of spin-s irreducible blocks in the N-qubit rotation action.

    s runs over N/2, N/2 - 1, ..., down to 0 or 1/2.
    """
    k = n_qubits / 2 - s
    if not 0 <= k <= n_qubits / 2 or k != int(k):
        raise ValidationError(f"no spin {s} among {n_qubits} qubits: s must be N/2 minus "
                              f"a whole number, in [0, {n_qubits / 2}]")
    k = int(k)
    lower = math.comb(n_qubits, k - 1) if k >= 1 else 0
    return math.comb(n_qubits, k) - lower


@dataclass(frozen=True)
class SchurBasis:
    """Orthogonal basis adapted to the total-spin decomposition, by spin.

    ``rows[w]`` holds the sorted basis indices with w one-bits (2m = N - 2w).
    ``paths[2s][c]``, 2s decreasing in the mapping, is the C(N, w) x n_s real
    array whose column alpha is the basis vector (s, m = s - c, alpha)
    restricted to ``rows[w]``, w = N/2 - m, n_s = ``multiplicity(N, s)``.  The
    paths alpha are numbered as in ``couple_factor``: spin s stacks its paths
    from the last site's parent spin s - 1/2 before those from s + 1/2, each in
    its parent's order.  The mapping, its tuples and every array are read-only.
    """

    n_qubits: int
    rows: tuple[np.ndarray, ...]
    paths: Mapping[int, tuple[np.ndarray, ...]]

    def dense(self) -> np.ndarray:
        """The 2^N x 2^N basis matrix (tests and oracles only).

        Spins run s decreasing; spin s takes n_s (2s + 1) columns from its
        start, and (s, s - c, alpha) is column start + alpha (2s + 1) + c.
        """
        dim = 2**self.n_qubits
        matrix = np.zeros((dim, dim))
        start = 0
        for two_s, columns in self.paths.items():
            alphas = start + (two_s + 1) * np.arange(columns[0].shape[1])
            for c, vectors in enumerate(columns):
                matrix[np.ix_(self.rows[(self.n_qubits - two_s) // 2 + c], alphas + c)] = vectors
            start += (two_s + 1) * alphas.size
        return matrix


@lru_cache(maxsize=None)
def _coupling_terms(two_j: int) -> tuple:
    """Clebsch-Gordan terms (Condon-Shortley) of coupling spin j = two_j/2 with one spin-1/2.

    Each term is (two_j_new, bit, columns, parents, coef): the child spin
    two_j_new/2 (j + 1/2 always, j - 1/2 when j > 0) takes, on the new site in
    |bit>, ``coef`` times the parent columns ``parents`` into its columns
    ``columns``, one broadcast multiply-add.  Column c of a spin j holds
    m = j - c.  With d = 2j + 1 and c the child column:

    - j + 1/2: bit 0 maps columns 0..2j to parents 0..2j with sqrt((d - c)/d),
      bit 1 maps columns 1..d to parents 0..2j with sqrt(c/d);
    - j - 1/2: bit 0 maps columns 0..2j-1 to parents 1..2j with -sqrt((c + 1)/d),
      bit 1 maps them to parents 0..2j-1 with sqrt((2j - c)/d).
    """
    d = two_j + 1
    c = np.arange(d + 1)[:, None]
    out = [(d, 0, slice(0, d), slice(0, d), np.sqrt((d - c[:d]) / d)),
           (d, 1, slice(1, d + 1), slice(0, d), np.sqrt(c[1:] / d))]
    if two_j > 0:
        out += [(two_j - 1, 0, slice(0, two_j), slice(1, d), -np.sqrt((c[:two_j] + 1) / d)),
                (two_j - 1, 1, slice(0, two_j), slice(0, two_j), np.sqrt((two_j - c[:two_j]) / d))]
    return tuple(out)


def _stacked_paths(counts: dict[int, int]) -> tuple[dict, dict]:
    """Where the paths of each parent spin go when one more site is coupled.

    ``counts`` maps 2j to the number of paths of spin j.  Each child spin
    stacks its paths by parent spin, j increasing.  Returns the first path row
    of every (2j, 2j_new) and the number of paths of every 2j_new.
    """
    start, sizes = {}, {}
    for two_j in sorted(counts):
        for two_j_new in (two_j + 1, two_j - 1)[: 1 + (two_j > 0)]:
            start[two_j, two_j_new] = sizes.get(two_j_new, 0)
            sizes[two_j_new] = start[two_j, two_j_new] + counts[two_j]
    return start, sizes


def couple_factor(factor: np.ndarray) -> dict[int, np.ndarray]:
    """Each spin sector's coefficients of a 2^N x r factor F, N >= 1, by coupling F itself.

    Splits off site 0, 1, ..., N-1 in turn and couples each onto every spin j
    carried so far with the terms of ``_coupling_terms``.  After k sites
    ``carried[2j]`` has shape (multiplicity, 2j + 1, 2^(N-k) r): row alpha is a
    coupling path, column c holds m = j - c, and the last axis runs over the
    sites not yet coupled and the columns of F.  A step is two broadcast
    multiply-adds per (j, child spin), O(2^N r), on the real and imaginary
    parts at once, since every coefficient is real.  Returns {2s: block} with
    block[alpha, c, i] = <s, s - c, alpha| F e_i>: the coefficients in the
    basis of ``build_schur_basis``, whose paths alpha are numbered alike.
    """
    if np.ndim(factor) != 2:
        raise ValidationError(f"factor needs 2 axes, got shape {np.shape(factor)}")
    fac = np.ascontiguousarray(factor, dtype=complex)
    n, r = qubit_count(fac.shape[0]), fac.shape[1]
    carried = {1: fac.view(float).reshape(1, 2, -1)}
    for _ in range(1, n):
        rest = next(iter(carried.values())).shape[2] // 2
        start, sizes = _stacked_paths({two_j: len(block) for two_j, block in carried.items()})
        nxt = {two_j: np.zeros((size, two_j + 1, rest)) for two_j, size in sizes.items()}
        for two_j, block in carried.items():
            halves = block.reshape(len(block), two_j + 1, 2, rest)
            for two_j_new, bit, columns, parents, coef in _coupling_terms(two_j):
                rows = slice(start[two_j, two_j_new], start[two_j, two_j_new] + len(block))
                nxt[two_j_new][rows, columns] += coef * halves[:, parents, bit]
        carried = nxt
    return {two_j: block.view(complex).reshape(len(block), two_j + 1, r)
            for two_j, block in carried.items()}


def _dense_schur_basis(n_qubits: int) -> np.ndarray:
    """Reference: the 2^N x 2^N basis as ``couple_factor`` of the identity, on all 2^N rows."""
    _check_cap(n_qubits, density_matrix_cap(), "density-matrix")
    dim = 2**n_qubits
    blocks = couple_factor(np.eye(dim))
    matrix = np.concatenate([blocks[two_s].real.reshape(-1, dim)
                             for two_s in sorted(blocks, reverse=True)]).T
    matrix.flags.writeable = False
    return matrix


def _couple_site(paths: dict, pos: tuple, sizes: list) -> dict:
    """Couple one more spin-1/2 onto every path, all paths of one spin at once.

    ``paths[two_j][c]`` holds, one column per path, the m = j - c vector
    restricted to its weight subspace.  Weight-w rows of k sites move to rows
    ``pos[b][w + b]`` (new bit b) of the k + 1 site weight sets, whose sizes
    are ``sizes``.  The terms of ``_coupling_terms`` run column by column, and
    each child spin stacks its paths as ``couple_factor`` does.
    """
    k = len(sizes) - 2
    start, counts = _stacked_paths({two_j: old[0].shape[1] for two_j, old in paths.items()})
    nxt = {two_j: [np.zeros((sizes[(k + 1 - two_j) // 2 + c], count)) for c in range(two_j + 1)]
           for two_j, count in counts.items()}
    for two_j, old in paths.items():
        for two_j_new, bit, columns, parents, coef in _coupling_terms(two_j):
            base = (k + 1 - two_j_new) // 2
            alphas = slice(start[two_j, two_j_new], start[two_j, two_j_new] + old[0].shape[1])
            for c, src, a in zip(range(columns.start, columns.stop),
                                 range(parents.start, parents.stop), coef[:, 0]):
                nxt[two_j_new][c][pos[bit][base + c], alphas] = a * old[src]
    return nxt


def build_schur_basis(n_qubits: int) -> SchurBasis:
    """The spin-adapted basis of N >= 1 qubits, per spin and S_z (``SchurBasis``).

    The N >= 1 check and the density-matrix cap run on every call; the basis
    itself is built once per N (``_schur_basis``) and then shared, read-only.
    """
    if n_qubits < 1:
        raise ValidationError(f"a Schur basis needs N >= 1 qubits, got {n_qubits}")
    _check_cap(n_qubits, density_matrix_cap(), "density-matrix")
    return _schur_basis(n_qubits)


@lru_cache(maxsize=None)
def _schur_basis(n_qubits: int) -> SchurBasis:
    """Construct the basis of ``build_schur_basis``.

    Couples one site at a time with the terms of ``_coupling_terms``, as
    ``couple_factor`` does, but carries each basis vector only on the rows of
    its own weight, and couples every path of one spin at once; the arrays
    are kept as they come out, and equal the columns of
    ``_dense_schur_basis``, the coupled identity, bit for bit.
    """
    rows = [np.array([0]), np.array([1])]
    paths = {1: [np.ones((1, 1)), np.ones((1, 1))]}
    for k in range(1, n_qubits):
        zeros = [2 * r for r in rows] + [np.array([], dtype=int)]
        ones = [np.array([], dtype=int)] + [2 * r + 1 for r in rows]
        # disjoint (even and odd), so sorting merges them; np.union1d would load numpy.ma
        new_rows = [np.sort(np.concatenate((a, b))) for a, b in zip(zeros, ones)]
        pos = tuple(
            [np.searchsorted(r, a) for r, a in zip(new_rows, moved)] for moved in (zeros, ones)
        )
        paths = _couple_site(paths, pos, [len(r) for r in new_rows])
        rows = new_rows

    for two_j, columns in paths.items():
        if columns[0].shape[1] != multiplicity(n_qubits, two_j / 2):
            raise ValidationError(f"sector s={two_j}/2 has {columns[0].shape[1]} paths, "
                                  f"expected {multiplicity(n_qubits, two_j / 2)}")
        for part in columns:
            part.flags.writeable = False
    for part in rows:
        part.flags.writeable = False
    return SchurBasis(n_qubits, tuple(rows), MappingProxyType(
        {two_j: tuple(paths[two_j]) for two_j in sorted(paths, reverse=True)}))


@dataclass(frozen=True)
class SectorTable:
    """Joint weights p_{s,m} of total spin and its z projection.

    Row r holds s = r + (N mod 2)/2, for s up to N/2: integer s at even N,
    half-integer s at odd N.  Column index is m + N/2 for m = -N/2..N/2.
    Entries with |m| > s are identically zero.
    """

    p_sm: np.ndarray

    @property
    def spins(self) -> np.ndarray:
        """The spin s of each row, increasing: 0 or 1/2 up to N/2 in whole steps."""
        rows, n = self.p_sm.shape[0], self.p_sm.shape[1] - 1
        return n / 2 - np.arange(rows - 1, -1, -1)

    @property
    def p_s(self) -> np.ndarray:
        return self.p_sm.sum(axis=1)


def _spin_parts(rho: np.ndarray, basis: SchurBasis) -> dict[int, list[np.ndarray]]:
    """{2s: [V_c^T rho_ww V_c for c = 0..2s]}, V_c = ``basis.paths[2s][c]`` on weight w.

    The twirl keeps only these parts: the trace of part c is p_{s, s - c},
    and their sum is spin s's multiplicity block.
    """
    # each weight's real and imaginary parts, contiguous and taken once: the basis is
    # real, and BLAS would copy a strided view for every spin
    subs = [(sub.real.copy(), sub.imag.copy())
            for sub in (rho[np.ix_(rows, rows)] for rows in basis.rows)]
    return {two_s: [v.T @ re @ v + 1j * (v.T @ im @ v)
                    for v, (re, im) in zip(columns, subs[(basis.n_qubits - two_s) // 2 :])]
            for two_s, columns in basis.paths.items()}


def _checked_table(p_sm: np.ndarray) -> SectorTable:
    """The SectorTable of raw weights p_{s,m}, clipped at 0, once they sum to 1."""
    p_sm = np.clip(p_sm, 0.0, None)
    total = float(p_sm.sum())
    if abs(total - 1.0) > UNIT_SUM_TOL:
        raise ValidationError(f"sector weights sum to {total!r}, not 1 within {UNIT_SUM_TOL}")
    return SectorTable(p_sm)


@dataclass(frozen=True)
class SpinSectors:
    """One reading of a state's spin sectors, by ``spin_sectors``.

    ``twirled_entropy`` is S(twirl rho) in nats, ``table`` the weights
    p_{s,m} and ``moments`` the dict of ``spin_moments``.  S(rho) itself is
    left to ``von_neumann_entropy(state)``: a matrix-built rho eigensolves it
    whole, which only ``su2_asymmetry`` needs.
    """

    state: State
    twirled_entropy: float
    table: SectorTable
    moments: dict


def spin_sectors(state: State | SpinSectors) -> SpinSectors:
    """Every spin sector of a state, read once by the route rule; a reading is returned as is.

    The factor route couples F once (``couple_factor``).  The block B_s of
    spin s, multiplicity x (2s + 1) r, gives that sector's share of the
    twirled entropy, the ``block_entropy`` of its smaller Gram matrix with
    2s + 1 copies, and the spin-side matrix R_s = Tr_r B_s^dagger B_s,
    (2s + 1) x (2s + 1), whose diagonal is p_{s,m} and whose diagonals give
    the moments (``_ladder_moments``); the blocks are then dropped.  The
    matrix route reads rho in the Schur basis, per spin too: the parts
    V_c^T rho_ww V_c of ``_spin_parts`` sum to the multiplicity block, whose
    ``block_entropy`` with 2s + 1 copies is the share, and their traces are
    p_{s,m}; the moments are gathered from rho's entries (``_gathered_moments``).
    """
    if isinstance(state, SpinSectors):
        return state
    n = state.n_qubits
    if n < 1:
        raise ValidationError(f"SU(2) sectors need N >= 1 qubits, got {n}")
    # row 2s // 2 holds spin s, column N/2 + m = (N + 2m) / 2 its projection m
    p_sm = np.zeros((n // 2 + 1, n + 1))
    fac, twirled, spin_side = state.factor, 0.0, {}
    if fac is None:
        spins = _spin_parts(state.matrix, build_schur_basis(n))
    else:
        spins = couple_factor(fac)
    for two_s, spin in spins.items():
        if fac is None:
            twirled += block_entropy(sum(spin), copies=two_s + 1)
            weights = [np.trace(part).real for part in spin]
        else:
            twirled += block_entropy(spin.reshape(len(spin), -1), True, two_s + 1)
            spin_side[two_s] = r_s = np.tensordot(spin.conj(), spin, axes=((0, 2), (0, 2)))
            weights = r_s.diagonal().real
        # column c holds m = s - c, so p_{s, m} sits at index (N + 2s) / 2 - c
        p_sm[two_s // 2, (n - two_s) // 2 : (n + two_s) // 2 + 1] = weights[::-1]
    moments = _gathered_moments(state.matrix) if fac is None else _ladder_moments(spin_side)
    moments["s2"] = moments["sx2"] + moments["sy2"] + moments["sz2"]
    return SpinSectors(state, twirled, _checked_table(p_sm), moments)


def sector_distribution(state: State | SpinSectors) -> SectorTable:
    """Measured weights of every (s, m) pair for a pure or mixed state."""
    return spin_sectors(state).table


def su2_twirl(state: State) -> DensityMatrix:
    """Average over all global single-qubit rotations u^{(x) N}.

    In the Schur basis this zeroes inter-sector blocks and replaces each
    sector block by delta_{m m'} times the m-averaged multiplicity block D_s.
    The result is assembled as sum_s V D_s V^T on each weight-diagonal block,
    V the spin's columns on that weight; blocks between different weights are
    zero.
    """
    n = state.n_qubits
    basis = build_schur_basis(n)
    means = {two_s: sum(parts) / (two_s + 1)
             for two_s, parts in _spin_parts(state.matrix, basis).items()}
    out = np.zeros((state.dim,) * 2, dtype=complex)
    for w, rows in enumerate(basis.rows):
        # every spin's columns on weight w side by side, V, and V D with D the spins' means
        held = [(columns[w - (n - two_s) // 2], means[two_s])
                for two_s, columns in basis.paths.items() if two_s >= abs(n - 2 * w)]
        right = np.concatenate([v for v, _mean in held], axis=1)
        left = np.concatenate([v @ mean for v, mean in held], axis=1)
        out[np.ix_(rows, rows)] = left.real @ right.T + 1j * (left.imag @ right.T)
    return DensityMatrix(out)


def su2_shannon_rhs(table: SectorTable) -> float:
    """Sector bound sum_s p_s ln(2s+1) + H({p_{s,m}}) on the twirl entropy gain."""
    dims = 2.0 * table.spins + 1.0
    return float(np.sum(table.p_s * np.log(dims))) + entropy_of_probabilities(
        table.p_sm.reshape(-1)
    )


def su2_support_bound(n_qubits: int) -> float:
    """State-independent cap ln(sum_s (2s+1) min(n_s, 2s+1)) on the twirl entropy gain."""
    if n_qubits < 1:
        raise ValidationError(f"the support bound needs N >= 1 qubits, got {n_qubits}")
    total = 0
    for two_s in range(n_qubits, -1, -2):
        total += (two_s + 1) * min(multiplicity(n_qubits, two_s / 2), two_s + 1)
    return float(np.log(total))


@dataclass(frozen=True)
class Su2AsymmetryReport:
    """Rotation asymmetry of one state with its two upper bounds (nats).

    ``passed`` holds when both caps hold within MARGIN_TOL.
    """

    n_sites: int
    delta_s: float
    bound_sector_entropy: float
    bound_support_dim: float

    def margins(self) -> dict:
        return {
            "sector_entropy": self.bound_sector_entropy - self.delta_s,
            "support_dim": self.bound_support_dim - self.delta_s,
        }

    @property
    def passed(self) -> bool:
        return all(holds(v + MARGIN_TOL) for v in self.margins().values())

    def to_dict(self) -> dict:
        """The scalar fields, each ``bound_<cap>`` under ``bounds[<cap>]``, and ``margins``."""
        data, margins = asdict(self), self.margins()
        bounds = {cap: data.pop(f"bound_{cap}") for cap in margins}
        return data | {"bounds": bounds, "margins": margins}


def su2_asymmetry(state: State | SpinSectors) -> Su2AsymmetryReport:
    """Asymmetry Delta S = S(twirl(rho)) - S(rho) for the full rotation group.

    S(twirl rho) and the sector table come from ``spin_sectors``, which forms
    neither the twirl nor any 2^N x 2^N matrix, and S(rho) from
    ``von_neumann_entropy`` of the state.
    """
    sectors = spin_sectors(state)
    n, delta = sectors.state.n_qubits, sectors.twirled_entropy - von_neumann_entropy(sectors.state)
    report = Su2AsymmetryReport(n, delta, su2_shannon_rhs(sectors.table), su2_support_bound(n))
    if report.delta_s < -NEGATIVE_ASYMMETRY_TOL:
        raise ValidationError(f"asymmetry {report.delta_s!r} is negative beyond tolerance")
    return report


def _dephasing_mask(n: int, k: int) -> np.ndarray:
    """Mask Phi_k whose product with rho averages R_z(alpha)^{(x) N} rho R_z(alpha)^{(x) N dagger}.

    The average runs over k uniform alphas.  R_z(alpha)^{(x) N} is diagonal with
    entry exp(-i alpha m_l), m_l = N/2 - popcount(l), so the average multiplies
    rho[l, l'] by (1/k) sum_j exp(-2 pi i j (m_l - m_l') / k); that factor is
    tabulated over the 2N + 1 integer differences and gathered.
    """
    diffs = np.arange(-n, n + 1)
    table = np.exp(-2j * np.pi * np.outer(diffs, np.arange(k)) / k).mean(axis=1)
    weights = bit_weights(n)
    return table[weights[None, :] - weights[:, None] + n]


def su2_twirl_haar(state: State) -> DensityMatrix:
    """Rotation twirl by direct Haar quadrature over Euler angles (oracle path).

    Uniform k-point grids in alpha and gamma, Gauss-Legendre in cos(beta), weight
    w_beta / (2 k^2) per node; the grid is refined until two successive quadratures
    agree within HAAR_QUADRATURE_TOL.  With u = R_z(alpha) R_y(beta) R_z(gamma) the
    gamma sum and the alpha sum are each an elementwise product with the mask Phi_k
    of ``_dephasing_mask``, so one level is the same finite sum taken as
    sum_beta (w_beta / 2) Phi_k o (R_y(beta)^{(x) N} (Phi_k o rho) R_y(beta)^{(x) N T}).
    Phi_k o rho is Hermitian with unit trace, and each node turns it with
    ``circuits.apply_circuit`` of one ``site_layer``.
    """
    n = state.n_qubits
    rho = state.matrix
    previous = None
    k = 2 * n + 2
    n_beta = n + 2
    for _ in range(HAAR_MAX_REFINEMENTS):
        mask = _dephasing_mask(n, k)
        dephased = DensityMatrix(mask * rho)
        nodes, gl_weights = leggauss(n_beta)
        acc = np.zeros_like(rho)
        for beta, w in zip(np.arccos(nodes), gl_weights):
            cb, sb = np.cos(beta / 2.0), np.sin(beta / 2.0)
            ry = np.array([[cb, -sb], [sb, cb]])
            acc += (w / 2.0) * apply_circuit(dephased, site_layer(n, ry)).matrix
        acc *= mask
        if previous is not None and float(np.max(np.abs(acc - previous))) <= HAAR_QUADRATURE_TOL:
            return DensityMatrix(acc)
        previous = acc
        k *= 2
        n_beta *= 2
    raise ValidationError(f"Haar quadrature did not converge to {HAAR_QUADRATURE_TOL} "
                          f"after {HAAR_MAX_REFINEMENTS} refinements")


def spin_moments(state: State | SpinSectors) -> dict:
    """First and second moments of the collective spin S = sum_j sigma_j / 2.

    Keys: the means ``sx``, ``sy``, ``sz``, the entries M_ab = Re <S_a S_b> of
    the moment matrix (``sx2``, ``sy2``, ``sz2`` on the diagonal, ``sxy``,
    ``sxz``, ``syz`` off it) and ``s2`` = tr M = <S^2>, as ``spin_sectors``
    reads them: a state with a factor off its spin-side matrices R_s
    (``_ladder_moments``), a matrix-built rho off its entries
    (``_gathered_moments``); neither applies a local operator.
    """
    return dict(spin_sectors(state).moments)


@lru_cache(maxsize=None)
def _ladder_weights(two_s: int) -> np.ndarray:
    """The stencils of ``_ladder_moments`` for spin s = two_s / 2, over its columns c, m = s - c.

    Rows m, m^2 and s(s + 1) - m^2 weigh the column norms, rows a_c and
    a_c (m + 1/2) the overlaps of columns c - 1 and c, and row a_c a_{c-1}
    those of columns c - 2 and c, where a_c = sqrt((s - m)(s + m + 1)) is the
    factor by which S_+ moves column c to c - 1 (a_0 = 0).
    """
    s = two_s / 2
    m = s - np.arange(two_s + 1)
    a = np.sqrt((s - m) * (s + m + 1))
    return np.stack([m, m * m, s * (s + 1) - m * m, a, a * (m + 0.5), a * np.roll(a, 1)])


def _ladder_moments(spin_side: dict) -> dict:
    """The spin means and moment-matrix entries of a state, off its spin-side matrices R_s.

    ``spin_side`` maps 2s to R_s, whose entry (c, d) is the overlap
    <C_c, C_d> of the sector's columns c and d summed over the paths and the
    columns of F (``spin_sectors``).  Column c holds m = s - c, S_z scales it
    by m, and S_+ = S_x + i S_y moves it to column c - 1 times a_c
    (``_ladder_weights``).  With the column norms N_c = R_s[c, c] and the
    overlaps G1_c = R_s[c - 1, c] and G2_c = R_s[c - 2, c], the diagonals of
    R_s at offsets 0, 1 and 2:
    <S_z> = sum m N_c, <S_z^2> = sum m^2 N_c, <S_x> + i <S_y> = sum a_c G1_c,
    M_xz + i M_yz = <S_+ S_z + S_z S_+> / 2 = sum a_c (m + 1/2) G1_c,
    <S_+^2> = M_xx - M_yy + 2i M_xy = sum a_c a_{c-1} G2_c and
    M_xx + M_yy = <S^2 - S_z^2> = sum (s(s + 1) - m^2) N_c.
    """
    # entry j: row j of _ladder_weights against the diagonal of R_s at offset 0, 1 or 2,
    # the offsets k <= 2s
    sums = np.zeros(6, dtype=complex)
    for two_s, r_s in spin_side.items():
        weights = _ladder_weights(two_s)
        for k, rows in ((0, slice(0, 3)), (1, slice(3, 5)), (2, slice(5, 6)))[: two_s + 1]:
            sums[rows] += weights[rows, k:] @ np.diagonal(r_s, k)
    real, imag = sums.real.tolist(), sums.imag.tolist()
    (sz, sz2, transverse, sx, sxz, along), (*_, sy, syz, cross) = real, imag
    return {"sx": sx, "sy": sy, "sz": sz, "sx2": (transverse + along) / 2,
            "sy2": (transverse - along) / 2, "sz2": sz2, "sxy": cross / 2, "sxz": sxz, "syz": syz}


def _gathered_moments(rho: np.ndarray) -> dict:
    """The spin means and moment-matrix entries of rho, by gathering its entries.

    With b_j = 1 << (n-1-j) the flip mask of site j, z_j = (-1)^{l_j} its sign
    and 2m = sum_j z_j, one gather of single = rho[l, l^b_j] and, for i < j,
    pair = rho[l, l^b_i^b_j] gives every moment but <Sz> and <Sz^2>, which
    weigh diag rho by m and m^2:
    <sigma^x_j> = sum_l single and <sigma^y_j> = i sum_l z_j single;
    <sigma^x_i sigma^x_j> = sum_l pair and <sigma^y_i sigma^y_j> = -sum_l z_i z_j pair,
    so <S_a> = sum_j <sigma^a_j> / 2 and
    <S_a^2> = (N tr rho + 2 sum_{i<j} <sigma^a_i sigma^a_j>) / 4.  The cross
    terms drop each site's product with itself, whose mean is imaginary:
    M_xz = Re sum single (2m - z_j) / 4, M_yz = Re i sum single (z_j 2m - 1) / 4
    and M_xy = Re i sum pair (z_i + z_j) / 4.  O(N^2 2^N) reads of rho.
    """
    n = qubit_count(rho.shape[0])
    rows = np.arange(2**n)
    shifts = np.arange(n - 1, -1, -1)
    masks = 1 << shifts
    first, second = np.triu_indices(n, k=1)

    single = rho[rows, rows ^ masks[:, None]]
    pair = rho[rows, rows ^ (masks[first] | masks[second])[:, None]]
    z = 1 - 2 * ((rows >> shifts[:, None]) & 1)
    two_m = z.sum(axis=0)
    probs = np.real(np.diagonal(rho))
    trace = float(np.sum(probs))

    return {
        "sx": float(np.real(np.sum(single))) / 2.0,
        "sy": float(np.real(1j * np.sum(z * single))) / 2.0,
        "sz": float(np.sum(probs * (two_m / 2.0))),
        "sz2": float(np.sum(probs * (two_m / 2.0) ** 2)),
        "sx2": (n * trace + 2.0 * float(np.real(np.sum(pair)))) / 4.0,
        "sy2": (n * trace - 2.0 * float(np.real(np.sum(z[first] * z[second] * pair)))) / 4.0,
        "sxy": float(np.real(1j * np.sum((z[first] + z[second]) * pair))) / 4.0,
        "sxz": float(np.real(np.sum((two_m - z) * single))) / 4.0,
        "syz": float(np.real(1j * np.sum((z * two_m - 1) * single))) / 4.0,
    }


def _mean_spin_axis(moments: dict) -> np.ndarray:
    """The unit vector n = <S> / |<S>| of ``spin_moments``, or z when |<S>| < ZERO_NORM.

    A mean with a NaN or infinite component has no direction: ValidationError.
    """
    mean = np.array([moments["sx"], moments["sy"], moments["sz"]])
    norm = float(np.linalg.norm(mean))
    if not np.isfinite(norm):
        raise ValidationError(f"mean spin {mean.tolist()} is not finite")
    return mean / norm if norm >= ZERO_NORM else np.array([0.0, 0.0, 1.0])


def zero_transverse_rotation(state: State | SpinSectors) -> tuple[SpinSectors, np.ndarray]:
    """Rotate so the mean collective spin points along +z.

    The axis is read off the given reading, or off one ``spin_sectors`` of a
    given state, and every site is turned by the same single-site unitary u
    with ``circuits.apply_circuit`` of ``circuits.site_layer``, so a factored
    state stays factored.  Returns (turned, u): ``turned`` is the reading of
    the turned state that the post-turn check read, and ``turned.state`` the
    state.  A state with vanishing mean spin comes back as its own reading
    with u = identity.  No kernel needs the turned state
    (``casimir_constraint_check`` reads the mean-spin frame off the moment
    matrix); the suites and tests turn states with it to check that reading.
    """
    sectors = spin_sectors(state)
    vhat = _mean_spin_axis(sectors.moments)
    axis = np.cross(vhat, [0.0, 0.0, 1.0])
    axis_norm = float(np.linalg.norm(axis))
    if axis_norm < ZERO_NORM:
        if vhat[2] > 0.0:
            return sectors, np.eye(2, dtype=complex)
        axis, angle = np.array([1.0, 0.0, 0.0]), np.pi
    else:
        axis = axis / axis_norm
        angle = float(np.arccos(np.clip(vhat[2], -1.0, 1.0)))
    gen = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    u = np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * gen
    turned = spin_sectors(apply_circuit(sectors.state, site_layer(sectors.state.n_qubits, u)))
    check = turned.moments
    # np.max keeps a NaN, which then fails the test
    if not np.max([abs(check["sx"]), abs(check["sy"]), -check["sz"]]) <= TRANSVERSE_TOL:
        raise ValidationError("gauge rotation failed to null the transverse spin")
    return turned, u


@dataclass(frozen=True)
class CasimirReport:
    """Clustering constraint <S^2> - <S_n^2> <= c(Lambda) N and its precursor.

    n is the direction of the mean spin <S>.
    """

    n_sites: int
    clustering_range: int
    c_lambda: float
    bound: float
    lhs: float
    precursor_lhs: float

    @property
    def passed(self) -> bool:
        return holds(self.bound - self.lhs + MARGIN_TOL)

    @property
    def precursor_passed(self) -> bool:
        return holds(self.bound - self.precursor_lhs + MARGIN_TOL)

    def margins(self) -> dict:
        return {
            "main": self.bound - self.lhs,
            "precursor": self.bound - self.precursor_lhs,
        }

    def to_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed, "precursor_passed": self.precursor_passed,
                               "margins": self.margins()}


def casimir_constraint_check(
    state: State | SpinSectors, geometry: LatticeGeometry, clustering_range: int
) -> CasimirReport:
    """Check the collective-spin second-moment caps for a clustering state, in any frame.

    The main inequality is <S^2> - <S_n^2> <= c N, n = <S> / |<S>| the
    direction of the mean spin (z when |<S>| < ZERO_NORM), with
    <S_n^2> = n^T M n read off the moment matrix M_ab = Re <S_a S_b> of
    ``spin_sectors``, so the state is read once and never turned.  The
    precursor replaces <S_n^2> by the squared mean spin |<S>|^2 and is the
    stronger statement that actually requires clustering.
    """
    sectors = spin_sectors(state)
    geometry.check_size(sectors.state.n_qubits)
    moments = sectors.moments
    z_lambda = neighborhood_cardinality(geometry, clustering_range)
    c_lambda = C_LAMBDA_PREFACTOR * z_lambda
    bound = c_lambda * geometry.n_sites
    nhat = _mean_spin_axis(moments)
    matrix = np.array([[moments[key] for key in row] for row in (
        ("sx2", "sxy", "sxz"), ("sxy", "sy2", "syz"), ("sxz", "syz", "sz2"))])
    lhs = moments["s2"] - float(nhat @ matrix @ nhat)
    mean_sq = moments["sx"] ** 2 + moments["sy"] ** 2 + moments["sz"] ** 2
    precursor = moments["s2"] - mean_sq
    return CasimirReport(
        n_sites=geometry.n_sites,
        clustering_range=clustering_range,
        c_lambda=c_lambda,
        bound=bound,
        lhs=lhs,
        precursor_lhs=precursor,
    )
