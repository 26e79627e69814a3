"""Named verification batteries: inequality checks and worked-example oracles.

``bound_suite`` exercises every structural invariant the package promises
(twirl algebra, entropy bounds, clustering and lightcone certificates) on
seeded random inputs; ``oracle_suite`` re-derives worked examples through
independent routes.  Both return a list of CheckResult so callers can render
a check -> margin matrix.  A check is a generator function of its random
generator (and, for bound checks, the draw scale): it yields each term of its
margin, tolerance included, and returns its detail line.  The runner ``_run``
is the one place that folds terms: the margin is the least term, and NaN if any
term is NaN, so a NaN fails.  A check's name and seed salt come from its place
in the suite's ordered ``(name, check)`` table and its pass/fail from
``tolerances.holds`` (margin >= 0, > 0 for massey-strict).

A property that holds for either symmetry group is one private body that yields
terms, and the U(1) row and the SU(2) row each ``yield from`` it with their
group's twirl and asymmetry functions; rows that draw the same inputs share one
generator of them.  Every row keeps its own function, sizes, draw count,
tolerance and detail line.  A check is recognised by its first parameter being
``rng``, so no helper takes ``rng`` first: the shared bodies and generators
take it last.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import circuits, closedforms, clustering, lattice, states, su2, u1
from .errors import ValidationError
from .states import DensityMatrix, State, StateVector
from .tolerances import (
    ASYMPTOTIC_TOL,
    EMPTY_SECTOR_WEIGHT,
    ENTROPY_MATCH_TOL,
    EXACT_TOL,
    GAUSSIAN_SUP_TOL,
    HAAR_MATCH_TOL,
    IDENTITY_TOL,
    INTEGER_SLACK,
    KINK_FIT_TOL,
    KRAWTCHOUK_REL_TOL,
    MARGIN_TOL,
    QUADRATURE_TOL,
    ROTATION_COVARIANCE_TOL,
    SYMMETRY_BREAK_MIN,
    TRANSVERSE_TOL,
    ZERO_ASYMMETRY,
    holds,
)


@dataclass(frozen=True)
class CheckResult:
    """A check's margin, tolerance included; ``passed`` is the one rule ``holds``."""

    name: str
    margin: float
    detail: str = ""
    strict: bool = False

    def __post_init__(self):
        # numpy scalars sneak in from reductions; keep a plain JSON-able float
        object.__setattr__(self, "margin", float(self.margin))

    @property
    def passed(self) -> bool:
        return holds(self.margin, self.strict)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name:<34s} margin={self.margin:+.3e}  {self.detail}"


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def _count(base: int, scale: float) -> int:
    return max(1, int(round(base * scale)))


def _random_product_input(n: int, rng) -> StateVector:
    locals_ = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        locals_.append(v / np.linalg.norm(v))
    return states.product_state(locals_)


def _random_state_or_matrix(n: int, rng, pure: bool) -> State:
    return states.random_state(n, rng) if pure else states.random_density_matrix(n, rng)


def _lowered_block(basis: su2.SchurBasis, w: int, vectors: np.ndarray) -> np.ndarray:
    """S_- applied to ``vectors``, columns on the rows of weight w, on the rows of weight w + 1.

    Row t is the sum of the vectors' rows t with one set bit cleared, added in
    ascending bit order: the order of one scatter-add per site, so the result
    is the same to the bit, gathered through a (C(N, w+1), w+1) index table.
    Needs the rows sorted and partitioned by weight.
    """
    targets = basis.rows[w + 1]
    set_bits = np.nonzero((targets[:, None] >> np.arange(basis.n_qubits)) & 1)[1]
    cleared = targets[:, None] ^ (1 << set_bits.reshape(targets.size, w + 1))
    src = np.searchsorted(basis.rows[w], cleared)
    lowered = vectors[src[:, 0]]
    for k in range(1, w + 1):
        lowered += vectors[src[:, k]]
    return lowered


def _schur_block_defects(basis: su2.SchurBasis) -> Iterator[float]:
    """Yield each deviation of the per-spin columns from an orthogonal Schur transform.

    The rows must partition 0..2^N-1 by weight, and the columns of every spin
    on weight w must fill a square block B_w (exact; a failure yields 1 alone).
    Each B_w must have B_w^T B_w = I, and the lowering operator
    S_- = sum_j sigma^-_j must take column c of spin s (m = s - c) to
    sqrt((s+m)(s-m+1)) = sqrt((2s - c)(c + 1)) times its column c + 1, and
    its last column to zero: the Condon-Shortley ladder that fixes every
    column's sign.
    """
    n = basis.n_qubits
    weights = states.bit_weights(n)
    on_weight: list[list[np.ndarray]] = [[] for _ in basis.rows]
    for two_s, columns in basis.paths.items():
        for c, vectors in enumerate(columns):
            on_weight[(n - two_s) // 2 + c].append(vectors)
    blocks = [np.concatenate(parts, axis=1) for parts in on_weight]
    rows_ok = np.array_equal(np.sort(np.concatenate(basis.rows)), np.arange(2**n)) and all(
        np.all(weights[rows] == w) and block.shape == (rows.size, rows.size)
        for w, (rows, block) in enumerate(zip(basis.rows, blocks))
    )
    if not rows_ok:
        yield 1.0
        return
    for block in blocks:
        # B_w^T B_w - I, the identity taken off the fresh product in place
        gram = block.T @ block
        gram[np.diag_indices_from(gram)] -= 1.0
        yield np.abs(gram).max()
    for two_s, columns in basis.paths.items():
        base = (n - two_s) // 2
        # the top spin's last column sits on weight N, with nothing to lower onto
        for c, vectors in enumerate(columns[: n - base]):
            lowered = _lowered_block(basis, base + c, vectors)
            if c < two_s:
                lowered -= columns[c + 1] * math.sqrt((two_s - c) * (c + 1))
            yield np.abs(lowered).max()


# ---------------- bodies that twin rows share ----------------


def _idempotence_terms(twirl, tol: float, inputs) -> Iterator[float]:
    """Yield ``tol`` less the largest entry of G(G(rho)) - G(rho), G the group's ``twirl``."""
    for state in inputs:
        once = twirl(state)
        yield tol - np.abs(twirl(once).matrix - once.matrix).max()


def _fixed_point_terms(twirl, asymmetry, sizes, draws: int, rng) -> Iterator[float]:
    """Zero ``asymmetry`` on every twirled rho; positive on each rho the ``twirl`` moves.

    ``draws`` random density matrices at each of ``sizes`` qubits.
    """
    for n in sizes:
        for _ in range(draws):
            rho = states.random_density_matrix(n, rng)
            sym = twirl(rho)
            yield ZERO_ASYMMETRY - asymmetry(sym).delta_s
            if np.abs(sym.matrix - rho.matrix).max() > SYMMETRY_BREAK_MIN:
                yield asymmetry(rho).delta_s - ZERO_ASYMMETRY


def _dense_twirl_gap(twirl, asymmetry, rho: DensityMatrix) -> float:
    """|Delta S of the sector route - (S(twirl rho) - S(rho)) by eigensolves of the dense twirl|."""
    dense = states.von_neumann_entropy(twirl(rho)) - states.von_neumann_entropy(rho)
    return abs(asymmetry(rho).delta_s - dense)


def _pure_then_mixed(sizes, rng):
    """A random pure state, then a random density matrix, at each of ``sizes`` qubits."""
    for n in sizes:
        yield states.random_state(n, rng)
        yield states.random_density_matrix(n, rng)


def _globally_rotated(samples, rng):
    """Yield (rho, Haar u, u^{(x) N} rho u^{(x) N dagger}) for random rho at n = 2 and 4."""
    for n in (2, 4):
        for _ in range(_count(5, samples)):
            rho = states.random_density_matrix(n, rng)
            umat = circuits.haar_unitary(2, rng)
            yield rho, umat, DensityMatrix(su2.global_rotation(rho.matrix, umat))


def _spread_circuits(samples, rng):
    """Yield (geometry, depth, circuit, its spread) for brickworks on the 8-ring and 3x3 torus.

    A generator, so that whatever its caller draws for a circuit comes right
    after that circuit's own draws.
    """
    for geo in (lattice.LatticeGeometry(1, 8), lattice.LatticeGeometry(2, 3)):
        for depth in (1, 2, 3):
            for _ in range(_count(3, samples)):
                circ = circuits.random_brickwork(geo, depth, rng)
                yield geo, depth, circ, clustering.operator_spreading_range(circ, geo)


# ---------------- lattice ----------------


def _ball_translation_invariance(rng, samples) -> Generator[float, None, str]:
    scanned = 0
    for d in (1, 2):
        for m in range(2, 7):
            geo = lattice.LatticeGeometry(d, m)
            for radius in range(geo.diameter + 1):
                counts = {
                    lattice.ball(geo, x, radius).size for x in range(geo.n_sites)
                }
                ref = lattice.neighborhood_cardinality(geo, radius)
                yield from (INTEGER_SLACK - abs(c - ref) for c in counts)
                scanned += 1
    return f"{scanned} (geometry, radius) pairs"


def _ball_growth_saturation(rng, samples) -> Generator[float, None, str]:
    violations = 0
    for d in (1, 2):
        for m in range(2, 7):
            geo = lattice.LatticeGeometry(d, m)
            sizes = [
                lattice.neighborhood_cardinality(geo, r)
                for r in range(geo.diameter + 2)
            ]
            if any(b < a for a, b in zip(sizes, sizes[1:])):
                violations += 1
            if sizes[geo.diameter] != geo.n_sites:
                violations += 1
    yield INTEGER_SLACK - violations
    return "d=1,2 m=2..6"


# ---------------- circuits and entropy ----------------


def _spreading_within_lightcone(rng, samples) -> Generator[float, None, str]:
    tested = 0
    for tested, (_, depth, _, spread) in enumerate(_spread_circuits(samples, rng), 1):
        yield lattice.lightcone_range(depth) - spread + INTEGER_SLACK
    return f"{tested} circuits"


def _circuit_trace_purity(rng, samples) -> Generator[float, None, str]:
    for n, m in ((4, 4), (6, 6)):
        geo = lattice.LatticeGeometry(1, m)
        for _ in range(_count(5, samples)):
            rho = states.random_density_matrix(n, rng, rank=3)
            out = circuits.apply_circuit(rho, circuits.random_brickwork(geo, 3, rng))
            yield IDENTITY_TOL - abs(np.trace(out.matrix).real - 1.0)
            yield IDENTITY_TOL - abs(out.purity() - rho.purity())
    return "depth-3 brickwork, n=4,6"


def _channel_trace_preserving(rng, samples) -> Generator[float, None, str]:
    for n in (2, 3):
        rho = states.random_density_matrix(n, rng)
        chans = [
            circuits.depolarizing_channel(0, 0.3),
            circuits.phase_flip_channel(n - 1, 0.25),
            circuits.full_dephasing_channel(0),
            circuits.random_diagonal_phase_channel(1, 0.4, rng),
        ]
        for ch in chans:
            out = circuits.apply_channel(rho, ch)
            yield IDENTITY_TOL - abs(np.trace(out.matrix).real - 1.0)
    return "4 channel families"


def _entropy_unitary_invariance(rng, samples) -> Generator[float, None, str]:
    for n in (2, 4, 6):
        for _ in range(_count(5, samples)):
            rho = states.random_density_matrix(n, rng, rank=min(4, 2**n))
            s0 = states.von_neumann_entropy(rho)
            umat = circuits.haar_unitary(2**n, rng)
            rot = DensityMatrix(umat @ rho.matrix @ umat.conj().T)
            yield ENTROPY_MATCH_TOL - abs(states.von_neumann_entropy(rot) - s0)
    return "haar conjugation"


def _measurement_entropy_monotone(rng, samples) -> Generator[float, None, str]:
    """Averaged post-selection entropy never exceeds the prior entropy."""
    for n in (2, 3, 4, 5):
        qvals = u1.charge_values(n)
        for _ in range(_count(10, samples)):
            rho = states.random_density_matrix(n, rng)
            s0 = states.von_neumann_entropy(rho)
            avg = 0.0
            for q in range(n + 1):
                mask = qvals == q
                block = rho.matrix[np.ix_(mask, mask)]
                p = float(np.trace(block).real)
                if p < EMPTY_SECTOR_WEIGHT:
                    continue
                avg += p * states.block_entropy(block / p)
            yield s0 - avg + MARGIN_TOL
    return "sector projections"


# ---------------- abelian asymmetry ----------------


def _pure_state_saturation(rng, samples) -> Generator[float, None, str]:
    """Dense-twirl asymmetry equals the charge entropy on pure states."""
    draws = _count(200, samples)
    for k in range(draws):
        n = 2 + k % 5
        psi = states.random_state(n, rng)
        h = u1.shannon_entropy(u1.charge_distribution(psi))
        dense = states.von_neumann_entropy(u1.u1_twirl(psi))
        yield ENTROPY_MATCH_TOL - abs(dense - h)
    return f"{draws} states, n<=6"


def _asymmetry_log_cap(rng, samples) -> Generator[float, None, str]:
    for k in range(_count(40, samples)):
        n = 2 + k % 4
        state = _random_state_or_matrix(n, rng, pure=k % 2 == 1)
        yield math.log(n + 1) - u1.u1_asymmetry(state).delta_s + MARGIN_TOL
    return "random pure and mixed states"


def _massey_strict(rng, samples) -> Generator[float, None, str]:
    for k in range(_count(40, samples)):
        n = 2 + k % 5
        state = _random_state_or_matrix(n, rng, pure=k % 2 == 1)
        dist = u1.charge_distribution(state)
        if dist.variance <= 0.0:
            continue
        yield u1.massey_bound(dist.variance) - u1.shannon_entropy(dist)
    for n in (4, 10, 16):
        dist = u1.flat_distribution(n + 1)
        yield u1.massey_bound(dist.variance) - u1.shannon_entropy(dist)
    return "entropy strictly below variance cap"


def _circuit_bound_chain(rng, samples) -> Generator[float, None, str]:
    """Clustering range, variance cap and asymmetry cap for circuit outputs.

    The detail names each link's least raw slack (its margin before the
    tolerance), since the margin is the tolerance itself whenever no
    correlator beyond the claimed range rises above rounding.
    """
    slack = dict.fromkeys(("correlator", "variance", "massey", "clustering"), math.inf)
    grid = [lattice.LatticeGeometry(1, m) for m in (8, 10, 12, 14)]
    grid.append(lattice.LatticeGeometry(2, 3))
    total = _count(50, samples)
    for k in range(total):
        geo = grid[k % len(grid)]
        depth = 1 + k % 3
        circ = circuits.random_brickwork(geo, depth, rng)
        psi = circuits.apply_circuit(_random_product_input(geo.n_sites, rng), circ)
        lam = 2 * lattice.lightcone_range(depth)
        cluster = clustering.verify_cluster_property(psi, geo, lam, tol=MARGIN_TOL)
        var = clustering.variance_bound_check(psi, geo, lam)
        margins = u1.u1_asymmetry(psi, geo, clustering_range=lam).margins()
        for key, value in (("correlator", -cluster.max_violation), ("variance", var.margin),
                           ("massey", margins["massey"]), ("clustering", margins["clustering"])):
            slack[key] = min(slack[key], value)
            # MARGIN_TOL on every link but Massey's, which is strict
            yield value if key == "massey" else value + MARGIN_TOL
    return (
        f"{total} brickwork circuits, 1d and 2d, depth<=3; least raw slack: "
        f"correlators beyond the claimed range {slack['correlator']:+.2e}, "
        f"variance cap {slack['variance']:.3g}, clustering cap {slack['clustering']:.3g} "
        f"(each with tol {MARGIN_TOL:g}), Massey {slack['massey']:.3g} (strict)"
    )


def _charge_twirl_idempotent(rng, samples) -> Generator[float, None, str]:
    mixed = (states.random_density_matrix(n, rng) for n in (2, 3, 4, 5))
    yield from _idempotence_terms(u1.u1_twirl, EXACT_TOL, mixed)
    return "n=2..5"


def _charge_fixed_point_iff(rng, samples) -> Generator[float, None, str]:
    """Zero asymmetry exactly on twirl-fixed states, positive otherwise."""
    yield from _fixed_point_terms(u1.u1_twirl, u1.u1_asymmetry, (2, 3, 4), _count(10, samples), rng)
    return "both implications"


def _symmetric_channel_monotone(rng, samples) -> Generator[float, None, str]:
    count = _count(20, samples)
    for k in range(count):
        n = 2 + k % 4
        rho = states.random_density_matrix(n, rng)
        before = u1.u1_asymmetry(rho).delta_s
        umat = circuits.charge_conserving_unitary(n, rng)
        rotated = DensityMatrix(umat @ rho.matrix @ umat.conj().T)
        yield before - u1.u1_asymmetry(rotated).delta_s + MARGIN_TOL
        for chan in (
            circuits.random_diagonal_phase_channel(k % n, 0.5, rng),
            circuits.full_dephasing_channel((k + 1) % n),
        ):
            out = circuits.apply_channel(rho, chan)
            yield before - u1.u1_asymmetry(out).delta_s + MARGIN_TOL
    return f"{count} states, conserving unitaries and dephasing"


# ---------------- rotation-group asymmetry ----------------


def _schur_unitarity(rng, samples) -> Generator[float, None, str]:
    for n in (2, 4, 6, 8, 10, 12):
        yield from (IDENTITY_TOL - d for d in _schur_block_defects(su2.build_schur_basis(n)))
    return "n=2..12"


def _sector_dimension_identity(rng, samples) -> Generator[float, None, str]:
    violations = 0
    for n in range(2, 13, 2):
        total = sum(
            (2 * s + 1) * su2.multiplicity(n, s) for s in range(n // 2 + 1)
        )
        if total != 2**n:
            violations += 1
    yield INTEGER_SLACK - violations
    return "sum (2s+1) n_s = 2^n, n=2..12"


def _rotation_twirl_idempotent(rng, samples) -> Generator[float, None, str]:
    yield from _idempotence_terms(su2.su2_twirl, IDENTITY_TOL, _pure_then_mixed((2, 4, 6), rng))
    return "n=2,4,6"


def _rotation_twirl_covariance(rng, samples) -> Generator[float, None, str]:
    for rho, umat, rotated in _globally_rotated(samples, rng):
        left = su2.su2_twirl(rotated)
        right = DensityMatrix(su2.global_rotation(su2.su2_twirl(rho).matrix, umat))
        yield ROTATION_COVARIANCE_TOL - np.abs(left.matrix - right.matrix).max()
    return "global rotations"


def _sector_entropy_bound(rng, samples) -> Generator[float, None, str]:
    tested = 0
    for n in (2, 4, 6):
        trial_states = [
            states.random_state(n, rng),
            states.random_density_matrix(n, rng),
            closedforms.dicke_state(n, n // 2, axis="x"),
        ]
        geo = lattice.LatticeGeometry(1, n)
        circ = circuits.random_brickwork(geo, 2, rng)
        trial_states.append(
            circuits.apply_circuit(_random_product_input(n, rng), circ)
        )
        for state in trial_states:
            rep = su2.su2_asymmetry(state)
            yield rep.bound_sector_entropy - rep.delta_s + MARGIN_TOL
            yield rep.bound_support_dim - rep.delta_s + MARGIN_TOL
            tested += 1
    return f"{tested} states: random, mixed, dicke, circuit"


def _twirl_quadrature_match(rng, samples) -> Generator[float, None, str]:
    for state in _pure_then_mixed((2, 4, 6), rng):
        exact = su2.su2_twirl(state)
        quad = su2.su2_twirl_haar(state)
        yield HAAR_MATCH_TOL - np.abs(exact.matrix - quad.matrix).max()
    return "6 states, n<=6: Schur twirl vs Euler quadrature"


def _rotation_fixed_point_iff(rng, samples) -> Generator[float, None, str]:
    yield from _fixed_point_terms(su2.su2_twirl, su2.su2_asymmetry, (2, 4), _count(5, samples), rng)
    return "both implications"


def _collective_moment_cap(rng, samples) -> Generator[float, None, str]:
    """Second-moment caps for gauged circuit states, main and precursor."""
    total = _count(100, samples)
    sizes = (4, 6, 8)
    for k in range(total):
        n = sizes[k % len(sizes)]
        geo = lattice.LatticeGeometry(1, n)
        depth = 1 + k % 2
        circ = circuits.random_brickwork(geo, depth, rng)
        psi = circuits.apply_circuit(_random_product_input(n, rng), circ)
        sectors = su2.spin_sectors(su2.zero_transverse_rotation(psi)[0])
        yield from (TRANSVERSE_TOL - abs(sectors.moments[axis]) for axis in ("sx", "sy"))
        rep = su2.casimir_constraint_check(sectors, geo, 2 * lattice.lightcone_range(depth))
        yield rep.bound - rep.lhs + MARGIN_TOL
        yield rep.bound - rep.precursor_lhs + MARGIN_TOL
    return f"{total} gauged circuit states, n=4..8"


def _global_rotation_invariance(rng, samples) -> Generator[float, None, str]:
    for rho, _, moved in _globally_rotated(samples, rng):
        gap = su2.su2_asymmetry(moved).delta_s - su2.su2_asymmetry(rho).delta_s
        yield ENTROPY_MATCH_TOL - abs(gap)
    return "asymmetry is gauge-blind"


# ---------------- closed forms ----------------


def _krawtchouk_recurrence_accuracy(rng, samples) -> Generator[float, None, str]:
    n = 30
    for i in range(n + 1):
        for k in range(n + 1):
            exact = closedforms.krawtchouk_exact(i, k, n)
            approx = closedforms.krawtchouk(i, k, n)
            if exact == 0:
                yield KRAWTCHOUK_REL_TOL - abs(approx)
            else:
                ref = float(Fraction(exact))
                yield KRAWTCHOUK_REL_TOL - abs(approx - ref) / abs(ref)
    return "all i,k at n=30"


def _closed_form_vs_statevector(rng, samples) -> Generator[float, None, str]:
    for n in range(2, 15, 2):
        exact = closedforms.dicke_half_distribution(n // 2).probs
        brute = u1.charge_distribution(closedforms.dicke_state(n, n // 2, axis="x"))
        yield IDENTITY_TOL - np.abs(exact - brute.probs).max()
    for n, k in ((9, 3), (11, 4)):
        exact = closedforms.dicke_x_distribution(n, k).probs
        brute = u1.charge_distribution(closedforms.dicke_state(n, k, axis="x"))
        yield IDENTITY_TOL - np.abs(exact - brute.probs).max()
    for n in range(2, 15):
        exact = closedforms.kink_distribution(n).probs
        brute = u1.charge_distribution(closedforms.kink_state(n))
        yield IDENTITY_TOL - np.abs(exact - brute.probs).max()
    return "dicke and kink, n<=14"


def _bernoulli_entropy_maximum(rng, samples) -> Generator[float, None, str]:
    """The homogeneous 1/2 profile maximizes the sum entropy."""
    n = 8
    ref = u1.shannon_entropy(closedforms.poisson_binomial(np.full(n, 0.5)))
    total = _count(10000, samples)
    for _ in range(total):
        yield ref - u1.shannon_entropy(closedforms.poisson_binomial(rng.random(n)))
    return f"{total} perturbations, n=8"


def _gaussian_tail_accuracy(rng, samples) -> Generator[float, None, str]:
    n = 1000
    dist = closedforms.poisson_binomial(np.full(n, 0.5))
    sigma = math.sqrt(n / 4.0)
    q = np.arange(n + 1)
    normal = np.exp(-((q - n / 2.0) ** 2) / (2 * sigma**2)) / (
        sigma * math.sqrt(2 * math.pi)
    )
    sup = float(np.abs(dist.probs - normal).max())
    yield GAUSSIAN_SUP_TOL / sigma - sup
    return f"sup-error {sup:.2e} at n=1000"


# ---------------- clustering ----------------


def _product_state_clustering(rng, samples) -> Generator[float, None, str]:
    for n in (4, 6, 8):
        geo = lattice.LatticeGeometry(1, n)
        psi = _random_product_input(n, rng)
        rep = clustering.verify_cluster_property(psi, geo, 0, tol=EXACT_TOL)
        yield EXACT_TOL - rep.max_violation
        if rep.effective_range != 0:
            yield EXACT_TOL - 1.0
    return "range 0 for products"


def _range_vs_spreading(rng, samples) -> Generator[float, None, str]:
    """Correlations reach at most twice the measured operator spread."""
    tested = 0
    for tested, (geo, _, circ, spread) in enumerate(_spread_circuits(samples, rng), 1):
        psi = circuits.apply_circuit(_random_product_input(geo.n_sites, rng), circ)
        rep = clustering.verify_cluster_property(psi, geo, 2 * spread, MARGIN_TOL)
        yield 2 * spread - rep.effective_range + INTEGER_SLACK
    return f"{tested} circuits"


def _correlator_norm_cap(rng, samples) -> Generator[float, None, str]:
    for n in (3, 4, 5):
        state = _random_state_or_matrix(n, rng, pure=n % 2 == 1)
        for _ in range(_count(5, samples)):
            ops = []
            for _ in range(2):
                h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                h = h + h.conj().T
                ops.append(h / np.linalg.norm(h, 2))
            val = clustering.connected_correlator(state, 0, n - 1, ops[0], ops[1])
            yield 2.0 - abs(val) + MARGIN_TOL
    return "unit-norm observables"


def _negative_controls_flagged(rng, samples) -> Generator[float, None, str]:
    """Long-range states must be detected; the variance cap must fail for ghz."""
    failures = 0
    n = 10
    geo = lattice.LatticeGeometry(1, n)
    ghz_rep = clustering.verify_cluster_property(states.ghz_state(n), geo, 0)
    if ghz_rep.effective_range != geo.diameter:
        failures += 1
    kink_rep = clustering.verify_cluster_property(closedforms.kink_state(n), geo, 0)
    if kink_rep.effective_range != geo.diameter:
        failures += 1
    dicke_geo = lattice.LatticeGeometry(1, 8)
    dicke_rep = clustering.verify_cluster_property(
        closedforms.dicke_state(8, 4, axis="x"), dicke_geo, 0
    )
    if dicke_rep.effective_range != dicke_geo.diameter:
        failures += 1
    var = clustering.variance_bound_check(states.ghz_state(n), geo, 0)
    if var.passed:
        failures += 1
    yield INTEGER_SLACK - failures
    return f"ghz variance excess {var.variance - var.bound:+.1f}"


_BOUND_CHECKS = (
    ("ball-translation-invariance", _ball_translation_invariance),
    ("ball-growth-saturation", _ball_growth_saturation),
    ("spreading-within-lightcone", _spreading_within_lightcone),
    ("circuit-trace-purity", _circuit_trace_purity),
    ("channel-trace-preserving", _channel_trace_preserving),
    ("entropy-unitary-invariance", _entropy_unitary_invariance),
    ("measurement-entropy-monotone", _measurement_entropy_monotone),
    ("pure-state-saturation", _pure_state_saturation),
    ("asymmetry-log-cap", _asymmetry_log_cap),
    ("massey-strict", _massey_strict),
    ("circuit-bound-chain", _circuit_bound_chain),
    ("charge-twirl-idempotent", _charge_twirl_idempotent),
    ("charge-fixed-point-iff", _charge_fixed_point_iff),
    ("symmetric-channel-monotone", _symmetric_channel_monotone),
    ("schur-unitarity", _schur_unitarity),
    ("sector-dimension-identity", _sector_dimension_identity),
    ("rotation-twirl-idempotent", _rotation_twirl_idempotent),
    ("rotation-twirl-covariance", _rotation_twirl_covariance),
    ("sector-entropy-bound", _sector_entropy_bound),
    ("twirl-quadrature-match", _twirl_quadrature_match),
    ("rotation-fixed-point-iff", _rotation_fixed_point_iff),
    ("collective-moment-cap", _collective_moment_cap),
    ("global-rotation-invariance", _global_rotation_invariance),
    ("krawtchouk-recurrence-accuracy", _krawtchouk_recurrence_accuracy),
    ("closed-form-vs-statevector", _closed_form_vs_statevector),
    ("bernoulli-entropy-maximum", _bernoulli_entropy_maximum),
    ("gaussian-tail-accuracy", _gaussian_tail_accuracy),
    ("product-state-clustering", _product_state_clustering),
    ("range-vs-spreading", _range_vs_spreading),
    ("correlator-norm-cap", _correlator_norm_cap),
    ("negative-controls-flagged", _negative_controls_flagged),
)


# ---------------- worked-example oracles ----------------


def _oracle_kink(rng) -> Generator[float, None, str]:
    for n in (4, 10):
        dist = closedforms.kink_distribution(n)
        brute = u1.charge_distribution(closedforms.kink_state(n))
        yield EXACT_TOL - np.abs(dist.probs - brute.probs).max()
        yield EXACT_TOL - abs(u1.shannon_entropy(dist) - math.log(n))
    expected = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
    yield EXACT_TOL - np.abs(closedforms.kink_distribution(4).probs - expected).max()
    n = 12
    state = closedforms.kink_state(n)
    for alpha in np.linspace(0.1, 2 * math.pi - 0.1, 50):
        measured = u1.generating_function(state, alpha)
        formula = (
            np.exp(1j * alpha)
            * (np.exp(1j * alpha * n) - 1.0)
            / (n * (np.exp(1j * alpha) - 1.0))
        )
        yield EXACT_TOL - abs(measured - formula)
    return "n=4,10,12"


def _oracle_dicke_coefficients(rng) -> Generator[float, None, str]:
    expected = np.array([math.sqrt(3.0 / 8.0), math.sqrt(1.0 / 8.0),
                         -math.sqrt(1.0 / 8.0), -math.sqrt(3.0 / 8.0)])
    coeffs = closedforms.dicke_x_coefficients(3, 1)
    yield EXACT_TOL - np.abs(coeffs - expected).max()
    return "n=3 k=1 against hand expansion"


def _oracle_dicke_half(rng) -> Generator[float, None, str]:
    probs = closedforms.dicke_half_distribution(2).probs
    yield EXACT_TOL - np.abs(probs - np.array([3 / 8, 0, 1 / 4, 0, 3 / 8])).max()
    m = 11
    p = closedforms.dicke_half_distribution(m).probs
    yield EXACT_TOL - np.abs(p - p[::-1]).max()
    # the ratio recurrence against the ln k! table route
    table = closedforms.dicke_half_charge_prob(m, np.arange(2 * m + 1))
    yield EXACT_TOL - np.abs(p - table).max()
    half_center = closedforms.dicke_half_charge_prob(500, 500)
    arcsine = 2.0 / (math.pi * 500.0)
    rel = abs(half_center - arcsine) / arcsine
    yield ASYMPTOTIC_TOL - rel
    return f"center-density relative gap {rel:.4f}"


def _oracle_krawtchouk(rng) -> Generator[float, None, str]:
    n = 12
    for k in range(n + 1):
        yield KRAWTCHOUK_REL_TOL - abs(closedforms.krawtchouk(0, k, n) - 1.0)
    n = 8
    binom = np.array([closedforms.binomial(n, i) for i in range(n + 1)], dtype=float)
    kk = np.array(
        [[closedforms.krawtchouk(i, k, n) for k in range(n + 1)] for i in range(n + 1)]
    )
    gram = (kk * binom[:, None]).T @ kk
    target = np.diag([2.0**n / closedforms.binomial(n, k) for k in range(n + 1)])
    yield KRAWTCHOUK_REL_TOL - np.abs(gram - target).max() / target.max()
    return "degree-0 row and orthogonality"


def _oracle_bernoulli_sum(rng) -> Generator[float, None, str]:
    p3 = closedforms.poisson_binomial([1.0, 1.0, 1.0]).probs
    yield IDENTITY_TOL - np.abs(p3 - np.array([0, 0, 0, 1.0])).max()
    phalf = closedforms.poisson_binomial([0.5, 0.5]).probs
    yield IDENTITY_TOL - np.abs(phalf - np.array([0.25, 0.5, 0.25])).max()
    pmix = closedforms.poisson_binomial([0.2, 0.7]).probs
    yield IDENTITY_TOL - np.abs(pmix - np.array([0.24, 0.62, 0.14])).max()
    x = rng.random(9)
    tree = closedforms.poisson_binomial(x)
    dp = closedforms._poisson_binomial_dp(x)
    yield IDENTITY_TOL - np.abs(tree.probs - dp.probs).max()
    k = x.size + 1
    alphas = 2 * math.pi * np.arange(k) / k
    values = np.array(
        [np.prod(np.exp(1j * a) * x + 1.0 - x) for a in alphas]
    )
    fourier = u1.distribution_from_generating_function(values)
    yield IDENTITY_TOL - np.abs(tree.probs - fourier.probs).max()
    return "tree vs dp and fourier inversion"


def _oracle_arcsine(rng) -> Generator[float, None, str]:
    arc = closedforms.arcsine_density()
    yield QUADRATURE_TOL - abs(arc.normalization() - 1.0)
    exact = -math.log(math.pi / 4.0)
    yield QUADRATURE_TOL - abs(arc.entropy_integral() - exact)
    flat = closedforms.flat_density()
    flat_estimate = closedforms.continuous_asymmetry_estimate(flat, 100)
    yield QUADRATURE_TOL - abs(flat_estimate - math.log(100))
    m = 1000
    dist = closedforms.dicke_half_distribution(m)
    table = closedforms.density_from_distribution(dist.probs)
    est = closedforms.continuous_asymmetry_estimate(table, dist.probs.size)
    gap = abs(est - u1.shannon_entropy(dist))
    yield ASYMPTOTIC_TOL - gap
    return f"table estimate within {gap:.2e} of the exact entropy"


def _oracle_charge_correlators(rng) -> Generator[float, None, str]:
    n = 6
    psi = _random_product_input(n, rng)
    yield EXACT_TOL - abs(clustering.connected_correlator(psi, 0, n - 1))
    ghz = states.ghz_state(n)
    yield EXACT_TOL - abs(clustering.connected_correlator(ghz, 0, n - 1) - 0.25)
    layer = [circuits.Gate((2 * i, 2 * i + 1), circuits.cnot_gate()) for i in range(2)]
    bell_layer = circuits.BrickworkCircuit(4, (tuple(
        circuits.Gate((2 * i,), circuits.hadamard_gate()) for i in range(2)
    ), tuple(layer)))
    bell = circuits.apply_circuit(states.zero_state(4), bell_layer)
    inside = clustering.connected_correlator(bell, 0, 1)
    across = clustering.connected_correlator(bell, 1, 2)
    yield EXACT_TOL - abs(abs(inside) - 0.25)
    yield EXACT_TOL - abs(across)
    plus = states.plus_state(10)
    var = clustering.variance_bound_check(plus, lattice.LatticeGeometry(1, 10), 0)
    yield EXACT_TOL - abs(var.variance - 2.5)
    kink_var = clustering.variance_bound_check(
        closedforms.kink_state(10), lattice.LatticeGeometry(1, 10), 10
    )
    for cap in (var, kink_var):
        if not cap.passed:
            yield EXACT_TOL - 1.0
    return "product, ghz, bell pairs"


def _oracle_spreading(rng) -> Generator[float, None, str]:
    """Known spreads; each circuit also goes through the dense reference route."""
    geo6 = lattice.LatticeGeometry(1, 6)
    geo8 = lattice.LatticeGeometry(1, 8)
    swap_layer = circuits.BrickworkCircuit(
        6,
        (tuple(circuits.Gate((2 * i, 2 * i + 1), circuits.swap_gate()) for i in range(3)),),
    )
    cases = (
        (circuits.BrickworkCircuit(6, ()), geo6, 0),
        (swap_layer, geo6, 1),
        (circuits.random_brickwork(geo8, 2, rng), geo8, None),
    )
    excesses = []
    mismatches = 0
    for circ, geo, exact in cases:
        spread = clustering.operator_spreading_range(circ, geo)
        mismatches += spread != clustering._dense_spreading_range(circ, geo)
        excesses.append(spread - 2 if exact is None else abs(spread - exact))
    # every mismatch counts against each term
    for excess in excesses:
        yield INTEGER_SLACK - mismatches - excess
    return "identity, swap layer, depth-2"


def _oracle_polarized(rng) -> Generator[float, None, str]:
    for n in range(2, 8):
        rep = su2.su2_asymmetry(states.zero_state(n))
        yield EXACT_TOL - abs(rep.delta_s - math.log(n + 1))
        yield EXACT_TOL - abs(rep.bound_sector_entropy - rep.delta_s)
        # the per-spin basis against the coupled identity on all 2^n rows
        blocks = su2.build_schur_basis(n).dense()
        yield EXACT_TOL - np.abs(blocks - su2._dense_schur_basis(n)).max()
    for n in (4, 6):
        # block-route twirled entropy against the eigensolve of the assembled twirl
        rho = states.random_density_matrix(n, rng)
        yield EXACT_TOL - _dense_twirl_gap(su2.su2_twirl, su2.su2_asymmetry, rho)
    for n in (2, 4, 6, 8, 3, 5, 7):
        # a pure state and a rank-4 rho, each with its exact factor, against the same
        # matrix without it, one spin_sectors reading each: the coupling route against
        # the basis route, Gram-matrix S(rho), every spin moment off the coupled R_s
        # against the gather of rho's entries, <S^2> = sum_s p_s s(s+1) against the
        # moments, and, at n = 2, 4 and 6, the rotated factor and, on each route, the
        # frame-free Casimir lhs against <S^2> - <Sz^2> of the turned state (a dense
        # gauge rotation from n = 7 on costs as much as the rest); odd n is drawn last,
        # so the even-n inputs stay as they were
        a = rng.standard_normal((2**n, 4)) + 1j * rng.standard_normal((2**n, 4))
        factored = DensityMatrix.from_factor(a / np.linalg.norm(a))
        for state in (states.random_state(n, rng), factored):
            bare = DensityMatrix(state.matrix)
            coupled, basis = su2.spin_sectors(state), su2.spin_sectors(bare)
            gap = su2.su2_asymmetry(coupled).delta_s - su2.su2_asymmetry(basis).delta_s
            table, spins = coupled.table, coupled.table.spins
            casimir = float(np.sum(table.p_s * spins * (spins + 1)))
            yield EXACT_TOL - abs(gap)
            yield EXACT_TOL - abs(casimir - coupled.moments["s2"])
            yield from (EXACT_TOL - abs(coupled.moments[k] - v) for k, v in basis.moments.items())
            yield EXACT_TOL - np.abs(table.p_sm - basis.table.p_sm).max()
            if n in (2, 4, 6):
                moved, dense = (su2.spin_moments(su2.zero_transverse_rotation(st)[0])
                                for st in (state, bare))
                yield from (EXACT_TOL - abs(moved[k] - dense[k]) for k in dense)
                for st, turned in ((coupled, moved), (basis, dense)):
                    lhs = su2.casimir_constraint_check(st, lattice.LatticeGeometry(1, n), 1).lhs
                    yield EXACT_TOL - abs(lhs - (turned["s2"] - turned["sz2"]))
    return (
        "fully polarized state saturates the sector bound, n=2..7; blocks vs dense basis"
        " and twirl; coupled F vs basis route and moment gather of rho, pure and rank 4, n=2..8"
    )


def _oracle_charge_eigenstate(rng) -> Generator[float, None, str]:
    """z Dicke states have no charge asymmetry; the charge-sector route matches the dense twirl."""
    for n, k in ((4, 2), (5, 1)):
        yield EXACT_TOL - u1.u1_asymmetry(closedforms.dicke_state(n, k, axis="z")).delta_s
    for n in (4, 6):
        factored = states.random_density_matrix(n, rng, rank=4)
        for rho in (factored, DensityMatrix(factored.matrix)):
            yield EXACT_TOL - _dense_twirl_gap(u1.u1_twirl, u1.u1_asymmetry, rho)
    return "z dicke states; sector vs dense twirl"


def _oracle_fits(rng) -> Generator[float, None, str]:
    kink_pts = [(n, u1.shannon_entropy(closedforms.kink_distribution(n)))
                for n in (100, 1000, 10000)]
    fit = closedforms.asymptotic_fit(kink_pts)

    prod_pts = []
    for n in (16, 64, 256, 1024, 4096, 10000):
        dist = closedforms.poisson_binomial(np.full(n, 0.5))
        prod_pts.append((n, u1.shannon_entropy(dist)))
    pfit = closedforms.asymptotic_fit(prod_pts)

    dicke_pts = [
        (n, u1.shannon_entropy(closedforms.dicke_half_distribution(n // 2)))
        for n in (100, 1000, 10000, 100000)
    ]
    linear = closedforms.asymptotic_fit(dicke_pts)
    corrected = closedforms.asymptotic_fit(dicke_pts, correction_power=0.5)
    yield 1.0 - abs(fit.slope - 1.0) / KINK_FIT_TOL
    yield 1.0 - abs(fit.intercept) / KINK_FIT_TOL
    yield ASYMPTOTIC_TOL - abs(pfit.slope - 0.5)
    yield ASYMPTOTIC_TOL - abs(corrected.slope - 1.0)
    return (
        f"slopes: kink {fit.slope:.6f}, product {pfit.slope:.4f}, "
        f"dicke {corrected.slope:.4f} (uncorrected {linear.slope:.4f})"
    )


def _oracle_channel_purity(rng) -> Generator[float, None, str]:
    bell_circ = circuits.BrickworkCircuit(
        2,
        (
            (circuits.Gate((0,), circuits.hadamard_gate()),),
            (circuits.Gate((0, 1), circuits.cnot_gate()),),
        ),
    )
    bell = circuits.apply_circuit(states.zero_state(2), bell_circ)
    p = 0.3
    flipped = circuits.apply_channel(bell, circuits.phase_flip_channel(0, p))
    # two-outcome mixture of orthogonal pure states: purity (1-p)^2 + p^2
    yield EXACT_TOL - abs(flipped.purity() - ((1 - p) ** 2 + p**2))
    depol = circuits.apply_channel(bell, circuits.depolarizing_channel(0, p))
    lam = 1.0 - 4.0 * p / 3.0
    yield EXACT_TOL - abs(depol.purity() - (1.0 + 3.0 * lam**2) / 4.0)
    return f"phase-flip 0.58, depolarizing {(1.0 + 3.0 * lam**2) / 4.0:.2f}"


def _oracle_flat_saturation(rng) -> Generator[float, None, str]:
    for n in (4, 10, 1000):
        dist = u1.flat_distribution(n + 1)
        yield EXACT_TOL - abs(u1.shannon_entropy(dist) - math.log(n + 1))
    return "uniform over n+1 charges"


_ORACLE_CHECKS = (
    ("kink-worked-examples", _oracle_kink),
    ("dicke-expansion-coefficients", _oracle_dicke_coefficients),
    ("dicke-half-worked-examples", _oracle_dicke_half),
    ("krawtchouk-worked-examples", _oracle_krawtchouk),
    ("bernoulli-sum-worked-examples", _oracle_bernoulli_sum),
    ("arcsine-and-table-integrals", _oracle_arcsine),
    ("charge-correlator-examples", _oracle_charge_correlators),
    ("spreading-examples", _oracle_spreading),
    ("polarized-rotation-asymmetry", _oracle_polarized),
    ("charge-eigenstate-null-asymmetry", _oracle_charge_eigenstate),
    ("scaling-fit-examples", _oracle_fits),
    ("channel-purity-examples", _oracle_channel_purity),
    ("flat-distribution-saturation", _oracle_flat_saturation),
)


def _run(table, seed: int, first_salt: int, *args, names=None) -> list[CheckResult]:
    """Run the checks of ``table`` named in ``names`` (all when None), in table order.

    A check's margin is the least term it yields, NaN if any term is NaN, and
    +inf if it yields none.  Check k draws from ``default_rng([seed,
    first_salt + k])`` whichever checks run.  A check that raises
    ValidationError is a failed result with margin -inf, and the checks after
    it still run.
    """
    unknown = set() if names is None else names - {name for name, _ in table}
    if unknown:
        raise ValidationError(f"unknown check names: {sorted(unknown)}")
    results = []
    for k, (name, check) in enumerate(table):
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng([int(seed), first_salt + k])
        terms, body = [], check(rng, *args)
        try:
            while True:
                terms.append(next(body))
        except StopIteration as done:
            # the least term; np.min, unlike the builtin, keeps a NaN, so a NaN fails
            margin, detail = float(np.min(terms, initial=math.inf)), done.value
        except ValidationError as exc:
            margin, detail = -math.inf, f"raised {type(exc).__name__}: {exc}"
        # Massey's cap is the one strict inequality: it must hold with room to spare
        results.append(CheckResult(name, margin, detail, strict=name == "massey-strict"))
    return results


def bound_suite(seed: int = 0, samples: float = 1.0, names=None) -> list[CheckResult]:
    """Run the inequality battery; ``samples`` scales every random draw count.

    ``names`` selects checks by name, spelled with ``-`` or ``_``; check k of
    ``_BOUND_CHECKS`` has salt 1 + k.
    """
    wanted = None if names is None else {n.replace("_", "-") for n in names}
    return _run(_BOUND_CHECKS, seed, 1, samples, names=wanted)


def oracle_suite(seed: int = 0) -> list[CheckResult]:
    """Re-derive the worked examples through independent routes; oracle k has salt 1000 + k."""
    return _run(_ORACLE_CHECKS, seed, 1000)
