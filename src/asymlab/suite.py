"""Named verification batteries: inequality checks and worked-example oracles.

``bound_suite`` exercises every structural invariant the package promises
(twirl algebra, entropy bounds, clustering and lightcone certificates) on
seeded random inputs; ``oracle_suite`` re-derives worked examples through
independent routes.  Both return a list of CheckResult so callers can render
a check -> margin matrix.  A check is a function of its generator (and, for
bound checks, the draw scale) that returns only its margin, tolerance included,
and a detail line; its name and seed salt come from its place in the suite's
ordered ``(name, check)`` table and its pass/fail from ``tolerances.holds``
(margin >= 0, > 0 for massey-strict).

A property that holds for either symmetry group is one private body, and the
U(1) row and the SU(2) row each call it with their group's twirl and asymmetry
functions; rows that draw the same inputs share one generator of them.  Every
row keeps its own function, sizes, draw count, tolerance and detail line.  A
check is recognised by its first parameter being ``rng``, so no helper takes
``rng`` first: the shared bodies and generators take it last.
"""

from __future__ import annotations

import math
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


def _schur_block_defect(basis: su2.SchurBasis) -> float:
    """Largest deviation of the per-spin columns from an orthogonal Schur transform.

    The rows must partition 0..2^N-1 by weight, and the columns of every spin
    on weight w must fill a square block B_w (exact; a failure counts as 1).
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
        return 1.0
    worst = 0.0
    for block in blocks:
        # B_w^T B_w - I, the identity taken off the fresh product in place
        gram = block.T @ block
        gram[np.diag_indices_from(gram)] -= 1.0
        worst = max(worst, float(np.abs(gram).max()))
    for two_s, columns in basis.paths.items():
        base = (n - two_s) // 2
        # the top spin's last column sits on weight N, with nothing to lower onto
        for c, vectors in enumerate(columns[: n - base]):
            lowered = _lowered_block(basis, base + c, vectors)
            if c < two_s:
                lowered -= columns[c + 1] * math.sqrt((two_s - c) * (c + 1))
            worst = max(worst, float(np.abs(lowered).max()))
    return worst


# ---------------- bodies that twin rows share ----------------


def _idempotence_gap(twirl, inputs) -> float:
    """Largest entry of G(G(rho)) - G(rho) over ``inputs``, G the group's ``twirl``."""
    worst = 0.0
    for state in inputs:
        once = twirl(state)
        worst = max(worst, float(np.abs(twirl(once).matrix - once.matrix).max()))
    return worst


def _fixed_point_margin(twirl, asymmetry, sizes, draws: int, rng) -> float:
    """Zero ``asymmetry`` on every twirled rho; positive on each rho the ``twirl`` moves.

    ``draws`` random density matrices at each of ``sizes`` qubits.
    """
    margin = math.inf
    for n in sizes:
        for _ in range(draws):
            rho = states.random_density_matrix(n, rng)
            sym = twirl(rho)
            margin = min(margin, ZERO_ASYMMETRY - asymmetry(sym).delta_s)
            moved = float(np.abs(sym.matrix - rho.matrix).max())
            if moved > SYMMETRY_BREAK_MIN:
                margin = min(margin, asymmetry(rho).delta_s - ZERO_ASYMMETRY)
    return margin


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


def _ball_translation_invariance(rng, samples) -> tuple[float, str]:
    worst = 0
    scanned = 0
    for d in (1, 2):
        for m in range(2, 7):
            geo = lattice.LatticeGeometry(d, m)
            for radius in range(geo.diameter + 1):
                counts = {
                    lattice.ball(geo, x, radius).size for x in range(geo.n_sites)
                }
                ref = lattice.neighborhood_cardinality(geo, radius)
                worst = max(worst, max(abs(c - ref) for c in counts))
                scanned += 1
    return INTEGER_SLACK - worst, f"{scanned} (geometry, radius) pairs"


def _ball_growth_saturation(rng, samples) -> tuple[float, str]:
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
    return INTEGER_SLACK - violations, "d=1,2 m=2..6"


# ---------------- circuits and entropy ----------------


def _spreading_within_lightcone(rng, samples) -> tuple[float, str]:
    margin, tested = math.inf, 0
    for tested, (_, depth, _, spread) in enumerate(_spread_circuits(samples, rng), 1):
        margin = min(margin, lattice.lightcone_range(depth) - spread + INTEGER_SLACK)
    return margin, f"{tested} circuits"


def _circuit_trace_purity(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for n, m in ((4, 4), (6, 6)):
        geo = lattice.LatticeGeometry(1, m)
        for _ in range(_count(5, samples)):
            rho = states.random_density_matrix(n, rng, rank=3)
            out = circuits.apply_circuit(rho, circuits.random_brickwork(geo, 3, rng))
            worst = max(worst, abs(np.trace(out.matrix).real - 1.0))
            worst = max(worst, abs(out.purity() - rho.purity()))
    return IDENTITY_TOL - worst, "depth-3 brickwork, n=4,6"


def _channel_trace_preserving(rng, samples) -> tuple[float, str]:
    worst = 0.0
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
            worst = max(worst, abs(np.trace(out.matrix).real - 1.0))
    return IDENTITY_TOL - worst, "4 channel families"


def _entropy_unitary_invariance(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for n in (2, 4, 6):
        for _ in range(_count(5, samples)):
            rho = states.random_density_matrix(n, rng, rank=min(4, 2**n))
            s0 = states.von_neumann_entropy(rho)
            umat = circuits.haar_unitary(2**n, rng)
            rot = DensityMatrix(umat @ rho.matrix @ umat.conj().T)
            worst = max(worst, abs(states.von_neumann_entropy(rot) - s0))
    return ENTROPY_MATCH_TOL - worst, "haar conjugation"


def _measurement_entropy_monotone(rng, samples) -> tuple[float, str]:
    """Averaged post-selection entropy never exceeds the prior entropy."""
    margin = math.inf
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
            margin = min(margin, s0 - avg + MARGIN_TOL)
    return margin, "sector projections"


# ---------------- abelian asymmetry ----------------


def _pure_state_saturation(rng, samples) -> tuple[float, str]:
    """Dense-twirl asymmetry equals the charge entropy on pure states."""
    worst = 0.0
    draws = _count(200, samples)
    for k in range(draws):
        n = 2 + k % 5
        psi = states.random_state(n, rng)
        h = u1.shannon_entropy(u1.charge_distribution(psi))
        dense = states.von_neumann_entropy(u1.u1_twirl(psi))
        worst = max(worst, abs(dense - h))
    return ENTROPY_MATCH_TOL - worst, f"{draws} states, n<=6"


def _asymmetry_log_cap(rng, samples) -> tuple[float, str]:
    margin = math.inf
    for k in range(_count(40, samples)):
        n = 2 + k % 4
        state = _random_state_or_matrix(n, rng, pure=k % 2 == 1)
        rep = u1.u1_asymmetry(state)
        margin = min(margin, math.log(n + 1) - rep.delta_s + MARGIN_TOL)
    return margin, "random pure and mixed states"


def _massey_strict(rng, samples) -> tuple[float, str]:
    margin = math.inf
    for k in range(_count(40, samples)):
        n = 2 + k % 5
        state = _random_state_or_matrix(n, rng, pure=k % 2 == 1)
        dist = u1.charge_distribution(state)
        if dist.variance <= 0.0:
            continue
        margin = min(margin, u1.massey_bound(dist.variance) - u1.shannon_entropy(dist))
    for n in (4, 10, 16):
        dist = u1.flat_distribution(n + 1)
        margin = min(margin, u1.massey_bound(dist.variance) - u1.shannon_entropy(dist))
    return margin, "entropy strictly below variance cap"


def _circuit_bound_chain(rng, samples) -> tuple[float, str]:
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
    margin = min(slack["massey"], *(slack[key] + MARGIN_TOL
                                    for key in ("correlator", "variance", "clustering")))
    return margin, (
        f"{total} brickwork circuits, 1d and 2d, depth<=3; least raw slack: "
        f"correlators beyond the claimed range {slack['correlator']:+.2e}, "
        f"variance cap {slack['variance']:.3g}, clustering cap {slack['clustering']:.3g} "
        f"(each with tol {MARGIN_TOL:g}), Massey {slack['massey']:.3g} (strict)"
    )


def _charge_twirl_idempotent(rng, samples) -> tuple[float, str]:
    mixed = (states.random_density_matrix(n, rng) for n in (2, 3, 4, 5))
    return EXACT_TOL - _idempotence_gap(u1.u1_twirl, mixed), "n=2..5"


def _charge_fixed_point_iff(rng, samples) -> tuple[float, str]:
    """Zero asymmetry exactly on twirl-fixed states, positive otherwise."""
    margin = _fixed_point_margin(u1.u1_twirl, u1.u1_asymmetry, (2, 3, 4), _count(10, samples), rng)
    return margin, "both implications"


def _symmetric_channel_monotone(rng, samples) -> tuple[float, str]:
    margin = math.inf
    count = _count(20, samples)
    for k in range(count):
        n = 2 + k % 4
        rho = states.random_density_matrix(n, rng)
        before = u1.u1_asymmetry(rho).delta_s
        umat = circuits.charge_conserving_unitary(n, rng)
        rotated = DensityMatrix(umat @ rho.matrix @ umat.conj().T)
        margin = min(margin, before - u1.u1_asymmetry(rotated).delta_s + MARGIN_TOL)
        for chan in (
            circuits.random_diagonal_phase_channel(k % n, 0.5, rng),
            circuits.full_dephasing_channel((k + 1) % n),
        ):
            out = circuits.apply_channel(rho, chan)
            margin = min(margin, before - u1.u1_asymmetry(out).delta_s + MARGIN_TOL)
    return margin, f"{count} states, conserving unitaries and dephasing"


# ---------------- rotation-group asymmetry ----------------


def _schur_unitarity(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for n in (2, 4, 6, 8, 10, 12):
        worst = max(worst, _schur_block_defect(su2.build_schur_basis(n)))
    return IDENTITY_TOL - worst, "n=2..12"


def _sector_dimension_identity(rng, samples) -> tuple[float, str]:
    violations = 0
    for n in range(2, 13, 2):
        total = sum(
            (2 * s + 1) * su2.multiplicity(n, s) for s in range(n // 2 + 1)
        )
        if total != 2**n:
            violations += 1
    return INTEGER_SLACK - violations, "sum (2s+1) n_s = 2^n, n=2..12"


def _rotation_twirl_idempotent(rng, samples) -> tuple[float, str]:
    inputs = _pure_then_mixed((2, 4, 6), rng)
    return IDENTITY_TOL - _idempotence_gap(su2.su2_twirl, inputs), "n=2,4,6"


def _rotation_twirl_covariance(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for rho, umat, rotated in _globally_rotated(samples, rng):
        left = su2.su2_twirl(rotated)
        right = DensityMatrix(su2.global_rotation(su2.su2_twirl(rho).matrix, umat))
        worst = max(worst, float(np.abs(left.matrix - right.matrix).max()))
    return ROTATION_COVARIANCE_TOL - worst, "global rotations"


def _sector_entropy_bound(rng, samples) -> tuple[float, str]:
    margin = math.inf
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
            margin = min(margin, rep.bound_sector_entropy - rep.delta_s + MARGIN_TOL)
            margin = min(margin, rep.bound_support_dim - rep.delta_s + MARGIN_TOL)
            tested += 1
    return margin, f"{tested} states: random, mixed, dicke, circuit"


def _twirl_quadrature_match(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for state in _pure_then_mixed((2, 4, 6), rng):
        exact = su2.su2_twirl(state)
        quad = su2.su2_twirl_haar(state)
        worst = max(worst, float(np.abs(exact.matrix - quad.matrix).max()))
    return HAAR_MATCH_TOL - worst, "6 states, n<=6: Schur twirl vs Euler quadrature"


def _rotation_fixed_point_iff(rng, samples) -> tuple[float, str]:
    margin = _fixed_point_margin(su2.su2_twirl, su2.su2_asymmetry, (2, 4), _count(5, samples), rng)
    return margin, "both implications"


def _collective_moment_cap(rng, samples) -> tuple[float, str]:
    """Second-moment caps for gauged circuit states, main and precursor."""
    margin = math.inf
    total = _count(100, samples)
    sizes = (4, 6, 8)
    for k in range(total):
        n = sizes[k % len(sizes)]
        geo = lattice.LatticeGeometry(1, n)
        depth = 1 + k % 2
        circ = circuits.random_brickwork(geo, depth, rng)
        psi = circuits.apply_circuit(_random_product_input(n, rng), circ)
        sectors = su2.spin_sectors(su2.zero_transverse_rotation(psi)[0])
        moments = sectors.moments
        margin = min(margin, TRANSVERSE_TOL - max(abs(moments["sx"]), abs(moments["sy"])))
        rep = su2.casimir_constraint_check(sectors, geo, 2 * lattice.lightcone_range(depth))
        margin = min(margin, rep.bound - rep.lhs + MARGIN_TOL)
        margin = min(margin, rep.bound - rep.precursor_lhs + MARGIN_TOL)
    return margin, f"{total} gauged circuit states, n=4..8"


def _global_rotation_invariance(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for rho, _, moved in _globally_rotated(samples, rng):
        worst = max(worst, abs(su2.su2_asymmetry(moved).delta_s - su2.su2_asymmetry(rho).delta_s))
    return ENTROPY_MATCH_TOL - worst, "asymmetry is gauge-blind"


# ---------------- closed forms ----------------


def _krawtchouk_recurrence_accuracy(rng, samples) -> tuple[float, str]:
    n = 30
    worst = 0.0
    for i in range(n + 1):
        for k in range(n + 1):
            exact = closedforms.krawtchouk_exact(i, k, n)
            approx = closedforms.krawtchouk(i, k, n)
            if exact == 0:
                worst = max(worst, abs(approx))
            else:
                ref = float(Fraction(exact))
                worst = max(worst, abs(approx - ref) / abs(ref))
    return KRAWTCHOUK_REL_TOL - worst, "all i,k at n=30"


def _closed_form_vs_statevector(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for n in range(2, 15, 2):
        exact = closedforms.dicke_half_distribution(n // 2).probs
        brute = u1.charge_distribution(closedforms.dicke_state(n, n // 2, axis="x"))
        worst = max(worst, float(np.abs(exact - brute.probs).max()))
    for n, k in ((9, 3), (11, 4)):
        exact = closedforms.dicke_x_distribution(n, k).probs
        brute = u1.charge_distribution(closedforms.dicke_state(n, k, axis="x"))
        worst = max(worst, float(np.abs(exact - brute.probs).max()))
    for n in range(2, 15):
        exact = closedforms.kink_distribution(n).probs
        brute = u1.charge_distribution(closedforms.kink_state(n))
        worst = max(worst, float(np.abs(exact - brute.probs).max()))
    return IDENTITY_TOL - worst, "dicke and kink, n<=14"


def _bernoulli_entropy_maximum(rng, samples) -> tuple[float, str]:
    """The homogeneous 1/2 profile maximizes the sum entropy."""
    n = 8
    ref = u1.shannon_entropy(closedforms.poisson_binomial(np.full(n, 0.5)))
    total = _count(10000, samples)
    margin = math.inf
    for _ in range(total):
        x = rng.random(n)
        margin = min(margin, ref - u1.shannon_entropy(closedforms.poisson_binomial(x)))
    return margin, f"{total} perturbations, n=8"


def _gaussian_tail_accuracy(rng, samples) -> tuple[float, str]:
    n = 1000
    dist = closedforms.poisson_binomial(np.full(n, 0.5))
    sigma = math.sqrt(n / 4.0)
    q = np.arange(n + 1)
    normal = np.exp(-((q - n / 2.0) ** 2) / (2 * sigma**2)) / (
        sigma * math.sqrt(2 * math.pi)
    )
    sup = float(np.abs(dist.probs - normal).max())
    return GAUSSIAN_SUP_TOL / sigma - sup, f"sup-error {sup:.2e} at n=1000"


# ---------------- clustering ----------------


def _product_state_clustering(rng, samples) -> tuple[float, str]:
    worst = 0.0
    for n in (4, 6, 8):
        geo = lattice.LatticeGeometry(1, n)
        psi = _random_product_input(n, rng)
        rep = clustering.verify_cluster_property(psi, geo, 0, tol=EXACT_TOL)
        worst = max(worst, rep.max_violation)
        if rep.effective_range != 0:
            worst = max(worst, 1.0)
    return EXACT_TOL - worst, "range 0 for products"


def _range_vs_spreading(rng, samples) -> tuple[float, str]:
    """Correlations reach at most twice the measured operator spread."""
    margin, tested = math.inf, 0
    for tested, (geo, _, circ, spread) in enumerate(_spread_circuits(samples, rng), 1):
        psi = circuits.apply_circuit(_random_product_input(geo.n_sites, rng), circ)
        rep = clustering.verify_cluster_property(psi, geo, 2 * spread, MARGIN_TOL)
        margin = min(margin, 2 * spread - rep.effective_range + INTEGER_SLACK)
    return margin, f"{tested} circuits"


def _correlator_norm_cap(rng, samples) -> tuple[float, str]:
    margin = math.inf
    for n in (3, 4, 5):
        state = _random_state_or_matrix(n, rng, pure=n % 2 == 1)
        for _ in range(_count(5, samples)):
            ops = []
            for _ in range(2):
                h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                h = h + h.conj().T
                ops.append(h / np.linalg.norm(h, 2))
            val = clustering.connected_correlator(state, 0, n - 1, ops[0], ops[1])
            margin = min(margin, 2.0 - abs(val) + MARGIN_TOL)
    return margin, "unit-norm observables"


def _negative_controls_flagged(rng, samples) -> tuple[float, str]:
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
    return INTEGER_SLACK - failures, f"ghz variance excess {var.variance - var.bound:+.1f}"


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


def _oracle_kink(rng) -> tuple[float, str]:
    worst = 0.0
    for n in (4, 10):
        dist = closedforms.kink_distribution(n)
        brute = u1.charge_distribution(closedforms.kink_state(n))
        worst = max(worst, float(np.abs(dist.probs - brute.probs).max()))
        worst = max(worst, abs(u1.shannon_entropy(dist) - math.log(n)))
    expected = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
    worst = max(worst, float(np.abs(closedforms.kink_distribution(4).probs - expected).max()))
    n = 12
    state = closedforms.kink_state(n)
    for alpha in np.linspace(0.1, 2 * math.pi - 0.1, 50):
        measured = u1.generating_function(state, alpha)
        formula = (
            np.exp(1j * alpha)
            * (np.exp(1j * alpha * n) - 1.0)
            / (n * (np.exp(1j * alpha) - 1.0))
        )
        worst = max(worst, abs(measured - formula))
    return EXACT_TOL - worst, "n=4,10,12"


def _oracle_dicke_coefficients(rng) -> tuple[float, str]:
    expected = np.array([math.sqrt(3.0 / 8.0), math.sqrt(1.0 / 8.0),
                         -math.sqrt(1.0 / 8.0), -math.sqrt(3.0 / 8.0)])
    coeffs = closedforms.dicke_x_coefficients(3, 1)
    worst = float(np.abs(coeffs - expected).max())
    return EXACT_TOL - worst, "n=3 k=1 against hand expansion"


def _oracle_dicke_half(rng) -> tuple[float, str]:
    worst = 0.0
    probs = closedforms.dicke_half_distribution(2).probs
    worst = max(worst, float(np.abs(probs - np.array([3 / 8, 0, 1 / 4, 0, 3 / 8])).max()))
    m = 11
    p = closedforms.dicke_half_distribution(m).probs
    worst = max(worst, float(np.abs(p - p[::-1]).max()))
    # the ratio recurrence against the ln k! table route
    table = closedforms.dicke_half_charge_prob(m, np.arange(2 * m + 1))
    worst = max(worst, float(np.abs(p - table).max()))
    half_center = closedforms.dicke_half_charge_prob(500, 500)
    arcsine = 2.0 / (math.pi * 500.0)
    rel = abs(half_center - arcsine) / arcsine
    return min(EXACT_TOL - worst, ASYMPTOTIC_TOL - rel), f"center-density relative gap {rel:.4f}"


def _oracle_krawtchouk(rng) -> tuple[float, str]:
    worst = 0.0
    n = 12
    for k in range(n + 1):
        worst = max(worst, abs(closedforms.krawtchouk(0, k, n) - 1.0))
    n = 8
    binom = np.array([closedforms.binomial(n, i) for i in range(n + 1)], dtype=float)
    kk = np.array(
        [[closedforms.krawtchouk(i, k, n) for k in range(n + 1)] for i in range(n + 1)]
    )
    gram = (kk * binom[:, None]).T @ kk
    target = np.diag([2.0**n / closedforms.binomial(n, k) for k in range(n + 1)])
    rel = float(np.abs(gram - target).max() / target.max())
    worst = max(worst, rel)
    return KRAWTCHOUK_REL_TOL - worst, "degree-0 row and orthogonality"


def _oracle_bernoulli_sum(rng) -> tuple[float, str]:
    worst = 0.0
    p3 = closedforms.poisson_binomial([1.0, 1.0, 1.0]).probs
    worst = max(worst, float(np.abs(p3 - np.array([0, 0, 0, 1.0])).max()))
    phalf = closedforms.poisson_binomial([0.5, 0.5]).probs
    worst = max(worst, float(np.abs(phalf - np.array([0.25, 0.5, 0.25])).max()))
    pmix = closedforms.poisson_binomial([0.2, 0.7]).probs
    worst = max(worst, float(np.abs(pmix - np.array([0.24, 0.62, 0.14])).max()))
    x = rng.random(9)
    tree = closedforms.poisson_binomial(x)
    dp = closedforms._poisson_binomial_dp(x)
    worst = max(worst, float(np.abs(tree.probs - dp.probs).max()))
    k = x.size + 1
    alphas = 2 * math.pi * np.arange(k) / k
    values = np.array(
        [np.prod(np.exp(1j * a) * x + 1.0 - x) for a in alphas]
    )
    fourier = u1.distribution_from_generating_function(values)
    worst = max(worst, float(np.abs(tree.probs - fourier.probs).max()))
    return IDENTITY_TOL - worst, "tree vs dp and fourier inversion"


def _oracle_arcsine(rng) -> tuple[float, str]:
    arc = closedforms.arcsine_density()
    worst = abs(arc.normalization() - 1.0)
    exact = -math.log(math.pi / 4.0)
    worst = max(worst, abs(arc.entropy_integral() - exact))
    flat = closedforms.flat_density()
    worst = max(worst, abs(closedforms.continuous_asymmetry_estimate(flat, 100) - math.log(100)))
    m = 1000
    dist = closedforms.dicke_half_distribution(m)
    table = closedforms.density_from_distribution(dist.probs)
    est = closedforms.continuous_asymmetry_estimate(table, dist.probs.size)
    gap = abs(est - u1.shannon_entropy(dist))
    return (
        min(QUADRATURE_TOL - worst, ASYMPTOTIC_TOL - gap),
        f"table estimate within {gap:.2e} of the exact entropy",
    )


def _oracle_charge_correlators(rng) -> tuple[float, str]:
    worst = 0.0
    n = 6
    psi = _random_product_input(n, rng)
    worst = max(worst, abs(clustering.connected_correlator(psi, 0, n - 1)))
    ghz = states.ghz_state(n)
    worst = max(worst, abs(clustering.connected_correlator(ghz, 0, n - 1) - 0.25))
    layer = [circuits.Gate((2 * i, 2 * i + 1), circuits.cnot_gate()) for i in range(2)]
    bell_layer = circuits.BrickworkCircuit(4, (tuple(
        circuits.Gate((2 * i,), circuits.hadamard_gate()) for i in range(2)
    ), tuple(layer)))
    bell = circuits.apply_circuit(states.zero_state(4), bell_layer)
    inside = clustering.connected_correlator(bell, 0, 1)
    across = clustering.connected_correlator(bell, 1, 2)
    worst = max(worst, abs(abs(inside) - 0.25))
    worst = max(worst, abs(across))
    plus = states.plus_state(10)
    var = clustering.variance_bound_check(plus, lattice.LatticeGeometry(1, 10), 0)
    worst = max(worst, abs(var.variance - 2.5))
    if not var.passed:
        worst = max(worst, 1.0)
    kink_var = clustering.variance_bound_check(
        closedforms.kink_state(10), lattice.LatticeGeometry(1, 10), 10
    )
    if not kink_var.passed:
        worst = max(worst, 1.0)
    return EXACT_TOL - worst, "product, ghz, bell pairs"


def _oracle_spreading(rng) -> tuple[float, str]:
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
    worst = 0
    mismatches = 0
    for circ, geo, exact in cases:
        spread = clustering.operator_spreading_range(circ, geo)
        mismatches += spread != clustering._dense_spreading_range(circ, geo)
        excess = spread - 2 if exact is None else abs(spread - exact)
        worst = max(worst, excess)
    worst += mismatches
    return INTEGER_SLACK - worst, "identity, swap layer, depth-2"


def _oracle_polarized(rng) -> tuple[float, str]:
    worst = 0.0
    for n in range(2, 8):
        rep = su2.su2_asymmetry(states.zero_state(n))
        worst = max(worst, abs(rep.delta_s - math.log(n + 1)))
        worst = max(worst, abs(rep.bound_sector_entropy - rep.delta_s))
        # the per-spin basis against the coupled identity on all 2^n rows
        blocks = su2.build_schur_basis(n).dense()
        worst = max(worst, float(np.abs(blocks - su2._dense_schur_basis(n)).max()))
    for n in (4, 6):
        # block-route twirled entropy against the eigensolve of the assembled twirl
        rho = states.random_density_matrix(n, rng)
        worst = max(worst, _dense_twirl_gap(su2.su2_twirl, su2.su2_asymmetry, rho))
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
            worst = max(worst, abs(gap), abs(casimir - coupled.moments["s2"]),
                        max(abs(coupled.moments[k] - v) for k, v in basis.moments.items()),
                        float(np.abs(table.p_sm - basis.table.p_sm).max()))
            if n in (2, 4, 6):
                moved, dense = (su2.spin_moments(su2.zero_transverse_rotation(st)[0])
                                for st in (state, bare))
                worst = max(worst, max(abs(moved[k] - dense[k]) for k in dense))
                for st, turned in ((coupled, moved), (basis, dense)):
                    lhs = su2.casimir_constraint_check(st, lattice.LatticeGeometry(1, n), 1).lhs
                    worst = max(worst, abs(lhs - (turned["s2"] - turned["sz2"])))
    return (
        EXACT_TOL - worst,
        "fully polarized state saturates the sector bound, n=2..7; blocks vs dense basis"
        " and twirl; coupled F vs basis route and moment gather of rho, pure and rank 4, n=2..8",
    )


def _oracle_charge_eigenstate(rng) -> tuple[float, str]:
    """z Dicke states have no charge asymmetry; the charge-sector route matches the dense twirl."""
    worst = 0.0
    for n, k in ((4, 2), (5, 1)):
        rep = u1.u1_asymmetry(closedforms.dicke_state(n, k, axis="z"))
        worst = max(worst, rep.delta_s)
    for n in (4, 6):
        factored = states.random_density_matrix(n, rng, rank=4)
        for rho in (factored, DensityMatrix(factored.matrix)):
            worst = max(worst, _dense_twirl_gap(u1.u1_twirl, u1.u1_asymmetry, rho))
    return EXACT_TOL - worst, "z dicke states; sector vs dense twirl"


def _oracle_fits(rng) -> tuple[float, str]:
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
    margin = min(
        1.0 - max(abs(fit.slope - 1.0), abs(fit.intercept)) / KINK_FIT_TOL,
        ASYMPTOTIC_TOL - abs(pfit.slope - 0.5),
        ASYMPTOTIC_TOL - abs(corrected.slope - 1.0),
    )
    return (
        margin,
        f"slopes: kink {fit.slope:.6f}, product {pfit.slope:.4f}, "
        f"dicke {corrected.slope:.4f} (uncorrected {linear.slope:.4f})",
    )


def _oracle_channel_purity(rng) -> tuple[float, str]:
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
    worst = abs(flipped.purity() - ((1 - p) ** 2 + p**2))
    depol = circuits.apply_channel(bell, circuits.depolarizing_channel(0, p))
    lam = 1.0 - 4.0 * p / 3.0
    worst = max(worst, abs(depol.purity() - (1.0 + 3.0 * lam**2) / 4.0))
    return EXACT_TOL - worst, f"phase-flip 0.58, depolarizing {(1.0 + 3.0 * lam**2) / 4.0:.2f}"


def _oracle_flat_saturation(rng) -> tuple[float, str]:
    worst = 0.0
    for n in (4, 10, 1000):
        dist = u1.flat_distribution(n + 1)
        worst = max(worst, abs(u1.shannon_entropy(dist) - math.log(n + 1)))
    return EXACT_TOL - worst, "uniform over n+1 charges"


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

    Check k draws from ``default_rng([seed, first_salt + k])`` whichever checks
    run.  A check that raises ValidationError is a failed result with margin
    -inf, and the checks after it still run.
    """
    unknown = set() if names is None else names - {name for name, _ in table}
    if unknown:
        raise ValidationError(f"unknown check names: {sorted(unknown)}")
    results = []
    for k, (name, check) in enumerate(table):
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng([int(seed), first_salt + k])
        try:
            margin, detail = check(rng, *args)
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
