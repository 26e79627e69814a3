"""Exact pure and mixed states of N qubits.

Basis convention: the flat amplitude index encodes site 0 as the most
significant bit, so basis index ``i`` assigns bit ``(i >> (N-1-j)) & 1`` to
site ``j``.  Equivalently ``product_state`` is a plain Kronecker product in
site order.  Local operators follow the same order: ``apply_site_matrix``
reads a k-site operator with its first listed site as the most significant
bit, so ``kron(op_a, op_b)`` on sites ``(a, b)`` puts ``op_a`` on site a
whether a < b or a > b.  States are frozen dataclasses over read-only arrays;
every operation returns a new object.  N is never passed next to an array: a
state or kernel reads it off the 2^N length of the array's leading axis
(``qubit_count``).

Every state answers one protocol, and this module alone knows which kind of
state it holds.  ``factor`` is an exact 2^N x r factor F with rho = F F^dagger
or None: a ``StateVector`` is F = psi, one read-only column; a
``DensityMatrix.from_factor(F)`` holds only F; a ``DensityMatrix(matrix)``
holds rho and has no factor.  ``matrix`` is rho, read-only, formed as
F F^dagger after the density-matrix cap, so an over-cap read allocates
nothing.  A factored ``DensityMatrix`` forms it on its first read and caches
it; a ``StateVector`` forms it anew on each read and never holds it, so a
pure state stays 2^N long after a kernel has read its rho.  ``diagonal()`` is
the squared row norms of F, or diag rho; ``with_factor(F)`` rebuilds a state
of the same kind.

Route rule: a kernel takes at most two routes, chosen by ``state.factor is
None``.  The factor route reads only F and forms no 2^N x 2^N matrix, so a
factored state stays factored through ``von_neumann_entropy``,
``u1.charge_distribution``, ``u1.u1_asymmetry``, ``reduced_density_matrix``,
``circuits.apply_circuit``, ``su2.spin_sectors`` and
``su2.zero_transverse_rotation``; the matrix route reads rho.  Every SU(2)
reading (``su2_asymmetry``, ``sector_distribution``, ``spin_moments``,
``casimir_constraint_check``) is one ``su2.spin_sectors`` of the state: F is
coupled once into spin sectors, with no Schur basis, and each sector leaves
its entropy share and its (2s + 1) x (2s + 1) spin-side matrix R_s, off which
the sector table and the moments are read.  So the Casimir check reads F
unturned and applies no local operator, and a run that also needs Delta S
couples F no second time; only the reference ``zero_transverse_rotation``
turns F, site by site.  Both routes of an entropy end in ``block_entropy``:
of F or rho, of the charge blocks of the U(1) twirl, or of the spin-sector
blocks of the SU(2) twirl.  Operations that need rho itself (the twirls,
channels, ``DensityMatrix.purity``) read ``matrix``, of a pure state too,
and return a matrix-built state.

Caps follow the routes.  A state with a factor is held to the statevector cap
(a factor of r > 1 columns also to ``_check_factor_cap``), so every factor
route runs to it; only ``matrix``, and so a matrix-built state, is held to the
density-matrix cap.

A third route reads no array at all.  ``closed_form`` is None, or, on a
``ClosedFormState``, a thunk for the state's exact charge distribution;
``u1.charge_distribution`` returns it when it is there, so ``u1.u1_asymmetry``
of such a state, which is pure, forms no amplitude.  Every other kernel reads
its ``factor``, formed on first read within the statevector cap.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, ResourceError, ValidationError
from .tolerances import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    NORM_TOL,
    PROBABILITY_FLOOR,
    UNIT_SUM_TOL,
)

DEFAULT_STATEVECTOR_QUBITS = 24
DEFAULT_DENSITY_QUBITS = 12
# entries per block of the O(N) reductions over probability vectors (here and in
# ``u1.ChargeDistribution``): a block's temporaries stay in cache, none is N-sized
REDUCTION_BLOCK = 2**15

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def _env_cap(default: int) -> int:
    env = os.environ.get("ASYMLAB_MAX_QUBITS")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"ASYMLAB_MAX_QUBITS={env!r} is not an integer") from None


def statevector_cap() -> int:
    """Largest N admitted on the statevector path (env ASYMLAB_MAX_QUBITS overrides)."""
    return _env_cap(DEFAULT_STATEVECTOR_QUBITS)


def density_matrix_cap() -> int:
    """Largest N admitted on the density-matrix path (env ASYMLAB_MAX_QUBITS overrides)."""
    return _env_cap(DEFAULT_DENSITY_QUBITS)


def _check_cap(n_qubits: int, cap: int, name: str):
    if n_qubits > cap:
        raise ResourceError(f"N={n_qubits} exceeds the {name} cap of {cap} qubits")


def _check_factor_cap(n_qubits: int, rank: int):
    """Hold a 2^N x r factor to the statevector cap on N, and to the entries of the largest rho.

    The second rule (2^N r <= 4^c, c the density-matrix cap) admits every factor
    of N <= c and keeps a large rank from taking more memory than rho would.
    """
    _check_cap(n_qubits, statevector_cap(), "statevector")
    cap = density_matrix_cap()
    if n_qubits > 2 * cap or rank > 2 ** (2 * cap - n_qubits):
        raise ResourceError(
            f"a rank-{rank} factor on N={n_qubits} qubits exceeds 4^{cap} entries, "
            f"the size of a density matrix at the density-matrix cap of {cap} qubits"
        )


def qubit_count(length: int) -> int:
    """N of an axis of length 2^N; ValidationError for a length that is no power of two."""
    if length < 1 or length & (length - 1):
        raise ValidationError(f"an axis of length {length} is not 2^N long")
    return length.bit_length() - 1


class _QubitState:
    """The state protocol: ``factor``, ``matrix``, ``diagonal()``, ``with_factor(F)``.

    N is read off the 2^N length ``dim`` of whichever array the state holds.
    """

    closed_form = None

    @property
    def dim(self) -> int:
        return (self.matrix if self.factor is None else self.factor).shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def _form_matrix(self) -> np.ndarray:
        """rho = F F^dagger, after the density-matrix cap, so an over-cap read allocates nothing."""
        _check_cap(qubit_count(self.dim), density_matrix_cap(), "density-matrix")
        return _checked_density(self.factor @ self.factor.conj().T)

    def diagonal(self) -> np.ndarray:
        """The computational-basis weights diag rho."""
        if self.factor is None:
            return np.real(np.diag(self.matrix)).copy()
        return np.sum(np.abs(self.factor) ** 2, axis=1)


@dataclass(frozen=True)
class StateVector(_QubitState):
    """Normalized pure state of N qubits, N read off its 2^N amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValidationError(f"amplitudes need one axis, got shape {amps.shape}")
        _check_cap(qubit_count(amps.size), statevector_cap(), "statevector")
        norm = float(np.sum(np.abs(amps) ** 2))
        # isfinite first: an Inf norm would pass the relative test against itself
        if not np.isfinite(norm) or abs(norm - 1.0) > NORM_TOL * max(1.0, norm):
            raise ValidationError(f"statevector norm^2 = {norm!r}, not 1 within {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def factor(self) -> np.ndarray:
        """psi as a read-only 2^N x 1 view."""
        return self.amplitudes[:, None]

    @property
    def matrix(self) -> np.ndarray:
        """psi psi^dagger, formed anew on each read and never held by the state."""
        return self._form_matrix()

    def with_factor(self, factor: np.ndarray) -> "StateVector":
        return StateVector(factor[:, 0])


class ClosedFormState(StateVector):
    """Pure state of N qubits held as two thunks, without its amplitudes.

    ``closed_form()`` returns its exact charge distribution.  The ``dense``
    thunk returns the same state as a ``StateVector``, from a builder that
    checks the statevector cap before it allocates.  ``dim`` is 2^N, so
    reading it or ``n_qubits`` forms nothing; ``amplitudes``, and with them
    ``factor``, ``matrix`` and ``diagonal()``, are the dense state's, formed
    on first read and kept.
    """

    def __init__(self, n_qubits: int, closed_form, dense):
        vars(self).update(_n=n_qubits, closed_form=closed_form, _dense=dense)

    def __repr__(self) -> str:
        return f"ClosedFormState(n_qubits={self._n})"

    @property
    def dim(self) -> int:
        return 2**self._n

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return self._dense().amplitudes


def _squared_norm(arr: np.ndarray) -> float:
    """|arr|^2 summed over all entries, as |Re arr|^2 + |Im arr|^2 of exact squares."""
    return float(np.sum(arr.real**2) + np.sum(arr.imag**2))


def _checked_density(mat: np.ndarray) -> np.ndarray:
    """``mat``, made read-only, once it is a Hermitian unit-trace 2^N x 2^N matrix within the cap.

    Each deviation fails unless it is <= its tolerance, so a NaN fails too.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    _check_cap(qubit_count(mat.shape[0]), density_matrix_cap(), "density-matrix")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the test below rejects
        herm = float(np.max(np.abs(mat - mat.conj().T)))
    if not herm <= HERMITICITY_TOL:
        raise ValidationError(f"matrix deviates from Hermitian by {herm:.3e}")
    tr = complex(np.trace(mat))
    if not abs(tr - 1.0) <= UNIT_SUM_TOL:
        raise ValidationError(f"trace = {tr!r}, not 1 within {UNIT_SUM_TOL}")
    mat.flags.writeable = False
    return mat


# rho is a cached property, not a field, so a generated eq or repr would see only ``factor``
@dataclass(frozen=True, init=False, repr=False, eq=False)
class DensityMatrix(_QubitState):
    """Hermitian, unit-trace 2^N x 2^N operator on N qubits.

    ``DensityMatrix(matrix)`` holds rho itself, and ``factor`` is None.
    ``DensityMatrix.from_factor(F)`` holds only an exact 2^N x r factor F with
    rho = F F^dagger, and forms ``matrix`` on its first read.
    """

    factor: np.ndarray | None

    # reached only with a factor: a matrix-built DensityMatrix holds rho from __init__
    matrix = cached_property(_QubitState._form_matrix)

    def __init__(self, matrix):
        object.__setattr__(self, "factor", None)
        object.__setattr__(self, "matrix", _checked_density(np.array(matrix, dtype=complex)))

    @classmethod
    def from_factor(cls, factor) -> "DensityMatrix":
        """The state rho = F F^dagger, holding a read-only copy of F and no rho.

        F must have two axes, a shape within ``_check_factor_cap`` (N within
        the statevector cap), finite entries and tr rho = |F|_F^2 equal to 1
        within UNIT_SUM_TOL.
        """
        fac = np.array(factor, dtype=complex)
        if fac.ndim != 2:
            raise ValidationError(f"factor needs 2 axes, got shape {fac.shape}")
        _check_factor_cap(qubit_count(fac.shape[0]), fac.shape[1])
        if not np.all(np.isfinite(fac)):
            raise ValidationError("factor has a non-finite entry")
        tr = _squared_norm(fac)
        if not abs(tr - 1.0) <= UNIT_SUM_TOL:
            raise ValidationError(f"factor gives trace {tr!r}, not 1 within {UNIT_SUM_TOL}")
        fac.flags.writeable = False
        state = cls.__new__(cls)
        object.__setattr__(state, "factor", fac)
        return state

    def with_factor(self, factor: np.ndarray) -> "DensityMatrix":
        return DensityMatrix.from_factor(factor)

    def purity(self) -> float:
        # tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
        return float(np.sum(np.abs(self.matrix) ** 2))


State = StateVector | DensityMatrix


def complex_from_pairs(pairs, what: str) -> np.ndarray:
    """Complex vector of a JSON list of ``[re, im]`` pairs of numbers.

    ValidationError, naming ``what``, for anything else: a non-list, an entry
    that is not a 2-element list, or a part that is not a number.  As in JSON
    Schema, a bool is no number, so ``[true, false]`` is not 1.
    """
    if not isinstance(pairs, list):
        raise ValidationError(f"{what} must be a list of [re, im] pairs, got {pairs!r}")
    for index, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise ValidationError(
                f"{what} entry {index} is not an [re, im] pair of numbers: {pair!r}"
            )
    return np.array([complex(re, im) for re, im in pairs])


def _local_is_pure(local: np.ndarray) -> bool:
    return local.ndim == 1


def product_state(locals_: list) -> State:
    """Tensor product of single-qubit states, site 0 first.

    Each entry is either a normalized 2-vector (pure) or a 2x2 density matrix.
    A single mixed factor promotes the result to a DensityMatrix.
    """
    if not locals_:
        raise ValidationError("product_state needs at least one site")
    factors = [np.asarray(f, dtype=complex) for f in locals_]
    n = len(factors)
    for f in factors:
        if f.shape not in ((2,), (2, 2)):
            raise ValidationError(f"local factor has shape {f.shape}, expected (2,) or (2,2)")
    if all(_local_is_pure(f) for f in factors):
        _check_cap(n, statevector_cap(), "statevector")
        amps = np.array([1.0 + 0.0j])
        for f in factors:
            amps = np.kron(amps, f)
        return StateVector(amps)
    _check_cap(n, density_matrix_cap(), "density-matrix")
    mat = np.array([[1.0 + 0.0j]])
    for f in factors:
        rho = f if not _local_is_pure(f) else np.outer(f, f.conj())
        mat = np.kron(mat, rho)
    return DensityMatrix(mat)


def basis_state(bits) -> StateVector:
    """Computational basis state of N = len(bits) qubits from a bit sequence, site 0 first."""
    bits = list(bits)
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("bits must be a sequence of 0/1")
    _check_cap(len(bits), statevector_cap(), "statevector")
    idx = 0
    for b in bits:
        idx = idx * 2 + b
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[idx] = 1.0
    return StateVector(amps)


def zero_state(n_qubits: int) -> StateVector:
    return basis_state([0] * n_qubits)


def plus_state(n_qubits: int) -> StateVector:
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return product_state([v] * n_qubits)


def ghz_state(n_qubits: int) -> StateVector:
    _check_cap(n_qubits, statevector_cap(), "statevector")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(amps)


def random_state(n_qubits: int, rng) -> StateVector:
    """Haar-random pure state from a seeded ``numpy.random.Generator``."""
    rng = np.random.default_rng(rng)
    _check_cap(n_qubits, statevector_cap(), "statevector")
    d = 2**n_qubits
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps /= np.linalg.norm(amps)
    return StateVector(amps)


def random_density_matrix(n_qubits: int, rng, rank: int | None = None) -> DensityMatrix:
    """Random mixed state: normalized Wishart matrix of the given rank.

    rho = A A^dagger / tr for a complex Gaussian 2^N x rank matrix A.  Below
    full rank the state is ``DensityMatrix.from_factor(A / |A|_F)``, held to
    ``_check_factor_cap``, and rho is formed only if read; a full-rank draw
    holds rho, within the density-matrix cap.  Either cap is checked before A
    is drawn.
    """
    rng = np.random.default_rng(rng)
    _check_cap(n_qubits, statevector_cap(), "statevector")
    d = 2**n_qubits
    r = d if rank is None else rank
    if not 1 <= r <= d:
        raise ValidationError(f"rank must lie in [1, {d}], got {rank}")
    if r < d:
        _check_factor_cap(n_qubits, r)
    else:
        _check_cap(n_qubits, density_matrix_cap(), "density-matrix")
    # filled part by part and scaled in place: one complex A and one real draw at a time
    a = np.empty((d, r), dtype=complex)
    a.real = rng.standard_normal((d, r))
    a.imag = rng.standard_normal((d, r))
    if r < d:
        a /= np.sqrt(_squared_norm(a))
        return DensityMatrix.from_factor(a)
    mat = a @ a.conj().T
    mat /= np.real(np.trace(mat))
    return DensityMatrix(mat)


@lru_cache(maxsize=32)
def bit_weights(n_qubits: int) -> np.ndarray:
    """Number of 1-bits of every basis index, shape (2**n_qubits,), read-only."""
    w = np.zeros(2**n_qubits, dtype=np.int64)
    for j in range(n_qubits):
        w += (np.arange(2**n_qubits) >> j) & 1
    w.flags.writeable = False
    return w


def entropy_of_probabilities(probs: np.ndarray) -> float:
    """Shannon entropy in nats; entries below PROBABILITY_FLOOR contribute 0.

    The sum runs over blocks of REDUCTION_BLOCK entries, so no temporary is as
    long as ``probs``; a one-block input takes exactly the unblocked sum.
    """
    p = np.asarray(probs, dtype=float).reshape(-1)
    total, kept = 0.0, 0
    for start in range(0, p.size, REDUCTION_BLOCK):
        block = p[start : start + REDUCTION_BLOCK]
        block = block[block >= PROBABILITY_FLOOR]
        terms = np.log(block)
        terms *= block
        total += float(np.sum(terms))
        kept += block.size
    return -total if kept else 0.0


def floored_spectrum(evals: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix with those in [EIGENVALUE_FLOOR, 0) clamped to 0.

    Anything below the floor raises ValidationError.
    """
    low = float(evals.min(initial=0.0))
    if low < EIGENVALUE_FLOOR:
        raise ValidationError(f"density matrix has eigenvalue {low:.3e} below {EIGENVALUE_FLOOR}")
    return np.clip(evals, 0.0, None)


def block_entropy(block: np.ndarray, factor: bool = False, copies: int = 1) -> float:
    """ln(copies) tr X - tr X ln X in nats, X the Hermitian ``block`` or B B^dagger of a factor B.

    This is the one kernel that turns a spectrum into an entropy: the entropy of
    ``copies`` copies of X / copies, or, when X is one diagonal block of a
    block-diagonal state, that block's share of the state's entropy.  A factor
    block eigensolves the smaller of its Gram matrices B^dagger B and B B^dagger,
    which share their nonzero spectrum.  The spectrum is the ``floored_spectrum``,
    and eigenvalues below PROBABILITY_FLOOR add nothing to -tr X ln X.
    """
    if factor:
        rows, cols = block.shape
        block = block.conj().T @ block if rows >= cols else block @ block.conj().T
    spectrum = floored_spectrum(np.linalg.eigvalsh(block))
    return float(np.log(copies) * spectrum.sum()) + entropy_of_probabilities(spectrum)


def von_neumann_entropy(state: State) -> float:
    """Entropy -Tr[rho ln rho] in nats: the ``block_entropy`` of F, or of rho.

    A state with an exact factor F eigensolves the r x r Gram matrix F^dagger F,
    whose nonzero spectrum is that of rho = F F^dagger; any other
    density matrix is eigensolved whole.  A pure state gives 0.
    """
    if isinstance(state, StateVector):
        return 0.0
    fac = state.factor
    return block_entropy(state.matrix) if fac is None else block_entropy(fac, factor=True)


def apply_site_matrix(arr: np.ndarray, op: np.ndarray, sites) -> np.ndarray:
    """Apply a local operator on ``sites`` to axis 0 of an amplitude array.

    ``sites`` is one site or a tuple of k distinct sites, and ``op`` is a
    2**k x 2**k matrix whose row and column index takes the first listed site
    as its most significant bit.  ``arr`` has a leading axis of length 2**N,
    which fixes N; extra trailing axes ride along, which lets the same
    primitive transform density-matrix rows.  This is the only routine that
    contracts a local operator into an array.
    """
    n_qubits = qubit_count(arr.shape[0])
    sites = (sites,) if isinstance(sites, (int, np.integer)) else tuple(sites)
    op = np.asarray(op)
    k = len(sites)
    for site in sites:
        if not 0 <= site < n_qubits:
            raise ValidationError(f"site {site} outside [0, {n_qubits})")
    if len(set(sites)) != k:
        raise ValidationError(f"sites must be distinct, got {sites}")
    if op.shape != (2**k, 2**k):
        raise ValidationError(f"operator on {k} site(s) needs shape {(2**k, 2**k)}, got {op.shape}")
    if k == 1:
        # einsum, not tensordot: BLAS would spend threads on a memory-bound 2x2 product
        out = np.einsum("rc,acb->arb", op, arr.reshape(2 ** sites[0], 2, -1))
        return out.reshape(arr.shape)
    view = arr.reshape((2,) * n_qubits + arr.shape[1:])
    out = np.tensordot(op.reshape((2,) * (2 * k)), view, axes=(range(k, 2 * k), sites))
    return np.moveaxis(out, range(k), sites).reshape(arr.shape)


def reduced_density_matrix(state: State, sites) -> np.ndarray:
    """Reduced density matrix on ``sites`` (kept in the given order)."""
    sites = list(sites)
    n = state.n_qubits
    if len(set(sites)) != len(sites):
        raise ValidationError(f"sites must be distinct, got {sites}")
    for s in sites:
        if not 0 <= s < n:
            raise ValidationError(f"site {s} outside [0, {n})")
    rest = [s for s in range(n) if s not in sites]
    k = len(sites)
    fac = state.factor
    if fac is not None:
        # tr_rest F F^dagger = T T^dagger, T the kept sites x (rest sites, columns) of F
        tensor = fac.reshape((2,) * n + (fac.shape[1],))
        t = np.transpose(tensor, sites + rest + [n]).reshape(2**k, -1)
        return t @ t.conj().T
    tensor = state.matrix.reshape((2,) * (2 * n))
    perm = sites + rest + [n + s for s in sites] + [n + r for r in rest]
    t = np.transpose(tensor, perm).reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return np.einsum("irjr->ij", t)
