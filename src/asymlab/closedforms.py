"""Closed-form charge distributions and large-N scaling helpers.

Everything here avoids statevectors, so sweeps can run far beyond the
simulation caps.  ``binomial`` is exact (``math.comb``); the closed forms
that need binomials of large n use log-factorials (an exact table below
STIRLING_CUTOFF, the Stirling series above it); oscillatory Krawtchouk values
come from a three-term recurrence, with the alternating sum kept only as an
exact-rational oracle.
The continuous densities integrate by a tanh-sinh rule.  numpy is the only
numeric dependency.

Each sweep distribution costs O(N) work, and its probability vector is its
only N-sized array: the kink and half-filled Dicke forms build the vector
and hand it to ``ChargeDistribution.from_fresh_probs`` without a copy (the
moments and the entropy run over fixed-size blocks).  The half-filled Dicke
form steps a ratio recurrence over the even charges q <= m, with two
N/4-long temporaries and no ln k! table, and mirrors them;
``dicke_half_charge_prob`` keeps the ln k! table as the independent route
that gates it.  A homogeneous product is ``binomial_distribution``, a ratio
recurrence from the mode.  ``poisson_binomial`` (a product tree) serves
per-site means, with the O(N^2) dynamic program ``_poisson_binomial_dp`` as
its reference.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ValidationError
from .states import StateVector, _check_cap, bit_weights, product_state, statevector_cap
from .tolerances import FIT_SPAN_FLOOR, NORMALIZATION_TOL, TANH_SINH_TOL
from .u1 import ChargeDistribution

# ln k! is read from a table of math.lgamma below this k and from the Stirling series above
STIRLING_CUTOFF = 32
_LN_FACTORIAL_TABLE = np.array([math.lgamma(k + 1.0) for k in range(STIRLING_CUTOFF)])
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# step halvings the tanh-sinh rule may take to reach TANH_SINH_TOL
TANH_SINH_MAX_LEVELS = 8
# the rule's t range is [-T, T]; at t = 4 a node lies within e^-85 of its endpoint
TANH_SINH_T_MAX = 4


def _integer_array(k, name: str) -> np.ndarray:
    k = np.asarray(k)
    if k.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be integers, got dtype {k.dtype}")
    return k


def ln_factorial(k) -> np.ndarray | float:
    """ln k! for integers k >= 0; k may be an array.

    Below STIRLING_CUTOFF the value is read from a table of ``math.lgamma``;
    from there on it is the Stirling series
    ln k! = k (ln k - 1) + (1/2) ln(2 pi k) + sum_j B_2j / (2j (2j - 1) k^(2j-1))
    with its Bernoulli terms through 1/k^11, whose truncation error at the
    cutoff is below 1e-21.
    """
    k = _integer_array(k, "ln_factorial arguments")
    if np.any(k < 0):
        raise ValidationError("ln_factorial needs k >= 0")
    flat = k.reshape(-1)
    x = np.maximum(flat, STIRLING_CUTOFF, dtype=float)
    # in place, step for step the nested form
    # x (ln x - 1) + ((ln x / 2 + ln(2 pi) / 2) + r (1/12 + r2 (-1/360 + ...)))
    r = np.reciprocal(x)
    r2 = np.square(r)
    series = r2 * (-691 / 360360)
    for c in (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360):
        series += c
        series *= r2
    series += 1 / 12
    series *= r
    lx = np.log(x, out=r)
    out = np.subtract(lx, 1.0, out=r2)
    out *= x
    lx *= 0.5
    lx += _HALF_LN_2PI
    lx += series
    out += lx
    small = flat < STIRLING_CUTOFF
    out[small] = _LN_FACTORIAL_TABLE[flat[small]]
    return out.reshape(k.shape) if k.ndim else float(out[0])


def log_binomial(n: int, k) -> np.ndarray | float:
    """ln C(n, k) from log-factorials, for integers 0 <= k <= n; k may be an array."""
    k = np.asarray(k)
    out = np.asarray(ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k))
    return out if out.ndim else float(out)


def binomial(n: int, k: int) -> float:
    """C(n, k) as the float nearest the exact integer, or 0.0 outside 0 <= k <= n."""
    return float(math.comb(n, k)) if 0 <= k <= n else 0.0


def _check_kraw_args(i: int, k: int, n: int):
    if n < 0 or not 0 <= i <= n or not 0 <= k <= n:
        raise ValidationError(f"need 0 <= i,k <= n, got i={i}, k={k}, n={n}")


def _krawtchouk_steps(x, d_max: int, n: int):
    """Yield K_0(x), ..., K_{d_max}(x) of the degree recurrence; x is an int or int array."""
    prev, cur = 1.0, 1.0
    yield cur
    for d in range(d_max):
        if d == 0:
            nxt = (n - 2.0 * x) / n
        else:
            nxt = ((n - 2.0 * x) * cur - d * prev) / (n - d)
        prev, cur = cur, nxt
        yield cur


def krawtchouk(i: int, k: int, n: int) -> float:
    """Symmetric Krawtchouk polynomial K_i(k; 1/2, n), K_0 = 1.

    Evaluated by the degree recurrence
    (n - d) K_{d+1}(x) = (n - 2x) K_d(x) - d K_{d-1}(x),
    run over the smaller of (i, k); the polynomial is symmetric in i and k.
    """
    _check_kraw_args(i, k, n)
    d_max, x = (i, k) if i <= k else (k, i)
    return deque(_krawtchouk_steps(x, d_max, n), maxlen=1)[0]


def krawtchouk_exact(i: int, k: int, n: int) -> Fraction:
    """Alternating-sum definition with exact rational arithmetic (oracle)."""
    _check_kraw_args(i, k, n)
    total = sum((-1) ** j * math.comb(n - k, i - j) * math.comb(k, j) for j in range(min(i, k) + 1))
    return Fraction(total, math.comb(n, i))


def dicke_state(n: int, k: int, axis: str = "z") -> StateVector:
    """Uniform superposition of the weight-k basis states (k sites in |1>).

    ``axis='x'`` returns the Hadamard-rotated state H^{(x) n} |D_k^z>.
    """
    if not 0 <= k <= n:
        raise ValidationError(f"excitation number k={k} outside [0, {n}]")
    _check_cap(n, statevector_cap(), "statevector")
    amps = np.zeros(2**n, dtype=complex)
    support = np.flatnonzero(bit_weights(n) == k)
    amps[support] = 1.0 / np.sqrt(support.size)
    state = StateVector(amps)
    if axis == "z":
        return state
    if axis != "x":
        raise ValidationError(f"axis must be 'z' or 'x', got {axis!r}")
    from .circuits import BrickworkCircuit, Gate, apply_circuit, hadamard_gate

    layer = tuple(Gate((j,), hadamard_gate()) for j in range(n))
    return apply_circuit(state, BrickworkCircuit(n, (layer,)))


def dicke_x_coefficients(n: int, k: int) -> np.ndarray:
    """Coefficients of H^{(x) n}|D_k^z> in the z Dicke basis, index i = 0..n.

    c_i = 2^{-n/2} sqrt(C(n,i) C(n,k)) K_i(k; 1/2, n), assembled in log space.
    K_i(k) is ``krawtchouk(i, k, n)`` step for step: for i <= k every step of
    one recurrence at x = k, and for i > k the degree-k recurrence run once
    over the vector x = k+1..n.
    """
    if not 0 <= k <= n:
        raise ValidationError(f"excitation number k={k} outside [0, {n}]")
    kr = np.empty(n + 1)
    kr[: k + 1] = list(_krawtchouk_steps(k, k, n))
    kr[k + 1 :] = deque(_krawtchouk_steps(np.arange(k + 1, n + 1), k, n), maxlen=1)[0]
    log_ci = log_binomial(n, np.arange(n + 1))
    log_mag = -0.5 * n * np.log(2.0) + 0.5 * (log_ci + log_binomial(n, k))
    out = np.zeros(n + 1)
    nz = kr != 0.0
    out[nz] = np.sign(kr[nz]) * np.exp(log_mag[nz] + np.log(np.abs(kr[nz])))
    return out


def dicke_x_distribution(n: int, k: int) -> ChargeDistribution:
    """Charge distribution of the x-basis Dicke state with k excitations.

    The coefficient index i counts |1> sites, so charge q = n - i.
    """
    coeffs = dicke_x_coefficients(n, k)
    probs = coeffs[::-1] ** 2
    return ChargeDistribution.from_probs(probs)


def dicke_half_charge_prob(m: int, q) -> np.ndarray | float:
    """Charge probabilities of the half-filled x Dicke state on N = 2m sites.

    Odd charges carry zero weight; for even q,
    p = 2^{-2m} C(2m, m) C(2m, q)^{-1} C(m, q/2)^2, with all three binomials
    gathered from one table of ln k!, k = 0..2m.  This is the independent
    route that gates the recurrence of ``dicke_half_distribution``.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    q = _integer_array(q, "charges")
    if np.any((q < 0) | (q > 2 * m)):
        raise ValidationError(f"charges must lie in [0, {2 * m}]")
    even = q % 2 == 0
    half = np.where(even, q // 2, 0)
    table = ln_factorial(np.arange(2 * m + 1))

    def log_binom(n, k):
        return table[n] - table[k] - table[n - k]

    log_p = (
        -2.0 * m * np.log(2.0)
        + log_binom(2 * m, m)
        - log_binom(2 * m, q)
        + 2.0 * log_binom(m, half)
    )
    out = np.where(even, np.exp(log_p), 0.0)
    return out if out.ndim else float(out)


def dicke_half_distribution(m: int) -> ChargeDistribution:
    """Full charge distribution of the half-filled x Dicke state, q = 0..2m.

    The closed form of ``dicke_half_charge_prob`` is stepped over the even
    q <= m by the ratio recurrence
    p(q + 2) / p(q) = ((q + 1)(2m - q)) / ((q + 2)(2m - q - 1)),
    that is ((2h + 1)(m - h)) / ((h + 1)(2m - 2h - 1)) at q = 2h, from
    p(0) = C(2m, m) / 4^m, and mirrored by p(q) = p(2m - q); odd charges stay
    exactly 0, so the vector is exactly symmetric.  Numerator and denominator
    are integers, exact in floats while m < 9e7, so each ratio is one rounded
    quotient and each step one rounded product: p(q) carries about q
    roundings, and no ln k! table is built.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    probs = np.zeros(2 * m + 1)
    lower = probs[: m + 1 : 2]
    ratios = lower[1:]
    q = np.arange(0.0, 2.0 * ratios.size, 2.0)
    np.subtract(2.0 * m, q, out=ratios)
    q += 1.0
    ratios *= q
    den = np.subtract(2.0 * m, q)
    q += 1.0
    den *= q
    ratios /= den
    lower[0] = math.exp(log_binomial(2 * m, m) - 2.0 * m * math.log(2.0))
    np.cumprod(lower, out=lower)
    probs[m + 1 :] = probs[m - 1 :: -1]
    # exactly normalized in exact arithmetic; p(0) carries the rounding of
    # ln (2m)! (9e-10 relative at m = 1e6, against exact integers), which
    # scales the whole vector, so rescale before validation
    probs /= probs.sum()
    return ChargeDistribution.from_fresh_probs(probs)


def kink_state(n: int) -> StateVector:
    """Uniform superposition of the n domain walls |0^j 1^(n-j)>, j = 1..n."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    _check_cap(n, statevector_cap(), "statevector")
    amps = np.zeros(2**n, dtype=complex)
    for j in range(1, n + 1):
        amps[2 ** (n - j) - 1] = 1.0 / np.sqrt(n)
    return StateVector(amps)


def kink_distribution(n: int) -> ChargeDistribution:
    """Charge distribution of the kink state: flat 1/n on q = 1..n, zero at q = 0."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    probs = np.full(n + 1, 1.0 / n)
    probs[0] = 0.0
    return ChargeDistribution.from_fresh_probs(probs)


def _bernoulli_means(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValidationError("x must be a non-empty 1-d array")
    # written so that a NaN mean fails too
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValidationError("Bernoulli means must lie in [0, 1]")
    return x


def poisson_binomial(x) -> ChargeDistribution:
    """Distribution of a sum of independent Bernoulli(x_j) charges.

    The generating polynomial prod_j (1 - x_j + x_j t) is multiplied out as a
    balanced tree: neighbouring factors are convolved pairwise (``np.convolve``,
    direct sums of nonnegative terms) level by level until one polynomial is
    left: the same sums of nonnegative products as the one-factor-at-a-time
    dynamic program that ``_poisson_binomial_dp`` keeps as the reference, with
    N - 1 calls into C instead of N Python steps over the whole array.
    """
    x = _bernoulli_means(x)
    polys = list(np.stack([1.0 - x, x], axis=1))
    while len(polys) > 1:
        paired = [np.convolve(a, b) for a, b in zip(polys[::2], polys[1::2])]
        polys = paired + polys[len(paired) * 2 :]
    return ChargeDistribution.from_fresh_probs(polys[0])


def binomial_distribution(n: int, x: float) -> ChargeDistribution:
    """Binomial(n, x): the ``poisson_binomial`` of n equal means x, in O(n).

    The vector steps out from the mode k0 = min(floor((n + 1) x), n), set to 1,
    by the ratios p_{k+1} / p_k = ((n - k) x) / ((k + 1)(1 - x)) upward and
    p_{k-1} / p_k = (k (1 - x)) / ((n - k + 1) x) downward, each at most about
    1, so nothing overflows; it is normalised at the end.  An entry j steps from
    the mode carries about 4j roundings, within the 4 n eps that the tree meets.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"Bernoulli mean must lie in [0, 1], got {x!r}")
    y = 1.0 - x
    mode = min(int((n + 1) * x), n)
    probs = np.empty(n + 1)
    probs[mode] = 1.0
    up = probs[mode + 1 :]
    k = np.arange(mode, n, dtype=float)
    np.multiply(n - k, x, out=up)
    up /= (k + 1.0) * y
    np.cumprod(up, out=up)
    down = probs[:mode][::-1]
    k = np.arange(mode, 0, -1, dtype=float)
    np.multiply(k, y, out=down)
    down /= (n - k + 1.0) * x
    np.cumprod(down, out=down)
    probs /= probs.sum()
    return ChargeDistribution.from_fresh_probs(probs)


def _poisson_binomial_dp(x) -> ChargeDistribution:
    """Reference route of ``poisson_binomial``: fold in one factor at a time, O(N^2)."""
    x = _bernoulli_means(x)
    probs = np.array([1.0])
    for xj in x:
        nxt = np.zeros(probs.size + 1)
        nxt[:-1] = probs * (1.0 - xj)
        nxt[1:] += probs * xj
        probs = nxt
    return ChargeDistribution.from_probs(probs)


def product_charge_state(x) -> StateVector:
    """Product state with local charge means x_j: sqrt(x)|0> + sqrt(1-x)|1>."""
    x = np.asarray(x, dtype=float)
    locals_ = [np.array([np.sqrt(xj), np.sqrt(1.0 - xj)], dtype=complex) for xj in x]
    return product_state(locals_)


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral of f over [a, b] by the double-exponential (tanh-sinh) rule.

    x = c + d tanh((pi/2) sinh t), with c and d the midpoint and half-width of
    [a, b], turns the integral into one over t whose integrand decays double
    exponentially, so the trapezoid rule in t with step h converges like
    exp(-const/h) even with log singularities at the endpoints.  Each node is
    formed from its distance 2d / (exp(2u) + 1), u = (pi/2) sinh|t|, to the
    nearer endpoint rather than from c, so no node near ``a`` is rounded onto
    it.  ``f`` maps an array of nodes to an array of values.  The step halves
    from 1 until two levels agree within TANH_SINH_TOL; after
    TANH_SINH_MAX_LEVELS levels the rule raises ValidationError.
    """
    c, d = 0.5 * (a + b), 0.5 * (b - a)
    previous = None
    for level in range(TANH_SINH_MAX_LEVELS):
        h = 0.5**level
        n = TANH_SINH_T_MAX * 2**level
        t = h * np.arange(-n, n + 1)
        u = 0.5 * np.pi * np.sinh(np.abs(t))
        offset = 2.0 * d / (np.exp(2.0 * u) + 1.0)
        nodes = np.where(t < 0.0, a + offset, b - offset)
        weights = d * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
        total = h * float(np.sum(weights * f(nodes)))
        if previous is not None and abs(total - previous) <= TANH_SINH_TOL:
            return total
        previous = total
    raise ValidationError(f"tanh-sinh rule did not converge to {TANH_SINH_TOL} "
                          f"after {TANH_SINH_MAX_LEVELS} levels")


@dataclass(frozen=True)
class ContinuousChargeDensity:
    """Coarse-grained charge density p(u) on u in [0, 1].

    ``descriptor`` is one of 'flat', 'arcsine' or 'custom-table'.  Analytic
    descriptors integrate by the tanh-sinh rule (the arcsine through the
    u = sin^2 theta substitution that removes its edge singularities); their
    ``pdf`` maps an array of u to an array of densities.  Tables are histogram
    densities on a uniform midpoint grid and integrate by cell sums.
    """

    descriptor: str
    pdf: Callable[[np.ndarray], np.ndarray] | None = None
    values: np.ndarray | None = None

    def _quad_pair(self) -> tuple[float, float]:
        """(integral of p, integral of p ln p) by the tanh-sinh rule."""
        if self.descriptor == "arcsine":
            def mass(theta):
                return np.full_like(theta, 2.0 / np.pi)

            def plogp(theta):
                s, c = np.sin(theta), np.cos(theta)
                return (2.0 / np.pi) * np.log(1.0 / (np.pi * s * c))

            return tanh_sinh(mass, 0.0, np.pi / 2.0), tanh_sinh(plogp, 0.0, np.pi / 2.0)

        def plogp_u(u):
            p = self.pdf(u)
            return p * np.log(np.where(p > 0.0, p, 1.0))

        return tanh_sinh(self.pdf, 0.0, 1.0), tanh_sinh(plogp_u, 0.0, 1.0)

    def normalization(self) -> float:
        if self.descriptor == "custom-table":
            cell = 1.0 / self.values.size
            return float(np.sum(self.values) * cell)
        return self._quad_pair()[0]

    def entropy_integral(self) -> float:
        """Integral of p ln p over [0, 1]."""
        if self.descriptor == "custom-table":
            cell = 1.0 / self.values.size
            v = self.values[self.values > 0.0]
            return float(np.sum(v * np.log(v)) * cell)
        return self._quad_pair()[1]


def flat_density() -> ContinuousChargeDensity:
    return ContinuousChargeDensity("flat", pdf=np.ones_like)


def arcsine_density() -> ContinuousChargeDensity:
    return ContinuousChargeDensity(
        "arcsine", pdf=lambda u: 1.0 / (np.pi * np.sqrt(u * (1.0 - u)))
    )


def table_density(values) -> ContinuousChargeDensity:
    """Normalized histogram density from K values on the midpoint grid u_j = (j + 1/2)/K."""
    values = np.array(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("table needs at least two density values")
    if not np.all(np.isfinite(values)):
        raise ValidationError("density values must be finite")
    if np.any(values < 0.0):
        raise ValidationError("density values must be nonnegative")
    # a power of two, which rounds no normal value, scales the largest into [0.5, 1): no overflow
    values = np.ldexp(values, -np.frexp(values.max())[1])
    total = float(np.sum(values)) / values.size
    if not total > 0.0:
        raise ValidationError("table has zero total mass")
    values = values / total
    values.flags.writeable = False
    return ContinuousChargeDensity("custom-table", values=values)


def density_from_distribution(probs) -> ContinuousChargeDensity:
    """Histogram density of measured support probabilities (scaled by the cell count)."""
    probs = np.asarray(probs, dtype=float)
    return table_density(probs * probs.size)


def continuous_asymmetry_estimate(density: ContinuousChargeDensity, n: int) -> float:
    """Large-N estimate ln(n) - integral of p ln p for a charge density.

    ``n`` is the number of charge values carrying the distribution; the
    density must be normalized within NORMALIZATION_TOL.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    total = density.normalization()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValidationError(f"density integrates to {total!r}, not 1 within {NORMALIZATION_TOL}")
    return float(np.log(n) - density.entropy_integral())


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_residual: float
    n_points: int
    correction: float | None = None


def asymptotic_fit(points, correction_power: float | None = None) -> FitResult:
    """Least-squares fit value ~ slope * ln(N) + intercept over (N, value) pairs.

    ``correction_power`` adds a known-order finite-size regressor c * N^(-power)
    to the model; the fitted c lands in ``FitResult.correction``.  Sweeps whose
    exact values carry a subleading power-law tail (the half-filled Dicke
    series decays like N^(-1/2) toward its asymptote) need it to read off the
    asymptotic slope from a finite window.
    """
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValidationError(f"need at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if np.any(ns <= 0.0):
        raise ValidationError("N values must be positive")
    logs = np.log(ns)
    if np.ptp(logs) < FIT_SPAN_FLOOR:
        raise ValidationError("N values are degenerate; cannot fit a slope")
    if correction_power is None:
        slope, intercept = np.polyfit(logs, vals, 1)
        residuals = vals - (slope * logs + intercept)
        correction = None
    else:
        if len(pts) < 4:
            raise ValidationError("corrected fit needs at least 4 points")
        design = np.stack([logs, np.ones_like(logs), ns ** (-correction_power)], axis=1)
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        slope, intercept, correction = coef
        residuals = vals - design @ coef
    return FitResult(
        float(slope),
        float(intercept),
        float(np.max(np.abs(residuals))),
        len(pts),
        None if correction is None else float(correction),
    )
