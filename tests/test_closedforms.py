import ast
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import asymlab
from asymlab.closedforms import (
    STIRLING_CUTOFF,
    ContinuousChargeDensity,
    _poisson_binomial_dp,
    arcsine_density,
    asymptotic_fit,
    binomial,
    binomial_distribution,
    continuous_asymmetry_estimate,
    density_from_distribution,
    dicke_half_charge_prob,
    dicke_half_distribution,
    dicke_state,
    dicke_x_coefficients,
    dicke_x_distribution,
    flat_density,
    kink_distribution,
    kink_state,
    krawtchouk,
    krawtchouk_exact,
    ln_factorial,
    log_binomial,
    poisson_binomial,
    product_charge_state,
    table_density,
    tanh_sinh,
)
from asymlab.errors import ValidationError
from asymlab.u1 import charge_distribution, shannon_entropy


def test_log_binomial_matches_exact():
    for n in (5, 30, 200):
        for k in (0, 1, n // 2, n):
            assert_allclose(log_binomial(n, k), math.log(math.comb(n, k)), rtol=1e-12)
    assert binomial(10, 3) == 120.0
    assert binomial(10, 11) == 0.0


def test_binomial_is_exact_past_n_twenty():
    """A log-factorial route gave 155117520.0000016."""
    assert binomial(30, 15) == 155117520.0
    assert binomial(30, -1) == binomial(30, 31) == 0.0


def test_krawtchouk_base_cases_and_symmetry():
    n = 12
    for k in range(n + 1):
        assert krawtchouk(0, k, n) == 1.0
        # K_1(k) = 1 - 2k/n
        assert_allclose(krawtchouk(1, k, n), 1.0 - 2.0 * k / n, atol=1e-14)
    for i in range(n + 1):
        for k in range(n + 1):
            assert_allclose(krawtchouk(i, k, n), krawtchouk(k, i, n), atol=1e-12)


def test_krawtchouk_recurrence_against_exact_fractions():
    n = 25
    for i in range(n + 1):
        for k in range(n + 1):
            exact = krawtchouk_exact(i, k, n)
            approx = krawtchouk(i, k, n)
            if exact == 0:
                assert abs(approx) < 1e-12
            else:
                assert_allclose(approx, float(Fraction(exact)), rtol=1e-10)


def test_krawtchouk_exact_equals_the_stepwise_fraction_sum():
    for n in range(13):
        for i in range(n + 1):
            for k in range(n + 1):
                total = Fraction(0)
                for j in range(min(i, k) + 1):
                    total += Fraction((-1) ** j * math.comb(n - k, i - j) * math.comb(k, j))
                exact = krawtchouk_exact(i, k, n)
                assert isinstance(exact, Fraction)
                assert exact == total / math.comb(n, i), (i, k, n)


def test_krawtchouk_orthogonality():
    n = 10
    weights = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    for i in range(n + 1):
        for j in range(i, n + 1):
            ip = sum(
                weights[k] * krawtchouk(i, k, n) * krawtchouk(j, k, n)
                for k in range(n + 1)
            )
            expected = 2**n / math.comb(n, i) if i == j else 0.0
            assert_allclose(ip, expected, atol=1e-8 * 2**n)


def test_dicke_state_weights():
    psi = dicke_state(4, 2)
    probs = psi.diagonal()
    support = np.flatnonzero(probs > 0)
    assert support.size == 6
    assert_allclose(probs[support], np.full(6, 1.0 / 6.0))
    with pytest.raises(ValidationError):
        dicke_state(3, 4)


def test_dicke_x_coefficients_match_statevector():
    for n, k in ((3, 1), (6, 3), (9, 4)):
        coeffs = dicke_x_coefficients(n, k)
        psi = dicke_state(n, k, axis="x")
        for i in range(n + 1):
            overlap = np.vdot(dicke_state(n, i).amplitudes, psi.amplitudes)
            assert_allclose(overlap.real, coeffs[i], atol=1e-11)
            assert abs(overlap.imag) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 16, 257])
def test_dicke_x_coefficients_repeat_the_per_index_recurrence(n):
    # the loop dicke_x_coefficients replaced: one krawtchouk call per index
    def per_index(n, k):
        out = np.empty(n + 1)
        log_ck = log_binomial(n, k)
        for i in range(n + 1):
            kr = krawtchouk(i, k, n)
            log_mag = -0.5 * n * np.log(2.0) + 0.5 * (log_binomial(n, i) + log_ck)
            out[i] = np.sign(kr) * np.exp(log_mag + np.log(abs(kr))) if kr != 0.0 else 0.0
        return out

    for k in sorted({0, 1, n // 4, n // 2, n - 1, n}):
        assert np.array_equal(dicke_x_coefficients(n, k), per_index(n, k)), (n, k)


def test_dicke_n3_k1_worked_coefficients():
    got = dicke_x_coefficients(3, 1)
    want = np.array(
        [math.sqrt(3.0 / 8.0), math.sqrt(1.0 / 8.0), -math.sqrt(1.0 / 8.0), -math.sqrt(3.0 / 8.0)]
    )
    assert_allclose(got, want, atol=1e-12)


def test_dicke_half_distribution_closed_form():
    d = dicke_half_distribution(2)
    assert_allclose(d.probs, [3.0 / 8.0, 0.0, 1.0 / 4.0, 0.0, 3.0 / 8.0], atol=1e-14)
    # symmetric under q -> 2m - q
    d = dicke_half_distribution(7)
    assert_allclose(d.probs, d.probs[::-1], atol=1e-14)


def test_dicke_half_matches_statevector():
    for m in (1, 2, 3, 5):
        exact = dicke_half_distribution(m).probs
        brute = charge_distribution(dicke_state(2 * m, m, axis="x")).probs
        assert_allclose(exact, brute, atol=1e-12)


@pytest.mark.parametrize("m", [*range(1, 41), 1000])
def test_dicke_half_distribution_is_a_mirror_of_the_closed_form(m):
    probs = dicke_half_distribution(m).probs
    assert np.array_equal(probs, probs[::-1])
    assert np.all(probs[1::2] == 0.0)
    # the table route's own error bound, that of its exact-rational test
    table = dicke_half_charge_prob(m, np.arange(0, 2 * m + 1, 2))
    rel = np.abs(probs[::2] - table) / table
    assert rel.max() <= 4 * np.finfo(float).eps * ln_factorial(2 * m), (m, rel.max())


def test_dicke_half_report_peaks_below_two_probability_vectors():
    import tracemalloc

    from asymlab.u1 import report_from_distribution

    m = 10**6
    tracemalloc.start()
    try:
        report_from_distribution(dicke_half_distribution(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (2 * m + 1), peak


def test_kink_report_allocates_one_probability_vector():
    import tracemalloc

    from asymlab.u1 import report_from_distribution

    n = 10**6
    tracemalloc.start()
    try:
        report_from_distribution(kink_distribution(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (n + 1), peak


def test_dicke_half_large_m_normalizes():
    d = dicke_half_distribution(200000)
    assert_allclose(d.probs.sum(), 1.0, atol=1e-12)
    # center density approaches the arcsine value 2/(pi N)
    n = 400000
    assert_allclose(d.probs[n // 2] , 2.0 / (math.pi * n) * 2.0, rtol=0.01)


def test_dicke_general_k_distribution_matches_statevector():
    for n, k in ((9, 3), (11, 4)):
        exact = dicke_x_distribution(n, k).probs
        brute = charge_distribution(dicke_state(n, k, axis="x")).probs
        assert_allclose(exact, brute, atol=1e-11)


def test_kink_distribution_flat_over_n_charges():
    for n in (1, 4, 10, 1000):
        d = kink_distribution(n)
        assert d.probs[0] == 0.0
        assert_allclose(d.probs[1:], np.full(n, 1.0 / n), atol=1e-15)
        assert_allclose(shannon_entropy(d), math.log(n), atol=1e-12)


def test_kink_state_matches_distribution():
    for n in (2, 5, 9):
        brute = charge_distribution(kink_state(n)).probs
        assert_allclose(brute, kink_distribution(n).probs, atol=1e-13)


def test_poisson_binomial_homogeneous_is_binomial():
    n = 12
    d = poisson_binomial(np.full(n, 0.5))
    binom = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
    assert_allclose(d.probs, binom, atol=1e-14)
    assert_allclose(d.variance, n / 4.0)


def test_poisson_binomial_heterogeneous_worked_example():
    d = poisson_binomial([0.2, 0.7])
    assert_allclose(d.probs, [0.8 * 0.3, 0.2 * 0.3 + 0.8 * 0.7, 0.2 * 0.7], atol=1e-15)


def _exact_bernoulli_sum(x) -> np.ndarray:
    """Exact probabilities of prod_j (1 - x_j + x_j t), rounded once at the end.

    The factors are the floats the code multiplies (1.0 - x_j and x_j), whose
    denominators are powers of two, so one common denominator turns the
    product into integer arithmetic.  The m factors with one value are
    expanded at once by the binomial theorem, and Python's int / int is the
    correctly rounded value of the exact rational.
    """
    counts = Counter(map(float, x))
    factors = {xj: (Fraction(1.0 - xj), Fraction(xj)) for xj in counts}
    den = max(f.denominator for pair in factors.values() for f in pair)
    poly = [1]
    for xj, m in counts.items():
        a, b = (int(f * den) for f in factors[xj])
        a_powers = list(itertools.accumulate([1] + [a] * m, operator.mul))
        b_powers = itertools.accumulate([1] + [b] * m, operator.mul)
        power = [math.comb(m, k) * a_powers[m - k] * bk for k, bk in enumerate(b_powers)]
        nxt = [0] * (len(poly) + m)
        for i, c in enumerate(poly):
            for k, d in enumerate(power):
                nxt[i + k] += c * d
        poly = nxt
    total = den ** sum(counts.values())
    return np.array([c / total for c in poly])


@pytest.mark.parametrize(
    "x",
    [np.full(300, 0.3), np.random.default_rng(5).random(257), np.random.default_rng(6).random(600)],
    ids=["homogeneous-300", "random-257", "random-600"],
)
def test_poisson_binomial_matches_exact_products(x):
    exact = _exact_bernoulli_sum(x)
    got = poisson_binomial(x).probs
    big = exact >= 1e-14
    assert np.max(np.abs(got[big] - exact[big]) / exact[big]) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 64, 255, 1000, 1001, 4095, 4096])
def test_poisson_binomial_tree_matches_dp(n):
    x = np.random.default_rng(n).random(n)
    x[:: max(n // 7, 2)] = 0.0
    x[1 :: max(n // 5, 3)] = 1.0
    tree = poisson_binomial(x).probs
    dp = _poisson_binomial_dp(x).probs
    assert tree.shape == dp.shape == (n + 1,)
    # both are direct sums of nonnegative products: each entry carries at
    # most ~2n roundings, so 4 n eps bounds the relative gap a priori
    normal = dp >= 1e-280
    rel = np.abs(tree[normal] - dp[normal]) / dp[normal]
    assert rel.max() <= 4 * n * np.finfo(float).eps
    assert np.all(tree[~normal] <= 1e-270)


def test_poisson_binomial_edge_cases():
    assert np.array_equal(poisson_binomial([0.3]).probs, [1.0 - 0.3, 0.3])
    assert np.array_equal(poisson_binomial([0.0]).probs, [1.0, 0.0])
    assert np.array_equal(poisson_binomial([1.0]).probs, [0.0, 1.0])
    assert np.array_equal(poisson_binomial([0, 1, 1, 0, 1]).probs, [0, 0, 0, 1.0, 0, 0])
    assert np.array_equal(poisson_binomial(np.zeros(7)).probs, np.eye(8)[0])
    assert np.array_equal(poisson_binomial(np.ones(7)).probs, np.eye(8)[7])
    x = [0.1, 0.25, 0.5, 0.9, 0.0]
    for route in (poisson_binomial, _poisson_binomial_dp):
        assert np.array_equal(route(x).probs, route(np.array(x)).probs)
        assert np.array_equal(route(tuple(x)).probs, route(np.array(x)).probs)
    for bad in ([], [[0.1, 0.2]], [1.2], [-0.1, 0.5], [math.nan, 0.5], [0.5, math.nan]):
        for route in (poisson_binomial, _poisson_binomial_dp):
            with pytest.raises(ValidationError):
                route(bad)
    for n, x in ((3, math.nan), (3, 1.2), (3, -0.1), (0, 0.5), (-1, 0.5)):
        with pytest.raises(ValidationError):
            binomial_distribution(n, x)


@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("n", [1, 2, 300, 1000])
def test_binomial_distribution_matches_exact_products(n, x):
    # the same a-priori bound the tree meets against the DP; the naive
    # exp(log C(n, k) + k ln x + (n - k) ln(1 - x)) misses it at n = 3000
    exact = _exact_bernoulli_sum(np.full(n, x))
    got = binomial_distribution(n, x).probs
    assert got.shape == (n + 1,)
    big = exact >= 1e-14
    assert np.all(np.abs(got[big] - exact[big]) <= 4 * n * np.finfo(float).eps * exact[big])
    assert np.all(got[~big] < 2e-14)


def test_product_charge_state_matches_poisson_binomial():
    x = np.array([0.1, 0.5, 0.9, 0.3])
    psi = product_charge_state(x)
    assert_allclose(
        charge_distribution(psi).probs, poisson_binomial(x).probs, atol=1e-13
    )


def test_flat_and_arcsine_density_integrals():
    flat = flat_density()
    assert_allclose(flat.normalization(), 1.0, atol=1e-10)
    assert_allclose(flat.entropy_integral(), 0.0, atol=1e-10)
    arc = arcsine_density()
    assert_allclose(arc.normalization(), 1.0, atol=1e-10)
    # integral p ln p = -ln(pi/4) for the arcsine law
    assert_allclose(arc.entropy_integral(), -math.log(math.pi / 4.0), atol=1e-10)


def test_continuous_asymmetry_estimate():
    n = 1000
    est = continuous_asymmetry_estimate(arcsine_density(), n)
    assert_allclose(est, math.log(n) + math.log(math.pi / 4.0), atol=1e-10)
    with pytest.raises(ValidationError):
        unnormalized = ContinuousChargeDensity("custom-table", values=np.array([1.0, 3.0]))
        continuous_asymmetry_estimate(unnormalized, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_table_density_rejects_non_finite_values(bad):
    """Before this check a NaN entry gave a table whose estimate at n = 3 was ln 3."""
    with pytest.raises(ValidationError, match="finite"):
        table_density([bad, 1.0, 1.0])
    nan_table = ContinuousChargeDensity("custom-table", values=np.array([np.nan, 1.0, 1.0]))
    with pytest.raises(ValidationError, match="integrates"):
        continuous_asymmetry_estimate(nan_table, 3)


def test_table_density_scales_before_it_sums():
    """Summed first, two entries of 1e308 overflowed to an all-zero table."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = table_density([1e308, 1e308])
    assert table.values.tolist() == [1.0, 1.0]
    assert continuous_asymmetry_estimate(table, 10) == pytest.approx(math.log(10.0))
    with pytest.raises(ValidationError, match="zero total mass"):
        table_density([0.0, 0.0])


def test_table_density_estimates_the_dicke_profile():
    m = 500
    probs = dicke_half_distribution(m).probs
    density = density_from_distribution(probs)
    est = continuous_asymmetry_estimate(density, 2 * m + 1)
    exact = shannon_entropy(dicke_half_distribution(m))
    # histogram estimate of the entropy converges at the percent level
    assert abs(est - exact) < 0.02


def test_asymptotic_fit_recovers_exact_line():
    pts = [(10.0**k, 2.0 * math.log(10.0**k) - 1.0) for k in range(1, 5)]
    fit = asymptotic_fit(pts)
    assert_allclose(fit.slope, 2.0, atol=1e-12)
    assert_allclose(fit.intercept, -1.0, atol=1e-12)
    assert fit.max_residual < 1e-12
    assert fit.correction is None


def test_asymptotic_fit_with_correction_term():
    rng = np.random.default_rng(2)
    ns = np.array([100.0, 1000.0, 10000.0, 100000.0, 1000000.0])
    vals = 1.5 * np.log(ns) + 0.25 + 3.0 / np.sqrt(ns)
    fit = asymptotic_fit(list(zip(ns, vals)), correction_power=0.5)
    assert_allclose(fit.slope, 1.5, atol=1e-10)
    assert_allclose(fit.intercept, 0.25, atol=1e-10)
    assert_allclose(fit.correction, 3.0, atol=1e-8)
    # plain fit over the same data misreads the slope
    plain = asymptotic_fit(list(zip(ns, vals)))
    assert abs(plain.slope - 1.5) > 1e-3


def test_asymptotic_fit_validation():
    with pytest.raises(ValidationError):
        asymptotic_fit([(10.0, 1.0), (100.0, 2.0)])
    with pytest.raises(ValidationError):
        asymptotic_fit([(10.0, 1.0), (10.0, 2.0), (10.0, 3.0)])
    with pytest.raises(ValidationError):
        asymptotic_fit([(10.0, 1.0), (20.0, 2.0), (30.0, 3.0)], correction_power=0.5)


def _run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's asymlab."""
    src = str(Path(asymlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_asymlab_loads_no_scipy_integrate_or_special():
    out = _run_fresh(
        "import sys, asymlab\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.integrate', 'scipy.special'))))"
    )
    assert out.strip() == "[]"


def test_arcsine_oracle_passes_with_lazy_quadrature():
    # The quadrature is the numpy tanh-sinh rule, so running the oracle
    # still loads no scipy.integrate.
    out = _run_fresh(
        "import sys, numpy as np\n"
        "from asymlab import suite\n"
        "oracle = dict(suite._ORACLE_CHECKS)['arcsine-and-table-integrals']\n"
        "margin, _ = oracle(np.random.default_rng(0))\n"
        "print(suite.holds(margin), 'scipy.integrate' in sys.modules)"
    )
    assert out.split() == ["True", "False"]


def test_cli_operations_load_only_the_modules_they_run(tmp_path):
    """A fresh interpreter per op: no scipy, jsonschema or numpy.ma, and no module it skips."""
    heavy = ["asymlab.clustering", "asymlab.su2", "asymlab.suite"]
    base = str(tmp_path)
    cases = [
        (["verify", "oracle-suite", "--output", base + "/oracle"], []),
        (["verify", "bound-suite", "--samples", "0.05", "--output", base + "/bound"], []),
        (["dicke", "--n-min", "100", "--n-max", "2000", "--points", "4",
          "--output", base + "/dicke"], heavy),
        (["dicke", "--ratio", "0.25", "--n-min", "16", "--n-max", "128", "--points", "4",
          "--output", base + "/quarter"], heavy),
        (["kink", "--n-min", "10", "--n-max", "1000", "--points", "3",
          "--output", base + "/kink"], heavy),
        (["su2", "--state", "random:0", "--n", "4", "--clustering-range", "2",
          "--output", base + "/su2"], ["asymlab.clustering", "asymlab.suite"]),
    ]
    for argv, unused in cases:
        out = _run_fresh(
            "import json, sys\n"
            "from asymlab.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))"
        )
        code, loaded = json.loads(out.strip().splitlines()[-1])
        assert code == 0, argv
        assert [m for m in loaded if m.split(".")[0] in ("scipy", "jsonschema")] == [], argv
        assert "numpy.ma" not in loaded, argv
        assert [m for m in heavy if m in loaded] == [m for m in heavy if m not in unused], argv


def test_package_source_imports_no_scipy_or_jsonschema():
    found = []
    for path in sorted(Path(asymlab.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n.split(".")[0] in ("scipy", "jsonschema")]
    assert not found, found


def test_ln_factorial_matches_lgamma_to_a_few_ulp():
    eps = np.finfo(float).eps
    k = np.concatenate([
        np.arange(10_001),
        np.random.default_rng(11).integers(10_001, 4_000_001, 2000),
        [4_000_000],
    ])
    got = ln_factorial(k)
    want = np.array([math.lgamma(float(j) + 1.0) for j in k])
    assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want))
    for j in (0, 5, STIRLING_CUTOFF - 1, STIRLING_CUTOFF, 10_000):
        assert ln_factorial(j) == got[j]


@pytest.mark.parametrize("bad", [2.5, 3.0, np.array([1.0, 2.0]), True, -1, [3, -2]])
def test_ln_factorial_and_log_binomial_reject_non_integers_and_negatives(bad):
    with pytest.raises(ValidationError):
        ln_factorial(bad)
    with pytest.raises(ValidationError):
        log_binomial(10, bad)


def _exact_dicke_half_even(m):
    """p(2h), h = 0..m, of the half-filled x Dicke state as correctly rounded floats.

    Python's int / int is the correctly rounded value of the exact rational;
    C(m, h) and C(2m, 2h) are stepped along h.
    """
    num, den = math.comb(2 * m, m), 4**m
    c_mh, c_2mq = 1, 1
    out = []
    for h in range(m + 1):
        q = 2 * h
        out.append(num * c_mh**2 / (den * c_2mq))
        c_mh = c_mh * (m - h) // (h + 1)
        c_2mq = c_2mq * (2 * m - q) * (2 * m - q - 1) // ((q + 1) * (q + 2))
    return np.array(out)


def test_dicke_half_charge_prob_against_exact_rationals():
    # The route sums log-factorials up to ln (2m)!, so its relative error is a
    # few eps times that; the largest seen is 9.1e-12 at m = 2000.
    eps = np.finfo(float).eps
    for m in (10, 100, 1000, 2000):
        got = dicke_half_charge_prob(m, np.arange(2 * m + 1))
        assert np.all(got[1::2] == 0.0)
        exact = _exact_dicke_half_even(m)
        worst = float(np.max(np.abs(got[::2] - exact) / exact))
        assert worst <= 4 * eps * ln_factorial(2 * m), (m, worst)
    with pytest.raises(ValidationError):
        dicke_half_charge_prob(4, 2.0)


def test_dicke_half_distribution_against_exact_rationals():
    # p(2h) carries about 2h roundings of the ratio recurrence, which mostly
    # cancel: the largest relative error seen is 7.6 eps at m = 2000
    eps = np.finfo(float).eps
    for m in (10, 100, 1000, 2000):
        got = dicke_half_distribution(m).probs
        exact = _exact_dicke_half_even(m)
        worst = float(np.max(np.abs(got[::2] - exact) / exact))
        assert worst <= 32 * eps, (m, worst)
    # the half-filled x Dicke state has Var Q = m (m + 1) / 2 exactly
    for m in (10**4, 10**5, 10**6):
        exact = m * (m + 1) / 2
        assert abs(dicke_half_distribution(m).variance - exact) <= 1e-13 * exact, m


def test_tanh_sinh_integrates_log_sin_to_rounding():
    exact = -0.5 * math.pi * math.log(2.0)
    got = tanh_sinh(lambda theta: np.log(np.sin(theta)), 0.0, math.pi / 2.0)
    assert abs(got - exact) <= 8 * np.finfo(float).eps * abs(exact)
