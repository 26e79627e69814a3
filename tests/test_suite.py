import dataclasses
import inspect
import json
import math
from types import MappingProxyType

import numpy as np
import pytest

from asymlab import suite
from asymlab.errors import ValidationError
from asymlab.suite import CheckResult, all_passed, bound_suite, oracle_suite


def test_check_result_line_format():
    res = CheckResult("demo-check", 1.5e-3, "detail text")
    line = res.line()
    assert line.startswith("pass")
    assert "demo-check" in line and "+1.500e-03" in line
    bad = CheckResult("demo-check", -2.0)
    assert bad.line().startswith("FAIL")


def test_check_result_coerces_numpy_scalars():
    res = CheckResult("x", np.float64(0.25))
    assert isinstance(res.passed, bool)
    assert isinstance(res.margin, float)


# Check k draws from default_rng([seed, first salt + k]): a reorder changes the
# inputs of every later check, so it must show up here as a deliberate edit.
BOUND_CHECK_ORDER = [
    "ball-translation-invariance", "ball-growth-saturation", "spreading-within-lightcone",
    "circuit-trace-purity", "channel-trace-preserving", "entropy-unitary-invariance",
    "measurement-entropy-monotone", "pure-state-saturation", "asymmetry-log-cap",
    "massey-strict", "circuit-bound-chain", "charge-twirl-idempotent",
    "charge-fixed-point-iff", "symmetric-channel-monotone", "schur-unitarity",
    "sector-dimension-identity", "rotation-twirl-idempotent", "rotation-twirl-covariance",
    "sector-entropy-bound", "twirl-quadrature-match", "rotation-fixed-point-iff",
    "collective-moment-cap", "global-rotation-invariance", "krawtchouk-recurrence-accuracy",
    "closed-form-vs-statevector", "bernoulli-entropy-maximum", "gaussian-tail-accuracy",
    "product-state-clustering", "range-vs-spreading", "correlator-norm-cap",
    "negative-controls-flagged",
]
ORACLE_ORDER = [
    "kink-worked-examples", "dicke-expansion-coefficients", "dicke-half-worked-examples",
    "krawtchouk-worked-examples", "bernoulli-sum-worked-examples",
    "arcsine-and-table-integrals", "charge-correlator-examples", "spreading-examples",
    "polarized-rotation-asymmetry", "charge-eigenstate-null-asymmetry",
    "scaling-fit-examples", "channel-purity-examples", "flat-distribution-saturation",
]


def test_check_tables_are_pinned_in_order():
    assert [name for name, _ in suite._BOUND_CHECKS] == BOUND_CHECK_ORDER
    assert [name for name, _ in suite._ORACLE_CHECKS] == ORACLE_ORDER


def test_every_check_function_runs_in_exactly_one_table():
    # a check is a module function whose first parameter is its random generator
    defined = {
        fn for fn in vars(suite).values()
        if inspect.isfunction(fn) and fn.__module__ == suite.__name__
        and next(iter(inspect.signature(fn).parameters), None) == "rng"
    }
    tabled = [fn for _, fn in suite._BOUND_CHECKS + suite._ORACLE_CHECKS]
    assert len(defined) == 31 + 13
    assert set(tabled) == defined
    assert len(tabled) == len(defined)
    # a check yields its margin terms and the runner folds them: no check folds its own
    assert all(inspect.isgeneratorfunction(fn) for fn in tabled)


def test_check_that_raises_is_a_failed_result(monkeypatch):
    monkeypatch.setattr(suite.su2, "HAAR_QUADRATURE_TOL", -1.0)
    (result,) = bound_suite(names=["twirl-quadrature-match"])
    assert result.name == "twirl-quadrature-match"
    assert result.margin == -math.inf and not result.passed
    assert result.detail.startswith("raised ValidationError: Haar quadrature did not converge")


def test_name_filter_accepts_hyphens_and_underscores():
    a = bound_suite(names=["massey-strict"])
    b = bound_suite(names=["massey_strict"])
    assert len(a) == len(b) == 1
    assert a[0].name == "massey-strict"
    assert a[0].margin == b[0].margin


def test_unknown_check_name_raises():
    with pytest.raises(ValidationError):
        bound_suite(names=["no-such-check"])


def test_bound_suite_is_deterministic_per_seed():
    names = ["charge-fixed-point-iff", "symmetric-channel-monotone"]
    a = bound_suite(seed=5, samples=0.2, names=names)
    b = bound_suite(seed=5, samples=0.2, names=names)
    assert [r.margin for r in a] == [r.margin for r in b]
    c = bound_suite(seed=6, samples=0.2, names=names)
    assert [r.margin for r in a] != [r.margin for r in c]


def test_bound_suite_passes_across_seeds_reduced():
    names = [
        "circuit-bound-chain",
        "pure-state-saturation",
        "collective-moment-cap",
        "bernoulli-entropy-maximum",
    ]
    for seed in (1, 2, 3):
        results = bound_suite(seed=seed, samples=0.05, names=names)
        assert all_passed(results), [r.line() for r in results if not r.passed]


def test_full_bound_suite_default_samples():
    results = bound_suite(seed=0, samples=1.0)
    assert len(results) == 31
    assert all_passed(results), "\n".join(r.line() for r in results if not r.passed)


def test_oracle_suite_passes_and_is_deterministic():
    a = oracle_suite(seed=0)
    assert all_passed(a)
    b = oracle_suite(seed=0)
    assert [r.margin for r in a] == [r.margin for r in b]
    assert len(a) == 13


def test_scaling_fit_margin_binds_on_every_fit(monkeypatch):
    # a flat product-state distribution has slope ~1, not 1/2: only the product fit fails
    monkeypatch.setattr(
        suite.closedforms, "poisson_binomial", lambda x: suite.u1.flat_distribution(len(x) + 1)
    )
    fits = {r.name: r for r in oracle_suite(seed=0)}["scaling-fit-examples"]
    assert fits.margin < 0
    assert not fits.passed


def test_mutated_massey_bound_is_caught(monkeypatch):
    original = suite.u1.massey_bound
    monkeypatch.setattr(suite.u1, "massey_bound", lambda v: original(v) - 0.5)
    results = bound_suite(names=["massey-strict"])
    assert not all_passed(results)


def test_mutated_closed_form_is_caught(monkeypatch):
    original = suite.closedforms.dicke_half_distribution

    def skewed(m):
        d = original(m)
        p = np.array(d.probs)
        p[0] += 1e-6
        p /= p.sum()
        from asymlab.u1 import ChargeDistribution

        return ChargeDistribution.from_probs(p)

    monkeypatch.setattr(suite.closedforms, "dicke_half_distribution", skewed)
    results = bound_suite(names=["closed-form-vs-statevector"])
    assert not all_passed(results)


@pytest.mark.parametrize("group, twirl_name, failing", [
    ("u1", "u1_twirl", {"pure-state-saturation", "charge-twirl-idempotent",
                        "charge-fixed-point-iff", "charge-eigenstate-null-asymmetry"}),
    ("su2", "su2_twirl", {"rotation-twirl-idempotent", "twirl-quadrature-match",
                          "rotation-fixed-point-iff", "polarized-rotation-asymmetry"}),
], ids=["u1", "su2"])
def test_half_twirl_fails_exactly_the_rows_that_read_that_twirl(
    monkeypatch, group, twirl_name, failing
):
    """rho -> (rho + G(rho))/2 is covariant, but neither idempotent nor fixed on its outputs.

    The rows whose bodies both groups share must each read the twirl they are
    handed: a body that reads a fixed group's twirl misses one of the two patches.
    """
    module = getattr(suite, group)
    twirl = getattr(module, twirl_name)
    monkeypatch.setattr(module, twirl_name, lambda state: suite.DensityMatrix(
        (state.matrix + twirl(state).matrix) / 2))
    results = bound_suite(seed=0, samples=0.1) + oracle_suite(seed=0)
    assert {r.name for r in results if not r.passed} == failing


@pytest.mark.parametrize("group, asymmetry_name, failing", [
    ("u1", "u1_asymmetry", {"asymmetry-log-cap", "circuit-bound-chain", "charge-fixed-point-iff",
                            "symmetric-channel-monotone", "charge-eigenstate-null-asymmetry"}),
    ("su2", "su2_asymmetry", {"sector-entropy-bound", "rotation-fixed-point-iff",
                              "global-rotation-invariance", "polarized-rotation-asymmetry"}),
], ids=["u1", "su2"])
def test_nan_asymmetry_fails_exactly_the_rows_that_read_it(
    monkeypatch, tmp_path, group, asymmetry_name, failing
):
    """A NaN term makes its check's margin NaN, which fails: no fold may drop it."""
    module = getattr(suite, group)
    asymmetry = getattr(module, asymmetry_name)
    monkeypatch.setattr(module, asymmetry_name, lambda *args, **kwargs: dataclasses.replace(
        asymmetry(*args, **kwargs), delta_s=math.nan))
    results = bound_suite(seed=0, samples=0.1) + oracle_suite(seed=0)
    assert {r.name for r in results if not r.passed} == failing
    assert all(math.isnan(r.margin) for r in results if not r.passed)
    if group == "u1":
        from asymlab.cli import main

        out = tmp_path / "out"
        assert main(["verify", "oracle-suite", "--output", str(out)]) == 4
        report = json.loads((out / "report.json").read_text())
        (failed,) = [c for c in report["checks"] if not c["passed"]]
        assert failed["name"] == "charge-eigenstate-null-asymmetry"
        assert failed["margin"] is None
        assert "charge-eigenstate-null-asymmetry,false,nan," in (out / "results.csv").read_text()


def test_mutated_lightcone_is_caught(monkeypatch):
    # halving the certified spread makes depth-2 circuits look range-1
    monkeypatch.setattr(suite.lattice, "lightcone_range", lambda d: max(0, d - 1))
    results = bound_suite(seed=0, samples=0.2, names=["circuit-bound-chain"])
    assert not all_passed(results)


def _mutated_basis_builder(monkeypatch, mutate):
    original = suite.su2.build_schur_basis

    def build(n):
        basis = original(n)
        rows = list(basis.rows)
        paths = {two_s: list(columns) for two_s, columns in basis.paths.items()}
        mutate(rows, paths, n)
        return dataclasses.replace(basis, rows=tuple(rows), paths=MappingProxyType(
            {two_s: tuple(columns) for two_s, columns in paths.items()}))

    monkeypatch.setattr(suite.su2, "build_schur_basis", build)


def test_schur_unitarity_catches_a_flipped_column(monkeypatch):
    # still orthogonal: only the S_- ladder sees the sign
    def flip(rows, paths, n):
        vectors = paths[n][n // 2].copy()
        vectors[:, 0] *= -1.0  # the s = N/2, m = 0 column
        paths[n][n // 2] = vectors

    _mutated_basis_builder(monkeypatch, flip)
    assert not all_passed(bound_suite(names=["schur-unitarity"]))
    oracles = {r.name: r for r in oracle_suite(seed=0)}
    assert not oracles["polarized-rotation-asymmetry"].passed


def test_schur_unitarity_catches_a_flipped_column_of_the_next_spin(monkeypatch):
    # path 0 of (s = N/2 - 1, m = 0): its sign breaks the ladder from m = 1 at
    # every N >= 4, and the weight-N/2 block stays orthogonal
    def flip(rows, paths, n):
        vectors = paths[n - 2][n // 2 - 1].copy()
        vectors[:, 0] *= -1.0
        paths[n - 2][n // 2 - 1] = vectors

    _mutated_basis_builder(monkeypatch, flip)
    assert not all_passed(bound_suite(names=["schur-unitarity"]))


def test_schur_unitarity_catches_a_flipped_coupling_term(monkeypatch):
    # the basis and the dense reference read the one Clebsch-Gordan table, so
    # a sign flipped in it (2j = 3, the j - 1/2 bit-1 term) leaves them equal
    # and orthogonal: only the S_- ladder sees it
    terms = suite.su2._coupling_terms

    def flipped(two_j):
        out = terms(two_j)
        if two_j == 3:
            two_j_new, bit, columns, parents, coef = out[3]
            out = out[:3] + ((two_j_new, bit, columns, parents, -coef),)
        return out

    monkeypatch.setattr(suite.su2, "_coupling_terms", flipped)
    suite.su2._schur_basis.cache_clear()
    try:
        assert not all_passed(bound_suite(names=["schur-unitarity"]))
    finally:
        suite.su2._schur_basis.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_lowered_block_equals_dense_lowering_of_the_basis(n):
    basis = suite.su2.build_schur_basis(n)
    dim = 2**n
    lowering = np.zeros((dim, dim))  # S_- = sum_j sigma^-_j sets bit j
    for j in range(n):
        free = np.flatnonzero(((np.arange(dim) >> j) & 1) == 0)
        lowering[free | (1 << j), free] = 1.0
    lowered = lowering @ basis.dense()
    start = 0  # spin s's first column in dense(); (s, s - c, alpha) is start + alpha (2s+1) + c
    for two_s, columns in basis.paths.items():
        alphas = start + (two_s + 1) * np.arange(columns[0].shape[1])
        for c, vectors in enumerate(columns):
            w = (n - two_s) // 2 + c
            if w < n:
                expected = lowered[np.ix_(basis.rows[w + 1], alphas + c)]
                np.testing.assert_allclose(suite._lowered_block(basis, w, vectors), expected,
                                           rtol=0, atol=1e-13)
        start += (two_s + 1) * alphas.size


def test_schur_unitarity_catches_a_dropped_row(monkeypatch):
    def drop(rows, paths, n):
        rows[n // 2] = rows[n // 2][1:]
        for two_s, columns in paths.items():
            c = n // 2 - (n - two_s) // 2
            if 0 <= c <= two_s:
                columns[c] = columns[c][1:]

    _mutated_basis_builder(monkeypatch, drop)
    results = bound_suite(names=["schur-unitarity"])
    assert not all_passed(results)
