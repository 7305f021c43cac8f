"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The epsilon sweeps share
module-scoped fixtures; spectra are reused across Renyi orders through the
spectrum cache, which is exactly the production behavior.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from diamond_entropy import (
    PhysicalParams,
    RenyiOrder,
    build_grid,
    clear_spectrum_cache,
    entanglement_entropy,
    entropy_integral,
    eta,
    GridRule,
    log_growth_diagnostic,
    offdiagonal_diagnostic,
    operator_eigenvalues,
    subtraction_trace,
    sweep,
    theoretical_slope,
    verify_commutator_lemma,
    verify_inequalities,
)
from oracle import kernel_matrix, kernel_quadrature

EPS_GRID = np.geomspace(0.1, 0.002, 8)
K1 = RenyiOrder(1.0)


def announce(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS - {message}")


@pytest.fixture(scope="module")
def sweep_lambda1_k1():
    clear_spectrum_cache()
    start = time.perf_counter()
    result = sweep(PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0), K1, EPS_GRID)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_lambda1_m1():
    start = time.perf_counter()
    result = sweep(PhysicalParams(mass=1.0, epsilon=0.1, lam=1.0), K1, EPS_GRID)
    return result, time.perf_counter() - start


def test_criterion_1_closed_form_constant():
    start = time.perf_counter()
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0, 3.0, 5.0):
        order = RenyiOrder(kappa)
        value = entropy_integral(order)
        rel = abs(value - theoretical_slope(order)) / theoretical_slope(order)
        worst = max(worst, rel)
        assert rel <= 1e-6, f"kappa={kappa}: rel error {rel:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    announce(1, f"entropy integral matches (1/6)(k+1)/k, worst rel {worst:.1e}, {elapsed:.2f}s")


def test_criterion_2_main_theorem_massless(sweep_lambda1_k1):
    result, elapsed = sweep_lambda1_k1
    rel = abs(result.slope - 1.0 / 3.0) * 3.0
    assert rel <= 0.10, f"slope {result.slope:.4f} deviates {rel:.1%} from 1/3"
    assert result.r_squared >= 0.98, f"r^2 = {result.r_squared:.4f}"
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
    # residuals show no monotone trend: at least 2 sign changes
    pts = result.converged_points()
    x = np.array([np.log(1 / p.epsilon) for p in pts])
    y = np.array([p.entropy for p in pts])
    res = y - (result.slope * x + result.intercept)
    sign_changes = int(np.sum(np.diff(np.sign(res)) != 0))
    assert sign_changes >= 2, f"residual sign changes: {sign_changes}"
    announce(
        2,
        f"slope {result.slope:.4f} vs 1/3 ({rel:.1%}), r^2={result.r_squared:.4f}, "
        f"{elapsed:.0f}s",
    )


@pytest.mark.parametrize("kappa,target", [(2.0, 0.25), (0.5, 0.5)])
def test_criterion_3_renyi_order_dependence(kappa, target):
    result = sweep(PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0), RenyiOrder(kappa), EPS_GRID)
    rel = abs(result.slope - target) / target
    assert result.r_squared >= 0.98
    if rel > 0.10:
        # Known red at kappa = 1/2: the ladder leaves eps = 0.002 unconverged
        # at the n = 4096 cap (2.3% change from n = 2048), so the fit uses 7
        # of the 8 points (slope 0.4088); the n = 4096 value is accurate (it
        # moves by 4e-5 on to n = 8192) and the 8-point slope is 0.4168. The
        # bulk term matches a 30-digit oracle, but the slope approaches 1/2
        # with a slowly decaying correction ~ 0.36 * eps^0.35, leaving the
        # least-squares slope over eps in [0.002, 0.1] near 0.41. The stated
        # grid cannot reach a 10% window around 1/2.
        print(
            f"\n[criterion  3] FAIL - kappa={kappa}: slope {result.slope:.4f} "
            f"is {rel:.1%} from {target} (see notes on slow kappa<1 asymptotics)"
        )
    assert rel <= 0.10, f"kappa={kappa}: slope {result.slope:.4f} off by {rel:.1%}"
    announce(3, f"kappa={kappa} slope {result.slope:.4f} within 10% of {target}")


def test_criterion_4_mass_independence(sweep_lambda1_m1, sweep_lambda1_k1):
    result, elapsed = sweep_lambda1_m1
    rel = abs(result.slope - 1.0 / 3.0) * 3.0
    assert rel <= 0.15, f"m=1 slope {result.slope:.4f} deviates {rel:.1%}"
    massless, _ = sweep_lambda1_k1
    assert abs(result.slope - massless.slope) <= 0.05

    diag = offdiagonal_diagnostic(1.0, K1, 1.0, [1e2, 1e3, 5e3], n=4096)
    ratios = diag.offdiag_ratios
    assert np.all(np.diff(ratios) < 0), f"ratios not strictly decreasing: {ratios}"
    announce(
        4,
        f"m=1 slope {result.slope:.4f} ({rel:.1%} of 1/3, {elapsed:.0f}s); "
        f"offdiag ratios {np.round(ratios, 4).tolist()} strictly decreasing",
    )


def test_criterion_5_volume_independence(sweep_lambda1_k1):
    slopes = {1.0: sweep_lambda1_k1[0].slope}
    for lam in (0.5, 2.0):
        result = sweep(PhysicalParams(mass=0.0, epsilon=0.1, lam=lam), K1, EPS_GRID)
        slopes[lam] = result.slope
    values = np.array(list(slopes.values()))
    spread = (values.max() - values.min()) / values.mean()
    assert spread <= 0.05, f"slopes {slopes} spread {spread:.1%}"
    announce(5, f"slopes for lam 0.5/1/2: {np.round(values, 4).tolist()}, spread {spread:.1%}")


def test_criterion_6_subtraction_closed_form():
    integrand = lambda u: eta(K1, u) / u
    gate, gate_err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert gate_err < 1e-10
    assert abs(gate - np.pi**2 / 6.0) < 1e-10, "dilogarithm gate failed"
    worst = 0.0
    for eps in (0.5, 0.1, 0.02):
        params = PhysicalParams(mass=0.0, epsilon=eps, lam=1.0)
        value = subtraction_trace(params, K1)
        rel = abs(value - np.pi / (6 * eps)) / (np.pi / (6 * eps))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"eps={eps}: rel error {rel:.2e}"
    announce(6, f"bulk term matches lam*pi/(6 eps), worst rel {worst:.1e}; gate at 1e-10")


def test_criterion_7_kernel_oracle_equivalence():
    start = time.perf_counter()
    worst_massless = 0.0
    for eps in (1.0, 0.1):
        params = PhysicalParams(mass=0.0, epsilon=eps, lam=1.0)
        for u in np.linspace(-5.0, 5.0, 41):
            ref = kernel_quadrature(params, float(u))
            fast = kernel_matrix(params, float(u))
            worst_massless = max(worst_massless, float(np.abs(ref - fast).max()))
    assert worst_massless < 1e-8, f"massless worst {worst_massless:.2e}"

    worst_massive = 0.0
    for m in (0.25, 0.5, 1.0, 2.0, 4.0):
        for eps in (0.1, 0.2, 0.4, 0.8, 1.6):
            params = PhysicalParams(mass=m, epsilon=eps, lam=1.0)
            for u in (0.0, 0.3, 0.9, 2.1, 4.5):
                ref = kernel_quadrature(params, u)
                fast = kernel_matrix(params, u)
                worst_massive = max(worst_massive, float(np.abs(ref - fast).max()))
    assert worst_massive < 1e-9, f"massive worst {worst_massive:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    announce(
        7,
        f"closed {worst_massless:.1e} (<1e-8), bessel {worst_massive:.1e} (<1e-9), "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_schatten_property_suite():
    start = time.perf_counter()
    for dim in (4, 8, 16):
        for report in verify_inequalities(dim, 1000, 20240):
            assert report.passed, f"dim={dim}: {report}"
        for report in verify_commutator_lemma(dim, 1000, 20240):
            if report.inequality_name == "conjugation_invariance":
                assert report.max_violation <= 1e-12, report
            assert report.passed, f"dim={dim}: {report}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    announce(8, f"1000 trials x dims 4/8/16, zero violations beyond slack, {elapsed:.1f}s")


def test_criterion_9_spectral_sanity(sweep_lambda1_k1):
    params = PhysicalParams(mass=0.0, epsilon=0.02, lam=1.0)
    res = entanglement_entropy(params, K1)
    assert res.converged
    ev = operator_eigenvalues(params, build_grid(res.grid_size, 1.0))
    assert ev.min() >= -1e-6 and ev.max() <= 1 + 1e-6

    grid = build_grid(128, 1.0)
    ev0 = operator_eigenvalues(params, grid, use_cache=False)
    ev5 = operator_eigenvalues(params, grid, x_offset=5.0, use_cache=False)
    translation_dev = float(np.abs(ev0 - ev5).max())
    assert translation_dev < 1e-10

    mid = entanglement_entropy(params, K1, rule=GridRule.MIDPOINT)
    assert mid.converged
    cross = abs(res.entropy - mid.entropy) / abs(res.entropy)
    assert cross < 0.01, f"cross-rule disagreement {cross:.2%}"
    announce(
        9,
        f"spectrum in [-1e-6, 1+1e-6] at n={res.grid_size}; translation dev "
        f"{translation_dev:.1e}; cross-rule {cross:.2%}",
    )


def test_criterion_10_log_growth_upper_bound():
    result = log_growth_diagnostic(0.5, [1e2, 1e3, 1e4])
    ratios = result.logq_norms / np.log(result.alpha_grid)
    spread = float(ratios.max() / ratios.min())
    assert spread <= 3.0, f"norm/ln(alpha) spread {spread:.2f} exceeds 3"
    announce(10, f"q=1/2 cross-block norm / ln(alpha) bounded, spread {spread:.2f} <= 3")
