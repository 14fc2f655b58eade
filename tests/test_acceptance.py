"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every exact criterion runs at zero tolerance; the float criteria use the
stated tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import random
import time
from fractions import Fraction

import pytest

from ybverify import localyb, quadrature
from ybverify import relations as rel
from ybverify.clifford import build_gamma
from ybverify.kernel import ExactScalar, SparseOperator
from ybverify.localyb import (all_regions, check_local_ybe, forward_map,
                              inverse_map, jacobian, sample_triple, solve_primed)
from ybverify.rmatrix import (Normalization, coefficients, so_defining_rep,
                              so_spinor_rep)

from helpers import (classify_region, coefficients_closed_form, invariants,
                     jacobian_fd, reciprocity_holds)

F = Fraction
PRODUCT = Normalization.PRODUCT_FORM


def criterion(num, text, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_c01_clifford_foundation():
    worst_time = 0.0
    for d in (2, 4, 6, 8):
        start = time.perf_counter()
        basis = build_gamma(d)
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        ident = SparseOperator.identity(basis.dim)
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                acm = basis.gamma(a) @ basis.gamma(b) + basis.gamma(b) @ basis.gamma(a)
                assert acm == (ident.scale(2) if a == b else SparseOperator.zero(basis.dim))
            assert (basis.gamma5 @ basis.gamma(a) + basis.gamma(a) @ basis.gamma5).is_zero()
        assert basis.gamma5 @ basis.gamma5 == ident
        half = basis.dim // 2
        diag = [basis.gamma5.entry(i, i) for i in range(basis.dim)]
        assert diag[:half] == [ExactScalar(1)] * half
        assert diag[half:] == [ExactScalar(-1)] * half
    criterion(1, f"Clifford relations and chirality exact for d in 2..8; "
                 f"worst build {worst_time * 1000:.0f} ms (< 1 s)", worst_time < 1.0)


def test_c02_coefficients():
    for u in (F(1), F(1, 2), F(-2, 3)):
        table = coefficients(6, u, Normalization.D6_PAPER)
        expected = [(u + 4) / 8, 0, -u / 8, 0, u / 8, 0, -(u + 4) / 8]
        assert list(table.values) == [ExactScalar(x) for x in expected], u
    samples = (F(1), F(1, 2), F(1, 3), F(2), F(-1, 5), F(-3, 7))
    for d in (2, 4, 6, 8):
        for u in samples:
            for norm in (PRODUCT, Normalization.BETA_FORM):
                assert coefficients(d, u, norm).values \
                    == coefficients_closed_form(d, u, norm).values, (d, u, norm)
            for norm in Normalization:
                if norm is Normalization.D6_PAPER and d != 6:
                    continue
                assert reciprocity_holds(coefficients(d, u, norm)), (d, u, norm)
    criterion(2, "d=6 paper table exact; recurrence = closed form for d <= 8; "
                 "reciprocity exact", True)


def test_c03_yang_baxter():
    pairs = ((F(1, 2), F(1, 3)), (F(2), F(-1, 5)), (F(-3, 7), F(1, 4)))
    start = time.perf_counter()
    for d in (2, 4, 6):
        for u, v in pairs:
            report = rel.check_ybe(d, u, v, PRODUCT)
            assert report.passed, (d, u, v, report.detail)
    elapsed = time.perf_counter() - start
    skipped = rel.check_ybe(8, F(1, 2), F(1, 3), PRODUCT)
    assert skipped.status is rel.Status.SKIPPED
    criterion(3, f"YBE exact for d in 2,4,6 at three spectral pairs in "
                 f"{elapsed:.1f} s (< 600 s); d=8 skipped by default budget",
              elapsed < 600)


def test_c04_three_term_lattice():
    zero_triples = 0
    for a in "+-":
        for b in "+-":
            for c in "+-":
                report = rel.check_three_term(4, F(1, 2), F(1, 3), (a, b, c))
                assert report.passed, (a, b, c, report.detail)
                if (a + b + c).count("-") % 2 == 1:
                    zero_triples += 1
    criterion(4, f"all 8 three-term relations exact at d=4, including "
                 f"2*{zero_triples} zero-product identities", zero_triples == 4)


def test_c05_rll_fundamental():
    pairs = ((F(1), F(1, 2)), (F(1, 3), F(-1, 4)))
    for d in (2, 4, 6):
        for u, v in pairs:
            report = rel.check_rll_fundamental(d, u, v)
            assert report.passed, (d, u, v, report.detail)
    criterion(5, "fundamental RLL exact for d in 2,4,6 at two spectral pairs", True)


def test_c06_rll_quantum_and_asym():
    for u, v in ((F(1), F(1, 3)), (F(1, 2), F(-1, 4))):
        report = rel.check_rll_quantum(6, u, v, so_defining_rep(6), "defining")
        assert report.passed, (u, v, report.detail)
    verdicts = {}
    for d in (4, 6):
        reps = {"defining": so_defining_rep(d), "spinor": so_spinor_rep(rel._basis(d))}
        for name, q in reps.items():
            asym_ok = rel.check_asym(q, name).passed
            rll_ok = rel.check_rll_quantum(d, F(1), F(1, 3), q, name).passed
            verdicts[(d, name)] = (asym_ok, rll_ok)
            if asym_ok:
                assert rll_ok, f"asym passed but RLL failed for {name} at d={d}"
    summary = ", ".join(f"d={d} {name}: asym={'ok' if a else 'no'}/rll={'ok' if r else 'no'}"
                        for (d, name), (a, r) in sorted(verdicts.items()))
    criterion(6, f"so(6) defining RLL exact at two pairs; verdicts [{summary}] "
                 f"consistent", True)


def test_c07_unitarity():
    for d in (2, 4, 6):
        for u in (F(1, 3), F(1, 2), F(2)):
            report = rel.check_unitarity(d, u, PRODUCT)
            assert report.passed, (d, u, report.detail)
    for u in (F(1, 3), F(1, 2), F(2)):
        report = rel.check_unitarity(2, u, PRODUCT)
        assert f"h+ = {-u * u}" in report.detail
        assert "h- = 1" in report.detail
    criterion(7, "unitarity: binomial h, product h and matrix products agree "
                 "exactly for d in 2,4,6; d=2 gives h+ = -u^2, h- = 1", True)


def test_c08_d6_weyl_reduction():
    for u in (F(1), F(-2, 3)):
        report = rel.check_d6_reduction(u)
        assert report.passed, (u, report.detail)
    criterion(8, "d=6 Weyl blocks: mixed sectors vanish, aligned sectors equal "
                 "1 + u P exactly at u = 1, -2/3", True)


def test_c09_exchange_identities():
    for d in (2, 4):
        report = rel.check_exchange_identities(d)
        assert report.passed, (d, report.detail)
    criterion(9, "exchange identities (products, braid, top component) exact "
                 "for d in 2,4", True)


def test_c10_generating_product_law():
    rng = random.Random(77)
    for d in (2, 4):
        count = 0
        while count < 20:
            x = F(rng.randint(-9, 9), rng.randint(1, 7))
            y = F(rng.randint(-9, 9), rng.randint(1, 7))
            if x * y == 1:
                continue
            report = rel.check_generating_product(d, x, y)
            assert report.passed, (d, x, y)
            count += 1
    criterion(10, "generating-function product law exact at 20 rational pairs "
                  "for d in 2,4", True)


def test_c11_local_yang_baxter():
    bases = {d: build_gamma(d) for d in (2, 4)}
    worst_matrix = 0.0
    for d in (2, 4):
        rng = random.Random(localyb.DEFAULT_SEED)
        for region in all_regions():
            for _ in range(100):
                p = sample_triple(rng, region)
                report = check_local_ybe(bases[d], p, tol=1e-9)
                assert report.passed, (d, p, report.max_residual)
                worst_matrix = max(worst_matrix, report.max_residual)
    # relation residuals, invariants, round trips, jacobian
    rng = random.Random(4242)
    worst_sys = worst_lam = worst_rt = worst_jac = 0.0
    for region in all_regions():
        for _ in range(100):
            p = sample_triple(rng, region)
            q = solve_primed(p)
            x, y, z = (float(w) for w in p)
            xp, yp, zp = (float(w) for w in q)
            scale = max(1.0, abs(z * (1 + x * y) / (1 - x * y)))
            res = max(
                abs((x + y) / (1 - x * y) - zp * (1 + xp * yp) / (1 - xp * yp)),
                abs(z * (1 + x * y) / (1 - x * y) - (xp + yp) / (1 - xp * yp)),
                abs(z * (x - y) / (1 - x * y) - zp * (xp - yp) / (1 - xp * yp)),
            ) / scale
            worst_sys = max(worst_sys, res)
            for lam_p, lam_q in zip(invariants(p), invariants(q)):
                worst_lam = max(worst_lam, abs(lam_p - lam_q) / max(1.0, abs(lam_p)))
            back = inverse_map(forward_map(p), classify_region(p))
            worst_rt = max(worst_rt, max(
                abs(float(a) - float(b)) / max(1.0, abs(float(b)))
                for a, b in zip(back, p)))
            worst_jac = max(worst_jac, abs(float(jacobian(p)) - jacobian_fd(p))
                            / max(1.0, abs(float(jacobian(p)))))
    ok = (worst_matrix < 1e-9 and worst_sys < 1e-10 and worst_lam < 1e-10
          and worst_rt < 1e-12 and worst_jac < 1e-6)
    criterion(11, f"local YBE residual {worst_matrix:.1e} (< 1e-9); relation "
                  f"residuals {worst_sys:.1e} (< 1e-10); invariants "
                  f"{worst_lam:.1e} (< 1e-10); round trip {worst_rt:.1e} "
                  f"(< 1e-12); jacobian {worst_jac:.1e} (< 1e-6)", ok)


def test_c12_quadrature():
    worst_beta = 0.0
    for d in (2, 4, 6):
        for u in (0.5, 1.0, 1.5):
            for k in range(d // 2 + 1):
                if u + d - 2 * k <= 0:
                    continue
                got = quadrature.beta_coefficient_integral(d, u, k, "even")
                want = quadrature.beta_even_value(d, u, k)
                worst_beta = max(worst_beta, abs(got - want) / abs(want))
            for k in range(d // 2):
                got = quadrature.beta_coefficient_integral(d, u, k, "odd")
                want = quadrature.beta_odd_value(d, u, k)
                worst_beta = max(worst_beta, abs(got - want) / abs(want))
    worst_rfun = 0.0
    for d, u, y in ((2, 1.5, -1.0), (4, 1.0, 0.5), (6, 0.75, -0.25)):
        integral = quadrature.reconstruct_Rfun(d, u, y)
        series = quadrature.rfun_series(d, u, y)
        worst_rfun = max(worst_rfun, abs(integral - series) / max(1.0, abs(series)))
    # stated double-integral values
    val = quadrature.unitarity_double_integral(2, 0.5, 0)
    rel_k0 = abs(val + 4 * math.pi) / (4 * math.pi)
    val = quadrature.unitarity_double_integral(2, 1 / 3, 2)
    want = -2 * math.pi / ((1 / 3) * math.tan(math.pi / 3))
    rel_kd = abs(val - want) / abs(want)
    mid = max(abs(quadrature.unitarity_double_integral(2, 0.5, 1)),
              max(abs(quadrature.unitarity_double_integral(4, 0.5, k))
                  for k in (1, 2, 3)))
    ok = worst_beta < 1e-8 and worst_rfun < 1e-7 and rel_k0 < 1e-4 \
        and rel_kd < 1e-3 and mid < 1e-4
    criterion(12, f"beta integrals {worst_beta:.1e} (< 1e-8); series vs "
                  f"integral {worst_rfun:.1e} (< 1e-7); double-integral "
                  f"values {rel_k0:.1e}/{rel_kd:.1e}/{mid:.1e}", ok)


@pytest.mark.skipif(os.environ.get("YBV_SLOW") != "1" and "slow" not in
                    os.environ.get("PYTEST_ADDOPTS", ""),
                    reason="3d integral symmetry is opt-in (YBV_SLOW=1)")
def test_c12b_triple_integral_symmetry():
    report = quadrature.check_triple_integral(2, 0.5, 0.5, 0.3, 0.1, 0.7)
    criterion(12, f"3d integral symmetry residual {report.max_residual:.1e} "
                  f"(< 1e-3, opt-in)", report.passed)


def test_c13_projector_limit():
    for d in (2, 4, 6):
        report = rel.check_epsilon_projector_limit(d)
        assert report.passed, (d, report.detail)
    criterion(13, "rational-function limit R+(u)/u -> Gamma(d/2) P+ exact for "
                  "d in 2,4,6", True)


def test_c14_negative_controls():
    located = 0
    for k in range(5):
        report = rel.check_ybe(4, F(1, 2), F(1, 3), perturb_k=k)
        assert report.status is rel.Status.FAIL, k
        assert "at entry (" in report.detail
        located += 1
    criterion(14, f"perturbing each coefficient R_k by 1 fails the YBE with a "
                  f"located residual ({located}/5 located)", located == 5)
