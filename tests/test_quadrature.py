import json
import math
import sys
from fractions import Fraction

import pytest

from ybverify import integrate, quadrature as quad
from ybverify.cli import default_suite, main
from ybverify.rmatrix import Normalization

from helpers import coefficients_closed_form, to_complex


def lgamma_ratio(*args):
    """Independent log-gamma oracle: product of gammas over gammas."""
    num, den = args[0], args[1]
    return math.exp(sum(math.lgamma(a) for a in num) - sum(math.lgamma(a) for a in den))


def test_beta_integral_analytic_point():
    # d=2, u=1, k=0: (1/2) B(1/2, 3/2) * 2 = B(1/2,3/2) = pi/2
    got = quad.beta_coefficient_integral(2, 1.0, 0, "even")
    assert abs(got - math.pi / 2) < 1e-10


def test_beta_integral_lgamma_oracle():
    # d=4, u=1/2, k=0: Gamma(1/4) Gamma(9/4) / Gamma(5/2)
    got = quad.beta_coefficient_integral(4, 0.5, 0, "even")
    want = lgamma_ratio((0.25, 2.25), (2.5,))
    assert abs(got - want) < 1e-8 * abs(want)


def test_beta_integral_pole_guard():
    # (u+d)/2 - k = 0 diverges
    with pytest.raises(ValueError):
        quad.beta_coefficient_integral(2, 2.0, 2, "even")
    with pytest.raises(ValueError):
        quad.beta_coefficient_integral(2, -0.5, 0, "even")


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("u", [0.5, 1.0, 1.5])
def test_beta_integral_grid_even(d, u):
    for k in range(d // 2 + 1):
        if u + d - 2 * k <= 0:
            continue
        got = quad.beta_coefficient_integral(d, u, k, "even")
        want = lgamma_ratio((k + u / 2, (u + d) / 2 - k), (u + d / 2,))
        assert abs(got - want) < 1e-8 * abs(want), (d, u, k)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("u", [0.5, 1.0, 1.5])
def test_beta_integral_grid_odd(d, u):
    for k in range(d // 2):
        got = quad.beta_coefficient_integral(d, u, k, "odd")
        want = lgamma_ratio((k + (u + 1) / 2, (u + d - 1) / 2 - k), (u + d / 2,))
        assert abs(got - want) < 1e-8 * abs(want), (d, u, k)


def test_beta_integral_matches_exact_ratio_times_base():
    # the stored beta table is the rational ratio against the k = 0 base;
    # integral(k) / integral(0) must equal it exactly up to quadrature error
    d, u = 6, Fraction(1, 2)
    table = coefficients_closed_form(d, u, Normalization.BETA_FORM)
    base = quad.beta_coefficient_integral(d, float(u), 0, "even")
    for k in range(1, d // 2 + 1):
        got = quad.beta_coefficient_integral(d, float(u), k, "even")
        ratio = to_complex(table[2 * k]).real * (-1) ** k  # strip the (-1)^k sign
        assert abs(got - ratio * base) < 1e-8 * abs(got), k


# --- the adaptive Gauss-Kronrod rule -------------------------------------------

TOL = dict(epsabs=quad.DEFAULT_SPEC.abs_tol, epsrel=quad.DEFAULT_SPEC.rel_tol)


def counted(f):
    """f with a call counter in ``calls[0]``."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


@pytest.mark.parametrize("degree", range(32))
def test_one_panel_integrates_degree_31_exactly(degree):
    # the 21-point Kronrod rule is exact to degree 3*10 + 1 = 31
    f, calls = counted(lambda x: x ** degree)
    got, _err = integrate.quad(f, -1.0, 2.0, limit=1, **TOL)
    want = (2.0 ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
    assert abs(got - want) <= 8 * sys.float_info.epsilon * abs(want), degree
    assert calls[0] == 21


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 3.0), (1.5, 2.5), (3.5, 1.25), (0.75, 4.0)])
def test_quad_beta_values_match_gamma(a, b):
    want = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    got, _err = integrate.quad(lambda x: x ** (a - 1) * (1 - x) ** (b - 1), 0.0, 1.0,
                               limit=quad.DEFAULT_SPEC.max_subdivisions, **TOL)
    assert abs(got - want) <= max(TOL["epsabs"], TOL["epsrel"] * want), (a, b)
    # integral_0^inf y^(m-1) (1+y^2)^(-p) dy = B(m/2, p - m/2) / 2
    m, p = 2 * a, a + b
    assert abs(quad._beta_halfline(m, p) - want / 2) <= 1e-10 * want, (a, b)


@pytest.mark.parametrize("limit", [1, 2, 5, 50])
def test_quad_honours_the_panel_limit(limit):
    # sin(1/x) oscillates without end towards 0, so the tolerance is never met
    f, calls = counted(lambda x: math.sin(1 / x))
    value, err = integrate.quad(f, 0.0, 1.0, limit=limit, **TOL)
    assert calls[0] <= 21 * (2 * limit - 1)
    assert math.isfinite(value) and err > TOL["epsabs"]


def test_quad_nan_integrand_ends_and_fails_the_check(monkeypatch, capsys, tmp_path):
    f, calls = counted(lambda x: math.nan)
    value, _err = integrate.quad(f, 0.0, 1.0, limit=200, **TOL)
    assert math.isnan(value) and calls[0] == 21
    with pytest.raises(ArithmeticError):
        quad._finite(value, "integral")
    # a NaN inside a suite job is a FAIL line, not a crash
    real = integrate.quad
    monkeypatch.setattr(integrate, "quad",
                        lambda f, *args, **kwargs: real(lambda x: math.nan, *args, **kwargs))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"check": "beta_integral", "params": {"d": 2}}]))
    assert main(["run", "--suite", str(suite)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["detail"] == ("error: beta coefficient integral evaluated to a "
                                "non-finite value nan")


def _suite_float_jobs():
    checks = {"beta_integral": quad.check_beta_integral, "rfun": quad.check_rfun,
              "unitarity_integral": quad.check_unitarity_integral}
    for name, params in default_suite([2, 4, 6]):
        if name in checks:
            args = {k: float(v) if k == "u" else v for k, v in params.items()}
            yield checks[name], args


def test_quad_agrees_with_quadpack_on_the_suite_integrands(monkeypatch):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    calls = []
    real = integrate.quad

    def recording(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return real(f, a, b, **kwargs)

    monkeypatch.setattr(integrate, "quad", recording)
    for check, args in _suite_float_jobs():
        assert check(**args).passed, (check.__name__, args)
    assert calls
    spec = quad.DEFAULT_SPEC
    for f, a, b, kwargs in calls:
        ours, _ = real(f, a, b, **kwargs)
        ref, _ = scipy_integrate.quad(f, a, b, **kwargs)
        assert abs(ours - ref) <= max(spec.abs_tol, spec.rel_tol * abs(ref)), (a, b, ours, ref)


# --- generating-function reconstruction --------------------------------------

def test_rfun_y_zero_recovers_base():
    # only the k = 0 term survives: (A+B+A-B)/2 * beta_0 with A = B = 1
    d, u = 4, 1.0
    got = quad.reconstruct_Rfun(d, u, 0.0)
    want = quad.beta_even_value(d, u, 0)
    assert abs(got - want) < 1e-9 * abs(want)


def test_rfun_series_vs_integral():
    for d, u, y in ((4, 1.0, 0.5), (2, 1.5, -1.0), (6, 0.75, -0.25), (2, 0.5, 1.0)):
        integral = quad.reconstruct_Rfun(d, u, y)
        series = quad.rfun_series(d, u, y)
        assert abs(integral - series) < 1e-7 * max(1.0, abs(series)), (d, u, y)


def test_rfun_general_weights():
    for A, B in ((1.0, -1.0), (2.0, 0.5), (0.0, 1.0)):
        integral = quad.reconstruct_Rfun(4, 1.0, 0.5, lambda _: A, lambda _: B)
        series = quad.rfun_series(4, 1.0, 0.5, A, B)
        assert abs(integral - series) < 1e-7 * max(1.0, abs(series)), (A, B)


def test_rfun_requires_positive_u():
    with pytest.raises(ValueError):
        quad.reconstruct_Rfun(4, -1.0, 0.5)


# --- unitarity double integral -------------------------------------------------

def test_unitarity_integral_k0():
    got = quad.unitarity_double_integral(2, 0.5, 0)
    want = -4 * math.pi  # -(2 pi/u)/sin(pi u) at u = 1/2
    assert abs(got - want) < 1e-4 * abs(want)


def test_unitarity_integral_kd():
    got = quad.unitarity_double_integral(2, 1 / 3, 2)
    want = -2 * math.pi / ((1 / 3) * math.tan(math.pi / 3))
    assert abs(got - want) < 1e-3 * abs(want)


def test_unitarity_integral_middle_k_vanishes():
    assert abs(quad.unitarity_double_integral(2, 0.5, 1)) < 1e-4
    for k in (1, 2, 3):
        assert abs(quad.unitarity_double_integral(4, 0.5, k)) < 1e-4, k


def test_unitarity_integral_domain_guards():
    with pytest.raises(ValueError):
        quad.unitarity_double_integral(2, 1.5, 0)
    with pytest.raises(ValueError):
        quad.unitarity_double_integral(2, 0.5, 3)


# --- report wrappers -----------------------------------------------------------

def test_check_wrappers():
    assert quad.check_beta_integral(4, 0.5, 0).passed
    assert quad.check_rfun(4, 1.0, -0.5).passed
    assert quad.check_unitarity_integral(2, 0.5, 0).passed
    report = quad.check_unitarity_integral(2, 0.5, 1)
    assert report.passed and report.max_residual < 1e-4


@pytest.mark.slow
def test_triple_integral_symmetry_slow():
    report = quad.check_triple_integral(2, 0.5, 0.5, 0.3, 0.1, 0.7)
    assert report.passed, (report.max_residual, report.detail)
