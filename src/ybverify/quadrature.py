"""Floating-point verification of the integral representations: the
beta-function coefficient integrals, the generating-function reconstruction,
the unitarity double integral, and the (slow) three-fold symmetry, which
only ``ybv check triple_integral`` runs.

Half-line integrals are mapped to a finite interval through x = tan(theta);
an integrable x^(u-1) endpoint singularity is removed first by substituting
x = w^(1/u) (the whole half-line version of the first-panel substitution).
Every integral on a finite interval goes to the adaptive 21-point
Gauss-Kronrod rule of ``ybverify.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import integrate
from .relations import CheckReport, Status, _Timer


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200


DEFAULT_SPEC = QuadratureSpec()
SLOW_SPEC = QuadratureSpec(abs_tol=1e-4, rel_tol=1e-3, max_subdivisions=40)


def _quad(f, a: float, b: float, spec: QuadratureSpec) -> float:
    """integral_a^b f(x) dx by the adaptive Gauss-Kronrod rule under the
    tolerances and panel limit of ``spec``; looked up as ``integrate.quad``
    at each call, so a wrapper installed there sees every integral."""
    val, _ = integrate.quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                            limit=spec.max_subdivisions)
    return val


def _finite(value: float, label: str) -> float:
    if not math.isfinite(value):
        raise ArithmeticError(f"{label} evaluated to a non-finite value {value}")
    return value


def half_line_integral(h, alpha: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_0^inf x^(alpha-1) h(x) dx with h smooth and decaying.

    The substitution x = w^(1/alpha) absorbs the endpoint singularity exactly
    (the integrand becomes h(w^(1/alpha))/alpha); a tan map then reaches the
    finite interval.
    """
    if alpha <= 0:
        raise ValueError(f"divergent endpoint: alpha = {alpha} <= 0")
    inv = 1.0 / alpha

    def g(theta):
        w = math.tan(theta)
        x = w ** inv
        return h(x) * inv * (1 + w * w)

    return _finite(_quad(g, 0.0, math.pi / 2, spec), "half-line integral")


def _beta_halfline(m: float, p: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_0^inf y^(m-1) (1+y^2)^(-p) dy for m > 0 and 2p - m > 0.

    Split at y = 1 and fold the tail back with y -> 1/y, which exposes the
    mirrored endpoint exponent 2p - m; both panels then lose their
    singularity to the w^(1/exponent) substitution and are smooth on [0,1].
    """
    if m <= 0 or 2 * p - m <= 0:
        raise ValueError(f"divergent beta integral: exponents ({m}, {2 * p - m})")

    def panel(expo):
        return _quad(lambda w: (1 + w ** (2.0 / expo)) ** (-p) / expo, 0.0, 1.0, spec)

    return panel(m) + panel(2 * p - m)


def beta_coefficient_integral(d: int, u: float, k: int, parity: str = "even",
                              spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """2 * integral_0^inf x^(u-1+m) (1+x^2)^(-u-d/2) dx with m = 2k (even) or
    2k+1 (odd); equals the Euler beta value behind the coefficient tables."""
    if u <= 0:
        raise ValueError("convergence requires u > 0")
    m = 2 * k if parity == "even" else 2 * k + 1
    if u + d - m <= 0:
        raise ValueError(f"divergent tail: (u+d)/2 - k = {(u + d - m) / 2} <= 0")
    return _finite(2.0 * _beta_halfline(u + m, u + d / 2, spec),
                   "beta coefficient integral")


def beta_even_value(d: int, u: float, k: int) -> float:
    """Gamma(k+u/2) Gamma((u+d)/2-k) / Gamma(u+d/2) through the gamma
    function; all arguments are positive inside the coefficient range."""
    return math.gamma(k + u / 2) * math.gamma((u + d) / 2 - k) / math.gamma(u + d / 2)


def beta_odd_value(d: int, u: float, k: int) -> float:
    return (math.gamma(k + (u + 1) / 2) * math.gamma((u + d - 1) / 2 - k)
            / math.gamma(u + d / 2))


def _exp_truncated(t: float, degree: int) -> float:
    """sum_{k<=degree} t^k/k!: the scalar shadow of the antisymmetrized
    exponential, whose expansion stops at grade d."""
    total = 1.0
    term = 1.0
    for k in range(1, degree + 1):
        term *= t / k
        total += term
    return total


def rfun_series(d: int, u: float, y: float, A: float = 1.0, B: float = 1.0) -> float:
    """sum_{k=0}^{d} R_k(u) s_k y^k / k! with the beta-normalized weights;
    the signs s_k cancel the (-1)^k of the coefficients, leaving the bare
    beta moments."""
    total = 0.0
    fact = 1.0
    for k in range(d + 1):
        if k:
            fact *= k
        if k % 2 == 0:
            coeff = A * beta_even_value(d, u, k // 2)
        else:
            coeff = B * beta_odd_value(d, u, k // 2)
        total += coeff * y ** k / fact
    return total


def reconstruct_Rfun(d: int, u: float, y: float, a_fn=None, b_fn=None,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_0^inf x^(u-1)(1+x^2)^(-u-d/2) [(A+B)e_d(xy) + (A-B)e_d(-xy)] dx
    with e_d the degree-d truncated exponential.

    The exponential kernel always sits under the antisymmetrizer, which
    kills every power beyond x^d, so the faithful scalar avatar of the
    integral representation carries the truncated kernel; it converges for
    either sign of y and must reproduce the truncated coefficient series.
    """
    if u <= 0:
        raise ValueError("convergence requires u > 0")
    A = 1.0 if a_fn is None else a_fn(u)
    B = 1.0 if b_fn is None else b_fn(u)
    power = u + d / 2

    def h(x):
        win = (1 + x * x) ** (-power)
        out = (A + B) * _exp_truncated(x * y, d) + (A - B) * _exp_truncated(-x * y, d)
        return win * out

    return half_line_integral(h, u, spec)


def unitarity_double_integral(d: int, u: float, k: int,
                              spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """The double integral of x^(u-1) y^(-u-1) (x+y)^k (1-xy)^(d-k) over the
    positive quadrant against the (1+x^2), (1+y^2) weights.

    As a plain integral this diverges at both y -> 0 (like y^(-u-1)) and
    y -> infinity (like y^(u-1)); the stated closed forms are its analytic
    continuation, computed here as a finite sum over the exact y-powers of
    the polynomial factor: x-moment integrals times y-weight integrals, with
    the Hadamard finite part taken for the two divergent weights (grades 0
    and d, equal by the y -> 1/y symmetry).
    """
    if not 0 < u < 1:
        raise ValueError("the stated values need 0 < u < 1")
    if not 0 <= k <= d:
        raise ValueError(f"k must lie in 0..{d}")
    xpow = u + d / 2
    ypow = d / 2 - u

    # x-moments of the binomial y-expansion of (x+y)^k (1-xy)^(d-k)
    moments = [0.0] * (d + 1)
    for a in range(k + 1):
        for b in range(d - k + 1):
            weight = math.comb(k, a) * math.comb(d - k, b) * (-1) ** b
            power = k - a + b  # x-power carried by the (a, b) term
            moments[a + b] += weight * _beta_halfline(u + power, xpow, spec)

    def divergent_weight():
        # finite part of integral y^(-u-1) (1+y^2)^(-ypow) dy over (0, inf)
        head = _quad(lambda y: y ** (-u - 1) * ((1 + y * y) ** (-ypow) - 1.0),
                     0.0, 1.0, spec)
        # fold [1, inf) back to (0, 1]: exponent d - u stays positive
        tail = _quad(lambda y: y ** (d - u - 1) * (1 + y * y) ** (-ypow), 0.0, 1.0, spec)
        return head - 1.0 / u + tail

    fp = divergent_weight()
    total = moments[0] * fp + moments[d] * fp
    for j in range(1, d):
        total += moments[j] * _beta_halfline(j - u, ypow, spec)
    return _finite(total, "unitarity double integral")


def unitarity_integral_expected(d: int, u: float, k: int) -> float:
    """Stated closed forms: -(2 pi/u)/sin(pi u) at k=0, -(2 pi/u) cot(pi u)
    at k=d, zero in between."""
    if k == 0:
        return -2 * math.pi / (u * math.sin(math.pi * u))
    if k == d:
        return -2 * math.pi / (u * math.tan(math.pi * u))
    return 0.0


def triple_moments(d: int, u: float, v: float, signs=(1, 1, 1),
                   max_degree: int | None = None,
                   spec: QuadratureSpec = SLOW_SPEC) -> dict:
    """Moment integrals M[p,q,r] of the three linear forms against the
    three-fold measure over one octant, for total degree p+q+r <= max_degree
    (default d).

    The full integrand with exp(A f1 + B f2 + C f3) is a formal power series
    in (A,B,C): for any nonzero weight the exponential blows up on one side
    of the wall xy = 1, while every moment of total degree <= d carries a
    factor (1-xy)^(d-p-q-r) and converges absolutely.
    """
    sx, sy, sz = signs
    cap = d if max_degree is None else max_degree
    if cap > d:
        raise ValueError(f"moments beyond total degree d={d} diverge on xy=1")
    wu, wv, wz = u, v, u + v
    half_pi = math.pi / 2
    moments = {}
    for p in range(cap + 1):
        for q in range(cap + 1 - p):
            for r in range(cap + 1 - p - q):
                n = p + q + r

                def integrand(tz, ty, tx, p=p, q=q, r=r, n=n):
                    x = sx * math.tan(tx) ** (1 / wu)
                    y = sy * math.tan(ty) ** (1 / wv)
                    z = sz * math.tan(tz) ** (1 / wz)
                    s = x * y
                    meas = ((1 - s) ** (d - n)
                            / ((1 + x * x) ** (u + d / 2)
                               * (1 + y * y) ** (v + d / 2)
                               * (1 + z * z) ** (u + v + d / 2)))
                    val = meas * (x + y) ** p * (z * (y - x)) ** q * (z * (1 + s)) ** r
                    jac = ((1 + math.tan(tx) ** 2) / wu
                           * (1 + math.tan(ty) ** 2) / wv
                           * (1 + math.tan(tz) ** 2) / wz)
                    return val * jac

                val, _ = integrate.tplquad(
                    integrand, 0.0, half_pi, 0.0, half_pi, 0.0, half_pi,
                    epsabs=spec.abs_tol, epsrel=spec.rel_tol)
                moments[(p, q, r)] = val
    return moments


def triple_integral_I(d: int, u: float, v: float, A: float, B: float, C: float,
                      signs=(1, 1, 1), max_degree: int | None = None,
                      spec: QuadratureSpec = SLOW_SPEC, moments=None) -> float:
    """The three-fold integral in the formal-power-series sense, truncated at
    total degree max_degree (default d); corroborative only, since the exact
    Yang-Baxter check already covers its consequence."""
    if moments is None:
        moments = triple_moments(d, u, v, signs, max_degree, spec)
    total = 0.0
    for (p, q, r), m in moments.items():
        total += (A ** p / math.factorial(p)) * (B ** q / math.factorial(q)) \
            * (C ** r / math.factorial(r)) * m
    return total


# ---------------------------------------------------------------------------
# report-producing wrappers (same JSON stream as the exact checks)
# ---------------------------------------------------------------------------

def check_beta_integral(d, u, k, parity="even", rel_tol=1e-8,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> CheckReport:
    """Quadrature vs log-gamma evaluation of one coefficient integral."""
    params = {"d": d, "u": u, "k": k, "parity": parity, "rel_tol": rel_tol}
    with _Timer() as t:
        got = beta_coefficient_integral(d, u, k, parity, spec)
        expected = (beta_even_value(d, u, k) if parity == "even"
                    else beta_odd_value(d, u, k))
        residual = abs(got - expected) / abs(expected)
    status = Status.PASS if residual < rel_tol else Status.FAIL
    return CheckReport("beta_integral", params, status, exact=False,
                       max_residual=residual, elapsed_ms=t.elapsed_ms,
                       detail=f"integral {got:.12g}, gamma-ratio {expected:.12g}")


def check_rfun(d, u, y, A=1.0, B=1.0, rel_tol=1e-7,
               spec: QuadratureSpec = DEFAULT_SPEC) -> CheckReport:
    """Series vs integral evaluation of the coefficient generating function."""
    params = {"d": d, "u": u, "y": y, "A": A, "B": B, "rel_tol": rel_tol}
    with _Timer() as t:
        integral = reconstruct_Rfun(d, u, y, lambda _: A, lambda _: B, spec)
        series = rfun_series(d, u, y, A, B)
        residual = abs(integral - series) / max(abs(series), 1e-300)
    status = Status.PASS if residual < rel_tol else Status.FAIL
    return CheckReport("rfun", params, status, exact=False,
                       max_residual=residual, elapsed_ms=t.elapsed_ms,
                       detail=f"integral {integral:.12g}, series {series:.12g}")


def check_unitarity_integral(d, u, k, tol=None,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> CheckReport:
    """Regularized double integral vs the stated closed-form values."""
    params = {"d": d, "u": u, "k": k}
    with _Timer() as t:
        got = unitarity_double_integral(d, u, k, spec)
        expected = unitarity_integral_expected(d, u, k)
        if expected == 0.0:
            tol = 1e-4 if tol is None else tol
            residual = abs(got)
        else:
            tol = 1e-3 if tol is None else tol
            residual = abs(got - expected) / abs(expected)
    status = Status.PASS if residual < tol else Status.FAIL
    return CheckReport("unitarity_integral", params, status, exact=False,
                       max_residual=residual, elapsed_ms=t.elapsed_ms,
                       detail=f"integral {got:.10g}, expected {expected:.10g}")


def check_triple_integral(d, u, v, A, B, C, rel_tol=1e-3,
                          spec: QuadratureSpec = SLOW_SPEC) -> CheckReport:
    """I(A,B,C) = I(C,B,A) over the positive octant (formal-series sense),
    to quadrature accuracy; the moments are computed once and assembled for
    both orientations."""
    params = {"d": d, "u": u, "v": v, "A": A, "B": B, "C": C}
    with _Timer() as t:
        moments = triple_moments(d, u, v, spec=spec)
        lhs = triple_integral_I(d, u, v, A, B, C, spec=spec, moments=moments)
        rhs = triple_integral_I(d, u, v, C, B, A, spec=spec, moments=moments)
        residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    status = Status.PASS if residual < rel_tol else Status.FAIL
    return CheckReport("triple_integral", params, status, exact=False,
                       max_residual=residual, elapsed_ms=t.elapsed_ms,
                       detail=f"I(A,B,C) {lhs:.8g}, I(C,B,A) {rhs:.8g}")
