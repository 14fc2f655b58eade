"""Coordinate geometry of the local Yang-Baxter relation: the (a,b,t) chart
and its Jacobian, the induced involution on (x,y,z), and the pointwise
symmetry of the three-fold integrand.

Maps are evaluated exactly on Fractions where possible and in floats
otherwise; the primed point generically involves a square root, so the
transformed-point checks are float checks with configurable tolerances.

The matrix form of the local relation lives on three copies, but its
factors do not need them: with E(t) the two-copy As-exponential
(n^2 x n^2, n = 2^(d/2)), E12(t) = E(t) (x) 1_n and E23(t) = 1_n (x) E(t).
The check builds E(t) as a float grid and streams the n^3 x n^3 sides one
row at a time through the row kernel of the exact Yang-Baxter checks, on
one row per Weyl orbit; it needs no array library.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .clifford import GammaBasis, as_exp_components, component_family
from .kernel import PatternTable, yb_float_max
from .relations import DEFAULT_SEED, CheckReport, Status, _Timer

DEFAULT_MATRIX_TOL = 1e-9
DEFAULT_SCALAR_TOL = 1e-10


class TripleXYZ(NamedTuple):
    x: object
    y: object
    z: object


class CurveCoords(NamedTuple):
    a: object
    b: object
    t: object


class RegionTag(NamedTuple):
    """One of the four (x,y)-subregions cut out by x = y and xy = 1,
    plus the sign of z."""
    x_gt_y: bool
    xy_gt_1: bool
    z_positive: bool


def forward_map(p: TripleXYZ) -> CurveCoords:
    """(x,y,z) -> (a,b,t): a = ((1+xy)/(1-xy))((x+y)/(x-y)), b = z(x-y)/(1-xy),
    t = (x-y)/(1+xy)."""
    x, y, z = p
    s = x * y
    if s == 1:
        raise ZeroDivisionError("xy = 1 is singular for the chart")
    if x == y:
        raise ZeroDivisionError("x = y is singular for a")
    if 1 + s == 0:
        raise ZeroDivisionError("1 + xy = 0 is singular for t")
    a = (1 + s) / (1 - s) * (x + y) / (x - y)
    b = z * (x - y) / (1 - s)
    t = (x - y) / (1 + s)
    return CurveCoords(a, b, t)


def _exact_sqrt(value: Fraction):
    """Rational square root if it exists, else None."""
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def inverse_map(c: CurveCoords, region: RegionTag) -> TripleXYZ:
    """Invert the chart on the region: solve the quadratic
    (a^2-1)t^2 s^2 - (2(a^2+1)t^2 + 4)s + (a^2-1)t^2 = 0 in s = xy (the two
    roots are reciprocal; the region tag picks xy vs 1), then
    x + y = a t (1 - s) and x - y = t (1 + s).

    Exact (Fraction) output when the inputs are rational and the discriminant
    is a perfect square; float otherwise.
    """
    a, b, t = c
    if abs(a) < 1:
        raise ValueError(f"|a| = {abs(a)} < 1: point outside the chart image")
    qa = (a * a - 1) * t * t
    qb = -(2 * (a * a + 1) * t * t + 4)
    qc = qa
    if qa == 0:
        raise ValueError("a = +-1 is a boundary of the chart image")
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        raise ValueError("no real solution: negative discriminant")
    exact = (isinstance(disc, (int, Fraction))
             and (root := _exact_sqrt(Fraction(disc))) is not None)
    if not exact:
        root = math.sqrt(disc)
        qa, qb = float(qa), float(qb)
    s_lo = (-qb - root) / (2 * qa)
    s_hi = (-qb + root) / (2 * qa)
    if s_lo > s_hi:
        s_lo, s_hi = s_hi, s_lo
    s = s_hi if region.xy_gt_1 else s_lo
    x = (a * t * (1 - s) + t * (1 + s)) / 2
    y = (a * t * (1 - s) - t * (1 + s)) / 2
    if (x > y) != region.x_gt_y:
        raise ValueError(f"region {region} inconsistent with t = {t}")
    z = b * (1 - s) / (t * (1 + s))
    if (z > 0) != region.z_positive:
        raise ValueError(f"region {region} inconsistent with sign of b = {b}")
    return TripleXYZ(x, y, z)


def solve_primed(p: TripleXYZ) -> TripleXYZ:
    """The partner point (x',y',z') of the local Yang-Baxter transformation:
    same (a,b), curve coordinate t' = b/(a t), same octant.

    Both quadratic roots reproduce (a, b, t'), so the octant of p selects the
    branch; exactly one root lands there for points off the boundaries.
    """
    a, b, t = forward_map(p)
    tp = b / (a * t)
    candidates = []
    for xy_gt_1 in (False, True):
        for x_gt_y in (False, True):
            region = RegionTag(x_gt_y, xy_gt_1, p.z > 0)
            try:
                q = inverse_map(CurveCoords(a, b, tp), region)
            except ValueError:
                continue
            if (q.x > 0, q.y > 0) == (p.x > 0, p.y > 0) and (q.z > 0) == (p.z > 0):
                candidates.append(q)
    if not candidates:
        raise ValueError(f"no primed partner in the octant of {tuple(p)}")
    if len(candidates) > 1:
        # the same point can reappear through two region tags when t' = t
        first = candidates[0]
        if not all(_close(first, other) for other in candidates[1:]):
            raise ValueError(f"ambiguous primed partner for {tuple(p)}")
    return candidates[0]


def _close(p, q, tol=1e-9):
    return all(abs(float(pa) - float(qa)) <= tol * max(1.0, abs(float(pa)))
               for pa, qa in zip(p, q))


def jacobian(p: TripleXYZ):
    """Closed-form Jacobian determinant of the chart:
    2 (1+x^2)(1+y^2) / ((1+xy)(1-xy)^3), signed."""
    x, y, z = p
    s = x * y
    if s == 1 or 1 + s == 0:
        raise ZeroDivisionError("singular point for the Jacobian")
    return 2 * (1 + x * x) * (1 + y * y) / ((1 + s) * (1 - s) ** 3)


# ---------------------------------------------------------------------------
# the local Yang-Baxter relation in floats
# ---------------------------------------------------------------------------

def as_exponential_float(family: PatternTable, t: float, prefactor: float = 1.0) -> dict:
    """prefactor * E(t) = prefactor * sum_k t^k S_k as a float grid, from the
    pattern table ``family`` of the As-components (S_0, ..., S_d): one value
    per weight pattern."""
    t = float(t)
    return family.float_combination({k: prefactor * t ** k for k in range(len(family.ops))})


def local_ybe_factors(family: PatternTable, p: TripleXYZ, q: TripleXYZ):
    """The factors (a, b, c) and (c', b', a') of the two sides
    (1-xy)^-d E12(y) E23(z) E12(x) = (a (x) 1)(1 (x) b)(c (x) 1) and
    (1-x'y')^-d E23(x') E12(z') E23(y') = (1 (x) c')(b' (x) 1)(1 (x) a')
    at p and its primed partner q, as float grids from the pattern table
    ``family`` of the As-components; each prefactor is folded into one
    factor."""
    d = len(family.ops) - 1
    x, y, z = (float(v) for v in p)
    xp, yp, zp = (float(v) for v in q)
    lhs = (as_exponential_float(family, y, (1 - x * y) ** (-d)),
           as_exponential_float(family, z), as_exponential_float(family, x))
    rhs = (as_exponential_float(family, xp), as_exponential_float(family, zp),
           as_exponential_float(family, yp, (1 - xp * yp) ** (-d)))
    return lhs, rhs


def check_local_ybe(basis: GammaBasis, p: TripleXYZ,
                    tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
    """(1-xy)^-d E12(y) E23(z) E12(x) = (1-x'y')^-d E23(x') E12(z') E23(y')
    entrywise on three copies, at the point p and its primed partner.

    The sides stream row by row from the two-copy factors (see
    ``local_ybe_factors``), so no three-copy array is built.  When the
    family certificate of the As-components holds, each E(t) and so both
    sides and their difference commute with every g (x) g (x) g; the lifts'
    phases have one modulus, so |entry| takes the same values on every row
    of an orbit, and only the orbit minima stream.  Otherwise every row
    does.  The certificate is the pattern table's, taken once on the very
    components the factors are built from.

    The residual is measured relative to the matrices' own scale, the
    largest lhs entry, taken from the same row stream (the relation is
    covariant under rescaling, so an absolute entry tolerance would be
    ill-posed for generically sized sample points).
    """
    params = {"d": basis.d, "x": str(p.x), "y": str(p.y), "z": str(p.z), "tol": tol}
    with _Timer() as t_:
        q = solve_primed(p)
        xp, yp, zp = (float(v) for v in q)
        family = component_family(basis, as_exp_components(basis))
        symmetry = basis.row_symmetry()
        n = basis.dim
        rows = symmetry.rows if family.lifts == symmetry.lifts[0] else range(n ** 3)
        lhs, rhs = local_ybe_factors(family, p, q)
        lhs_max, diff_max = yb_float_max(lhs, rhs, n, rows)
        scale = max(1.0, lhs_max)
        residual = diff_max / scale
    status = Status.PASS if residual < tol else Status.FAIL
    return CheckReport("local_ybe", params, status, exact=False,
                       max_residual=residual, elapsed_ms=t_.elapsed_ms,
                       detail=(f"primed point ({xp:.12g},{yp:.12g},{zp:.12g}); "
                               f"matrix scale {scale:.3g}"))


def _integrand_parts(d, u, v, p):
    x, y, z = (float(coord) for coord in p)
    s = x * y
    measure = (abs(x) ** (u - 1) * abs(y) ** (v - 1) * abs(z) ** (u + v - 1)
               * (1 - s) ** d
               / ((1 + x * x) ** (u + d / 2) * (1 + y * y) ** (v + d / 2)
                  * (1 + z * z) ** (u + v + d / 2)))
    forms = ((x + y) / (1 - s), z * (y - x) / (1 - s), z * (1 + s) / (1 - s))
    return measure, forms


def integrand_symmetry_check(d, u, v, A, B, C, p: TripleXYZ,
                             tol: float = 1e-8) -> CheckReport:
    """Pointwise change-of-variables identity for the three-fold integrand:
    F(p; A,B,C) = F(p'; C,B,A) |dp'/dp|, with the primed Jacobian computed as
    the ratio of the two chart Jacobians times |dt'/dt| = |t'/t|.  Also checks
    the exponent swap: the linear (A,B,C) form at p equals the (C,B,A) form
    at p'."""
    u, v = float(u), float(v)
    params = {"d": d, "u": u, "v": v, "A": A, "B": B, "C": C,
              "x": str(p.x), "y": str(p.y), "z": str(p.z)}
    with _Timer() as t_:
        q = solve_primed(p)
        a, b, t = (float(w) for w in forward_map(p))
        tp = b / (a * t)
        jac_ratio = abs(float(jacobian(p))) * abs(tp / t) / abs(float(jacobian(q)))
        meas_p, forms_p = _integrand_parts(d, u, v, p)
        meas_q, forms_q = _integrand_parts(d, u, v, q)
        f_p = meas_p * math.exp(A * forms_p[0] + B * forms_p[1] + C * forms_p[2])
        f_q = meas_q * math.exp(C * forms_q[0] + B * forms_q[1] + A * forms_q[2])
        residual = abs(f_p - f_q * jac_ratio) / max(abs(f_p), 1e-300)
        swap_residual = abs((A * forms_p[0] + B * forms_p[1] + C * forms_p[2])
                            - (C * forms_q[0] + B * forms_q[1] + A * forms_q[2]))
        residual = max(residual, swap_residual)
    status = Status.PASS if residual < tol else Status.FAIL
    return CheckReport("integrand_symmetry", params, status, exact=False,
                       max_residual=residual, elapsed_ms=t_.elapsed_ms)


def sample_triple(rng: random.Random, region: RegionTag) -> TripleXYZ:
    """Random interior point of the region (positive-coordinate quadrant in
    x, y; z-sign from the tag), away from the boundary curves."""
    while True:
        x = rng.uniform(0.05, 4.0)
        y = rng.uniform(0.05, 4.0)
        if abs(x - y) < 0.05 or abs(x * y - 1) < 0.05:
            continue
        if (x > y) != region.x_gt_y or (x * y > 1) != region.xy_gt_1:
            continue
        z = rng.uniform(0.05, 4.0)
        if not region.z_positive:
            z = -z
        return TripleXYZ(x, y, z)


def all_regions(z_positive: bool = True):
    return [RegionTag(xg, sg, z_positive) for xg in (False, True) for sg in (False, True)]
