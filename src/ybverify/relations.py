"""The verification engine: each algebraic identity becomes a check that
returns a CheckReport, evaluated in exact arithmetic with zero tolerance.

Spectral-parameter placement follows the source conventions per identity
(the spinor Yang-Baxter check uses (u, u+v, v); the RLL checks use u-v);
each report records its convention in the detail field.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .clifford import (GammaBasis, antisym_product, as_exp_components,
                       as_exponential, build_gamma, exchange_pair, graded_rep)
from .kernel import ExactScalar, SparseOperator, kron, rll_first_row, yb_first_row
from .rmatrix import (Normalization, Parity, QuantumRep, RepChoice,
                      assemble_spinor_R, coefficients, factor_table, fundamental_L0,
                      fundamental_R0, normalization_weights,
                      product_form_slope_at_zero, projectors, quantum_L,
                      require_perturb_k, so_defining_rep)

DEFAULT_BUDGET_DIM = 2 ** 12
# seed of the sampled points of the float local checks (local_ybe,
# integrand_symmetry)
DEFAULT_SEED = 20240901

DEFAULT_SPECTRAL_POINTS = (
    Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(-1, 5), Fraction(-3, 7),
)


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"


@dataclass
class CheckReport:
    check_id: str
    params: dict
    status: Status
    exact: bool = True
    max_residual: float | None = None
    elapsed_ms: int = 0
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS

    def to_json_dict(self, with_timing: bool = True) -> dict:
        return {
            "schema": 1,
            "check": self.check_id,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "status": self.status.value,
            "exact": self.exact,
            "max_residual": self.max_residual,
            "elapsed_ms": self.elapsed_ms if with_timing else 0,
            "detail": self.detail,
        }


def budget_dim(explicit: int | None = None) -> int:
    """Resolve the dimension cap: explicit value, YBV_BUDGET_DIM, or default.
    A cap that is not a positive integer raises ValueError: a cap of 0
    would skip every bounded check and still report success."""
    if explicit is not None:
        value, source = explicit, "budget dimension"
    else:
        value, source = os.environ.get("YBV_BUDGET_DIM"), "YBV_BUDGET_DIM"
        if not value:
            return DEFAULT_BUDGET_DIM
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return cap


@lru_cache(maxsize=None)
def _basis(d: int) -> GammaBasis:
    return build_gamma(d)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (Normalization, RepChoice, Parity)):
        return value.value
    return str(value)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        self._final = None
        return self

    def __exit__(self, *exc):
        self._final = int((time.perf_counter() - self.start) * 1000)
        return False

    @property
    def elapsed_ms(self) -> int:
        if self._final is not None:
            return self._final
        return int((time.perf_counter() - self.start) * 1000)


def _exact_report(check_id, params, diffs, timer, convention=None) -> CheckReport:
    """PASS iff every labelled difference operator is exactly zero; a FAIL
    names the first offending entry."""
    for label, diff in diffs:
        loc = diff.first_nonzero()
        if loc is not None:
            (r, c), value = loc
            detail = f"{label}: first residual {value} at entry ({r},{c})"
            return CheckReport(check_id, params, Status.FAIL, exact=True,
                               elapsed_ms=timer.elapsed_ms, detail=detail)
    return CheckReport(check_id, params, Status.PASS, exact=True,
                       elapsed_ms=timer.elapsed_ms, detail=convention)


def _skip(check_id, params, dim, cap, exact=True) -> CheckReport:
    return CheckReport(check_id, params, Status.SKIPPED, exact=exact,
                       detail=f"working dimension {dim} reaches budget cap {cap}")


def _spinor_R(d, u, norm, rep, parity=Parity.FULL, perturb_k=None):
    table = coefficients(d, u, norm)
    if perturb_k is not None:
        table = table.perturbed(perturb_k)
    return assemble_spinor_R(_basis(d), table, rep, parity)


# ---------------------------------------------------------------------------
# Yang-Baxter family
# ---------------------------------------------------------------------------

def check_ybe(d, u, v, norm=Normalization.PRODUCT_FORM, rep=RepChoice.PRIMED,
              budget=None, perturb_k=None) -> CheckReport:
    """R12(u) R23(u+v) R12(v) = R23(v) R12(u+v) R23(u) on V (x) V (x) V."""
    u, v = Fraction(u), Fraction(v)
    params = {"d": d, "u": _fmt(u), "v": _fmt(v), "norm": _fmt(norm), "rep": _fmt(rep)}
    basis = _basis(d)
    if perturb_k is not None:
        # a bad k is a configuration error even where the check would skip
        require_perturb_k(d, perturb_k)
        if (d, perturb_k) == (2, 1):
            raise ValueError("perturb_k=1 cannot fail at d=2: the d=2 Yang-Baxter "
                             "relation holds for any R_1")
        if not any(num or den for _, num, den in factor_table(d, norm)):
            raise ValueError(f"perturb_k={perturb_k} cannot fail at d={d} under the {norm.value} "
                             "normalization: no coefficient depends on u")
        params["perturb_k"] = perturb_k
    n = basis.dim
    cap = budget_dim(budget)
    if n ** 3 >= cap:
        return _skip("ybe", params, n ** 3, cap)
    with _Timer() as t:
        Ru = _spinor_R(d, u, norm, rep, perturb_k=perturb_k)
        Ruv = _spinor_R(d, u + v, norm, rep)
        Rv = _spinor_R(d, v, norm, rep)
        diff = yb_first_row(Ru, Ruv, Rv, n, basis.row_symmetry())
    return _exact_report("ybe", params, [("YBE", diff)], t,
                         convention="spectral placement (u, u+v, v)")


def check_three_term(d, u, v, signs, norm=Normalization.PRODUCT_FORM,
                     rep=RepChoice.PRIMED, budget=None) -> CheckReport:
    """One (i,j,k) relation of the even/odd three-term family, including the
    zero-product identities: when sign(i)sign(j)sign(k) = -1 both sides must
    vanish identically."""
    u, v = Fraction(u), Fraction(v)
    signs = tuple(signs)
    if len(signs) != 3 or any(s not in "+-" for s in signs):
        raise ValueError(f"signs must be three of '+'/'-', got {signs!r}")
    params = {"d": d, "u": _fmt(u), "v": _fmt(v), "signs": "".join(signs),
              "norm": _fmt(norm), "rep": _fmt(rep)}
    basis = _basis(d)
    n = basis.dim
    cap = budget_dim(budget)
    if n ** 3 >= cap:
        return _skip("three_term", params, n ** 3, cap)
    si, sj, sk = signs
    parity = {"+": Parity.EVEN, "-": Parity.ODD}
    with _Timer() as t:
        Ri = _spinor_R(d, u, norm, rep, parity[si])
        Rk = _spinor_R(d, u + v, norm, rep, parity[sk])
        Rj = _spinor_R(d, v, norm, rep, parity[sj])
        symmetry = basis.row_symmetry()
        diffs = [("three-term", yb_first_row(Ri, Rk, Rj, n, symmetry))]
        minus_count = sum(1 for s in signs if s == "-")
        if minus_count % 2 == 1:
            # odd sign product: both products must vanish; with lhs = 0 and
            # lhs - rhs = 0, rhs = 0 follows, so only lhs is tested
            diffs.append(("zero-product lhs",
                          yb_first_row(Ri, Rk, Rj, n, symmetry, with_rhs=False)))
    return _exact_report("three_term", params, diffs, t,
                         convention="spectral placement (u, u+v, v)")


def check_fundamental_ybe(d, u, v, budget=None) -> CheckReport:
    """Yang-Baxter for the fundamental R-matrix in the (u-v, u, v) arrangement."""
    u, v = Fraction(u), Fraction(v)
    params = {"d": d, "u": _fmt(u), "v": _fmt(v)}
    cap = budget_dim(budget)
    if d ** 3 >= cap:
        return _skip("fundamental_ybe", params, d ** 3, cap)
    with _Timer() as t:
        Ruv = fundamental_R0(d, u - v)
        Ru = fundamental_R0(d, u)
        Rv = fundamental_R0(d, v)
        diff = yb_first_row(Ruv, Ru, Rv, d)
    return _exact_report("fundamental_ybe", params, [("fundamental YBE", diff)], t,
                         convention="spectral placement (u-v, u, v)")


# ---------------------------------------------------------------------------
# RLL relations
# ---------------------------------------------------------------------------

def _check_rll(check_id, params, d, u, v, L, q, norm, rep, budget) -> CheckReport:
    """R12(u-v) L13(u) L23(v) = L13(v) L23(u) R12(u-v) on (spinor, spinor,
    quantum), where ``L(basis, x)`` builds the L-operator x 1 + K on
    (spinor (x) quantum) for the quantum representation q; the stream takes
    K = L(basis, 0) and the points.  With lifts on the quantum space, one
    row per orbit of the Weyl lifts streams."""
    basis = _basis(d)
    n = basis.dim
    cap = budget_dim(budget)
    if n * n * q.m >= cap:
        return _skip(check_id, params, n * n * q.m, cap)
    with _Timer() as t:
        R = _spinor_R(d, u - v, norm, rep)
        diff = rll_first_row(R, L(basis, 0), u, v, n, q.m, basis.row_symmetry(q))
    return _exact_report(check_id, params, [("RLL", diff)], t,
                         convention="spectral placement u-v")


def check_rll_fundamental(d, u, v, norm=Normalization.PRODUCT_FORM,
                          rep=RepChoice.PRIMED, budget=None) -> CheckReport:
    """R12(u-v) L13(u) L23(v) = L13(v) L23(u) R12(u-v) with the fundamental
    L-operator, on (spinor, spinor, defining)."""
    u, v = Fraction(u), Fraction(v)
    params = {"d": d, "u": _fmt(u), "v": _fmt(v), "norm": _fmt(norm), "rep": _fmt(rep)}
    _basis(d)  # rejects an unsupported d before the defining rep is built
    return _check_rll("rll_fundamental", params, d, u, v, fundamental_L0,
                      so_defining_rep(d), norm, rep, budget)


def check_rll_quantum(d, u, v, q: QuantumRep, quantum_name="custom",
                      norm=Normalization.PRODUCT_FORM, rep=RepChoice.PRIMED,
                      budget=None) -> CheckReport:
    """R12(u-v) L13(u) L23(v) = L13(v) L23(u) R12(u-v) with the quantum-space
    L-operator u + (i/4) gamma_ab (x) M^ab."""
    if q.d != d:
        raise ValueError(f"quantum rep has d={q.d}, check asked d={d}")
    u, v = Fraction(u), Fraction(v)
    params = {"d": d, "u": _fmt(u), "v": _fmt(v), "quantum": quantum_name,
              "m": q.m, "norm": _fmt(norm), "rep": _fmt(rep)}
    return _check_rll("rll_quantum", params, d, u, v,
                      lambda basis, x: quantum_L(basis, x, q), q, norm, rep, budget)


def check_asym(q: QuantumRep, quantum_name="custom") -> CheckReport:
    """Antisymmetrized anticommutator condition on the quantum representation:
    T'({M_[ab, M_c]d}) = 0 over all index choices, a sufficient condition for
    the quantum RLL relation.  Vacuous for d = 2 (no three distinct indices)."""
    params = {"d": q.d, "m": q.m, "quantum": quantum_name}
    with _Timer() as t:
        for a in range(1, q.d + 1):
            for b in range(a + 1, q.d + 1):
                for c in range(b + 1, q.d + 1):
                    for dd in range(1, q.d + 1):
                        # M_ba = -M_ab pairs the six signed permutations of
                        # (a, b, c): 2({M_ab,M_cd} + {M_bc,M_ad} + {M_ca,M_bd})
                        acc = SparseOperator.zero(q.m)
                        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                            acc = acc + q.gen(x, y) @ q.gen(z, dd) + q.gen(z, dd) @ q.gen(x, y)
                        loc = acc.scale(2).first_nonzero()
                        if loc is not None:
                            (r, cc), value = loc
                            return CheckReport(
                                "asym", params, Status.FAIL, exact=True,
                                elapsed_ms=t.elapsed_ms,
                                detail=(f"nonzero antisymmetrization for (a,b,c,d)="
                                        f"({a},{b},{c},{dd}): {value} at ({r},{cc})"))
    return CheckReport("asym", params, Status.PASS, exact=True,
                       elapsed_ms=t.elapsed_ms)


# ---------------------------------------------------------------------------
# Unitarity, symmetries, projector limit
# ---------------------------------------------------------------------------

def _h_factors(d, u, norm):
    """h+ and h- both from the binomial sums and from the product formulas
    with the normalization's A(u), B(u) weights extracted rationally."""
    table_u = coefficients(d, u, norm)
    table_mu = coefficients(d, -u, norm)
    half = d // 2
    h_plus_sum = ExactScalar(0)
    for k in range(half + 1):
        h_plus_sum = h_plus_sum + table_u[2 * k] * table_mu[2 * k] * comb(d, 2 * k)
    h_plus_sum = h_plus_sum * 2
    h_minus_sum = ExactScalar(0)
    for k in range(half):
        h_minus_sum = h_minus_sum + table_u[2 * k + 1] * table_mu[2 * k + 1] * comb(d, 2 * k + 1)
    h_minus_sum = h_minus_sum * 2

    a_u, b_u = normalization_weights(d, u, norm)
    a_mu, b_mu = normalization_weights(d, -u, norm)
    ring_plus = ExactScalar(1)
    for k in range(half):
        ring_plus = ring_plus * (Fraction(k * k) - u * u)
    ring_minus = ExactScalar(1)
    for k in range(1, half):
        ring_minus = ring_minus * (Fraction(k * k) - u * u)
    h_plus_prod = ring_plus * (a_u * a_mu)
    h_minus_prod = ring_minus * (b_u * b_mu)
    return h_plus_sum, h_minus_sum, h_plus_prod, h_minus_prod


def check_unitarity(d, u, norm=Normalization.PRODUCT_FORM) -> CheckReport:
    """R+(u)R+(-u) = h+ P+ and R-(u)R-(-u) = h- P-, with h+- computed both as
    binomial sums and as product formulas; all three quantities must agree.

    Uses the undressed (naive) matrix convention, under which both products
    carry the stated h signs; the chirality-dressed realizations flip the
    sign of the odd product.  Mixed products must vanish.
    """
    u = Fraction(u)
    params = {"d": d, "u": _fmt(u), "norm": _fmt(norm)}
    basis = _basis(d)
    rep = RepChoice.NAIVE
    with _Timer() as t:
        h_plus_sum, h_minus_sum, h_plus_prod, h_minus_prod = _h_factors(d, u, norm)
        if h_plus_sum != h_plus_prod or h_minus_sum != h_minus_prod:
            return CheckReport(
                "unitarity", params, Status.FAIL, exact=True, elapsed_ms=t.elapsed_ms,
                detail=(f"binomial/product mismatch: h+ {h_plus_sum} vs {h_plus_prod}, "
                        f"h- {h_minus_sum} vs {h_minus_prod}"))
        Rp_u = _spinor_R(d, u, norm, rep, Parity.EVEN)
        Rp_mu = _spinor_R(d, -u, norm, rep, Parity.EVEN)
        Rm_u = _spinor_R(d, u, norm, rep, Parity.ODD)
        Rm_mu = _spinor_R(d, -u, norm, rep, Parity.ODD)
        p_plus, p_minus = projectors(basis)
        diffs = [
            ("even unitarity", Rp_u @ Rp_mu - p_plus.scale(h_plus_sum)),
            ("odd unitarity", Rm_u @ Rm_mu - p_minus.scale(h_minus_sum)),
            ("mixed +-", Rp_u @ Rm_mu),
            ("mixed -+", Rm_u @ Rp_mu),
        ]
    return _exact_report("unitarity", params, diffs, t,
                         convention=f"h+ = {h_plus_sum}, h- = {h_minus_sum} (naive matrix convention)")


def check_symmetries(d, u, norm=Normalization.PRODUCT_FORM,
                     rep=RepChoice.PRIMED) -> CheckReport:
    """so(d) invariance ([G_ab, R] = 0 with G_ab = gamma_ab (x) 1 +
    1 (x) gamma_ab, for all a < b) and the chirality-pair u(1) symmetry
    [gamma5 (x) gamma5, R] = 0, for both parity parts separately.

    Only the d - 1 adjacent generators G_(a,a+1) are tested.  They generate
    so(d) as a Lie algebra: [gamma_ab, gamma_bc] = 2 gamma_ac for distinct
    a, b, c, so G_(a,c) = [G_(a,c-1), G_(c-1,c)] / 2, and every G_ab is a
    nested commutator of adjacent ones.  By the Jacobi identity,
    [[X, Y], R] = [X, [Y, R]] - [Y, [X, R]], so R commutes with every
    G_ab once it commutes with the adjacent ones."""
    u = Fraction(u)
    params = {"d": d, "u": _fmt(u), "norm": _fmt(norm), "rep": _fmt(rep)}
    basis = _basis(d)
    ident = SparseOperator.identity(basis.dim)
    with _Timer() as t:
        parts = [("even", _spinor_R(d, u, norm, rep, Parity.EVEN)),
                 ("odd", _spinor_R(d, u, norm, rep, Parity.ODD))]
        g55 = kron(basis.gamma5, basis.gamma5)
        diffs = []
        for label, R in parts:
            for a in range(1, d):
                gab = antisym_product(basis, (a, a + 1))
                gen = kron(gab, ident) + kron(ident, gab)
                diffs.append((f"so generator ({a},{a + 1}) on {label} part",
                              gen @ R - R @ gen))
            diffs.append((f"chirality pair on {label} part", g55 @ R - R @ g55))
    return _exact_report("symmetries", params, diffs, t)


def check_epsilon_projector_limit(d, norm=Normalization.PRODUCT_FORM) -> CheckReport:
    """lim_{u->0} R+(u)/u = Gamma(d/2) P+ via exact rational-function limits
    of the product-form coefficients."""
    if norm is not Normalization.PRODUCT_FORM:
        raise ValueError("the projector limit is stated for the product normalization")
    params = {"d": d, "norm": _fmt(norm)}
    basis = _basis(d)
    with _Timer() as t:
        try:
            slopes = product_form_slope_at_zero(d)
        except ArithmeticError as exc:
            return CheckReport("epsilon_projector_limit", params, Status.FAIL,
                               exact=True, elapsed_ms=t.elapsed_ms, detail=str(exc))
        limit = SparseOperator.zero(basis.dim ** 2)
        for k in range(0, d + 1, 2):
            if slopes[k]:
                limit = limit + basis.pair_contraction(k).scale(slopes[k])
        gamma_half = 1
        for j in range(1, d // 2):
            gamma_half *= j
        p_plus, _ = projectors(basis)
        diff = limit - p_plus.scale(gamma_half)
    return _exact_report("epsilon_projector_limit", params, [("limit", diff)], t,
                         convention=f"Gamma(d/2) = {gamma_half}")


# ---------------------------------------------------------------------------
# d = 6 Weyl reduction, exchange identities
# ---------------------------------------------------------------------------

def check_d6_reduction(u) -> CheckReport:
    """With the d=6 normalization (even part only), the R-matrix vanishes on
    the mixed Weyl blocks and equals 1 (x) 1 + u P on both aligned blocks."""
    u = Fraction(u)
    params = {"d": 6, "u": _fmt(u), "norm": "d6paper"}
    basis = _basis(6)
    half = basis.dim // 2
    plus = list(range(half))
    minus = list(range(half, basis.dim))
    with _Timer() as t:
        R = _spinor_R(6, u, Normalization.D6_PAPER, RepChoice.NAIVE)

        def sector(rows_a, rows_b, cols_a, cols_b):
            ridx = [basis.dim * i + j for i in rows_a for j in rows_b]
            cidx = [basis.dim * i + j for i in cols_a for j in cols_b]
            return R.submatrix(ridx, cidx)

        perm = SparseOperator.from_entries(
            half * half,
            {(half * i + j, half * j + i): 1 for i in range(half) for j in range(half)})
        yang = SparseOperator.identity(half * half) + perm.scale(u)
        diffs = [
            ("mixed block +-", sector(plus, minus, plus, minus)),
            ("mixed block -+", sector(minus, plus, minus, plus)),
            ("aligned block ++", sector(plus, plus, plus, plus) - yang),
            ("aligned block --", sector(minus, minus, minus, minus) - yang),
        ]
        # the mixed sectors must also not leak into other sectors
        pm = set(basis.dim * i + j for i in plus for j in minus)
        grid = {}
        for (r, c), val in R.items():
            if (r in pm) != (c in pm):
                grid[(r, c)] = val
        diffs.append(("sector leak", SparseOperator.from_entries(R.dim, grid)))
    return _exact_report("d6_reduction", params, diffs, t)


def check_exchange_identities(d, budget=None) -> CheckReport:
    """Exchange-operator identities: P P' = P' P = 2^d, P P = 2^d S_d (the
    top As-component, whose two-copy image is gamma5 (x) gamma5), the
    intertwining relations in the direction that holds at matrix level, and
    the braid relations P12 P23 P12 = P23 P12 P23 (and for P') with
    P12 = P (x) 1 and P23 = 1 (x) P."""
    params = {"d": d}
    basis = _basis(d)
    cap = budget_dim(budget)
    if basis.dim ** 3 >= cap:
        return _skip("exchange_identities", params, basis.dim ** 3, cap)
    with _Timer() as t:
        P, Pp = exchange_pair(basis)
        comps = as_exp_components(basis)
        ident2 = SparseOperator.identity(basis.dim ** 2)
        two_d = 2 ** d
        diffs = [
            ("P P'", P @ Pp - ident2.scale(two_d)),
            ("P' P", Pp @ P - ident2.scale(two_d)),
            ("P P", P @ P - comps[d].scale(two_d)),
            ("P' P'", Pp @ Pp - comps[d].scale((-2) ** d)),
            ("top component", comps[d] - kron(basis.gamma5, basis.gamma5)),
        ]
        for a, (g1, g2) in enumerate(zip(*graded_rep(basis)), start=1):
            diffs.append((f"intertwine P index {a}", g1 @ P - P @ g2))
            diffs.append((f"intertwine P' index {a}", g2 @ Pp - Pp @ g1))
        for label, E in (("braid P", P), ("braid P'", Pp)):
            diffs.append((label, yb_first_row(E, E, E, basis.dim, basis.row_symmetry())))
    return _exact_report("exchange_identities", params, diffs, t)


def check_generating_product(d, x, y) -> CheckReport:
    """E(x) E(y) = (1 - xy)^d E((x+y)/(1-xy)) for rational x, y with xy != 1."""
    x, y = Fraction(x), Fraction(y)
    params = {"d": d, "x": _fmt(x), "y": _fmt(y)}
    if x * y == 1:
        raise ValueError("xy = 1 is outside the product law's domain")
    with _Timer() as t:
        basis = _basis(d)
        lhs = as_exponential(basis, x) @ as_exponential(basis, y)
        arg = (x + y) / (1 - x * y)
        rhs = as_exponential(basis, arg).scale((1 - x * y) ** d)
        diff = lhs - rhs
    return _exact_report("generating_product", params, [("product law", diff)], t)
