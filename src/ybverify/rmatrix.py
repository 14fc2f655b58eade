"""Coefficient functions R_k(u), spinorial R-matrix assembly, projectors,
the fundamental R-matrix and L-operators, and so(d) quantum representations.

All gamma-function ratios are realized as finite rational (Pochhammer)
products, never as transcendental evaluations, so every table entry is an
exact Gaussian rational.  The beta-function normalization is stored relative
to its two parity-family bases B(u/2,(u+d)/2) and B((u+1)/2,(u+d-1)/2); the
quadrature module reattaches those bases as floats where absolute values are
needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .clifford import GammaBasis, antisym_product, as_exp_components, component_family
from .kernel import ExactScalar, SparseOperator, combination, kron


class Normalization(enum.Enum):
    UNIT = "unit"
    PRODUCT_FORM = "product"
    BETA_FORM = "beta"
    D6_PAPER = "d6paper"


class RepChoice(enum.Enum):
    NAIVE = "naive"
    PRIMED = "primed"
    DOUBLE_PRIMED = "doubleprimed"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    FULL = "full"


class PoleError(ValueError):
    """A coefficient or operator was requested at a pole of its normalization."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


@dataclass(frozen=True)
class CoefficientTable:
    """R_0(u)..R_d(u) at a rational spectral point under one normalization."""

    d: int
    u: Fraction
    norm: Normalization
    values: tuple

    def __getitem__(self, k: int) -> ExactScalar:
        return self.values[k]

    def __len__(self):
        return len(self.values)

    def perturbed(self, k: int, delta=1) -> "CoefficientTable":
        """Copy with R_k shifted by delta (negative-control fixture)."""
        values = list(self.values)
        values[k] = values[k] + ExactScalar(delta)
        return CoefficientTable(self.d, self.u, self.norm, tuple(values))

    def fraction_strings(self):
        return [str(v) for v in self.values]


def _poch(x, n):
    """Rising product x (x+1) ... (x+n-1); generic over the scalar ring."""
    out = 1
    for j in range(n):
        out = out * (x + j)
    return out


class _Dual:
    """a + b*eps with eps^2 = 0 over Fractions; enough for one-sided limits
    of the polynomial product-form coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a + other.a, self.b + other.b)
        return _Dual(self.a + other, self.b)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Dual):
            if other.a == 0:
                raise ZeroDivisionError("dual division by a pure-epsilon value")
            return _Dual(self.a / other.a,
                         (self.b * other.a - self.a * other.b) / (other.a * other.a))
        return _Dual(self.a / other, self.b / other)


def base_values(d: int, u, norm: Normalization):
    """(R_0, R_1) seeds for the recurrence under the chosen normalization;
    generic over the scalar ring (Fraction or dual number)."""
    half = d // 2
    if norm is Normalization.UNIT or norm is Normalization.BETA_FORM:
        # the beta-function table is stored relative to its parity bases,
        # which makes its seeds rational and equal to 1
        return Fraction(1), Fraction(1)
    if norm is Normalization.PRODUCT_FORM:
        return _poch(u / 2, half), _poch((u + 1) / 2, half - 1) / 2
    if norm is Normalization.D6_PAPER:
        if d != 6:
            raise ValueError("the d6paper normalization is defined for d = 6 only")
        return (u + 4) / 8, Fraction(0)
    raise ValueError(f"unknown normalization {norm}")


def coefficients(d: int, u, norm: Normalization) -> CoefficientTable:
    """Coefficient table via the two-step recurrence from (R_0, R_1).

    Each table entry is a rational function of u, so the recurrence runs on
    dual numbers (value + derivative): a step whose denominator vanishes is
    removable exactly when its numerator value vanishes too, and L'Hopital
    resolves it since the denominator zero is simple.  A vanishing
    denominator against a nonzero numerator is a genuine pole of the
    normalization and raises PoleError naming the step.  At most one
    singular step can occur per parity family, so losing the derivative
    after one never hurts later values.
    """
    u = Fraction(u)
    ud = _Dual(u, 1)
    b0, b1 = base_values(d, ud, norm)
    duals = [None] * (d + 1)
    duals[0] = b0 if isinstance(b0, _Dual) else _Dual(b0)
    duals[1] = b1 if isinstance(b1, _Dual) else _Dual(b1)
    values = [Fraction(0)] * (d + 1)
    values[0] = duals[0].a
    values[1] = duals[1].a
    for k in range(d - 1):
        den = _Dual(Fraction(k - d + 2) - u, -1)  # k - (u + d - 2)
        rk = duals[k]
        if den.a != 0:
            if rk is None:
                values[k + 2] = (u + k) / den.a * values[k]
            else:
                duals[k + 2] = (ud + k) * rk / den
                values[k + 2] = duals[k + 2].a
            continue
        if rk is None:
            raise AssertionError("second singular step in one parity family")
        numerator = (ud + k) * rk
        if numerator.a != 0:
            raise PoleError(
                f"recurrence pole at k={k}: u + d - 2 - k = 0 for u={u}, d={d}",
                k=k,
            )
        values[k + 2] = numerator.b / den.b
    return CoefficientTable(d, u, norm, tuple(ExactScalar(v) for v in values))


def normalization_weights(d: int, u, norm: Normalization):
    """The even/odd family weights (A(u), B(u)) of the normalization against
    the product-form shape: A = R_0(u)/poch(u/2, d/2) and
    B = 2 R_1(u)/poch((u+1)/2, d/2-1), as rational-function values (removable
    0/0 points resolved by L'Hopital on duals)."""
    u = Fraction(u)
    half = d // 2
    ud = _Dual(u, 1)
    b0, b1 = base_values(d, ud, norm)
    b0 = b0 if isinstance(b0, _Dual) else _Dual(b0)
    b1 = b1 if isinstance(b1, _Dual) else _Dual(b1)

    def ratio(num, den, label):
        num = num if isinstance(num, _Dual) else _Dual(num)
        den = den if isinstance(den, _Dual) else _Dual(den)
        if den.a != 0:
            return (num / den).a
        if num.a != 0:
            raise PoleError(f"{label} weight singular at u = {u}")
        if den.b == 0:
            raise PoleError(f"{label} weight undetermined at u = {u}")
        return num.b / den.b

    weight_a = ratio(b0, _poch(ud / 2, half), "A(u)")
    weight_b = ratio(b1 * 2, _poch((ud + 1) / 2, half - 1), "B(u)")
    return weight_a, weight_b


def product_form_slope_at_zero(d: int):
    """lim_{u->0} R_k(u)/u for the product-form table, as exact Fractions.

    Every even coefficient vanishes linearly at u = 0, so the limits are the
    eps-coefficients of the (polynomial) closed form evaluated at u = eps.
    """
    eps = _Dual(0, 1)
    half = d // 2
    slopes = [None] * (d + 1)
    for k in range(half + 1):
        sign = -1 if k % 2 else 1
        val = _poch(eps / 2, k) * _poch(eps / 2, half - k) * sign
        if val.a != 0:
            raise ArithmeticError(f"R_{2 * k} does not vanish at u = 0")
        slopes[2 * k] = val.b
    return slopes


def assemble_spinor_R(basis: GammaBasis, table: CoefficientTable,
                      rep: RepChoice = RepChoice.NAIVE,
                      parity: Parity = Parity.FULL) -> SparseOperator:
    """Sum_k R_k(u) T_k restricted to the requested parity, with the chosen
    chirality dressing applied to the odd part.

    The primed dressing T_k (gamma5^k (x) 1) is s_k S_k, with S_k the
    As-components of E(t) and s_k = (-1)^(k(k-1)/2), so the primed matrix is
    Sum_k s_k R_k(u) S_k: the sign goes on the coefficient.  Each parity
    part is the pattern map of its family (``clifford.component_family``
    of the T_k, or of the S_k for the primed rep): the coefficients over one
    denominator, one dot product per weight pattern, written to the
    pattern's positions.  A part from a family that passed its certificate
    carries the Weyl lifts as its ``certified_lifts`` mark.  The
    double-primed odd part is -(Sum_odd R_k T_k)(1 (x) gamma5), a product,
    and carries no mark.
    """
    if table.d != basis.d:
        raise ValueError(f"table is for d={table.d}, basis for d={basis.d}")
    primed = rep is RepChoice.PRIMED
    if primed:
        comps = as_exp_components(basis)
    else:
        comps = tuple(basis.pair_contraction(k) for k in range(basis.d + 1))
    family = component_family(basis, comps)

    def part(ks):
        return family.combination(
            {k: -table[k] if primed and (k * (k - 1) // 2) % 2 else table[k] for k in ks})

    evens, odds = range(0, basis.d + 1, 2), range(1, basis.d + 1, 2)
    if rep is RepChoice.DOUBLE_PRIMED and parity is not Parity.EVEN:
        odd = part(odds)
        if not odd.is_zero():
            odd = -(odd @ kron(SparseOperator.identity(basis.dim), basis.gamma5))
        return odd if parity is Parity.ODD else part(evens) + odd
    return part({Parity.EVEN: evens, Parity.ODD: odds,
                 Parity.FULL: range(basis.d + 1)}[parity])


def projectors(basis: GammaBasis):
    """Chirality-pair projectors P+- = (1 (x) 1 +- gamma5 (x) gamma5)/2."""
    ident = SparseOperator.identity(basis.dim * basis.dim)
    g55 = kron(basis.gamma5, basis.gamma5)
    half = Fraction(1, 2)
    return (ident + g55).scale(half), (ident - g55).scale(half)


def fundamental_R0(d: int, u) -> SparseOperator:
    """The d^2-dimensional fundamental R-matrix
    u*permutation + identity - u/(u + d/2 - 1)*(trace term)."""
    u = Fraction(u)
    pole = u + Fraction(d, 2) - 1
    if pole == 0:
        raise PoleError(f"fundamental R-matrix pole at u = {u} = 1 - d/2")
    trace_coeff = -u / pole
    acc = {}

    def add(r, c, v):
        acc[(r, c)] = acc.get((r, c), Fraction(0)) + v

    for i1 in range(d):
        for i2 in range(d):
            r = i1 * d + i2
            add(r, i2 * d + i1, u)  # permutation term
            add(r, r, Fraction(1))
            if i1 == i2:
                for j in range(d):
                    add(r, j * d + j, trace_coeff)
    return SparseOperator.from_entries(d * d, acc)


def fundamental_L0(basis: GammaBasis, u) -> SparseOperator:
    """L-operator on (spinor (x) defining): u 1(x)I - (1/4)[gamma^a, gamma^b] (x) e_ab.

    It is the quantum L-operator on the defining representation: with
    (M_ab)_ce = i(d_ac d_be - d_bc d_ae), (i/4) gamma_ab (x) M^ab summed over
    a < b with weight 2 is -(1/2) sum_{a != b} gamma_a gamma_b (x) e_ab.
    """
    return quantum_L(basis, u, so_defining_rep(basis.d))


class QuantumRep:
    """Finite-dimensional so(d) representation: the antisymmetric generator
    family M_ab on an m-dimensional quantum space W.  ``lifts``, if given,
    are the images on W of ``GammaBasis.weyl_lifts()`` in the same order;
    the RLL check then streams one row per orbit of their monomial action
    (None: every row streams)."""

    def __init__(self, d: int, m: int, gens, lifts=None):
        self.d = d
        self.m = m
        self._gens = gens  # {(a, b): op} for a < b, 1-based
        self.lifts = None if lifts is None else tuple(lifts)
        self._couplings = {}  # the u-independent part of quantum_L, by basis

    def gen(self, a: int, b: int) -> SparseOperator:
        if not (1 <= a <= self.d and 1 <= b <= self.d):
            raise ValueError(f"generator index outside 1..{self.d}")
        if a == b:
            return SparseOperator.zero(self.m)
        if a < b:
            return self._gens[(a, b)]
        return -self._gens[(b, a)]

    def __repr__(self):
        return f"QuantumRep(d={self.d}, m={self.m})"


@lru_cache(maxsize=None)
def so_defining_rep(d: int) -> QuantumRep:
    """The defining d-dimensional representation, (M_ab)_ce = i(d_ac d_be - d_bc d_ae).

    (The sign is fixed by requiring the stated so(d) brackets to hold
    exactly; the opposite sign satisfies them with a flipped structure
    constant.)

    Its lifts are the images of the Weyl lifts: 1 + gamma_a gamma_c is a
    multiple of exp(-i pi/2 M_ac) on spinors, and on this space
    exp(-i pi/2 M_ac) is the rotation 1 - M_ac^2 - i M_ac, because
    M_ac^3 = M_ac.

    Cached by d: a ``QuantumRep`` is never modified after construction and
    its operators are immutable, so every caller may share one instance.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    gens = {}
    for a in range(1, d + 1):
        for b in range(a + 1, d + 1):
            gens[(a, b)] = SparseOperator.from_entries(
                d, {(a - 1, b - 1): (0, 1), (b - 1, a - 1): (0, -1)}
            )
    ident = SparseOperator.identity(d)

    def rot(a, c):
        M = gens[(a, c)]
        return ident - M @ M - M.scale(ExactScalar(0, 1))

    m = d // 2
    lifts = [rot(2 * k - 1, 2 * k + 1) @ rot(2 * k, 2 * k + 2) for k in range(1, m)]
    if m >= 2:
        flip = rot(2 * m - 3, 2 * m - 1)
        lifts.append(flip @ flip)
    return QuantumRep(d, d, gens, lifts)


@lru_cache(maxsize=None)
def so_spinor_rep(basis: GammaBasis) -> QuantumRep:
    """The spinor representation M_ab = (i/2) gamma_ab, whose lifts are the
    Weyl lifts themselves.  Cached by basis, as ``so_defining_rep`` is by d."""
    half_i = ExactScalar(0, Fraction(1, 2))
    gens = {}
    for a in range(1, basis.d + 1):
        for b in range(a + 1, basis.d + 1):
            gens[(a, b)] = antisym_product(basis, (a, b)).scale(half_i)
    return QuantumRep(basis.d, basis.dim, gens, basis.weyl_lifts())


def quantum_L(basis: GammaBasis, u, q: QuantumRep) -> SparseOperator:
    """L-operator u + (i/4) gamma_ab (x) M^ab on (spinor (x) quantum space);
    the double index sum runs over ordered pairs with weight 2.

    It is u 1 + K with K = sum_{a<b} (i/2) gamma_ab (x) M_ab, which does not
    depend on u: K is built once per (basis, q) and kept on q, so two
    representations never share one, whatever their values."""
    if q.d != basis.d:
        raise ValueError(f"quantum rep is for d={q.d}, basis for d={basis.d}")
    dim = basis.dim * q.m
    coupling = q._couplings.get(basis)
    if coupling is None:
        half_i = ExactScalar(0, Fraction(1, 2))  # 2 * i/4
        coupling = q._couplings[basis] = combination(
            [(kron(antisym_product(basis, (a, b)), q.gen(a, b)), half_i)
             for a in range(1, basis.d + 1) for b in range(a + 1, basis.d + 1)], dim)
    return combination([(SparseOperator.identity(dim), Fraction(u)), (coupling, 1)], dim)
