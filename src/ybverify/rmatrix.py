"""Coefficient functions R_k(u), spinorial R-matrix assembly, projectors,
the fundamental R-matrix and L-operators, and so(d) quantum representations.

All gamma-function ratios are realized as finite products of linear
factors (u + a), never as transcendental evaluations, so every table entry
is an exact Gaussian rational.  The beta-function normalization is stored relative
to its two parity-family bases B(u/2,(u+d)/2) and B((u+1)/2,(u+d-1)/2); the
quadrature module reattaches those bases as floats where absolute values are
needed.
"""

from __future__ import annotations

import enum
from collections import Counter
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
        require_perturb_k(self.d, k)
        values = list(self.values)
        values[k] = values[k] + ExactScalar(delta)
        return CoefficientTable(self.d, self.u, self.norm, tuple(values))

    def fraction_strings(self):
        return [str(v) for v in self.values]


def require_perturb_k(d: int, k: int):
    """ValueError unless k names an entry R_k of a table for d, 0 <= k <= d."""
    if not 0 <= k <= d:
        raise ValueError(f"perturb_k={k} is outside 0..{d}")


def coefficients(d: int, u, norm: Normalization) -> CoefficientTable:
    """Coefficient table R_0(u)..R_d(u) at the rational point u, for even
    d >= 2: each entry of ``factor_table(d, norm)`` evaluated at u.

    An entry whose denominator vanishes at u is a pole of the
    normalization.  Its offset b = d - 2 - k names the step k = u + d - 2 of
    the recurrence that divides by zero, and the PoleError names that step.
    """
    u = Fraction(u)
    values = []
    for entry in factor_table(d, norm):
        value = _value(entry, u)
        if value is None:
            k = u.numerator + d - 2  # a pole is at an integer u
            raise PoleError(
                f"recurrence pole at k={k}: u + d - 2 - k = 0 for u={u}, d={d}", k=k)
        values.append(ExactScalar(value))
    return CoefficientTable(d, u, norm, tuple(values))


@lru_cache(maxsize=None)
def factor_table(d: int, norm: Normalization) -> tuple:
    """R_0(u)..R_d(u) of the normalization as entries (c, a, b) meaning
    c prod_i (u + a_i) / prod_j (u + b_j), in lowest terms.  Built once per
    (d, norm).

    The Yang-Baxter recurrence (u + k) R_k = (k - u - d + 2) R_(k+2) leaves
    one free weight per parity family.  With both weights 1 it multiplies
    out to the unit shape
        R_2j = (-1)^j prod_{i<j} (u + 2i) / prod_{i<j} (u + d - 2 - 2i),
    and R_2j+1 is the same with every offset shifted by 1.  A normalization
    is the pair of family weights it multiplies that shape by
    (``_family_weights``).  Cancelling the offsets common to numerator and
    denominator resolves every removable 0/0 of the recurrence, so an
    offset left in a denominator is a pole.
    """
    if d < 2 or d % 2:
        raise ValueError(f"d must be even with d >= 2, got {d}")
    weights = _family_weights(d, norm)
    table = []
    for k in range(d + 1):
        j, odd = divmod(k, 2)
        c, offsets = weights[odd]
        table.append(_reduced(-c if j % 2 else c, [*offsets, *range(odd, k, 2)],
                              range(d - 2 - odd, d - 2 - k, -2)))
    return tuple(table)


def _family_weights(d: int, norm: Normalization):
    """(c, offsets) of the even and odd family weights c prod (u + a)."""
    if norm is Normalization.UNIT or norm is Normalization.BETA_FORM:
        # the beta-function table is stored relative to its parity-family
        # bases, which makes its weights 1, as the unit table's are
        return (1, ()), (1, ())
    if norm is Normalization.PRODUCT_FORM:
        # (u/2)_(d/2) and ((u+1)/2)_(d/2-1) / 2
        return (Fraction(1, 2 ** (d // 2)), range(0, d, 2)), \
            (Fraction(1, 2 ** (d // 2)), range(1, d - 2, 2))
    if norm is Normalization.D6_PAPER:
        if d != 6:
            raise ValueError("the d6paper normalization is defined for d = 6 only")
        return (Fraction(1, 8), (4,)), (0, ())
    raise ValueError(f"unknown normalization {norm}")


def _reduced(c, num, den) -> tuple:
    """The entry c prod (u + a) / prod (u + b), a in num and b in den, with
    the offsets common to both cancelled.  A zero entry keeps no factors:
    the recurrence never turns a family that vanishes into a pole."""
    if not c:
        return Fraction(0), (), ()
    num, den = Counter(num), Counter(den)
    common = num & den
    return (Fraction(c), tuple(sorted((num - common).elements())),
            tuple(sorted((den - common).elements())))


def _value(entry, u: Fraction):
    """The entry's value at u = p/q, or None where its denominator vanishes:
    c prod (p + a q) q^#b / (prod (p + b q) q^#a)."""
    c, num, den = entry
    p, q = u.numerator, u.denominator
    top = c.numerator * q ** len(den)
    for a in num:
        top *= p + a * q
    bottom = c.denominator * q ** len(num)
    for b in den:
        bottom *= p + b * q
    return Fraction(top, bottom) if bottom else None


def normalization_weights(d: int, u, norm: Normalization):
    """The even/odd family weights (A(u), B(u)) of the normalization against
    the product-form shape: A = R_0(u)/(u/2)_(d/2) and
    B = 2 R_1(u)/((u+1)/2)_(d/2-1), the quotients of the first two entries
    of ``factor_table`` of the normalization and of the product form, in
    lowest terms.  A denominator that vanishes at u raises PoleError."""
    u = Fraction(u)
    own = factor_table(d, norm)
    product = factor_table(d, Normalization.PRODUCT_FORM)
    weights = []
    for k, label in ((0, "A(u)"), (1, "B(u)")):
        (c, num, den), (pc, pnum, pden) = own[k], product[k]
        value = _value(_reduced(c / pc, num + pden, den + pnum), u)
        if value is None:
            raise PoleError(f"{label} weight singular at u = {u}")
        weights.append(value)
    return tuple(weights)


def product_form_slope_at_zero(d: int):
    """lim_{u->0} R_k(u)/u for the product-form table, as exact Fractions
    for even k (None for odd k), from ``factor_table``: the other factors at
    u = 0 where the factor u appears once, 0 where it appears twice.  An
    even entry without the factor u does not vanish at u = 0 and raises
    ArithmeticError."""
    table = factor_table(d, Normalization.PRODUCT_FORM)
    slopes = [None] * (d + 1)
    for k in range(0, d + 1, 2):
        c, num, den = table[k]
        if 0 not in num:
            raise ArithmeticError(f"R_{k} does not vanish at u = 0")
        rest = list(num)
        rest.remove(0)
        slopes[k] = _value((c, rest, den), Fraction(0))
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


@lru_cache(maxsize=None)
def projectors(basis: GammaBasis):
    """Chirality-pair projectors P+- = (1 (x) 1 +- gamma5 (x) gamma5)/2, cached."""
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
    # the permutation (i d + j, j d + i) meets the trace term where i = j
    trace = -u / pole
    entries = {(i * d + j, j * d + i): u + (trace if i == j else 0)
               for i in range(d) for j in range(d)}
    entries.update({(i * (d + 1), j * (d + 1)): trace for i in range(d) for j in range(d) if i != j})
    return SparseOperator.from_entries(d * d, entries).shifted(1)


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
        self._couplings = {}  # (K, mark, {dims: K13}) of quantum_L, by basis

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

    It is u 1 + K (``K.shifted(u)``) with K = sum_{a<b} (i/2) gamma_ab (x)
    M_ab, which does not depend on u: K is built once per (basis, q) and
    kept on q, so two representations never share one, whatever their
    values.  K is certified once there against ``basis.row_symmetry(q)``,
    and since u 1 commutes with every lift, each L of an invariant K
    carries the (V, W) lifts as its ``certified_lifts`` mark.  Its
    ``coupling`` mark (entry, u) lets ``kernel.rll_first_row`` embed K, not
    L, on slots (0, 2), at the first RLL use, and keep K13 in the entry."""
    if q.d != basis.d:
        raise ValueError(f"quantum rep is for d={q.d}, basis for d={basis.d}")
    dim = basis.dim * q.m
    entry = q._couplings.get(basis)
    if entry is None:
        half_i = ExactScalar(0, Fraction(1, 2))  # 2 * i/4
        coupling = combination(
            [(kron(antisym_product(basis, (a, b)), q.gen(a, b)), half_i)
             for a in range(1, basis.d + 1) for b in range(a + 1, basis.d + 1)], dim)
        symmetry = basis.row_symmetry(q)
        mark = None
        if symmetry is not None and symmetry.certifies((0, 2), coupling):
            mark = (symmetry.lifts[0], symmetry.lifts[2])
        entry = q._couplings[basis] = (coupling, mark, {})
    L = entry[0].shifted(u)
    L.certified_lifts, L.coupling = entry[1], (entry, Fraction(u))
    return L
