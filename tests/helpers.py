"""Independent oracles and identity checks shared by the test modules.

Everything here recomputes expected values by a different route than the
library (brute-force permutation sums, subset sums, closed forms, dense
triple-loop products, finite differences), so an agreement is a genuine
cross-check.  The library itself never calls any of it.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from ybverify import _core
from ybverify.kernel import ExactScalar, SparseOperator, combination, embed_pair, kron
from ybverify.clifford import antisym_product, as_exp_components, component_family
from ybverify.localyb import (CurveCoords, RegionTag, TripleXYZ, forward_map,
                              local_ybe_factors)
from ybverify.rmatrix import CoefficientTable, Normalization, PoleError


def perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def brute_antisym(basis, indices):
    """(1/k!) sum over permutations of signed ordered products; the full
    antisymmetrization definition, exponential in k."""
    indices = sorted(indices)
    k = len(indices)
    if k == 0:
        return SparseOperator.identity(basis.dim)
    acc = SparseOperator.zero(basis.dim)
    for perm in permutations(indices):
        prod = SparseOperator.identity(basis.dim)
        for a in perm:
            prod = prod @ basis.gamma(a)
        acc = acc + prod.scale(perm_sign(perm))
    inv_fact = Fraction(1)
    for j in range(2, k + 1):
        inv_fact /= j
    return acc.scale(inv_fact)


def subset_pair_contraction(basis, k):
    """T_k = sum over |A| = k of Gamma_A (x) Gamma_A, one permutation-sum
    Gamma_A per index subset: the reference for
    ``GammaBasis.pair_contraction``, which builds every T_k as an
    elementary symmetric polynomial instead."""
    acc = SparseOperator.zero(basis.dim ** 2)
    for A in combinations(range(1, basis.d + 1), k):
        g = brute_antisym(basis, A)
        acc = acc + kron(g, g)
    return acc


def subset_products(factors, k):
    """e_k(factors) expanded: the sum over |A| = k of the ordered products of
    the factors indexed by A (the zero operator for k > len(factors))."""
    dim = factors[0].dim
    acc = SparseOperator.zero(dim)
    for A in combinations(factors, k):
        prod = SparseOperator.identity(dim)
        for f in A:
            prod = prod @ f
        acc = acc + prod
    return acc


def gamma5_pair_reflection(basis, k):
    """Difference of (gamma5 (x) gamma5) T_k and (-1)^(d/2) T_(d-k); zero
    iff the complementary-index reflection identity holds at grade k."""
    g55 = kron(basis.gamma5, basis.gamma5)
    sign = 1 if (basis.d // 2) % 2 == 0 else -1
    return g55 @ basis.pair_contraction(k) - basis.pair_contraction(basis.d - k).scale(sign)


@lru_cache(maxsize=None)
def brute_graded_generators(basis, n):
    """The n-copy graded generators as a table: row i - 1 holds copy i's
    generators gamma5^(x(i-1)) (x) gamma_a (x) 1^(x(n-i)), a = 1..d, which
    anticommute across copies and keep the copy-internal relations."""
    ident = SparseOperator.identity(basis.dim)
    table = []
    for i in range(n):
        row = []
        for a in range(1, basis.d + 1):
            factors = [basis.gamma5] * i + [basis.gamma(a)] + [ident] * (n - 1 - i)
            op = factors[0]
            for f in factors[1:]:
                op = kron(op, f)
            row.append(op)
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def brute_as_exp_components(gens, i, j):
    """S_k = s_k * sum over |A| = k of Gamma_{i,A} Gamma_{j,A}, each term an
    ordered product of the generators ``gens[i - 1]`` and ``gens[j - 1]``
    (cached: the three-copy d = 6 components take about a second)."""
    d, dim = len(gens[0]), gens[0][0].dim
    comps = []
    for k in range(d + 1):
        acc = SparseOperator.zero(dim)
        for A in combinations(range(d), k):
            gi = gj = SparseOperator.identity(dim)
            for a in A:
                gi = gi @ gens[i - 1][a]
                gj = gj @ gens[j - 1][a]
            acc = acc + gi @ gj
        comps.append(acc if (k * (k - 1) // 2) % 2 == 0 else -acc)
    return tuple(comps)


def brute_as_exponential(gens, i, j, t):
    """sum_k t^k S_k over the brute components of copies (i, j)."""
    t = Fraction(t)
    acc = SparseOperator.zero(gens[0][0].dim)
    for k, comp in enumerate(brute_as_exp_components(gens, i, j)):
        acc = acc + comp.scale(t ** k)
    return acc


def to_complex(x):
    """The ExactScalar x as a complex float."""
    return complex(x.re) + 1j * complex(x.im)


def trace(op):
    """The exact sum of the diagonal entries of op."""
    return sum((op.entry(i, i) for i in range(op.dim)), ExactScalar(0))


def to_complex_array(op):
    """The operator as a dense complex array."""
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for (r, c), v in op.items():
        out[r, c] = to_complex(v)
    return out


def dense_local_ybe_sides(basis, p, q):
    """Both sides of the local Yang-Baxter relation at p and its primed
    partner q, from dense three-copy As-exponentials: sum_k t^k S_k over the
    brute three-copy components of copies (1, 2) and (2, 3) as dense
    arrays, then the product of the three N x N factors of each side."""
    d = basis.d
    gens = brute_graded_generators(basis, 3)
    comps = {ij: [to_complex_array(c) for c in brute_as_exp_components(gens, *ij)]
             for ij in ((1, 2), (2, 3))}

    def exp(ij, t):
        return sum(float(t) ** k * c for k, c in enumerate(comps[ij]))

    x, y, z = (float(v) for v in p)
    xp, yp, zp = (float(v) for v in q)
    lhs = (exp((1, 2), y) @ exp((2, 3), z) @ exp((1, 2), x)) * (1 - x * y) ** (-d)
    rhs = (exp((2, 3), xp) @ exp((1, 2), zp) @ exp((2, 3), yp)) * (1 - xp * yp) ** (-d)
    return lhs, rhs


YB_LHS_SLOTS = ((0, 1), (1, 2), (0, 1))
YB_RHS_SLOTS = ((1, 2), (0, 1), (1, 2))


def yb_slot_rows(lhs, rhs, n, rows):
    """``_core.slot_rows`` of (A1 (x) 1)(1 (x) A2)(A3 (x) 1) -
    (1 (x) B1)(B2 (x) 1)(1 (x) B3) for grids lhs = (A1, A2, A3) and
    rhs = (B1, B2, B3) on V (x) V, dim V = n, or of the lhs alone."""
    return _core.slot_rows(tuple(zip(lhs, YB_LHS_SLOTS)),
                           None if rhs is None else tuple(zip(rhs, YB_RHS_SLOTS)),
                           (n, n, n), rows)


def streamed_local_ybe_sides(basis, p, q):
    """Both sides of the local Yang-Baxter relation at p and its primed
    partner q as dense arrays, from ``_core.slot_rows`` driven over every
    row of the float factors ``localyb.local_ybe_factors``: the lhs stream
    alone, and the rhs as the negated stream of an empty lhs."""
    lhs, rhs = local_ybe_factors(component_family(basis, as_exp_components(basis)), p, q)
    n = basis.dim
    sides = []
    for factors, sign in (((lhs, None), 1), ((({}, {}, {}), rhs), -1)):
        out = np.zeros((n ** 3, n ** 3), dtype=complex)
        for r, row in yb_slot_rows(*factors, n, range(n ** 3)):
            for c, (re, im) in row.items():
                out[r, c] = sign * complex(re, im)
        sides.append(out)
    return sides


def yb_sides(a, b, c, n):
    """(a (x) 1)(1 (x) b)(c (x) 1) and (1 (x) c)(b (x) 1)(1 (x) a) from
    stored Kronecker factors and products, with dim V = n: the reference for
    the row stream ``_core.slot_rows`` and ``kernel.yb_first_row``."""
    ident = SparseOperator.identity(n)
    lhs = kron(a, ident) @ kron(ident, b) @ kron(c, ident)
    rhs = kron(ident, c) @ kron(b, ident) @ kron(ident, a)
    return lhs, rhs


def streamed_yb(a, b, c, n, with_rhs=True):
    """The whole residual (a (x) 1)(1 (x) b)(c (x) 1) - (1 (x) c)(b (x) 1)(1 (x) a),
    or its lhs alone, from ``_core.slot_rows`` driven over every row."""
    lhs = (a._rows, b._rows, c._rows)
    rows = yb_slot_rows(lhs, lhs[::-1] if with_rhs else None, n, range(n ** 3))
    return SparseOperator(n ** 3, dict(rows), a._den * b._den * c._den)


def rll_sides(R, Lu, Lv, n, m):
    """R12 Lu13 Lv23 and Lv13 Lu23 R12 on V (x) V (x) W, dim V = n and
    dim W = m, from the embedded operators and stored sparse products: the
    reference for the row stream ``kernel.rll_first_row``."""
    dims = [n, n, m]
    R12 = embed_pair(R, (0, 1), dims)
    lhs = R12 @ embed_pair(Lu, (0, 2), dims) @ embed_pair(Lv, (1, 2), dims)
    rhs = embed_pair(Lv, (0, 2), dims) @ embed_pair(Lu, (1, 2), dims) @ R12
    return lhs, rhs


def streamed_rll(R, Lu, Lv, n, m):
    """The whole RLL residual R12 Lu13 Lv23 - Lv13 Lu23 R12 from
    ``_core.slot_rows`` driven over every row of V (x) V (x) W: R12 and the
    L23 by index arithmetic, the L13 embedded."""
    dims = (n, n, m)
    Lu13, Lv13 = (embed_pair(L, (0, 2), dims)._rows for L in (Lu, Lv))
    lhs = ((R._rows, (0, 1)), (Lu13, (0, 1, 2)), (Lv._rows, (1, 2)))
    rhs = ((Lv13, (0, 1, 2)), (Lu._rows, (1, 2)), (R._rows, (0, 1)))
    rows = _core.slot_rows(lhs, rhs, dims, range(n * n * m))
    return SparseOperator(n * n * m, dict(rows), R._den * Lu._den * Lv._den)


def fundamental_R0_loop(d, u):
    """u*permutation + identity - u/(u + d/2 - 1)*(trace term) summed entry
    by entry into one Fraction map: the reference for
    ``rmatrix.fundamental_R0``, which shifts the other two terms by the
    identity instead."""
    trace_coeff = -u / (u + Fraction(d, 2) - 1)
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


def fundamental_L0_loop(basis, u):
    """u 1 (x) I - (1/4)[gamma_a, gamma_b] (x) e_ab summed over a != b, one
    kron per ordered pair with matrix units e_ab: the reference for
    ``rmatrix.fundamental_L0``, which is built from the defining-rep
    quantum L-operator instead."""
    d = basis.d
    u = Fraction(u)
    out = SparseOperator.identity(basis.dim * d).scale(u)
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a == b:
                continue
            # [gamma_a, gamma_b] = 2 gamma_a gamma_b for a != b
            gab = (basis.gamma(a) @ basis.gamma(b)).scale(Fraction(-1, 2))
            e_ab = SparseOperator.from_entries(d, {(a - 1, b - 1): 1})
            out = out + kron(gab, e_ab)
    return out


def dressed_spinor_R(basis, table, rep, parity):
    """The spinorial R-matrix with the chirality dressing applied to the
    summed odd part: sum_even R_k T_k + (sum_odd R_k T_k)(gamma5 (x) 1) for
    the primed rep and -(sum_odd R_k T_k)(1 (x) gamma5) for the double-primed
    one.  The reference for ``rmatrix.assemble_spinor_R``, which sums
    coefficients times the As-components S_k for both dressed reps instead."""
    from ybverify.rmatrix import Parity, RepChoice

    ident = SparseOperator.identity(basis.dim)
    even = odd = SparseOperator.zero(basis.dim ** 2)
    for k in range(basis.d + 1):
        term = basis.pair_contraction(k).scale(table[k])
        if k % 2:
            odd = odd + term
        else:
            even = even + term
    if rep is RepChoice.PRIMED:
        odd = odd @ kron(basis.gamma5, ident)
    elif rep is RepChoice.DOUBLE_PRIMED:
        odd = -(odd @ kron(ident, basis.gamma5))
    return {Parity.EVEN: even, Parity.ODD: odd, Parity.FULL: even + odd}[parity]


def combination_spinor_R(basis, table, rep, parity):
    """The spinorial R-matrix as one ``kernel.combination`` per parity part
    over every stored entry of the T_k (naive, double-primed) or of the
    As-components with s_k R_k (primed), the double-primed odd part then
    dressed with -(1 (x) gamma5): the reference for
    ``rmatrix.assemble_spinor_R``, which evaluates each weight pattern
    once instead."""
    from ybverify.rmatrix import Parity, RepChoice

    comps = as_exp_components(basis) if rep is RepChoice.PRIMED else None

    def part(ks):
        terms = []
        for k in ks:
            coeff = table[k]
            if comps is None:
                terms.append((basis.pair_contraction(k), coeff))
            else:
                terms.append((comps[k], -coeff if (k * (k - 1) // 2) % 2 else coeff))
        return combination(terms, basis.dim * basis.dim)

    evens, odds = range(0, basis.d + 1, 2), range(1, basis.d + 1, 2)
    if rep is RepChoice.DOUBLE_PRIMED and parity is not Parity.EVEN:
        odd = part(odds)
        if not odd.is_zero():
            odd = -(odd @ kron(SparseOperator.identity(basis.dim), basis.gamma5))
        return odd if parity is Parity.ODD else part(evens) + odd
    return part({Parity.EVEN: evens, Parity.ODD: odds,
                 Parity.FULL: range(basis.d + 1)}[parity])


def combination_quantum_L(basis, u, q):
    """u 1 + (i/2) sum_{a<b} gamma_ab (x) M_ab as one ``kernel.combination``
    of the identity and every Kronecker term: the reference for
    ``rmatrix.quantum_L``, which builds the u-independent part once per
    (basis, q)."""
    half_i = ExactScalar(0, Fraction(1, 2))
    dim = basis.dim * q.m
    terms = [(SparseOperator.identity(dim), Fraction(u))]
    for a in range(1, basis.d + 1):
        for b in range(a + 1, basis.d + 1):
            terms.append((kron(antisym_product(basis, (a, b)), q.gen(a, b)), half_i))
    return combination(terms, dim)


def dense_mul(a, b):
    """Naive triple-loop product via the entry() accessor."""
    out = {}
    for (i, j), av in a.items():
        for (jj, k), bv in b.items():
            if jj != j:
                continue
            cur = out.get((i, k), ExactScalar(0))
            out[(i, k)] = cur + av * bv
    return SparseOperator.from_entries(a.dim, out)


def dense_kron(a, b):
    out = {}
    for (i, j), av in a.items():
        for (k, l), bv in b.items():
            out[(i * b.dim + k, j * b.dim + l)] = av * bv
    return SparseOperator.from_entries(a.dim * b.dim, out)


def rand_scalar(rng: random.Random) -> ExactScalar:
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return ExactScalar(frac(), frac())


def rand_operator(rng: random.Random, dim: int, fill: int) -> SparseOperator:
    entries = {}
    for _ in range(fill):
        entries[(rng.randrange(dim), rng.randrange(dim))] = rand_scalar(rng)
    return SparseOperator.from_entries(dim, entries)


def entry_dict(op):
    """An operator as {(row, col): (re, im)} with Fraction parts, one key
    per stored entry (a stored zero shows up as a (0, 0) value)."""
    den = op._den
    return {(r, c): (Fraction(re, den), Fraction(im, den))
            for r, row in op._rows.items() for (c, (re, im)) in row.items()}


def dict_combination(terms):
    """sum c X over the (X, c) pairs in ``terms``, X an ``entry_dict`` and c
    an int, Fraction or ExactScalar, entry by entry in Fractions, zero
    entries dropped."""
    out = {}
    for entries, c in terms:
        cr, ci = (c.re, c.im) if isinstance(c, ExactScalar) else (Fraction(c), 0)
        for key, (vr, vi) in entries.items():
            re, im = out.get(key, (0, 0))
            out[key] = (re + cr * vr - ci * vi, im + cr * vi + ci * vr)
    return {key: v for key, v in out.items() if v != (0, 0)}


def is_canonical(op):
    """True iff the operator's grid stores no zero entry and no empty row,
    and its denominator is positive and coprime to every numerator part."""
    parts = [x for row in op._rows.values() for v in row.values() for x in v]
    return (op._den > 0 and all(op._rows.values())
            and all(re or im for row in op._rows.values() for re, im in row.values())
            and math.gcd(op._den, *parts) == 1)


def parse_scalar(text):
    """Inverse of ``str(ExactScalar)``; accepts "p/q", "r/s*i" and
    "p/q+r/s*i" forms."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if "i" not in text:
        return ExactScalar(Fraction(text))
    body = text[:-2] if text.endswith("*i") else text[:-1]
    # split real from imaginary on the last +/- that is not a leading sign
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/*":
            re_part, im_part = body[:pos], body[pos:]
            if im_part in ("+", "-"):
                im_part += "1"
            return ExactScalar(Fraction(re_part), Fraction(im_part))
    return ExactScalar(0, Fraction(body if body not in ("", "+", "-") else body + "1"))


# --- coefficient tables and representations ---------------------------------

def _poch(x, n):
    return math.prod((x + j for j in range(n)), start=Fraction(1))


def coefficients_closed_form(d, u, norm):
    """Closed-form tables for the product-of-gammas and beta normalizations;
    must agree exactly with the recurrence path ``rmatrix.coefficients``."""
    u = Fraction(u)
    half = d // 2
    values = [Fraction(0)] * (d + 1)
    if norm is Normalization.PRODUCT_FORM:
        for k in range(half + 1):
            sign = -1 if k % 2 else 1
            values[2 * k] = sign * _poch(u / 2, k) * _poch(u / 2, half - k)
        for k in range(half):
            sign = -1 if k % 2 else 1
            values[2 * k + 1] = sign * _poch((u + 1) / 2, k) * _poch((u + 1) / 2, half - 1 - k) / 2
    elif norm is Normalization.BETA_FORM:
        # B(k+u/2, (u+d)/2-k) / B(u/2, (u+d)/2) and the odd analogue
        for k in range(half + 1):
            den = _poch(u / 2 + half - k, k)
            if den == 0:
                raise PoleError(f"beta-ratio pole at even k={2 * k} for u={u}", k=2 * k)
            sign = -1 if k % 2 else 1
            values[2 * k] = sign * _poch(u / 2, k) / den
        for k in range(half):
            den = _poch((u + 1) / 2 + half - 1 - k, k)
            if den == 0:
                raise PoleError(f"beta-ratio pole at odd k={2 * k + 1} for u={u}", k=2 * k + 1)
            sign = -1 if k % 2 else 1
            values[2 * k + 1] = sign * _poch((u + 1) / 2, k) / den
    else:
        raise ValueError("closed forms exist for the product and beta normalizations")
    return CoefficientTable(d, u, norm, tuple(ExactScalar(v) for v in values))


class Dual:
    """a + b*eps with eps^2 = 0 over Fractions: a rational function's value
    and derivative, enough to resolve a removable 0/0 by L'Hopital."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.a == 0:
                raise ZeroDivisionError("dual division by a pure-epsilon value")
            return Dual(self.a / other.a,
                        (self.b * other.a - self.a * other.b) / (other.a * other.a))
        return Dual(self.a / other, self.b / other)


def _dual(x):
    return x if isinstance(x, Dual) else Dual(x)


def recurrence_seeds(d, u, norm):
    """(R_0, R_1) of the normalization at the dual number u; the
    beta-function table is stored relative to its parity bases, so its
    seeds are 1, as the unit table's are."""
    half = d // 2
    if norm is Normalization.UNIT or norm is Normalization.BETA_FORM:
        return Dual(1), Dual(1)
    if norm is Normalization.PRODUCT_FORM:
        return _poch(u / 2, half), _dual(_poch((u + 1) / 2, half - 1) / 2)
    if norm is Normalization.D6_PAPER:
        if d != 6:
            raise ValueError("the d6paper normalization is defined for d = 6 only")
        return (u + 4) / 8, Dual(0)
    raise ValueError(f"unknown normalization {norm}")


def recurrence_table(d, u, norm):
    """R_0(u)..R_d(u) by the two-step recurrence (u + k) R_k = (k - u - d + 2)
    R_(k+2) from the seeds, on dual numbers: the reference for
    ``rmatrix.coefficients``.

    A step whose denominator vanishes is removable exactly when its
    numerator vanishes too, and L'Hopital resolves it, since the
    denominator zero is simple; otherwise it raises the PoleError that
    names the step.  Only the step k = u + d - 2 can be singular, so
    dropping the derivative after it never hurts later values.
    """
    u = Fraction(u)
    ud = Dual(u, 1)
    duals = [None] * (d + 1)
    duals[0], duals[1] = recurrence_seeds(d, ud, norm)
    values = [duals[0].a, duals[1].a] + [Fraction(0)] * (d - 1)
    for k in range(d - 1):
        den = Dual(Fraction(k - d + 2) - u, -1)  # k - (u + d - 2)
        if den.a != 0:
            if duals[k] is None:
                values[k + 2] = (u + k) / den.a * values[k]
            else:
                duals[k + 2] = (ud + k) * duals[k] / den
                values[k + 2] = duals[k + 2].a
            continue
        numerator = (ud + k) * duals[k]
        if numerator.a != 0:
            raise PoleError(
                f"recurrence pole at k={k}: u + d - 2 - k = 0 for u={u}, d={d}", k=k)
        values[k + 2] = numerator.b / den.b
    return CoefficientTable(d, u, norm, tuple(ExactScalar(v) for v in values))


def normalization_weights_dual(d, u, norm):
    """(A(u), B(u)) = (R_0(u)/(u/2)_(d/2), 2 R_1(u)/((u+1)/2)_(d/2-1)) from the
    seeds on dual numbers, a removable 0/0 resolved by L'Hopital: the
    reference for ``rmatrix.normalization_weights``."""
    u = Fraction(u)
    half = d // 2
    ud = Dual(u, 1)
    b0, b1 = recurrence_seeds(d, ud, norm)

    def ratio(num, den, label):
        den = _dual(den)
        if den.a != 0:
            return (num / den).a
        if num.a != 0:
            raise PoleError(f"{label} weight singular at u = {u}")
        if den.b == 0:
            raise PoleError(f"{label} weight undetermined at u = {u}")
        return num.b / den.b

    return (ratio(b0, _poch(ud / 2, half), "A(u)"),
            ratio(b1 * 2, _poch((ud + 1) / 2, half - 1), "B(u)"))


def product_form_slope_at_zero_dual(d):
    """lim_{u->0} R_k(u)/u for the product-form table (None for odd k): the
    eps-coefficients of the closed form evaluated on the dual number u = eps,
    the reference for ``rmatrix.product_form_slope_at_zero``."""
    eps = Dual(0, 1)
    half = d // 2
    slopes = [None] * (d + 1)
    for k in range(half + 1):
        sign = -1 if k % 2 else 1
        val = _poch(eps / 2, k) * _poch(eps / 2, half - k) * sign
        if val.a != 0:
            raise ArithmeticError(f"R_{2 * k} does not vanish at u = 0")
        slopes[2 * k] = val.b
    return slopes


def recurrence_holds(table):
    """R_{k+2} (k - (u+d-2)) = (u+k) R_k for every k <= d-2, exactly."""
    u, d = table.u, table.d
    return all(table[k + 2] * (Fraction(k) - (u + d - 2)) == table[k] * (u + Fraction(k))
               for k in range(d - 1))


def reciprocity_holds(table):
    """R_{2k} = (-1)^(d/2) R_{d-2k} and R_{2k+1} = -(-1)^(d/2) R_{d-2k-1}."""
    d = table.d
    sign = 1 if (d // 2) % 2 == 0 else -1
    return (all(table[k] == table[d - k] * sign for k in range(0, d + 1, 2))
            and all(table[k] == -(table[d - k] * sign) for k in range(1, d, 2)))


def commutes_with_all_so_pairs(basis, R):
    """True iff R on V (x) V commutes with gamma_ab (x) 1 + 1 (x) gamma_ab
    for every a < b, not only the adjacent pairs, and with
    gamma5 (x) gamma5: the all-pairs form of the symmetries check, with
    gamma_ab from ``brute_antisym``."""
    ident = SparseOperator.identity(basis.dim)
    gens = [kron(basis.gamma5, basis.gamma5)]
    for a, b in combinations(range(1, basis.d + 1), 2):
        gab = brute_antisym(basis, (a, b))
        gens.append(kron(gab, ident) + kron(ident, gab))
    return all(gen @ R == R @ gen for gen in gens)


def weyl_projectors(basis):
    """Half-spinor projectors (1 +- gamma5)/2 on the single spinor space."""
    ident = SparseOperator.identity(basis.dim)
    half = Fraction(1, 2)
    return (ident + basis.gamma5).scale(half), (ident - basis.gamma5).scale(half)


def satisfies_so_relations(q):
    """Exhaustive exact check of the so(d) commutation relations
    [M_ab, M_dc] = i(d_bd M_ac + d_ac M_bd - d_ad M_bc - d_bc M_ad) on the
    quantum representation ``q``."""
    i = ExactScalar(0, 1)
    for a in range(1, q.d + 1):
        for b in range(1, q.d + 1):
            for dd in range(1, q.d + 1):
                for c in range(1, q.d + 1):
                    lhs = q.gen(a, b) @ q.gen(dd, c) - q.gen(dd, c) @ q.gen(a, b)
                    rhs = SparseOperator.zero(q.m)
                    if b == dd:
                        rhs = rhs + q.gen(a, c)
                    if a == c:
                        rhs = rhs + q.gen(b, dd)
                    if a == dd:
                        rhs = rhs - q.gen(b, c)
                    if b == c:
                        rhs = rhs - q.gen(a, dd)
                    if lhs != rhs.scale(i):
                        return False
    return True


# --- chart geometry of the local Yang-Baxter relation -----------------------

def invariants(p):
    """(lambda1, lambda2) = (z(x-y)/(1-xy), z(x+y)(1+xy)/(1-xy)^2); these
    equal (b, a*b) of the forward chart and are preserved by the primed map."""
    x, y, z = p
    s = x * y
    if s == 1:
        raise ZeroDivisionError("xy = 1 is singular")
    return z * (x - y) / (1 - s), z * (x + y) * (1 + s) / (1 - s) ** 2


def companion_point(c):
    """(a, b, t) -> (a, b, b/(a t)); an involution on the curve."""
    a, b, t = c
    if a == 0 or t == 0:
        raise ZeroDivisionError("companion point needs a != 0 and t != 0")
    return CurveCoords(a, b, b / (a * t))


def classify_region(p):
    """Region of a point with nonzero coordinates; boundary points
    (x = y, xy = 1, z = 0) are measure-zero and rejected."""
    x, y, z = p
    if x == y or x * y == 1 or z == 0:
        raise ValueError(f"boundary point {tuple(p)} has no region")
    return RegionTag(x > y, x * y > 1, z > 0)


def jacobian_fd(p, h=1e-6):
    """Central finite-difference determinant of the forward chart, the
    reference for the closed-form ``localyb.jacobian``."""
    x, y, z = (float(v) for v in p)
    cols = []
    for dx, dy, dz in ((h, 0, 0), (0, h, 0), (0, 0, h)):
        hi = forward_map(TripleXYZ(x + dx, y + dy, z + dz))
        lo = forward_map(TripleXYZ(x - dx, y - dy, z - dz))
        cols.append([(float(hi[i]) - float(lo[i])) / (2 * h) for i in range(3)])
    return float(np.linalg.det(np.array(cols).T))
