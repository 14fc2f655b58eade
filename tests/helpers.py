"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a different route than the
library (brute-force permutation sums, dense triple-loop products, log-gamma
evaluations), so an agreement is a genuine cross-check.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from ybverify import _core
from ybverify.kernel import ExactScalar, SparseOperator, embed_pair, kron


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


def dense_local_ybe_sides(basis, p, q):
    """Both sides of the local Yang-Baxter relation at p and its primed
    partner q, from dense three-copy As-exponentials: sum_k t^k S_k over the
    brute three-copy components of copies (1, 2) and (2, 3) as dense
    arrays, then the product of the three N x N factors of each side."""
    d = basis.d
    gens = brute_graded_generators(basis, 3)
    comps = {ij: [c.to_complex_array() for c in brute_as_exp_components(gens, *ij)]
             for ij in ((1, 2), (2, 3))}

    def exp(ij, t):
        return sum(float(t) ** k * c for k, c in enumerate(comps[ij]))

    x, y, z = (float(v) for v in p)
    xp, yp, zp = (float(v) for v in q)
    lhs = (exp((1, 2), y) @ exp((2, 3), z) @ exp((1, 2), x)) * (1 - x * y) ** (-d)
    rhs = (exp((2, 3), xp) @ exp((1, 2), zp) @ exp((2, 3), yp)) * (1 - xp * yp) ** (-d)
    return lhs, rhs


def yb_sides(a, b, c, n):
    """(a (x) 1)(1 (x) b)(c (x) 1) and (1 (x) c)(b (x) 1)(1 (x) a) from
    stored Kronecker factors and products, with dim V = n: the reference for
    the row stream ``_core.yb_rows`` and ``kernel.yb_first_row``."""
    ident = SparseOperator.identity(n)
    lhs = kron(a, ident) @ kron(ident, b) @ kron(c, ident)
    rhs = kron(ident, c) @ kron(b, ident) @ kron(ident, a)
    return lhs, rhs


def streamed_yb(a, b, c, n, with_rhs=True):
    """The whole residual (a (x) 1)(1 (x) b)(c (x) 1) - (1 (x) c)(b (x) 1)(1 (x) a),
    or its lhs alone, from ``_core.yb_rows`` driven over every row."""
    rows = _core.yb_rows(a._rows, b._rows, c._rows, n, range(n ** 3), with_rhs)
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
    ``_core.chain_rows`` driven over every row of V (x) V (x) W."""
    dims = [n, n, m]
    R12 = embed_pair(R, (0, 1), dims)
    lhs = (R12, embed_pair(Lu, (0, 2), dims), embed_pair(Lv, (1, 2), dims))
    rhs = (embed_pair(Lv, (0, 2), dims), embed_pair(Lu, (1, 2), dims), R12)
    rows = _core.chain_rows([op._rows for op in lhs], [op._rows for op in rhs],
                            range(n * n * m))
    return SparseOperator(n * n * m, dict(rows), R._den * Lu._den * Lv._den)


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
    s_k R_k S_k over the As-components for the primed rep instead."""
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
