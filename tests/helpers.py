"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a different route than the
library (brute-force permutation sums, dense triple-loop products, log-gamma
evaluations), so an agreement is a genuine cross-check.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from ybverify.clifford import as_exp_components
from ybverify.kernel import ExactScalar, SparseOperator


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


def brute_as_exp_components(rep, i, j):
    """S_k = s_k * sum over |A| = k of Gamma_{i,A} Gamma_{j,A}, each term an
    ordered product of the graded copy generators."""
    d = rep.basis.d
    comps = []
    for k in range(d + 1):
        acc = SparseOperator.zero(rep.dim)
        for A in combinations(range(1, d + 1), k):
            gi = gj = SparseOperator.identity(rep.dim)
            for a in A:
                gi = gi @ rep.op(i, a)
                gj = gj @ rep.op(j, a)
            acc = acc + gi @ gj
        comps.append(acc if (k * (k - 1) // 2) % 2 == 0 else -acc)
    return tuple(comps)


def dense_local_ybe_sides(rep3, p, q):
    """Both sides of the local Yang-Baxter relation at p and its primed
    partner q, from dense three-copy As-exponentials: sum_k t^k S_k over
    as_exp_components(rep3, i, j) as dense arrays, then the product of the
    three N x N factors of each side."""
    d = rep3.basis.d
    comps = {ij: [c.to_complex_array() for c in as_exp_components(rep3, *ij)]
             for ij in ((1, 2), (2, 3))}

    def exp(ij, t):
        return sum(float(t) ** k * c for k, c in enumerate(comps[ij]))

    x, y, z = (float(v) for v in p)
    xp, yp, zp = (float(v) for v in q)
    lhs = (exp((1, 2), y) @ exp((2, 3), z) @ exp((1, 2), x)) * (1 - x * y) ** (-d)
    rhs = (exp((2, 3), xp) @ exp((1, 2), zp) @ exp((2, 3), yp)) * (1 - xp * yp) ** (-d)
    return lhs, rhs


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
