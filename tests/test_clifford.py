import random
from fractions import Fraction
from itertools import combinations

import pytest

from ybverify.clifford import (as_exp_components, as_exponential, antisym_product,
                               build_gamma, exchange_pair, graded_rep)
from ybverify.kernel import ExactScalar, SparseOperator, kron

from helpers import (brute_antisym, brute_as_exp_components, brute_as_exponential,
                     brute_graded_generators, gamma5_pair_reflection,
                     subset_pair_contraction, subset_products, trace)


@pytest.fixture(scope="module")
def bases():
    return {d: build_gamma(d) for d in (2, 4, 6, 8)}


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_clifford_relations(bases, d):
    basis = bases[d]
    ident = SparseOperator.identity(basis.dim)
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            acm = basis.gamma(a) @ basis.gamma(b) + basis.gamma(b) @ basis.gamma(a)
            expected = ident.scale(2) if a == b else SparseOperator.zero(basis.dim)
            assert acm == expected, (a, b)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_chirality_properties(bases, d):
    basis = bases[d]
    g5 = basis.gamma5
    assert g5 @ g5 == SparseOperator.identity(basis.dim)
    for a in range(1, d + 1):
        assert (g5 @ basis.gamma(a) + basis.gamma(a) @ g5).is_zero()
    # diagonal +-1 with the +1 block first
    diag = [g5.entry(i, i) for i in range(basis.dim)]
    half = basis.dim // 2
    assert all(v == ExactScalar(1) for v in diag[:half])
    assert all(v == ExactScalar(-1) for v in diag[half:])
    assert g5.nnz == basis.dim
    # gamma5 = alpha * gamma_1...gamma_d with alpha^2 = (-1)^(d/2)
    prod = antisym_product(basis, range(1, d + 1))
    assert prod.scale(basis.alpha) == g5
    want = ExactScalar(-1) if (d // 2) % 2 else ExactScalar(1)
    assert basis.alpha * basis.alpha == want


def test_d2_matrices_are_paulis(bases):
    basis = bases[2]
    assert list(basis.gammas[0].items()) == [
        ((0, 1), ExactScalar(1)), ((1, 0), ExactScalar(1))]
    assert list(basis.gammas[1].items()) == [
        ((0, 1), ExactScalar(0, -1)), ((1, 0), ExactScalar(0, 1))]
    assert list(basis.gamma5.items()) == [
        ((0, 0), ExactScalar(1)), ((1, 1), ExactScalar(-1))]


def test_d6_gamma5_traceless(bases):
    g5 = bases[6].gamma5
    assert trace(g5) == ExactScalar(0)


def test_build_gamma_rejects_bad_d():
    for bad in (3, 0, -2, 12):
        with pytest.raises(ValueError, match="2 <= d <= 10"):
            build_gamma(bad)


def test_antisym_empty_is_identity(bases):
    assert antisym_product(bases[4], []) == SparseOperator.identity(4)


def test_antisym_matches_bruteforce_oracle(bases):
    # full permutation-sum antisymmetrization, k <= 4
    for d in (2, 4, 6):
        basis = bases[d]
        for k in range(1, min(d, 4) + 1):
            for A in combinations(range(1, d + 1), k):
                assert antisym_product(basis, A) == brute_antisym(basis, A), (d, A)


def test_antisym_commutator_form(bases):
    basis = bases[2]
    g1, g2 = basis.gamma(1), basis.gamma(2)
    half = Fraction(1, 2)
    assert antisym_product(basis, [1, 2]) == (g1 @ g2 - g2 @ g1).scale(half)


def test_antisym_rejects_out_of_range(bases):
    with pytest.raises(ValueError):
        antisym_product(bases[2], [3])


# --- pair contractions as elementary symmetric polynomials -------------------

@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_pair_factors_are_commuting_involutions(bases, d):
    # X_a = gamma_a (x) gamma_a: the premise of sum_k t^k T_k = prod_a (1 + t X_a)
    basis = bases[d]
    xs = [kron(g, g) for g in basis.gammas]
    ident = SparseOperator.identity(basis.dim ** 2)
    for a, xa in enumerate(xs):
        assert xa @ xa == ident, a
        for xb in xs[a + 1:]:
            assert xa @ xb == xb @ xa, a


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_pair_contraction_matches_subset_sum(bases, d):
    # the subset sum over permutation-sum Gamma_A; at d = 8 the grades above
    # d/2 come from their complements, T_k = (-1)^(d/2) (gamma5 (x) gamma5)
    # T_(d-k), because the permutation sums over 5 to 8 indices take ~25 s
    basis = bases[d]
    sign = 1 if (d // 2) % 2 == 0 else -1
    g55 = kron(basis.gamma5, basis.gamma5).scale(sign)
    for k in range(d + 1):
        if d < 8 or 2 * k <= d:
            want = subset_pair_contraction(basis, k)
        else:
            want = g55 @ subset_pair_contraction(basis, d - k)
        assert basis.pair_contraction(k) == want, (d, k)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_as_exp_components_are_elementary_symmetric(bases, d):
    # Z_a = Gamma_{1,a} Gamma_{2,a} = gamma_a gamma5 (x) gamma_a commute, so
    # E(t) = prod_a (1 + t Z_a) and S_k is the subset sum of the Z_a
    basis = bases[d]
    zs = [kron(g @ basis.gamma5, g) for g in basis.gammas]
    assert as_exp_components(basis) == tuple(subset_products(zs, k) for k in range(d + 1))


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_pair_contraction_rejects_grade_outside_range(bases, d):
    # a negative k would otherwise index the cached tuple from the end
    for k in (-1, d + 1):
        with pytest.raises(ValueError, match="grade"):
            bases[d].pair_contraction(k)


# --- graded representations -------------------------------------------------

def test_graded_rep_two_copy_structure(bases):
    basis = bases[4]
    first, second = graded_rep(basis)
    ident = SparseOperator.identity(basis.dim)
    for a in range(1, 5):
        assert first[a - 1] == kron(basis.gamma(a), ident)
        assert second[a - 1] == kron(basis.gamma5, basis.gamma(a))


def test_graded_rep_d2_instance(bases):
    first, second = graded_rep(bases[2])
    acm = first[0] @ second[0] + second[0] @ first[0]
    assert acm.is_zero()


def test_graded_rep_cross_copy_anticommutators(bases):
    # the library's two copies and the oracle's three copies
    for gens in (graded_rep(bases[4]), brute_graded_generators(bases[4], 3)):
        dim = gens[0][0].dim
        zero = SparseOperator.zero(dim)
        for i, row_i in enumerate(gens):
            for j, row_j in enumerate(gens):
                for a, ga in enumerate(row_i):
                    for b, gb in enumerate(row_j):
                        acm = ga @ gb + gb @ ga
                        if i == j and a == b:
                            expected = SparseOperator.identity(dim).scale(2)
                        else:
                            expected = zero
                        assert acm == expected, (len(gens), i, j, a, b)


# --- As-exponentials ---------------------------------------------------------

def test_as_exponential_at_zero(bases):
    assert as_exponential(bases[4], 0) == SparseOperator.identity(16)


@pytest.mark.parametrize("d,n,i", [(2, 2, 1), (4, 2, 1), (6, 2, 1), (2, 3, 1),
                                   (2, 3, 2), (4, 3, 1), (4, 3, 2)])
def test_as_exp_components_match_generator_products(bases, d, n, i):
    # on n oracle copies, the components of copies (i, i+1) are the two-copy
    # S_k with identities on the other copies: S_k (x) 1 and 1 (x) S_k at n = 3
    basis = bases[d]
    left = SparseOperator.identity(basis.dim ** (i - 1))
    right = SparseOperator.identity(basis.dim ** (n - i - 1))
    want = tuple(kron(kron(left, sk), right) for sk in as_exp_components(basis))
    assert brute_as_exp_components(brute_graded_generators(basis, n), i, i + 1) == want


def test_generating_product_law():
    # E(x) E(y) = (1-xy)^d E((x+y)/(1-xy)), 20 rational pairs per d
    rng = random.Random(2024)
    for d in (2, 4):
        basis = build_gamma(d)
        pairs = []
        while len(pairs) < 20:
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            y = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if x * y != 1:
                pairs.append((x, y))
        for x, y in pairs:
            lhs = as_exponential(basis, x) @ as_exponential(basis, y)
            rhs = as_exponential(basis, (x + y) / (1 - x * y))
            assert lhs == rhs.scale((1 - x * y) ** d), (d, x, y)


def test_generating_product_specific_point():
    # E(1/2) E(1/3) = (5/6)^2 E(1) at d = 2
    basis = build_gamma(2)
    lhs = as_exponential(basis, Fraction(1, 2)) @ as_exponential(basis, Fraction(1, 3))
    rhs = as_exponential(basis, 1).scale(Fraction(25, 36))
    assert lhs == rhs


def test_exchange_operators(bases):
    for d in (2, 4):
        P, Pp = exchange_pair(bases[d])
        # intertwining directions that hold at matrix level
        for g1, g2 in zip(*graded_rep(bases[d])):
            assert g1 @ P == P @ g2
            assert g2 @ Pp == Pp @ g1
        ident = SparseOperator.identity(bases[d].dim ** 2)
        assert P @ Pp == ident.scale(2 ** d)
        assert Pp @ P == ident.scale(2 ** d)
        # P P = 2^d * (top As-component); same for P' at even d
        top = as_exp_components(bases[d])[d]
        assert P @ P == top.scale(2 ** d)
        assert Pp @ Pp == top.scale((-2) ** d)
        # the top component represents gamma5 (x) gamma5
        assert top == kron(bases[d].gamma5, bases[d].gamma5)


def test_braid_identities(bases):
    # on the oracle's three copies, independently of the two-copy library path
    for d in (2, 4):
        gens = brute_graded_generators(bases[d], 3)
        for t in (1, -1):
            e12 = brute_as_exponential(gens, 1, 2, t)
            e23 = brute_as_exponential(gens, 2, 3, t)
            assert e12 @ e23 @ e12 == e23 @ e12 @ e23, (d, t)


# --- chirality reflection of pair contractions -------------------------------

@pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1),
                                 (4, 2), (4, 3), (4, 4), (6, 2)])
def test_gamma5_pair_reflection(bases, d, k):
    assert gamma5_pair_reflection(bases[d], k).is_zero()


def test_gamma5_pair_reflection_k0_is_top_representation(bases):
    # at k = 0 the identity reduces to: gamma5 (x) gamma5 equals the
    # (-1)^(d/2)-weighted grade-d contraction
    for d in (2, 4):
        basis = bases[d]
        sign = 1 if (d // 2) % 2 == 0 else -1
        lhs = kron(basis.gamma5, basis.gamma5)
        assert lhs == basis.pair_contraction(d).scale(sign)


# --- Weyl lifts: the row symmetry of Yang-Baxter residuals -------------------

@pytest.mark.parametrize("d,orbits", [(2, 8), (4, 20), (6, 40), (8, 70)])
def test_row_symmetry_orbit_counts(bases, d, orbits):
    sym = bases[d].row_symmetry()
    assert len(bases[d].weyl_lifts()) == (d // 2 if d > 2 else 0)
    assert sym.lifts == (bases[d].weyl_lifts(),) * 3
    assert len(sym.rows) == orbits
    assert list(sym.rows) == sorted(sym.rows) and sym.rows[0] == 0


@pytest.mark.parametrize("d", [4, 6, 8])
def test_row_symmetry_lifts_are_signed_weyl_permutations(bases, d):
    basis = bases[d]
    cartan = [basis.gamma(2 * j - 1) @ basis.gamma(2 * j) for j in range(1, d // 2 + 1)]
    for g in basis.weyl_lifts():
        # monomial: one entry per row and column, a real sign times 1 or 2
        assert sorted(c for (_, c), _v in g.items()) == list(range(basis.dim))
        assert len({r for (r, _), _v in g.items()}) == basis.dim
        assert {v for _, v in g.items()} <= {ExactScalar(s) for s in (1, -1, 2, -2)}
        # a Weyl lift: g maps each Cartan element to +-1 times one of them
        for h in cartan:
            assert any(g @ h == (h2 @ g).scale(s) for h2 in cartan for s in (1, -1)), d


@pytest.mark.parametrize("d", [4, 6, 8])
def test_row_symmetry_certifies_pair_contractions_and_components(bases, d):
    # every R-matrix is a combination of these, so the certificate holds
    # for all of them
    basis = bases[d]
    sym = basis.row_symmetry()
    assert sym.certifies((0, 1), *(basis.pair_contraction(k) for k in range(d + 1)))
    assert sym.certifies((0, 1), *as_exp_components(basis))
    planted = basis.pair_contraction(2) + SparseOperator.from_entries(
        basis.dim ** 2, {(0, 1): 1})
    assert not sym.certifies((0, 1), planted)
