"""Gamma matrices for even d, antisymmetrized basis elements, the two-copy
As-components, As-exponentials and exchange operators.

The gamma matrices come from the standard recursive (Jordan-Wigner style)
doubling over Pauli factors; the basis is then permuted so the chirality
matrix is diag(+1...,-1...) with the +1 block first.  Entries stay in
{0, +-1, +-i} throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import ExactScalar, RowSymmetry, SparseOperator, kron

MAX_D = 10

_SIGMA1 = SparseOperator.from_entries(2, {(0, 1): 1, (1, 0): 1})
_SIGMA2 = SparseOperator.from_entries(2, {(0, 1): (0, -1), (1, 0): (0, 1)})
_SIGMA3 = SparseOperator.from_entries(2, {(0, 0): 1, (1, 1): -1})
_ID2 = SparseOperator.identity(2)


class GammaBasis:
    """The d gamma matrices plus the chirality matrix, all 2^(d/2)-dimensional.

    ``alpha`` records the branch used in gamma5 = alpha * gamma_1...gamma_d
    (the paper fixes alpha only up to sign; this artifact picks the branch
    that puts the +1 chirality block first).
    """

    def __init__(self, d, gammas, gamma5, alpha):
        self.d = d
        self.dim = gammas[0].dim
        self.gammas = tuple(gammas)
        self.gamma5 = gamma5
        self.alpha = alpha
        self._contractions = None  # the pair contractions T_0..T_d
        self._antisym = {}
        self._components = None  # the As-components S_0..S_d
        self._lifts = None
        self._symmetries = {}

    def gamma(self, a: int) -> SparseOperator:
        """gamma_a for a = 1..d (the paper's index convention)."""
        if not 1 <= a <= self.d:
            raise ValueError(f"gamma index {a} outside 1..{self.d}")
        return self.gammas[a - 1]

    def pair_contraction(self, k: int) -> SparseOperator:
        """T_k = sum over |A| = k of gamma_A (x) gamma_A, k = 0..d.

        gamma_A (x) gamma_A is the product of X_a = gamma_a (x) gamma_a over
        a in A, and the X_a are d commuting involutions, so
        sum_k t^k T_k = prod_a (1 + t X_a): T_k is the k-th elementary
        symmetric polynomial of X_1..X_d.  All d + 1 are built at the first
        call."""
        if not 0 <= k <= self.d:
            raise ValueError(f"grade {k} outside 0..{self.d}")
        if self._contractions is None:
            self._contractions = _elementary([kron(g, g) for g in self.gammas],
                                             self.dim * self.dim)
        return self._contractions[k]

    def weyl_lifts(self) -> tuple:
        """Monomial lifts to Spin(d) of generators of the Weyl group of
        so(d).  With m = d/2 they are
        w_k = (1 + gamma_{2k-1} gamma_{2k+1})(1 + gamma_{2k} gamma_{2k+2}),
        k = 1..m-1, which swaps Cartan pairs k and k+1, and
        f = gamma_{2m-3} gamma_{2m-1}, which flips two Cartan weights (none
        at d = 2).  In the chiral basis each is a signed permutation (times
        2 for w_k); ``RowSymmetry`` rejects one that is not monomial."""
        if self._lifts is None:
            m = self.d // 2
            ident = SparseOperator.identity(self.dim)
            g = self.gamma
            lifts = [(ident + g(2 * k - 1) @ g(2 * k + 1)) @ (ident + g(2 * k) @ g(2 * k + 2))
                     for k in range(1, m)]
            if m >= 2:
                lifts.append(g(2 * m - 3) @ g(2 * m - 1))
            self._lifts = tuple(lifts)
        return self._lifts

    def row_symmetry(self, quantum=None) -> RowSymmetry | None:
        """The row symmetry of the residuals on V (x) V (x) X built from
        pair contractions and so(d)-invariant L-operators: the Weyl lifts
        on both V slots and, on X, the lifts themselves (X = V) or, for a
        quantum representation, its ``lifts`` on X = W (None if it has
        none).  Cached by the value of the quantum dimension and lifts, so
        equal fresh representations share one entry."""
        if quantum is not None and quantum.lifts is None:
            return None
        key = None if quantum is None else (quantum.m, quantum.lifts)
        symmetry = self._symmetries.get(key)
        if symmetry is None:
            lifts = self.weyl_lifts()
            if key is None:
                symmetry = RowSymmetry((lifts,) * 3, (self.dim,) * 3)
            else:
                symmetry = RowSymmetry((lifts, lifts, quantum.lifts),
                                       (self.dim, self.dim, quantum.m))
            self._symmetries[key] = symmetry
        return symmetry

    def __repr__(self):
        return f"GammaBasis(d={self.d}, dim={self.dim})"


def _elementary(factors, dim):
    """The elementary symmetric polynomials e_0..e_n of n commuting
    operators, the coefficients of prod_a (1 + t X_a): multiplying by one
    more factor X sends e_k to e_k + X e_(k-1), from the top k down."""
    e = [SparseOperator.identity(dim)] + [SparseOperator.zero(dim)] * len(factors)
    for n, x in enumerate(factors, 1):
        for k in range(n, 0, -1):
            e[k] = e[k] + x @ e[k - 1]
    return tuple(e)


def build_gamma(d: int) -> GammaBasis:
    """Construct a chiral-basis GammaBasis for even d, 2 <= d <= MAX_D."""
    if d % 2 != 0 or not 2 <= d <= MAX_D:
        raise ValueError(f"d must be even with 2 <= d <= {MAX_D}, got {d}")
    m = d // 2
    gammas = []
    for k in range(m):
        pre = [_SIGMA3] * k
        post = [_ID2] * (m - 1 - k)
        for mid in (_SIGMA1, _SIGMA2):
            factors = pre + [mid] + post
            op = factors[0]
            for f in factors[1:]:
                op = kron(op, f)
            gammas.append(op)
    product = gammas[0]
    for g in gammas[1:]:
        product = product @ g
    alpha = _i_power(-m)  # (-i)^m, a valid branch of alpha^2 = (-1)^(d/2)
    gamma5 = product.scale(alpha)
    # permute the basis so the chirality diagonal is sorted +1 first
    diag = [gamma5.entry(i, i) for i in range(gamma5.dim)]
    if any(v.im != 0 or v.re not in (1, -1) for v in diag):
        raise AssertionError("chirality matrix is not diagonal +-1")
    perm = sorted(range(gamma5.dim), key=lambda i: (-diag[i].re, i))
    gammas = [g.permuted(perm) for g in gammas]
    gamma5 = gamma5.permuted(perm)
    return GammaBasis(d, gammas, gamma5, alpha)


_I_POWERS = (ExactScalar(1), ExactScalar(0, 1), ExactScalar(-1), ExactScalar(0, -1))


def _i_power(n):
    return _I_POWERS[n % 4]


def antisym_product(basis: GammaBasis, indices) -> SparseOperator:
    """Gamma_A as the ordered product over ascending distinct indices
    (1-based), cached per basis.

    Equals the full k!-term antisymmetrization because distinct gamma
    matrices anticommute; the permutation-sum definition is kept only as a
    test oracle.
    """
    key = tuple(sorted(set(indices)))
    cached = basis._antisym.get(key)
    if cached is None:
        cached = SparseOperator.identity(basis.dim)
        for a in key:
            cached = cached @ basis.gamma(a)
        basis._antisym[key] = cached
    return cached


def graded_rep(basis: GammaBasis):
    """The generators of two anticommuting Clifford copies on 2^d dims, as
    the tuples (gamma_a (x) 1) and (gamma5 (x) gamma_a), a = 1..d.

    A three-space operator never needs a third copy: the Yang-Baxter-type
    relations place two-copy operators A on slots (1,2) and (2,3) of
    V (x) V (x) V as A (x) 1 and 1 (x) A.
    """
    ident = SparseOperator.identity(basis.dim)
    return (tuple(kron(g, ident) for g in basis.gammas),
            tuple(kron(basis.gamma5, g) for g in basis.gammas))


def as_exp_components(basis: GammaBasis):
    """S_k = s_k * sum over |A| = k of Gamma_{1,A} Gamma_{2,A}, k = 0..d,
    with s_k = (-1)^(k(k-1)/2); so E(t) = sum_k t^k S_k.  Built once per
    basis.

    Gamma_{1,A} = gamma_A (x) 1 and Gamma_{2,A} = gamma5^k (x) gamma_A, so
    S_k = s_k * T_k (gamma5^k (x) 1), with T_k the pair contraction.
    """
    if basis._components is None:
        g5 = kron(basis.gamma5, SparseOperator.identity(basis.dim))
        comps = []
        for k in range(basis.d + 1):
            sk = basis.pair_contraction(k)
            if k % 2:
                sk = sk @ g5
            if (k * (k - 1) // 2) % 2:
                sk = -sk
            comps.append(sk)
        basis._components = tuple(comps)
    return basis._components


def as_exponential(basis: GammaBasis, t) -> SparseOperator:
    """The As-exponential E(t): matrix avatar of As(exp(t Gamma_1.Gamma_2))."""
    t = Fraction(t)
    comps = as_exp_components(basis)
    acc = comps[0]
    power = Fraction(1)
    for k in range(1, len(comps)):
        power *= t
        if power and not comps[k].is_zero():
            acc = acc + comps[k].scale(power)
    return acc


def exchange_pair(basis: GammaBasis):
    """The exchange operators (P, P') = (E(1), E(-1)).

    At matrix level E(1) intertwines Gamma_{1,a} P = P Gamma_{2,a} and E(-1)
    the reverse (the roles come out swapped relative to the labelling next
    to the defining relations, which the exchange-identities check pins down
    explicitly).
    """
    return as_exponential(basis, 1), as_exponential(basis, -1)
