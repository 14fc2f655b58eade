import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybverify import _core, kernel, relations
from ybverify.kernel import (ExactScalar, RowSymmetry, SparseOperator, combination,
                             embed_pair, kron, rll_first_row, yb_first_row)
from ybverify.rmatrix import (Normalization, RepChoice, quantum_L, so_defining_rep,
                              so_spinor_rep)

from helpers import (dense_kron, dense_mul, dict_combination, entry_dict, is_canonical,
                     parse_scalar, rand_operator, rll_sides, streamed_rll, streamed_yb,
                     trace, yb_sides)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.builds(ExactScalar, fractions, fractions)


# --- ExactScalar ring laws -------------------------------------------------

@given(scalars, scalars, scalars)
@settings(deadline=None)
def test_scalar_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_imaginary_unit_squares_to_minus_one():
    i = ExactScalar(0, 1)
    assert i * i == ExactScalar(-1)


def test_scalar_hash_consistent_with_cross_type_equality():
    assert ExactScalar(3) == 3
    assert hash(ExactScalar(3)) == hash(3)
    assert hash(ExactScalar(Fraction(1, 2))) == hash(Fraction(1, 2))


@given(scalars)
@settings(deadline=None)
def test_scalar_parse_roundtrip(a):
    assert parse_scalar(str(a)) == a


@given(scalars)
@settings(deadline=None)
def test_scalar_division_inverts(a):
    if a:
        assert (a / a) == ExactScalar(1)
        assert (ExactScalar(1) / a) * a == ExactScalar(1)


def test_scalar_parse_forms():
    assert parse_scalar("3/4") == ExactScalar(Fraction(3, 4))
    assert parse_scalar("-1/2+2/3*i") == ExactScalar(Fraction(-1, 2), Fraction(2, 3))
    assert parse_scalar("i") == ExactScalar(0, 1)
    assert parse_scalar("-i") == ExactScalar(0, -1)
    with pytest.raises(ValueError):
        parse_scalar("")


# --- matmul ----------------------------------------------------------------

def pauli(which):
    if which == 1:
        return SparseOperator.from_entries(2, {(0, 1): 1, (1, 0): 1})
    if which == 2:
        return SparseOperator.from_entries(2, {(0, 1): (0, -1), (1, 0): (0, 1)})
    return SparseOperator.from_entries(2, {(0, 0): 1, (1, 1): -1})


def test_matmul_identity():
    ident = SparseOperator.identity(4)
    assert ident @ ident == ident


def test_matmul_pauli_product():
    # sigma1 sigma2 = i sigma3, by hand 2x2 multiplication
    expected = pauli(3).scale(ExactScalar(0, 1))
    assert pauli(1) @ pauli(2) == expected


def test_matmul_gamma_square_is_identity():
    from ybverify.clifford import build_gamma

    basis = build_gamma(4)
    assert basis.gamma(1) @ basis.gamma(1) == SparseOperator.identity(4)


def test_matmul_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(2, 6)
        a = rand_operator(rng, dim, rng.randint(0, dim * dim))
        b = rand_operator(rng, dim, rng.randint(0, dim * dim))
        assert a @ b == dense_mul(a, b)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        SparseOperator.identity(2) @ SparseOperator.identity(3)


# --- kron ------------------------------------------------------------------

def test_kron_identities():
    assert kron(SparseOperator.identity(2), SparseOperator.identity(3)) \
        == SparseOperator.identity(6)


def test_kron_sigma3_pair():
    expected = SparseOperator.from_entries(
        4, {(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 3): 1})
    assert kron(pauli(3), pauli(3)) == expected


def test_kron_associative_and_matches_oracle():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_operator(rng, 2, 3)
        b = rand_operator(rng, 3, 4)
        c = rand_operator(rng, 2, 2)
        assert kron(kron(a, b), c) == kron(a, kron(b, c))
        assert kron(a, b) == dense_kron(a, b)


def test_kron_mixed_product_law():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_operator(rng, 3, 4)
        c = rand_operator(rng, 3, 4)
        b = rand_operator(rng, 2, 3)
        d = rand_operator(rng, 2, 3)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


# --- embed_pair ------------------------------------------------------------

def test_embed_pair_adjacent_matches_kron():
    rng = random.Random(5)
    op = rand_operator(rng, 6, 8)  # on 2 x 3
    assert embed_pair(op, (0, 1), [2, 3, 4]) \
        == kron(op, SparseOperator.identity(4))
    assert embed_pair(op, (1, 2), [4, 2, 3]) \
        == kron(SparseOperator.identity(4), op)


def test_embed_pair_split_slots():
    # A (x) B on slots (0, 2) must equal (A (x) 1 (x) 1)(1 (x) 1 (x) B)
    a, b = pauli(1), pauli(2)
    dims = [2, 3, 2]
    lhs = embed_pair(kron(a, b), (0, 2), dims)
    rhs = kron(a, SparseOperator.identity(6)) @ kron(SparseOperator.identity(6), b)
    assert lhs == rhs


# --- normalization and representation invariants ---------------------------

def test_canonical_form():
    a = SparseOperator.from_entries(2, {(0, 0): Fraction(1, 2)})
    doubled = a + a
    assert doubled == SparseOperator.from_entries(2, {(0, 0): 1})
    assert (a - a).is_zero()
    assert (a - a).nnz == 0


def test_scale_and_entry():
    a = SparseOperator.from_entries(2, {(0, 1): ExactScalar(1, 1)})
    half = a.scale(Fraction(1, 2))
    assert half.entry(0, 1) == ExactScalar(Fraction(1, 2), Fraction(1, 2))
    assert half.entry(1, 1) == ExactScalar(0)
    assert a.scale(0).is_zero()


def test_trace_and_first_nonzero():
    a = SparseOperator.from_entries(3, {(1, 1): Fraction(2, 3), (2, 0): 5})
    assert trace(a) == ExactScalar(Fraction(2, 3))
    assert a.first_nonzero() == ((1, 1), ExactScalar(Fraction(2, 3)))
    assert SparseOperator.zero(3).first_nonzero() is None


def test_submatrix():
    a = SparseOperator.from_entries(3, {(0, 2): 7, (2, 2): 1})
    sub = a.submatrix([0, 2], [2, 0])
    assert sub.entry(0, 0) == ExactScalar(7)
    assert sub.entry(1, 0) == ExactScalar(1)
    assert sub.nnz == 2


# --- streamed Yang-Baxter residual --------------------------------------------

# small parts, and parts whose numerators and denominators pass 2^64
yb_parts = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 66)),
)


@st.composite
def yb_operands(draw):
    """n and three random operators on V (x) V, dim V = n; empty entry maps
    give zero operators, and sparse ones leave rows empty."""
    n = draw(st.integers(1, 4))
    dim = n * n
    index = st.integers(0, dim - 1)
    cells = st.dictionaries(st.tuples(index, index),
                            st.builds(ExactScalar, yb_parts, yb_parts),
                            max_size=dim * dim)
    return (n, *(SparseOperator.from_entries(dim, draw(cells)) for _ in range(3)))


_HUGE = Fraction(2 ** 65 + 1, 3)
# every entry set, complex, one numerator above 2^64: rows collide in every
# accumulation of the stream
_DENSE = {(r, c): ExactScalar(Fraction(r - 2 * c, 1 + c), r * c - 3)
          for r in range(4) for c in range(4)} | {(0, 1): ExactScalar(_HUGE, -_HUGE)}


@given(yb_operands())
@example((2, SparseOperator.from_entries(4, _DENSE), SparseOperator.zero(4),
          SparseOperator.from_entries(4, _DENSE)))
@example((2, *(SparseOperator.from_entries(4, _DENSE) for _ in range(3))))
@settings(deadline=None)
def test_yb_stream_matches_kron_chain(operands):
    n, a, b, c = operands
    lhs, rhs = yb_sides(a, b, c, n)
    assert streamed_yb(a, b, c, n) == lhs - rhs
    assert streamed_yb(a, b, c, n, with_rhs=False) == lhs
    # the ordered stream stops at the residual's first nonzero row
    for first, full in ((yb_first_row(a, b, c, n), lhs - rhs),
                        (yb_first_row(a, b, c, n, with_rhs=False), lhs)):
        assert first.is_zero() == full.is_zero()
        assert first.first_nonzero() == full.first_nonzero()


@st.composite
def rll_operands(draw):
    """n, m, R on V (x) V, K on V (x) W with dim V = n and dim W = m, and
    the points u and v."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def operator(dim):
        index = st.integers(0, dim - 1)
        cells = st.dictionaries(st.tuples(index, index),
                                st.builds(ExactScalar, yb_parts, yb_parts),
                                max_size=dim * dim)
        return SparseOperator.from_entries(dim, draw(cells))

    return n, m, operator(n * n), operator(n * m), draw(fractions), draw(fractions)


@given(rll_operands())
@settings(deadline=None)
def test_rll_stream_matches_materialized_chain(operands):
    n, m, R, K, u, v = operands
    Lu, Lv = K.shifted(u), K.shifted(v)
    lhs, rhs = rll_sides(R, Lu, Lv, n, m)
    assert streamed_rll(R, Lu, Lv, n, m) == lhs - rhs
    assert rll_first_row(R, K, u, v, n, m) == _first_row_of(lhs - rhs)


SLOT_TAGS = ((0, 1), (1, 2), (0, 1, 2))


@st.composite
def slot_operands(draw, affine=False):
    """dims (n, n, m) with n, m in 1..3, the lhs and optional rhs of a
    stream and a sorted subset of the rows.  A side is three integer
    (grid, slots) factors, each grid sized for its random slot tag; with
    ``affine``, each factor may carry a random (scale, shift)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = {(0, 1): n * n, (1, 2): n * m, (0, 1, 2): n * n * m}
    parts = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)

    def factor():
        slots = draw(st.sampled_from(SLOT_TAGS))
        index = st.integers(0, size[slots] - 1)
        grid = {}
        for (r, c), v in draw(st.dictionaries(st.tuples(index, index), parts,
                                              max_size=2 * size[slots])).items():
            grid.setdefault(r, {})[c] = v
        if affine and draw(st.booleans()):
            return grid, slots, draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return grid, slots

    lhs = tuple(factor() for _ in range(3))
    rhs = tuple(factor() for _ in range(3)) if draw(st.booleans()) else None
    rows = sorted(draw(st.sets(st.integers(0, n * n * m - 1))))
    return (n, n, m), lhs, rhs, rows


def _kron_chain(lhs, rhs, dims, den=1):
    """X1 X2 X3 - Y1 Y2 Y3 for lhs = (X1, X2, X3) and rhs = (Y1, Y2, Y3),
    or X1 X2 X3 alone when rhs is None, each factor a grid over ``den`` on
    its slots, as scale X + shift 1 when it carries (scale, shift),
    embedded by Kronecker products with identities and stored."""
    d0, d1, d2 = dims
    size = d0 * d1 * d2
    out = SparseOperator.zero(size)
    for factors, w in ((lhs, 1), (rhs, -1)) if rhs is not None else ((lhs, 1),):
        side = SparseOperator.identity(size)
        for grid, slots, scale, shift in ((*f, 1, 0)[:4] for f in factors):
            op = SparseOperator({(0, 1): d0 * d1, (1, 2): d1 * d2}.get(slots, size), grid, den)
            if slots == (0, 1):
                op = kron(op, SparseOperator.identity(d2))
            elif slots == (1, 2):
                op = kron(SparseOperator.identity(d0), op)
            side = side @ op.scale(scale).shifted(shift)
        out = out + side.scale(w)
    return out


def _check_slot_rows(dims, lhs, rhs, rows):
    size = dims[0] * dims[1] * dims[2]
    want = _kron_chain(lhs, rhs, dims)
    assert SparseOperator(size, dict(_core.slot_rows(lhs, rhs, dims, range(size)))) == want
    # only the rows asked for stream, in their order
    got = list(_core.slot_rows(lhs, rhs, dims, rows))
    assert [r for r, _ in got] == [r for r in rows if r in want._rows]
    # dyadic float grids are exact: each entry is a short sum of products
    # of quarters and small integers

    def quarters(factors):
        if factors is None:
            return None
        return tuple(({r: {c: (re / 4, im / 4) for c, (re, im) in row.items()}
                       for r, row in f[0].items()}, *f[1:]) for f in factors)

    exact = {}
    for (r, c), v in _kron_chain(lhs, rhs, dims, den=4).items():
        exact.setdefault(r, {})[c] = (float(v.re), float(v.im))
    assert dict(_core.slot_rows(quarters(lhs), quarters(rhs), dims, range(size))) == exact


@given(slot_operands())
@settings(deadline=None)
def test_slot_rows_match_the_kron_chain(operands):
    _check_slot_rows(*operands)


@given(slot_operands(affine=True))
@settings(deadline=None)
def test_affine_factors_match_the_kron_chain(operands):
    _check_slot_rows(*operands)


def _embed_spy(monkeypatch):
    """The (op, slots, dims) of every ``kernel.embed_pair`` call, as recorded."""
    calls = []
    real = kernel.embed_pair

    def spy(op, slots, dims):
        calls.append((op, slots, tuple(dims)))
        return real(op, slots, dims)

    monkeypatch.setattr(kernel, "embed_pair", spy)
    return calls


_RLL_POINTS = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(7, 4), Fraction(-2, 3)),
               (Fraction(-5, 6), Fraction(3, 8)),
               (Fraction(1234567891, 987654323), Fraction(-9876543211, 123456791))]


def test_K13_is_embedded_once_per_value_and_dims(monkeypatch):
    # R12 and K23 apply by index arithmetic, and K13 is embedded at the
    # first use of K's value on its dims, whichever rep or point it comes with
    kernel._embedded13.cache_clear()
    basis = relations._basis(4)
    calls = _embed_spy(monkeypatch)
    for u, v in _RLL_POINTS:
        R = relations._spinor_R(4, u - v, Normalization.PRODUCT_FORM, RepChoice.PRIMED)
        K = quantum_L(basis, 0, so_defining_rep.__wrapped__(4))
        assert rll_first_row(R, K, u, v, 4, 4).is_zero()
    assert calls == [(K, (0, 2), (4, 4, 4))]
    # another value of K, or the same K on other dims, is embedded once more
    spinor = quantum_L(basis, 0, so_spinor_rep(basis))
    for _ in range(2):
        rll_first_row(R, spinor, 1, 2, 4, 4)
        rll_first_row(SparseOperator.identity(64), K, 1, 2, 8, 2)
    assert calls[1:] == [(spinor, (0, 2), (4, 4, 4)), (K, (0, 2), (8, 8, 2))]


def test_rll_fundamental_and_quantum_share_one_embedding(monkeypatch):
    # fresh defining reps, both RLL checks and every point share one K13
    kernel._embedded13.cache_clear()
    calls = _embed_spy(monkeypatch)
    for u, v in _RLL_POINTS:
        assert relations.check_rll_fundamental(4, u, v).passed
        q = so_defining_rep.__wrapped__(4)
        assert relations.check_rll_quantum(4, u, v, q, "defining").passed
    assert len(calls) == 1


def test_unmarked_K_is_certified_on_every_call(monkeypatch):
    # an operator built by any operation carries no mark, so the stream
    # certifies it on every call, while a marked K is never certified
    basis, q = relations._basis(4), so_defining_rep(4)
    symmetry = basis.row_symmetry(q)
    R = relations._spinor_R(4, Fraction(1, 6), Normalization.PRODUCT_FORM, RepChoice.PRIMED)
    marked = quantum_L(basis, 0, q)
    unmarked = marked.scale(1)
    assert marked.certified_lifts == (basis.weyl_lifts(), q.lifts)
    assert unmarked.certified_lifts is None and unmarked == marked
    certified = []
    certifies = RowSymmetry.certifies

    def spy(self, slots, *ops):
        certified.extend((slots, op) for op in ops)
        return certifies(self, slots, *ops)

    monkeypatch.setattr(RowSymmetry, "certifies", spy)
    for K in (unmarked, marked, unmarked):
        assert rll_first_row(R, K, Fraction(1, 2), Fraction(1, 3), 4, 4, symmetry).is_zero()
    on_k = [op for slots, op in certified if slots == (0, 2)]
    assert len(on_k) == 2 and all(op is unmarked for op in on_k)


def _first_row_of(op):
    """The operator holding the first nonzero row of op alone, or zero."""
    if op.is_zero():
        return SparseOperator.zero(op.dim)
    r = min(op._rows)
    return SparseOperator(op.dim, {r: op._rows[r]}, op._den)


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("u,v", _RLL_POINTS)
def test_rll_first_row_is_the_materialized_first_row(d, u, v):
    # the spinor rep FAILs at d = 6, and its K has den 4, so the located
    # value pins the denominator den(R) den(u) den(v) den(K)^2
    basis = relations._basis(d)
    for q in (so_defining_rep(d), so_spinor_rep(basis)):
        R = relations._spinor_R(d, u - v, Normalization.PRODUCT_FORM, RepChoice.PRIMED)
        K = quantum_L(basis, 0, q)
        lhs, rhs = rll_sides(R, quantum_L(basis, u, q), quantum_L(basis, v, q), basis.dim, q.m)
        want = _first_row_of(lhs - rhs)
        assert rll_first_row(R, K, u, v, basis.dim, q.m, basis.row_symmetry(q)) == want
        assert rll_first_row(R, K, u, v, basis.dim, q.m) == want


def test_rll_first_row_dimension_mismatch():
    a, b = SparseOperator.identity(4), SparseOperator.identity(6)
    with pytest.raises(ValueError):
        rll_first_row(a, a, 1, 2, 2, 3)
    with pytest.raises(ValueError):
        rll_first_row(b, b, 1, 2, 2, 3)
    with pytest.raises(ValueError):
        rll_first_row(a, b, 1, 2, 2, 3, RowSymmetry(((),) * 3, (2, 2, 2)))
    # both V slots must carry the same lifts
    swap, ident = _SWAP, SparseOperator.identity(2)
    sym = RowSymmetry([[swap], [ident], [SparseOperator.identity(3)]], (2, 2, 3))
    with pytest.raises(ValueError):
        rll_first_row(a, b, 1, 2, 2, 3, sym)


@given(st.lists(st.tuples(st.integers(0, 2), scalars), max_size=5))
@settings(deadline=None)
def test_combination_matches_scaled_sums(terms):
    ops = [rand_operator(random.Random(seed), 4, 6) for seed in range(3)]
    want = SparseOperator.zero(4)
    for i, c in terms:
        want = want + ops[i].scale(c)
    assert combination([(ops[i], c) for i, c in terms], 4) == want
    with pytest.raises(ValueError):
        combination([(SparseOperator.identity(2), 1)], 4)


# few values, so that sums often cancel entries and leave a content
_parts = st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1])
_small = st.builds(ExactScalar, _parts, _parts)
_index3 = st.integers(0, 2)
_ops3 = st.dictionaries(st.tuples(_index3, _index3), _small, max_size=9).map(
    lambda entries: SparseOperator.from_entries(3, entries))


@given(_ops3, _ops3, _small, _small, _parts)
@settings(deadline=None)
def test_every_linear_operation_is_the_fraction_oracle(a, b, c, c2, u):
    # +, -, unary -, scale, shifted and combination all take one path; each
    # must equal the entrywise Fraction sum and be canonical
    A, B = entry_dict(a), entry_dict(b)
    ident = {(i, i): (Fraction(1), Fraction(0)) for i in range(3)}
    cases = [(a + b, [(A, 1), (B, 1)]), (a - b, [(A, 1), (B, -1)]), (-a, [(A, -1)]),
             (a.scale(c), [(A, c)]), (a.shifted(u), [(A, 1), (ident, u)]),
             (combination([(a, c), (b, c2), (a, 1)], 3), [(A, c), (B, c2), (A, 1)])]
    for got, want in cases:
        assert entry_dict(got) == dict_combination(want)
        assert is_canonical(got), got._rows


def test_a_lone_unit_term_shares_its_grid():
    a = SparseOperator.from_entries(3, {(0, 1): Fraction(1, 2), (2, 2): ExactScalar(0, 3)})
    for same in (combination([(a, 1)], 3), a.scale(1), a.shifted(0), a + SparseOperator.zero(3)):
        assert same._rows is a._rows and same == a
    assert a.scale(-1)._rows is not a._rows


def test_quantum_L_at_zero_shares_the_grid_of_K():
    # rll_first_row takes L(0) = K; a copy of K there cost 5-10% of an RLL op
    basis, q = relations._basis(4), so_defining_rep(4)
    L0 = quantum_L(basis, 0, q)
    K, _ = q._couplings[basis]
    assert L0._rows is K._rows
    assert quantum_L(basis, Fraction(1, 2), q)._rows is not K._rows


@given(st.integers(1, 5), st.data(), fractions)
@settings(deadline=None)
def test_shifted_is_the_canonical_sum_with_the_identity(dim, data, u):
    # the diagonal may cancel, and the sum must still be in the canonical
    # form, which == compares structurally
    index = st.integers(0, dim - 1)
    entries = data.draw(st.dictionaries(st.tuples(index, index), scalars, max_size=dim * dim))
    for (i, _), v in list(entries.items()):
        if data.draw(st.booleans()):
            entries[(i, i)] = -ExactScalar(u) + v.im * ExactScalar(0, 1)
    op = SparseOperator.from_entries(dim, entries)
    got = op.shifted(u)
    assert got == op + SparseOperator.identity(dim).scale(u)
    assert all(row and all(v[0] or v[1] for v in row.values()) for row in got._rows.values())


@pytest.mark.parametrize("name,u,den", [("spinor", Fraction(7, 4), 2),
                                        ("defining", Fraction(1, 2), 2)])
def test_shifted_cancels_the_content_of_a_coupling(name, u, den):
    # K of d = 6 has den 4 (spinor) or 2 (defining), so b and den(K) share
    # a factor and the sum has a content to cancel
    basis = relations._basis(6)
    q = so_defining_rep(6) if name == "defining" else so_spinor_rep(basis)
    K = quantum_L(basis, 0, q)
    got = K.shifted(u)
    assert got == K + SparseOperator.identity(K.dim).scale(u)
    assert got._den == den


def test_yb_difference_dimension_mismatch():
    a = SparseOperator.identity(4)
    with pytest.raises(ValueError):
        yb_first_row(a, a, SparseOperator.identity(9), 2)
    with pytest.raises(ValueError):
        yb_first_row(a, a, a, 3, with_rhs=False)
    with pytest.raises(ValueError):
        yb_first_row(a, a, a, 2, RowSymmetry(((),) * 3, (3, 3, 3)))


# --- monomial row symmetry ---------------------------------------------------

_SWAP = SparseOperator.from_entries(2, {(0, 1): 1, (1, 0): -1})   # a signed swap


@pytest.mark.parametrize("entries", [
    {(0, 0): 1, (0, 1): 1, (1, 1): 1},   # two entries in row 0
    {(0, 0): 1, (1, 0): 1},              # column 0 twice
    {(0, 1): 1},                         # row 1 empty
])
def test_row_symmetry_rejects_non_monomial(entries):
    with pytest.raises(ValueError):
        RowSymmetry([[SparseOperator.from_entries(2, entries)]] * 3, (2, 2, 2))


def test_row_symmetry_orbits():
    # no lift: every row is its own orbit; the swap s pairs (i, j, k) with
    # (1-i, 1-j, 1-k)
    assert RowSymmetry(((),) * 3, (2, 2, 2)).rows == tuple(range(8))
    assert RowSymmetry([[_SWAP]] * 3, (2, 2, 2)).rows == (0, 1, 2, 3)


def test_row_symmetry_certificate_is_exact():
    sym = RowSymmetry([[_SWAP.scale(2)]] * 3, (2, 2, 2))
    ident = SparseOperator.identity(4)
    flip = SparseOperator.from_entries(4, {(0, 3): 1, (3, 0): 1, (1, 2): 1, (2, 1): 1})
    gg = kron(_SWAP, _SWAP)
    assert sym.certifies((0, 1), ident, gg, flip)
    # g (x) g maps (0, 1) to (3, 2) with phase -1: the partner entry must
    # match it exactly
    planted = SparseOperator.from_entries(4, {(0, 1): 1, (3, 2): -1})
    assert sym.certifies((0, 1), planted)
    for partner in ({}, {(3, 2): 1}, {(3, 2): ExactScalar(0, -1)}):
        assert not sym.certifies((0, 1), SparseOperator.from_entries(4, {(0, 1): 1, **partner}))
    with pytest.raises(ValueError):
        sym.certifies((0, 2), SparseOperator.identity(2))
