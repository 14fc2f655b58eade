import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybverify import _core, kernel, relations
from ybverify.kernel import (ExactScalar, RowSymmetry, SparseOperator, combination,
                             embed_pair, kron, rll_first_row, yb_first_row)
from ybverify.rmatrix import Normalization, RepChoice, quantum_L, so_defining_rep

from helpers import (dense_kron, dense_mul, parse_scalar, rand_operator, rll_sides,
                     streamed_rll, streamed_yb, yb_sides)

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
    assert a.trace() == ExactScalar(Fraction(2, 3))
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
    """n, m, R on V (x) V and Lu, Lv on V (x) W with dim V = n, dim W = m."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def operator(dim):
        index = st.integers(0, dim - 1)
        cells = st.dictionaries(st.tuples(index, index),
                                st.builds(ExactScalar, yb_parts, yb_parts),
                                max_size=dim * dim)
        return SparseOperator.from_entries(dim, draw(cells))

    return n, m, operator(n * n), operator(n * m), operator(n * m)


@given(rll_operands())
@settings(deadline=None)
def test_rll_stream_matches_materialized_chain(operands):
    n, m, R, Lu, Lv = operands
    lhs, rhs = rll_sides(R, Lu, Lv, n, m)
    assert streamed_rll(R, Lu, Lv, n, m) == lhs - rhs
    first = rll_first_row(R, Lu, Lv, n, m)
    assert first.is_zero() == (lhs - rhs).is_zero()
    assert first.first_nonzero() == (lhs - rhs).first_nonzero()


SLOT_TAGS = ((0, 1), (1, 2), (0, 1, 2))


@st.composite
def slot_operands(draw):
    """dims (n, n, m) with n, m in 1..3, the (grid, slots) factors of a lhs
    and of a rhs or None, each integer grid sized for its random slot tag,
    and a sorted subset of the rows."""
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
        return grid, slots

    lhs = tuple(factor() for _ in range(3))
    rhs = tuple(factor() for _ in range(3)) if draw(st.booleans()) else None
    rows = sorted(draw(st.sets(st.integers(0, n * n * m - 1))))
    return (n, n, m), lhs, rhs, rows


def _kron_chain(factors, dims):
    """The product of the factors, each embedded by Kronecker products with
    identities and stored."""
    d0, d1, d2 = dims
    out = SparseOperator.identity(d0 * d1 * d2)
    for grid, slots in factors:
        op = SparseOperator({(0, 1): d0 * d1, (1, 2): d1 * d2}.get(slots, d0 * d1 * d2), grid)
        if slots == (0, 1):
            op = kron(op, SparseOperator.identity(d2))
        elif slots == (1, 2):
            op = kron(SparseOperator.identity(d0), op)
        out = out @ op
    return out


@given(slot_operands())
@settings(deadline=None)
def test_slot_rows_match_the_kron_chain(operands):
    dims, lhs, rhs, rows = operands
    size = dims[0] * dims[1] * dims[2]
    want = _kron_chain(lhs, dims)
    if rhs is not None:
        want = want - _kron_chain(rhs, dims)
    assert SparseOperator(size, dict(_core.slot_rows(lhs, rhs, dims, range(size)))) == want
    # only the rows asked for stream, in their order
    got = list(_core.slot_rows(lhs, rhs, dims, rows))
    assert [r for r, _ in got] == [r for r in rows if r in want._rows]
    # dyadic float grids are exact: each product of three factors is the
    # integer product over 4^3
    def quarter(factors):
        return factors and tuple(({r: {c: (re / 4, im / 4) for c, (re, im) in row.items()}
                                   for r, row in grid.items()}, slots) for grid, slots in factors)

    floats = dict(_core.slot_rows(quarter(lhs), quarter(rhs), dims, range(size)))
    assert floats == {r: {c: (re / 64, im / 64) for c, (re, im) in row.items()}
                      for r, row in want._rows.items()}


def test_rll_first_row_embeds_only_the_split_pair(monkeypatch):
    # R12 and the L23 apply by index arithmetic; only Lu13 and Lv13 are
    # embedded, so the kernel.embed_pair span records two calls per check
    basis, q = relations._basis(4), so_defining_rep(4)
    calls = []
    real = kernel.embed_pair

    def spy(op, slots, dims):
        calls.append((op, slots, tuple(dims)))
        return real(op, slots, dims)

    monkeypatch.setattr(kernel, "embed_pair", spy)
    R = relations._spinor_R(4, Fraction(1, 6), Normalization.PRODUCT_FORM, RepChoice.PRIMED)
    Lu, Lv = (quantum_L(basis, x, q) for x in (Fraction(1, 2), Fraction(1, 3)))
    assert rll_first_row(R, Lu, Lv, 4, 4, basis.row_symmetry(q)).is_zero()
    assert len(calls) == 2
    assert all(op is L and slots == (0, 2) and dims == (4, 4, 4)
               for (op, slots, dims), L in zip(calls, (Lu, Lv)))
    calls.clear()
    assert relations.check_rll_quantum(4, Fraction(1, 2), Fraction(1, 3), q, "defining").passed
    assert len(calls) == 2


def test_rll_first_row_dimension_mismatch():
    a, b = SparseOperator.identity(4), SparseOperator.identity(6)
    with pytest.raises(ValueError):
        rll_first_row(a, b, a, 2, 3)
    with pytest.raises(ValueError):
        rll_first_row(a, b, b, 2, 3, RowSymmetry(((),) * 3, (2, 2, 2)))
    # both V slots must carry the same lifts
    swap, ident = _SWAP, SparseOperator.identity(2)
    sym = RowSymmetry([[swap], [ident], [SparseOperator.identity(3)]], (2, 2, 3))
    with pytest.raises(ValueError):
        rll_first_row(a, b, b, 2, 3, sym)


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


@given(st.integers(1, 5), st.data(), fractions)
@settings(deadline=None)
def test_shifted_is_the_canonical_sum_with_the_identity(dim, data, u):
    # the diagonal may cancel, and the skipped gcd pass must still leave
    # the canonical form, which == compares structurally
    index = st.integers(0, dim - 1)
    entries = data.draw(st.dictionaries(st.tuples(index, index), scalars, max_size=dim * dim))
    for (i, _), v in list(entries.items()):
        if data.draw(st.booleans()):
            entries[(i, i)] = -ExactScalar(u) + v.im * ExactScalar(0, 1)
    op = SparseOperator.from_entries(dim, entries)
    got = op.shifted(u)
    assert got == op + SparseOperator.identity(dim).scale(u)
    assert all(row and all(v[0] or v[1] for v in row.values()) for row in got._rows.values())


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
