import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybverify import _core
from ybverify.clifford import as_exp_components, as_exponential, build_gamma
from ybverify.kernel import ExactScalar, SparseOperator, embed_pair, kron, yb_first_row
from ybverify.rmatrix import (CoefficientTable, Normalization, Parity,
                              PoleError, QuantumRep, RepChoice, assemble_spinor_R,
                              base_values, coefficients, fundamental_L0,
                              fundamental_R0, product_form_slope_at_zero,
                              projectors, quantum_L, so_defining_rep,
                              so_spinor_rep)

from helpers import (coefficients_closed_form, combination_quantum_L, combination_spinor_R,
                     dressed_spinor_R, fundamental_L0_loop, reciprocity_holds,
                     recurrence_holds, satisfies_so_relations, weyl_projectors)

U_SAMPLES = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2),
             Fraction(-1, 5), Fraction(-3, 7)]


@pytest.fixture(scope="module")
def bases():
    return {d: build_gamma(d) for d in (2, 4, 6, 8)}


# --- coefficient tables ------------------------------------------------------

def d6_paper_table(u):
    u = Fraction(u)
    return [(u + 4) / 8, 0, -u / 8, 0, u / 8, 0, -(u + 4) / 8]


@pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(-2, 3)])
def test_d6_paper_values(u):
    table = coefficients(6, u, Normalization.D6_PAPER)
    assert [v for v in table.values] == [ExactScalar(x) for x in d6_paper_table(u)]


def test_d4_unit_by_hand():
    # two recurrence steps by hand: R2 = -u/(u+2), R4 = 1
    for u in U_SAMPLES:
        table = coefficients(4, u, Normalization.UNIT)
        assert table[0] == ExactScalar(1)
        assert table[2] == ExactScalar(-u / (u + 2))
        assert table[4] == ExactScalar(1)
        assert table[1] == ExactScalar(1)
        assert table[3] == ExactScalar(-1)


def test_d2_product_by_hand():
    for u in U_SAMPLES:
        table = coefficients(2, u, Normalization.PRODUCT_FORM)
        assert table[0] == ExactScalar(u / 2)
        assert table[1] == ExactScalar(Fraction(1, 2))
        assert table[2] == ExactScalar(-u / 2)


@pytest.mark.parametrize("norm", list(Normalization))
@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_recurrence_and_reciprocity(d, norm):
    if norm is Normalization.D6_PAPER and d != 6:
        pytest.skip("d6paper is d = 6 only")
    for u in U_SAMPLES:
        table = coefficients(d, u, norm)
        assert recurrence_holds(table)
        assert reciprocity_holds(table)


@pytest.mark.parametrize("norm", [Normalization.PRODUCT_FORM, Normalization.BETA_FORM])
@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_closed_form_matches_recurrence(d, norm):
    for u in U_SAMPLES:
        assert coefficients_closed_form(d, u, norm).values \
            == coefficients(d, u, norm).values


def test_beta_form_seeds_are_unit():
    # stored relative to the parity-family beta bases
    assert base_values(4, Fraction(1, 2), Normalization.BETA_FORM) == (1, 1)


def test_pole_detection():
    # R_2(u) = -u/(u+2) under the unit normalization has a true pole at u = -2
    with pytest.raises(PoleError) as err:
        coefficients(4, Fraction(-2), Normalization.UNIT)
    assert err.value.k == 0
    with pytest.raises(PoleError):
        coefficients(6, Fraction(-3), Normalization.UNIT)  # u + d - 2 - k = 0, k = 1


def test_cancelling_step_is_not_a_pole():
    # at d = 2, u = 0 the step is 0/0 and cancels to -1 as a rational function
    table = coefficients(2, Fraction(0), Normalization.UNIT)
    assert [v for v in table.values] == [ExactScalar(1), ExactScalar(1), ExactScalar(-1)]


def test_removable_singular_steps_use_function_values():
    # unit, d = 4, u = 0: the step to R_4 reads (u+2) R_2 / (-u) with
    # R_2(0) = 0; the rational-function value is R_4 = 1
    table = coefficients(4, Fraction(0), Normalization.UNIT)
    assert table[4] == ExactScalar(1)
    # product form at u = -2, d = 4 is polynomial: (0, ., -1, ., 0)
    table = coefficients(4, Fraction(-2), Normalization.PRODUCT_FORM)
    assert table.values == coefficients_closed_form(
        4, Fraction(-2), Normalization.PRODUCT_FORM).values


def test_d6_norm_requires_d6():
    with pytest.raises(ValueError):
        base_values(4, Fraction(1), Normalization.D6_PAPER)


def test_table_perturbation_and_strings():
    table = coefficients(4, Fraction(1), Normalization.UNIT)
    assert table.fraction_strings() == ["1", "1", "-1/3", "-1", "1"]
    bumped = table.perturbed(2)
    assert bumped[2] == ExactScalar(Fraction(2, 3))
    assert not recurrence_holds(bumped)


# --- spinorial R-matrix assembly ---------------------------------------------

def test_assemble_dimension_and_chirality_symmetry(bases):
    for d in (2, 4, 6):
        basis = bases[d]
        table = coefficients(d, Fraction(1, 2), Normalization.PRODUCT_FORM)
        R = assemble_spinor_R(basis, table)
        assert R.dim == 2 ** d
        g55 = kron(basis.gamma5, basis.gamma5)
        assert g55 @ R == R @ g55


def test_assemble_so_invariance(bases):
    for d in (2, 4):
        basis = bases[d]
        ident = SparseOperator.identity(basis.dim)
        for rep in RepChoice:
            R = assemble_spinor_R(
                basis, coefficients(d, Fraction(1, 3), Normalization.PRODUCT_FORM), rep)
            for a in range(1, d + 1):
                for b in range(a + 1, d + 1):
                    gab = basis.gamma(a) @ basis.gamma(b)
                    gen = kron(gab, ident) + kron(ident, gab)
                    assert gen @ R == R @ gen, (d, rep, a, b)


def test_assemble_d2_unit_at_zero(bases):
    # with the cancelling recurrence step, the d = 2 even part at u = 0 is
    # 2 P+ (proportional to the projector), not the identity
    basis = bases[2]
    table = coefficients(2, Fraction(0), Normalization.UNIT)
    even = assemble_spinor_R(basis, table, parity=Parity.EVEN)
    p_plus, _ = projectors(basis)
    assert even == p_plus.scale(2)


def test_assemble_parity_split(bases):
    basis = bases[4]
    table = coefficients(4, Fraction(1, 2), Normalization.PRODUCT_FORM)
    for rep in RepChoice:
        full = assemble_spinor_R(basis, table, rep, Parity.FULL)
        even = assemble_spinor_R(basis, table, rep, Parity.EVEN)
        odd = assemble_spinor_R(basis, table, rep, Parity.ODD)
        assert even + odd == full


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_assemble_matches_dressed_oracle(bases, d):
    # the primed rep sums s_k R_k S_k; the oracle dresses the summed odd part
    # (at u = 0 the even product-form coefficients vanish)
    for u in (Fraction(1, 2), Fraction(-3, 7), Fraction(2), Fraction(0)):
        table = coefficients(d, u, Normalization.PRODUCT_FORM)
        for rep in RepChoice:
            for parity in Parity:
                want = dressed_spinor_R(bases[d], table, rep, parity)
                assert assemble_spinor_R(bases[d], table, rep, parity) == want, (u, rep, parity)


_wide = st.integers(10 ** 8, 10 ** 10 - 1)   # 9-10 digits
_signed_wide = st.builds(Fraction, st.builds(lambda s, n: s * n, st.sampled_from([1, -1]), _wide),
                         _wide)


@st.composite
def spinor_tables(draw):
    """A coefficient table for some d = 2..8: the product-form table at a
    random u, each R_k kept, zeroed or replaced by a Gaussian rational with
    9-10 digit parts, and then perhaps ``perturbed``."""
    d = draw(st.sampled_from([2, 4, 6, 8]))
    u = draw(st.fractions(-5, 5, max_denominator=9))
    values = list(coefficients(d, u, Normalization.PRODUCT_FORM).values)
    for k in range(d + 1):
        kind = draw(st.sampled_from(["keep", "zero", "wide"]))
        if kind == "zero":
            values[k] = ExactScalar(0)
        elif kind == "wide":
            values[k] = ExactScalar(draw(_signed_wide), draw(_signed_wide))
    table = CoefficientTable(d, u, Normalization.PRODUCT_FORM, tuple(values))
    if draw(st.booleans()):
        table = table.perturbed(draw(st.integers(0, d)),
                                draw(st.fractions(-3, 3, max_denominator=5)))
    return table


@given(spinor_tables())
@settings(deadline=None, max_examples=40)
def test_assemble_matches_combination_oracle(bases, table):
    basis = bases[table.d]
    for rep in RepChoice:
        for parity in Parity:
            want = combination_spinor_R(basis, table, rep, parity)
            assert assemble_spinor_R(basis, table, rep, parity) == want, (rep, parity)


# --- the invariance mark -------------------------------------------------------

def _planted(op):
    return op + SparseOperator.from_entries(op.dim, {(0, 1): 1})


def _streamed_rows(monkeypatch):
    """The ``rows`` argument of every ``_core.yb_rows`` call, as recorded."""
    seen = []
    yb_rows = _core.yb_rows

    def spy(lhs, rhs, n, rows):
        seen.append(rows)
        return yb_rows(lhs, rhs, n, rows)

    monkeypatch.setattr(_core, "yb_rows", spy)
    return seen


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_assembled_R_carries_the_weyl_lifts(bases, d):
    basis = bases[d]
    table = coefficients(d, Fraction(1, 2), Normalization.PRODUCT_FORM)
    for rep in RepChoice:
        for parity in Parity:
            R = assemble_spinor_R(basis, table, rep, parity)
            dressed = rep is RepChoice.DOUBLE_PRIMED and parity is not Parity.EVEN
            # the double-primed odd part is a product, and products are unmarked
            assert R.certified_lifts == (None if dressed else basis.weyl_lifts()), (rep, parity)
    assert as_exponential(basis, Fraction(1, 3)).certified_lifts == basis.weyl_lifts()


def test_operations_leave_the_mark_unset(bases):
    basis = bases[4]
    R = assemble_spinor_R(basis, coefficients(4, Fraction(1, 2), Normalization.PRODUCT_FORM),
                          RepChoice.PRIMED)
    assert R.certified_lifts == basis.weyl_lifts()
    everything = list(range(R.dim))
    copy = SparseOperator.from_entries(R.dim, dict(R.items()))
    derived = [R + R, R - R, R @ R, R.scale(2), -R, copy, R.permuted(everything),
               R.submatrix(everything, everything)]
    assert all(op.certified_lifts is None for op in derived)
    assert copy == R and hash(copy) == hash(R)
    assert R.permuted(everything) == R.submatrix(everything, everything) == R


@pytest.mark.parametrize("d", [4, 6, 8])
def test_planted_entry_drops_the_mark_and_streams_every_row(bases, monkeypatch, d):
    basis = bases[d]
    n = basis.dim
    R = [assemble_spinor_R(basis, coefficients(d, u, Normalization.PRODUCT_FORM),
                           RepChoice.PRIMED)
         for u in (Fraction(1, 2), Fraction(5, 6), Fraction(1, 3))]
    R[0] = _planted(R[0])
    assert R[0].certified_lifts is None
    ordered = yb_first_row(*R, n).first_nonzero()
    seen = _streamed_rows(monkeypatch)
    assert yb_first_row(*R, n, basis.row_symmetry()).first_nonzero() == ordered
    assert ordered is not None and seen == [range(n ** 3)]


@pytest.mark.parametrize("rep", [RepChoice.NAIVE, RepChoice.PRIMED])
@pytest.mark.parametrize("d", [4, 6])
def test_planted_component_leaves_R_unmarked(monkeypatch, rep, d):
    # a fresh basis whose T_1 or S_1 holds a non-invariant entry: its family
    # fails the certificate, so R is unmarked and is certified (and fails)
    # at the row reduction
    basis = build_gamma(d)
    if rep is RepChoice.NAIVE:
        basis.pair_contraction(0)
        comps = list(basis._contractions)
    else:
        comps = list(as_exp_components(basis))
    comps[1] = _planted(comps[1])
    assert not basis.row_symmetry().certifies((0, 1), comps[1])
    if rep is RepChoice.NAIVE:
        basis._contractions = tuple(comps)
    else:
        basis._components = tuple(comps)
    table = coefficients(d, Fraction(1, 2), Normalization.PRODUCT_FORM)
    R = assemble_spinor_R(basis, table, rep)
    assert R.certified_lifts is None
    assert R == combination_spinor_R(basis, table, rep, Parity.FULL)
    seen = _streamed_rows(monkeypatch)
    yb_first_row(R, R, R, basis.dim, basis.row_symmetry())
    assert seen == [range(basis.dim ** 3)]


def test_rep_dressing_relation(bases):
    # primed odd part = naive odd part right-multiplied by gamma5 (x) 1;
    # double-primed = -(naive odd) (1 (x) gamma5)
    basis = bases[4]
    table = coefficients(4, Fraction(1, 2), Normalization.PRODUCT_FORM)
    ident = SparseOperator.identity(basis.dim)
    naive = assemble_spinor_R(basis, table, RepChoice.NAIVE, Parity.ODD)
    primed = assemble_spinor_R(basis, table, RepChoice.PRIMED, Parity.ODD)
    dprimed = assemble_spinor_R(basis, table, RepChoice.DOUBLE_PRIMED, Parity.ODD)
    assert primed == naive @ kron(basis.gamma5, ident)
    assert dprimed == -(naive @ kron(ident, basis.gamma5))
    # the dressing anticommutes with the odd part on either factor
    for dress in (kron(basis.gamma5, ident), kron(ident, basis.gamma5)):
        assert naive @ dress == -(dress @ naive)


def test_projectors(bases):
    for d in (2, 4, 6):
        basis = bases[d]
        p_plus, p_minus = projectors(basis)
        ident = SparseOperator.identity(basis.dim ** 2)
        assert p_plus @ p_plus == p_plus
        assert p_minus @ p_minus == p_minus
        assert (p_plus @ p_minus).is_zero()
        assert p_plus + p_minus == ident


def test_projectors_single_out_parities(bases):
    basis = bases[4]
    p_plus, p_minus = projectors(basis)
    table = coefficients(4, Fraction(1, 3), Normalization.PRODUCT_FORM)
    for rep in RepChoice:
        full = assemble_spinor_R(basis, table, rep, Parity.FULL)
        even = assemble_spinor_R(basis, table, rep, Parity.EVEN)
        odd = assemble_spinor_R(basis, table, rep, Parity.ODD)
        assert p_plus @ full == even
        assert p_minus @ full == odd


def test_parity_orthogonality(bases):
    rng = random.Random(41)
    basis = bases[4]
    for _ in range(4):
        u = Fraction(rng.randint(1, 8), rng.randint(1, 5))
        v = Fraction(rng.randint(1, 8), rng.randint(1, 5))
        ru = assemble_spinor_R(
            basis, coefficients(4, u, Normalization.PRODUCT_FORM), parity=Parity.EVEN)
        rv = assemble_spinor_R(
            basis, coefficients(4, v, Normalization.PRODUCT_FORM), parity=Parity.ODD)
        assert (ru @ rv).is_zero()
        assert (rv @ ru).is_zero()


def test_product_form_slopes():
    # R0/u -> (d/2-1)!/2 and the interior even coefficients vanish to O(u^2)
    slopes = product_form_slope_at_zero(4)
    assert slopes[0] == Fraction(1, 2)
    assert slopes[2] == 0
    assert slopes[4] == Fraction(1, 2)


# --- fundamental operators ----------------------------------------------------

def test_fundamental_R0_at_zero():
    assert fundamental_R0(4, 0) == SparseOperator.identity(16)


def test_fundamental_R0_trace_coefficient():
    # d = 4, u = 1: the delta^(i1 i2) delta_(j1 j2) weight is -1/2
    R = fundamental_R0(4, Fraction(1))
    assert R.entry(0, 5) == ExactScalar(Fraction(-1, 2))  # (0,0) -> (1,1)
    assert R.entry(5, 0) == ExactScalar(Fraction(-1, 2))


def test_fundamental_R0_pole():
    with pytest.raises(PoleError):
        fundamental_R0(4, Fraction(-1))


def test_fundamental_L0_d2_explicit(bases):
    # direct expansion: L = u 1 - (i/2) sigma3 (x) (e12 - e21)
    basis = bases[2]
    u = Fraction(1, 3)
    expected = SparseOperator.from_entries(4, {
        (0, 0): u, (1, 1): u, (2, 2): u, (3, 3): u,
        (0, 1): ExactScalar(0, Fraction(-1, 2)),
        (1, 0): ExactScalar(0, Fraction(1, 2)),
        (2, 3): ExactScalar(0, Fraction(1, 2)),
        (3, 2): ExactScalar(0, Fraction(-1, 2)),
    })
    assert fundamental_L0(basis, u) == expected


def test_fundamental_L0_spectral_linearity(bases):
    basis = bases[4]
    ident = SparseOperator.identity(basis.dim * 4)
    l0 = fundamental_L0(basis, Fraction(0))
    l1 = fundamental_L0(basis, Fraction(5, 7))
    assert l1 - ident.scale(Fraction(5, 7)) == l0


def test_fundamental_L0_respects_R0_relation(bases):
    # R0_23(u-v) L0_12(u) L0_13(v) = L0_12(v) L0_13(u) R0_23(u-v)
    for d in (2, 4):
        basis = bases[d]
        u, v = Fraction(1), Fraction(1, 2)
        dims = [basis.dim, d, d]
        r23 = embed_pair(fundamental_R0(d, u - v), (1, 2), dims)
        l12u = embed_pair(fundamental_L0(basis, u), (0, 1), dims)
        l13v = embed_pair(fundamental_L0(basis, v), (0, 2), dims)
        l12v = embed_pair(fundamental_L0(basis, v), (0, 1), dims)
        l13u = embed_pair(fundamental_L0(basis, u), (0, 2), dims)
        assert r23 @ l12u @ l13v == l12v @ l13u @ r23


# --- quantum representations ---------------------------------------------------

def test_defining_rep_d2_generator():
    q = so_defining_rep(2)
    gen = q.gen(1, 2)
    assert gen.entry(0, 1) == ExactScalar(0, 1)
    assert gen.entry(1, 0) == ExactScalar(0, -1)
    assert q.gen(2, 1) == -gen
    assert q.gen(1, 1).is_zero()


@pytest.mark.parametrize("d", [2, 4, 6])
def test_defining_rep_so_relations(d):
    assert satisfies_so_relations(so_defining_rep(d))


@pytest.mark.parametrize("d", [4, 6])
def test_spinor_rep_so_relations(bases, d):
    assert satisfies_so_relations(so_spinor_rep(bases[d]))


def test_quantum_L_defining_equals_fundamental():
    # with the sign that satisfies the so(d) brackets, the defining-rep
    # L-operator coincides with the fundamental one, built here by its own
    # a != b loop over matrix units
    for d in (2, 4, 6, 8):
        basis = build_gamma(d)
        q = so_defining_rep(d)
        for u in (Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(-2, 5)):
            want = fundamental_L0_loop(basis, u)
            assert quantum_L(basis, u, q) == want, (d, u)
            assert fundamental_L0(basis, u) == want, (d, u)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_quantum_L_matches_combination_oracle(bases, d):
    basis = bases[d]
    defining = so_defining_rep(d)
    custom = QuantumRep(d, d, dict(defining._gens), defining.lifts)
    for q in (defining, so_spinor_rep(basis), custom):
        for u in (Fraction(0), Fraction(1, 2), Fraction(-3, 7)):
            assert quantum_L(basis, u, q) == combination_quantum_L(basis, u, q), (q, u)


def test_reps_with_equal_m_never_share_a_coupling(bases):
    basis = bases[4]
    q = so_defining_rep(4)
    negated = QuantumRep(4, 4, {ab: -op for ab, op in q._gens.items()}, q.lifts)
    u = Fraction(1, 2)
    L, L_negated = quantum_L(basis, u, q), quantum_L(basis, u, negated)
    assert L_negated == combination_quantum_L(basis, u, negated)
    assert L_negated != L
    assert quantum_L(basis, u, q) == L == combination_quantum_L(basis, u, q)


def test_spinor_rep_is_cached_per_basis(bases):
    basis = bases[6]
    assert so_spinor_rep(basis) is so_spinor_rep(basis)
    assert so_spinor_rep(build_gamma(6)) is not so_spinor_rep(basis)


def test_quantum_L_pure_generator_part(bases):
    basis = bases[2]
    q = so_defining_rep(2)
    ident = SparseOperator.identity(basis.dim * 2)
    assert quantum_L(basis, Fraction(3), q) - ident.scale(3) == quantum_L(basis, 0, q)


def test_quantum_L_dimension_mismatch(bases):
    with pytest.raises(ValueError):
        quantum_L(bases[4], Fraction(1), so_defining_rep(2))


# --- Weyl projectors ------------------------------------------------------------

def test_weyl_projectors(bases):
    for d in (2, 4, 6):
        basis = bases[d]
        plus, minus = weyl_projectors(basis)
        assert plus + minus == SparseOperator.identity(basis.dim)
        assert (plus @ minus).is_zero()
        assert plus @ plus == plus
        assert plus.trace() == ExactScalar(basis.dim // 2)


def test_weyl_projector_d2_explicit(bases):
    plus, _ = weyl_projectors(bases[2])
    assert list(plus.items()) == [((0, 0), ExactScalar(1))]


def test_weyl_projector_rank_d6(bases):
    plus, minus = weyl_projectors(bases[6])
    assert plus.trace() == ExactScalar(4)
    assert minus.trace() == ExactScalar(4)
