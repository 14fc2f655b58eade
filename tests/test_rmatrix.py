import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybverify import _core, relations, rmatrix
from ybverify.clifford import as_exp_components, as_exponential, build_gamma
from ybverify.kernel import ExactScalar, SparseOperator, embed_pair, kron, yb_first_row
from ybverify.rmatrix import (CoefficientTable, Normalization, Parity,
                              PoleError, QuantumRep, RepChoice, assemble_spinor_R,
                              coefficients, factor_table, fundamental_L0,
                              fundamental_R0, normalization_weights,
                              product_form_slope_at_zero, projectors, quantum_L,
                              so_defining_rep, so_spinor_rep)

import helpers
from helpers import (coefficients_closed_form, combination_quantum_L, combination_spinor_R,
                     dressed_spinor_R, fundamental_L0_loop, product_form_slope_at_zero_dual,
                     reciprocity_holds, recurrence_holds, satisfies_so_relations,
                     weyl_projectors)

U_SAMPLES = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2),
             Fraction(-1, 5), Fraction(-3, 7)]


_wide = st.integers(10 ** 8, 10 ** 10 - 1)   # 9-10 digits
_signed_wide = st.builds(Fraction, st.builds(lambda s, n: s * n, st.sampled_from([1, -1]), _wide),
                         _wide)


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
    # stored relative to the parity-family beta bases, the beta table is
    # the unit table
    for d in range(2, 11, 2):
        assert factor_table(d, Normalization.BETA_FORM) == factor_table(d, Normalization.UNIT)


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


def test_tables_need_an_even_d():
    for d in (-2, 0, 1, 3):
        for norm in Normalization:
            with pytest.raises(ValueError, match="d must be even"):
                coefficients(d, Fraction(1, 2), norm)


@pytest.mark.parametrize("d", range(2, 11, 2))
def test_product_form_polynomial_degrees(d):
    # R_k(u) is +-2^-(d/2) times d/2 linear factors for even k and d/2 - 1
    # for odd k, with no denominator: a polynomial of degree d/2 or d/2 - 1
    for k, (c, num, den) in enumerate(factor_table(d, Normalization.PRODUCT_FORM)):
        assert abs(c) == Fraction(1, 2 ** (d // 2)) and den == (), (k, c, den)
        assert len(num) == d // 2 - k % 2 and all(isinstance(a, int) for a in num), (k, num)


def _value_or_pole(f, *args):
    """f(*args), or the message and step of the PoleError it raises."""
    try:
        return f(*args), None
    except PoleError as exc:
        return None, (str(exc), exc.k)


# every half-integer in [-22, 22] and every third in [-10, 10]: each singular
# step u = k - d + 2 of the recurrence and each zero of (u/2)_(d/2) and
# ((u+1)/2)_(d/2-1) at d <= 10, on both sides of u = 0
POLE_GRID = sorted({Fraction(n, 2) for n in range(-44, 45)}
                   | {Fraction(n, 3) for n in range(-30, 31)})
# the grid's points where the table, and where the weights, raise PoleError
GRID_POLES = {(d, norm): (poles, weight_poles)
              for d, poles, weight_poles in [(2, 0, 1), (4, 1, 3), (6, 2, 5), (8, 3, 7),
                                             (10, 4, 9)]
              for norm in (Normalization.UNIT, Normalization.BETA_FORM)}
GRID_POLES.update({(d, Normalization.PRODUCT_FORM): (0, 0) for d in range(2, 11, 2)})
GRID_POLES[6, Normalization.D6_PAPER] = (0, 2)


@pytest.mark.parametrize("d,norm", [pytest.param(d, norm, id=f"{d}-{norm.value}")
                                    for d, norm in GRID_POLES])
def test_tables_and_weights_match_the_recurrence_on_the_pole_grid(d, norm):
    # values, or PoleError message and step, as the dual-number recurrence
    # gives them, at every removable 0/0 point and every pole of the grid
    poles = weight_poles = 0
    for u in POLE_GRID:
        table, pole = _value_or_pole(coefficients, d, u, norm)
        want, want_pole = _value_or_pole(helpers.recurrence_table, d, u, norm)
        assert pole == want_pole, u
        assert pole is not None or table.values == want.values, u
        weights = _value_or_pole(rmatrix.normalization_weights, d, u, norm)
        assert weights == _value_or_pole(helpers.normalization_weights_dual, d, u, norm), u
        poles += pole is not None
        weight_poles += weights[1] is not None
    assert (poles, weight_poles) == GRID_POLES[d, norm]


@st.composite
def table_points(draw):
    """d = 2..10 and a spectral point: small, 9-10 digits, a half-integer,
    or a singular step u = k - d + 2 of the recurrence."""
    d = draw(st.sampled_from(range(2, 11, 2)))
    u = draw(st.one_of(
        st.fractions(-12, 12, max_denominator=12),
        _signed_wide,
        st.integers(-21, 21).map(lambda n: Fraction(n, 2)),
        st.integers(0, d - 2).map(lambda k: Fraction(k - d + 2))))
    return d, u


@given(table_points())
@settings(deadline=None, max_examples=300)
def test_tables_match_closed_forms_and_the_recurrence(case):
    d, u = case
    product = coefficients(d, u, Normalization.PRODUCT_FORM).values
    assert product == coefficients_closed_form(d, u, Normalization.PRODUCT_FORM).values
    assert product == helpers.recurrence_table(d, u, Normalization.PRODUCT_FORM).values
    # unit: each parity family over its first product-form entry
    unit, pole = _value_or_pole(coefficients, d, u, Normalization.UNIT)
    if product[0] and product[1]:
        assert pole is None
        assert unit.values == tuple(product[k] / product[k % 2] for k in range(d + 1))
    # beta: the closed form wherever that is defined
    beta, beta_pole = _value_or_pole(coefficients, d, u, Normalization.BETA_FORM)
    try:
        closed = coefficients_closed_form(d, u, Normalization.BETA_FORM).values
    except PoleError:
        closed = None
    if closed is not None:
        assert beta_pole is None and beta.values == closed
    # a pole names its singular step, in the message the recurrence gives
    for step in (pole, beta_pole):
        if step is not None:
            message, k = step
            assert u + d - 2 - k == 0
            assert message == f"recurrence pole at k={k}: u + d - 2 - k = 0 for u={u}, d={d}"
    if d == 6:
        assert coefficients(6, u, Normalization.D6_PAPER).values \
            == tuple(ExactScalar(x) for x in d6_paper_table(u))


def test_d6_norm_requires_d6():
    for table in (coefficients, normalization_weights):
        with pytest.raises(ValueError, match="defined for d = 6 only"):
            table(4, Fraction(1), Normalization.D6_PAPER)


def test_table_perturbation_and_strings():
    table = coefficients(4, Fraction(1), Normalization.UNIT)
    assert table.fraction_strings() == ["1", "1", "-1/3", "-1", "1"]
    bumped = table.perturbed(2)
    assert bumped[2] == ExactScalar(Fraction(2, 3))
    assert not recurrence_holds(bumped)
    assert table.perturbed(4)[4] == ExactScalar(2)
    for k in (5, -1):
        with pytest.raises(ValueError, match=f"perturb_k={k} is outside 0..4"):
            table.perturbed(k)


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


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_odd_contraction_times_second_chirality_is_a_component(d):
    # gamma5 (x) gamma5 = (-1)^(d/2) T_d and T_k T_d = T_(d-k), so for odd k
    # T_k (1 (x) gamma5) = (-1)^(d/2) s_(d-k) S_(d-k): the identity that
    # makes the double-primed R a combination of the S_k
    basis = relations._basis(d)
    comps = as_exp_components(basis)
    dress = kron(SparseOperator.identity(basis.dim), basis.gamma5)
    for k in range(1, d + 1, 2):
        sign = (-1) ** (d // 2 + (d - k) * (d - k - 1) // 2)
        assert basis.pair_contraction(k) @ dress == comps[d - k].scale(sign), k


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_assemble_matches_dressed_oracle(d):
    # the primed and double-primed reps sum coefficients times S_k; the
    # oracle dresses the summed odd part with a product (at u = 0 the even
    # product-form coefficients vanish)
    basis = relations._basis(d)
    points = (Fraction(1, 2), Fraction(-3, 7)) + ((Fraction(2), Fraction(0)) if d < 10 else ())
    for u in points:
        table = coefficients(d, u, Normalization.PRODUCT_FORM)
        for rep in RepChoice:
            for parity in Parity:
                want = dressed_spinor_R(basis, table, rep, parity)
                assert assemble_spinor_R(basis, table, rep, parity) == want, (u, rep, parity)


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
    """The ``rows`` argument of every ``_core.slot_rows`` call, as recorded."""
    seen = []
    slot_rows = _core.slot_rows

    def spy(lhs, rhs, dims, rows):
        seen.append(rows)
        return slot_rows(lhs, rhs, dims, rows)

    monkeypatch.setattr(_core, "slot_rows", spy)
    return seen


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_assembled_R_carries_the_weyl_lifts(bases, d):
    # every rep and parity is one combination of a certified family, the
    # double-primed odd part included
    basis = bases[d]
    table = coefficients(d, Fraction(1, 2), Normalization.PRODUCT_FORM)
    for rep in RepChoice:
        for parity in Parity:
            R = assemble_spinor_R(basis, table, rep, parity)
            assert R.certified_lifts == basis.weyl_lifts(), (rep, parity)
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


def test_projectors_are_built_once_per_basis(bases):
    basis = bases[6]
    first = projectors(basis)
    assert all(x is y for x, y in zip(projectors(basis), first))
    assert projectors.__wrapped__(basis) == first
    # the unitarity check reads the cached pair and still passes
    for u in (Fraction(1, 3), Fraction(-7, 5)):
        report = relations.check_unitarity(6, u)
        assert report.passed and "h+ = " in report.detail, report.detail


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


@pytest.mark.parametrize("d", range(2, 11, 2))
def test_product_form_slopes_match_dual_numbers(d):
    assert product_form_slope_at_zero(d) == product_form_slope_at_zero_dual(d)


def test_product_form_slope_needs_a_vanishing_constant(monkeypatch):
    # R_2(u) = -u^2/4 planted as -(u + 1)^2/4, which is -1/4 at u = 0
    table = list(factor_table(4, Normalization.PRODUCT_FORM))
    c, num, den = table[2]
    table[2] = c, tuple(a + 1 for a in num), den
    monkeypatch.setattr(rmatrix, "factor_table", lambda d, norm: tuple(table))
    with pytest.raises(ArithmeticError, match="R_2 does not vanish at u = 0"):
        rmatrix.product_form_slope_at_zero(4)


# --- fundamental operators ----------------------------------------------------

def test_fundamental_R0_at_zero():
    assert fundamental_R0(4, 0) == SparseOperator.identity(16)


def test_fundamental_R0_trace_coefficient():
    # d = 4, u = 1: the delta^(i1 i2) delta_(j1 j2) weight is -1/2
    R = fundamental_R0(4, Fraction(1))
    assert R.entry(0, 5) == ExactScalar(Fraction(-1, 2))  # (0,0) -> (1,1)
    assert R.entry(5, 0) == ExactScalar(Fraction(-1, 2))


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_fundamental_R0_matches_the_entry_loop(d):
    # at u = 2 - d/2 the trace weight is -u; u = 0 is the pole at d = 2
    for u in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(5, 2),
              Fraction(2 - d // 2), Fraction(9876543211, 1234567890)):
        if u == 1 - d // 2:
            with pytest.raises(PoleError):
                fundamental_R0(d, u)
            continue
        assert fundamental_R0(d, u) == helpers.fundamental_R0_loop(d, u), u


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
    # the spinor K has diagonal entries +-1/4 and +-3/4 at d = 6, so L
    # cancels on the diagonal at u = 1/4 or -3/4; no stored entry is zero
    points = (Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(1, 4), Fraction(-3, 4),
              Fraction(5, 7), Fraction(9876543211, 1234567890))
    for q in (defining, so_spinor_rep(basis), custom):
        for u in points:
            L = quantum_L(basis, u, q)
            assert L == combination_quantum_L(basis, u, q), (q, u)
            assert all(row and all(v[0] or v[1] for v in row.values())
                       for row in L._rows.values()), (q, u)


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
        assert helpers.trace(plus) == ExactScalar(basis.dim // 2)


def test_weyl_projector_d2_explicit(bases):
    plus, _ = weyl_projectors(bases[2])
    assert list(plus.items()) == [((0, 0), ExactScalar(1))]


def test_weyl_projector_rank_d6(bases):
    plus, minus = weyl_projectors(bases[6])
    assert helpers.trace(plus) == ExactScalar(4)
    assert helpers.trace(minus) == ExactScalar(4)
