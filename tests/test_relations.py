import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybverify import _core, clifford, rmatrix
from ybverify import relations as rel
from ybverify.kernel import (ExactScalar, RowSymmetry, SparseOperator, kron, rll_first_row,
                             yb_first_row)
from ybverify.rmatrix import (Normalization, Parity, PoleError, RepChoice,
                              fundamental_R0, so_defining_rep, so_spinor_rep)

from helpers import (brute_as_exponential, brute_graded_generators, coefficients_closed_form,
                     commutes_with_all_so_pairs, dressed_spinor_R, rll_sides, streamed_yb,
                     weyl_projectors, yb_sides)

U, V = Fraction(1, 2), Fraction(1, 3)
LOCATED = re.compile(r"first residual \S+ at entry \(\d+,\d+\)$")


def _fails_at(report, label):
    assert report.status is rel.Status.FAIL, report.detail
    assert report.detail.startswith(f"{label}: "), report.detail
    assert LOCATED.search(report.detail), report.detail


def test_ybe_passes_small_dimensions():
    for d in (2, 4):
        for norm in (Normalization.PRODUCT_FORM, Normalization.UNIT):
            report = rel.check_ybe(d, U, V, norm)
            assert report.passed, (d, norm, report.detail)
            assert report.exact and report.max_residual is None


def test_ybe_all_rep_choices():
    # the undressed convention also satisfies the Yang-Baxter relation
    # (related to the dressed ones by the odd-part transformation freedom)
    for rep in RepChoice:
        assert rel.check_ybe(4, U, V, rep=rep).passed, rep


def test_ybe_unit_at_origin_d2():
    assert rel.check_ybe(2, Fraction(0), Fraction(0), Normalization.UNIT).passed


def test_ybe_budget_skip():
    report = rel.check_ybe(8, U, V)
    assert report.status is rel.Status.SKIPPED
    report = rel.check_ybe(8, U, V, budget=100000)
    assert report.passed


def test_ybe_env_budget(monkeypatch):
    monkeypatch.setenv("YBV_BUDGET_DIM", "50")  # d=4 triple space has dim 64
    assert rel.check_ybe(4, U, V).status is rel.Status.SKIPPED
    monkeypatch.setenv("YBV_BUDGET_DIM", "100")
    assert rel.check_ybe(4, U, V).passed


def test_ybe_pole_raises():
    with pytest.raises(PoleError):
        rel.check_ybe(4, Fraction(-2), Fraction(1, 3), Normalization.UNIT)


def test_negative_controls_locate_residuals():
    # perturbing any single coefficient by 1 must break the relation
    for k in range(5):
        report = rel.check_ybe(4, U, V, perturb_k=k)
        assert report.status is rel.Status.FAIL, k
        assert "at entry (" in report.detail, report.detail


def test_three_term_full_lattice():
    for d in (2, 4):
        for a in "+-":
            for b in "+-":
                for c in "+-":
                    report = rel.check_three_term(d, U, V, (a, b, c))
                    assert report.passed, (d, a, b, c, report.detail)


def test_three_term_zero_identities_enforced():
    # odd sign product means both triple products vanish identically; the
    # check must verify that, not just equality of the two sides
    report = rel.check_three_term(4, U, V, "+-+")
    assert report.passed
    report = rel.check_three_term(4, U, V, "++-")
    assert report.passed


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("signs", ["+-+", "---", "++-"])
def test_three_term_zero_product_branch_catches_full_odd_part(monkeypatch, d, signs):
    # hand the full R-matrix to every odd slot: the three-term relation is
    # linear in each slot and the even and odd relations both hold, so the
    # two sides stay equal and only the zero-product test can fail
    spinor_R = rel._spinor_R

    def full_for_odd(d, u, norm, rep, parity=Parity.FULL, perturb_k=None):
        parity = Parity.FULL if parity is Parity.ODD else parity
        return spinor_R(d, u, norm, rep, parity, perturb_k)

    monkeypatch.setattr(rel, "_spinor_R", full_for_odd)
    _fails_at(rel.check_three_term(d, U, V, signs), "zero-product lhs")


def test_three_term_rejects_bad_signs():
    with pytest.raises(ValueError):
        rel.check_three_term(4, U, V, "+?")


def test_three_term_conjunction_implies_ybe():
    # meta-property: the eight sign triples together imply the full relation
    d = 4
    triples = [rel.check_three_term(d, U, V, (a, b, c)).passed
               for a in "+-" for b in "+-" for c in "+-"]
    assert all(triples)
    assert rel.check_ybe(d, U, V).passed


def test_dressing_covariance():
    # applying either chirality dressing to a passing solution keeps it passing
    for rep in (RepChoice.PRIMED, RepChoice.DOUBLE_PRIMED):
        assert rel.check_ybe(4, U, V, rep=rep).passed


def test_fundamental_ybe():
    for d, u, v in ((4, U, V), (6, Fraction(2), Fraction(-1, 5))):
        assert rel.check_fundamental_ybe(d, u, v).passed


def test_fundamental_ybe_equal_points():
    assert rel.check_fundamental_ybe(4, U, U).passed


def test_rll_fundamental():
    for d in (2, 4):
        for u, v in ((Fraction(1), Fraction(1, 2)), (Fraction(1, 3), Fraction(-1, 4))):
            assert rel.check_rll_fundamental(d, u, v).passed, (d, u, v)


def test_rll_fundamental_all_reps():
    for rep in RepChoice:
        assert rel.check_rll_fundamental(4, Fraction(1), Fraction(1, 2), rep=rep).passed


def test_rll_fundamental_equal_points():
    # u = v leaves the odd part of R(0), which must still intertwine
    assert rel.check_rll_fundamental(4, Fraction(1, 2), Fraction(1, 2)).passed


def test_defining_rep_is_built_once_per_d():
    # one instance per d, shared by every check and left as built, so
    # verdicts and details do not depend on what ran before
    q = so_defining_rep(6)
    assert so_defining_rep(6) is q
    misses = so_defining_rep.cache_info().misses
    first = rel.check_rll_fundamental(6, Fraction(1), Fraction(1, 2))
    again = rel.check_rll_fundamental(6, Fraction(1), Fraction(1, 2))
    assert so_defining_rep.cache_info().misses == misses
    assert first.passed and (again.status, again.detail) == (first.status, first.detail)
    fresh = so_defining_rep.__wrapped__(6)
    pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    assert [q.gen(a, b) for a, b in pairs] == [fresh.gen(a, b) for a, b in pairs]
    assert q.lifts == fresh.lifts


def test_rll_quantum_defining():
    for d in (4, 6):
        q = so_defining_rep(d)
        report = rel.check_rll_quantum(d, Fraction(1), V, q, "defining")
        assert report.passed, (d, report.detail)


# d = 2 is left out: so(2) is abelian, and the RLL relation survives a
# rescaled generator part there
@pytest.mark.parametrize("d,fund,quant,entry", [(4, "-1/4", "-4/9", "(0,6)"),
                                                (6, "-5/8", "-32/27", "(0,16)")])
def test_rll_doubled_generator_part_fails(monkeypatch, d, fund, quant, entry):
    # u + 2 (i/4) gamma_ab (x) M^ab in place of the quantum L-operator; the
    # fundamental L-operator reaches it through rmatrix
    quantum_L = rmatrix.quantum_L

    def doubled(basis, u, q):
        return quantum_L(basis, u, q).scale(2) \
            - SparseOperator.identity(basis.dim * q.m).scale(u)

    monkeypatch.setattr(rmatrix, "quantum_L", doubled)
    monkeypatch.setattr(rel, "quantum_L", doubled)
    report = rel.check_rll_fundamental(d, Fraction(1), Fraction(1, 2))
    _fails_at(report, "RLL")
    assert report.detail.endswith(f"first residual {fund} at entry {entry}")
    report = rel.check_rll_quantum(d, Fraction(1), V, so_defining_rep(d), "defining")
    _fails_at(report, "RLL")
    assert report.detail.endswith(f"first residual {quant} at entry {entry}")


def test_asym_vacuous_at_d2():
    assert rel.check_asym(so_defining_rep(2), "defining").passed


def test_asym_defining_passes():
    for d in (4, 6):
        assert rel.check_asym(so_defining_rep(d), "defining").passed


def test_asym_spinor_fails():
    for d in (4, 6):
        report = rel.check_asym(so_spinor_rep(rel._basis(d)), "spinor")
        assert report.status is rel.Status.FAIL
        assert "nonzero antisymmetrization" in report.detail


def _six_permutation_sum(q, a, b, c, dd):
    """sum over the permutations (x, y, z) of (a, b, c), with their signs,
    of {M_xy, M_zd}: the antisymmetrization as the condition states it."""
    acc = SparseOperator.zero(q.m)
    for (x, y, z), sign in (((a, b, c), 1), ((a, c, b), -1), ((b, a, c), -1),
                            ((b, c, a), 1), ((c, a, b), 1), ((c, b, a), -1)):
        anti = q.gen(x, y) @ q.gen(z, dd) + q.gen(z, dd) @ q.gen(x, y)
        acc = acc + anti.scale(sign)
    return acc


@pytest.mark.parametrize("d", [2, 4, 6])
def test_asym_three_terms_are_the_six_signed_permutations(d):
    # M_ba = -M_ab pairs the six terms: the check sums three and doubles
    for q in (so_defining_rep(d), so_spinor_rep(rel._basis(d))):
        for a, b, c in ((a, b, c) for a in range(1, d + 1) for b in range(a + 1, d + 1)
                        for c in range(b + 1, d + 1)):
            for dd in range(1, d + 1):
                three = sum((q.gen(x, y) @ q.gen(z, dd) + q.gen(z, dd) @ q.gen(x, y)
                             for x, y, z in ((a, b, c), (b, c, a), (c, a, b))),
                            SparseOperator.zero(q.m)).scale(2)
                assert three == _six_permutation_sum(q, a, b, c, dd), (q, a, b, c, dd)


def test_asym_sufficiency_for_rll():
    # recorded empirics: wherever the antisymmetrization condition passes,
    # the quantum RLL relation passes too (the converse is not claimed)
    for d in (4, 6):
        for name, q in (("defining", so_defining_rep(d)),
                        ("spinor", so_spinor_rep(rel._basis(d)))):
            asym_ok = rel.check_asym(q, name).passed
            rll_ok = rel.check_rll_quantum(d, Fraction(1), V, q, name).passed
            if asym_ok:
                assert rll_ok, (d, name)


def test_rll_quantum_spinor_recorded_outcomes():
    # d=4 spinor passes even though the antisymmetrization condition fails
    # (the condition is sufficient, not necessary); at d=6 the spinor rep
    # passes with the even-only normalization and fails with an odd part
    q4 = so_spinor_rep(rel._basis(4))
    assert rel.check_rll_quantum(4, Fraction(1), V, q4, "spinor").passed
    q6 = so_spinor_rep(rel._basis(6))
    even_only = rel.check_rll_quantum(6, Fraction(1), V, q6, "spinor",
                                      norm=Normalization.D6_PAPER,
                                      rep=RepChoice.NAIVE)
    assert even_only.passed
    full = rel.check_rll_quantum(6, Fraction(1), V, q6, "spinor")
    assert full.status is rel.Status.FAIL
    assert full.detail == "RLL: first residual 5/2 at entry (35,280)"


def test_unitarity():
    for d in (2, 4):
        for u in (Fraction(1, 3), Fraction(1, 2), Fraction(2)):
            report = rel.check_unitarity(d, u)
            assert report.passed, (d, u, report.detail)


def test_unitarity_d2_h_values():
    report = rel.check_unitarity(2, Fraction(1, 3))
    assert "h+ = -1/9" in report.detail
    assert "h- = 1" in report.detail


def test_unitarity_other_norms():
    for norm in (Normalization.UNIT, Normalization.BETA_FORM):
        assert rel.check_unitarity(4, Fraction(1, 3), norm).passed
    assert rel.check_unitarity(6, Fraction(1, 2), Normalization.D6_PAPER).passed


def test_symmetries():
    for d in (2, 4):
        assert rel.check_symmetries(d, Fraction(1)).passed
    assert rel.check_symmetries(2, Fraction(0), Normalization.UNIT).passed


def test_epsilon_projector_limit():
    for d in (2, 4, 6):
        report = rel.check_epsilon_projector_limit(d)
        assert report.passed, (d, report.detail)
        assert f"Gamma(d/2) = {[1, 1, 2][(d - 2) // 2]}" in report.detail


def test_d6_reduction():
    for u in (Fraction(1), Fraction(0), Fraction(-2, 3)):
        assert rel.check_d6_reduction(u).passed, u


def test_exchange_identities():
    for d in (2, 4):
        assert rel.check_exchange_identities(d).passed


@pytest.mark.parametrize("d", [2, 4])
def test_yb_sides_braid_equals_brute_three_copy(d):
    # P12 = P (x) 1 and P23 = 1 (x) P: the two-copy braid sides equal the
    # products of the oracle's three-copy As-exponentials at t = 1 and -1
    gens = brute_graded_generators(rel._basis(d), 3)
    for E, t in zip(clifford.exchange_pair(rel._basis(d)), (1, -1)):
        e12 = brute_as_exponential(gens, 1, 2, t)
        e23 = brute_as_exponential(gens, 2, 3, t)
        n = rel._basis(d).dim
        lhs = streamed_yb(E, E, E, n, with_rhs=False)
        assert lhs == e12 @ e23 @ e12, (d, t)
        assert lhs - streamed_yb(E, E, E, n) == e23 @ e12 @ e23, (d, t)


def _spinor_triple(d, perturb_k=None):
    norm, rep = Normalization.PRODUCT_FORM, RepChoice.PRIMED
    return (rel._spinor_R(d, U, norm, rep, perturb_k=perturb_k),
            rel._spinor_R(d, U + V, norm, rep), rel._spinor_R(d, V, norm, rep))


YB_CASES = ([("spinor", d) for d in (2, 4, 6, 8)]
            + [("fundamental", d) for d in (2, 4, 6, 8)]
            + [(e, d) for e in ("P", "Pp") for d in (2, 4, 6)])


@pytest.mark.parametrize("kind,d", YB_CASES)
def test_yb_stream_matches_kron_chain_on_relation_operands(kind, d):
    if kind == "spinor":
        a, b, c, n = (*_spinor_triple(d), 2 ** (d // 2))
    elif kind == "fundamental":
        a, b, c, n = fundamental_R0(d, U - V), fundamental_R0(d, U), fundamental_R0(d, V), d
    else:
        a = b = c = clifford.exchange_pair(rel._basis(d))[kind == "Pp"]
        n = rel._basis(d).dim
    lhs, rhs = yb_sides(a, b, c, n)
    assert streamed_yb(a, b, c, n) == lhs - rhs
    assert streamed_yb(a, b, c, n, with_rhs=False) == lhs
    if kind != "fundamental":
        symmetry = rel._basis(d).row_symmetry()
        assert symmetry.certifies((0, 1), a, b, c)
        assert yb_first_row(a, b, c, n, symmetry).first_nonzero() == (lhs - rhs).first_nonzero()
        assert (yb_first_row(a, b, c, n, symmetry, with_rhs=False).first_nonzero()
                == lhs.first_nonzero())


def test_ybe_d8_double_primed_perturbed_fails_like_the_product_oracle():
    # the double-primed R moves R_3 onto S_5; the located entry is the one
    # of the kron chain of the dressed R's, built with a (1 (x) gamma5) product
    basis, rep = rel._basis(8), RepChoice.DOUBLE_PRIMED
    tables = [rmatrix.coefficients(8, x, Normalization.PRODUCT_FORM) for x in (U, U + V, V)]
    tables[0] = tables[0].perturbed(3)
    lhs, rhs = yb_sides(*(dressed_spinor_R(basis, t, rep, Parity.FULL) for t in tables), 16)
    (r, c), value = (lhs - rhs).first_nonzero()
    report = rel.check_ybe(8, U, V, rep=rep, budget=100000, perturb_k=3)
    assert report.detail == f"YBE: first residual {value} at entry ({r},{c})"
    assert report.detail == "YBE: first residual -68425/972 at entry (1,137)"


@pytest.mark.parametrize("d", [6, 8])
def test_double_primed_checks_certify_no_R_and_stream_orbit_minima(monkeypatch, d):
    # the double-primed R is a combination of the certified S_k family, so
    # it carries the Weyl lifts as its mark: once the families and K are
    # certified, no stream certifies an operand and only orbit minima stream
    rep, budget = RepChoice.DOUBLE_PRIMED, 100000

    def run():
        return [rel.check_ybe(d, U, V, rep=rep, budget=budget),
                *(rel.check_three_term(d, U, V, signs, rep=rep, budget=budget)
                  for signs in itertools.product("+-", repeat=3)),
                rel.check_rll_fundamental(d, U, V, rep=rep, budget=budget)]

    assert all(report.passed for report in run())
    certified, streamed = [], []
    certifies, slot_rows = RowSymmetry.certifies, _core.slot_rows

    def certifies_spy(self, slots, *ops):
        certified.extend(ops)
        return certifies(self, slots, *ops)

    def slot_rows_spy(lhs, rhs, dims, rows):
        streamed.append(rows)
        return slot_rows(lhs, rhs, dims, rows)

    monkeypatch.setattr(RowSymmetry, "certifies", certifies_spy)
    monkeypatch.setattr(_core, "slot_rows", slot_rows_spy)
    assert all(report.passed for report in run())
    assert certified == []
    # ybe, the eight three-term residuals and four zero-product lhs, then RLL
    basis = rel._basis(d)
    assert len(streamed) == 14
    assert all(rows is basis.row_symmetry().rows for rows in streamed[:-1])
    assert streamed[-1] is basis.row_symmetry(so_defining_rep(d)).rows


@pytest.mark.parametrize("k", [2, 5])
def test_ybe_d8_perturbed_fails_like_kron_chain(k):
    lhs, rhs = yb_sides(*_spinor_triple(8, perturb_k=k), 16)
    (r, c), value = (lhs - rhs).first_nonzero()
    report = rel.check_ybe(8, U, V, budget=100000, perturb_k=k)
    assert report.status is rel.Status.FAIL
    assert report.detail == f"YBE: first residual {value} at entry ({r},{c})"


@pytest.fixture
def flipped_s2(monkeypatch):
    # S_2, not S_1: flipping S_1 at d = 2 maps E(t) to E(-t), and the
    # product law E(x) E(y) = (1-xy)^d E((x+y)/(1-xy)) survives t -> -t.
    # The primed R-matrix is sum_k s_k R_k S_k, so the flip reaches it too
    components = clifford.as_exp_components

    def flipped(basis):
        comps = list(components(basis))
        comps[2] = -comps[2]
        return tuple(comps)

    for module in (clifford, rel, rmatrix):
        monkeypatch.setattr(module, "as_exp_components", flipped)
    rel._basis.cache_clear()
    yield
    rel._basis.cache_clear()


@pytest.mark.parametrize("d", [2, 4])
def test_exchange_identities_fail_with_sign_flipped_component(flipped_s2, d):
    _fails_at(rel.check_exchange_identities(d), "P P'")


@pytest.mark.parametrize("d", [2, 4])
def test_generating_product_fails_with_sign_flipped_component(flipped_s2, d):
    _fails_at(rel.check_generating_product(d, U, V), "product law")


@pytest.mark.parametrize("d", [2, 4])
def test_primed_ybe_fails_with_sign_flipped_component(flipped_s2, d):
    _fails_at(rel.check_ybe(d, U, V, rep=RepChoice.PRIMED), "YBE")


@pytest.mark.parametrize("d", [2, 4])
def test_primed_rll_fails_with_sign_flipped_component(flipped_s2, d):
    _fails_at(rel.check_rll_fundamental(d, Fraction(1), U, rep=RepChoice.PRIMED), "RLL")


@pytest.fixture
def planted_entry(monkeypatch):
    # one extra entry (0,1) in every R-matrix part a check receives
    spinor_R = rel._spinor_R

    def planted(d, *args, **kwargs):
        R = spinor_R(d, *args, **kwargs)
        return R + SparseOperator.from_entries(R.dim, {(0, 1): 1})

    monkeypatch.setattr(rel, "_spinor_R", planted)


@pytest.mark.parametrize("d", [2, 4])
def test_symmetries_fail_with_planted_entry(planted_entry, d):
    report = rel.check_symmetries(d, Fraction(1))
    _fails_at(report, "so generator (1,2) on even part")
    assert report.detail.endswith("at entry (0,1)"), report.detail


@pytest.mark.parametrize("d", [4, 6])
def test_symmetries_adjacent_generators_decide_as_all_pairs_do(monkeypatch, d):
    # the check tests G_(a,a+1) only; with an operator planted in both
    # parity parts its verdict must be that of every G_ab and the chirality
    # pair, and a FAIL must name an adjacent generator
    basis = rel._basis(d)
    n2 = basis.dim ** 2
    plants = [SparseOperator.from_entries(n2, entries) for entries in (
        {(0, 1): 1}, {(0, 0): 1}, {(3, 5): ExactScalar(0, 2)}, {(n2 - 1, 0): Fraction(1, 3)},
        {(n2 // 2, n2 // 3): -1, (n2 // 3, n2 // 2): 1})]
    # two invariant plants, which must still PASS
    plants += [SparseOperator.identity(n2).scale(3), kron(basis.gamma5, basis.gamma5)]
    spinor_R = rel._spinor_R
    verdicts = set()
    for plant in plants:
        parts = []

        def planted(*args, **kwargs):
            parts.append(spinor_R(*args, **kwargs) + plant)
            return parts[-1]

        monkeypatch.setattr(rel, "_spinor_R", planted)
        report = rel.check_symmetries(d, Fraction(1))
        assert report.passed == all(commutes_with_all_so_pairs(basis, R) for R in parts), plant
        verdicts.add(report.passed)
        if not report.passed:
            a, b = map(int, re.match(r"so generator \((\d+),(\d+)\) on (?:even|odd) part: ",
                                     report.detail).groups())
            assert b == a + 1, report.detail
    assert verdicts == {True, False}


@pytest.mark.parametrize("d", [2, 4])
def test_unitarity_fails_with_planted_entry(planted_entry, d):
    report = rel.check_unitarity(d, V)
    _fails_at(report, "even unitarity")
    assert report.detail.endswith("at entry (0,1)"), report.detail


def test_generating_product_check():
    assert rel.check_generating_product(2, Fraction(1, 2), Fraction(1, 3)).passed
    with pytest.raises(ValueError):
        rel.check_generating_product(2, Fraction(2), Fraction(1, 2))


def test_report_json_shape():
    report = rel.check_ybe(2, U, V)
    payload = report.to_json_dict()
    assert set(payload) == {"schema", "check", "params", "status", "exact",
                            "max_residual", "elapsed_ms", "detail"}
    assert payload["status"] == "pass"
    assert payload["exact"] is True
    assert payload["max_residual"] is None
    line = json.dumps(payload)
    assert json.loads(line) == payload
    stripped = report.to_json_dict(with_timing=False)
    assert stripped["elapsed_ms"] == 0


@pytest.mark.parametrize("d,value", [(2, "1"), (4, "1/7"), (6, "1/13")])
def test_fundamental_ybe_fails_with_planted_entry(monkeypatch, d, value):
    def planted(d, u):
        R = fundamental_R0(d, u)
        return R + SparseOperator.from_entries(R.dim, {(0, 1): 1})

    monkeypatch.setattr(rel, "fundamental_R0", planted)
    report = rel.check_fundamental_ybe(d, U, V)
    _fails_at(report, "fundamental YBE")
    assert report.detail.endswith(f"first residual {value} at entry (0,0)"), report.detail


@pytest.mark.parametrize("d,value", [(2, "-1"), (4, "-2"), (6, "-3")])
def test_epsilon_projector_limit_fails_with_shifted_slope(monkeypatch, d, value):
    slopes_at_zero = rmatrix.product_form_slope_at_zero

    def shifted(d):
        slopes = list(slopes_at_zero(d))
        slopes[2] += 1
        return slopes

    monkeypatch.setattr(rel, "product_form_slope_at_zero", shifted)
    report = rel.check_epsilon_projector_limit(d)
    _fails_at(report, "limit")
    assert report.detail.endswith(f"first residual {value} at entry (0,0)"), report.detail


def test_d6_reduction_fails_with_perturbed_coefficient(monkeypatch):
    coefficients = rmatrix.coefficients
    monkeypatch.setattr(rel, "coefficients",
                        lambda d, u, norm: coefficients(d, u, norm).perturbed(2))
    report = rel.check_d6_reduction(Fraction(1))
    _fails_at(report, "mixed block +-")
    assert report.detail.endswith("first residual -1 at entry (0,0)"), report.detail


# M_12 + 1, not 2 M_12: the defining rep with M_12 doubled still satisfies
# the condition at d = 4 and 6
@pytest.mark.parametrize("d", [4, 6])
def test_asym_fails_with_shifted_generator(d):
    q = so_defining_rep(d)
    gens = {(a, b): q.gen(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)}
    gens[(1, 2)] = gens[(1, 2)] + SparseOperator.identity(d)
    report = rel.check_asym(rmatrix.QuantumRep(d, d, gens), "defining")
    assert report.status is rel.Status.FAIL
    assert report.detail == "nonzero antisymmetrization for (a,b,c,d)=(1,2,3,4): 4*i at (2,3)"


# --- the orbit reduction keeps every located FAIL ---------------------------

def _ybe_detail(a, b, c, n):
    """The YBE FAIL detail of the full residual: from the kron chain up to
    d = 6, from the ordered row stream at d = 8."""
    if n <= 8:
        lhs, rhs = yb_sides(a, b, c, n)
        (r, col), value = (lhs - rhs).first_nonzero()
    else:
        (r, col), value = yb_first_row(a, b, c, n).first_nonzero()
    return f"YBE: first residual {value} at entry ({r},{col})"


# the recorded first residual of each perturbed coefficient R_k, k = 0..d
PERTURBED_YBE = {
    4: ["-5/36 at entry (1,1)", "-5/6 at entry (1,11)", "-25/18 at entry (1,1)",
        "-5/6 at entry (1,11)", "-5/36 at entry (1,1)"],
    6: ["-595/648 at entry (1,1)", "-595/108 at entry (1,37)", "-595/72 at entry (1,1)",
        "1190/27 at entry (35,35)", "595/72 at entry (1,1)", "595/108 at entry (1,37)",
        "595/648 at entry (1,1)"],
    8: ["-68425/5832 at entry (1,1)", "-68425/972 at entry (1,137)",
        "-68425/729 at entry (1,1)", "68425/972 at entry (1,137)", "68425/324 at entry (1,1)",
        "68425/972 at entry (1,137)", "-68425/729 at entry (1,1)",
        "-68425/972 at entry (1,137)", "-68425/5832 at entry (1,1)"],
}


@pytest.mark.parametrize("d", [4, 6, 8])
def test_perturbed_ybe_keeps_full_stream_detail(d):
    for k in range(d + 1):
        report = rel.check_ybe(d, U, V, budget=100000, perturb_k=k)
        assert report.status is rel.Status.FAIL, (d, k)
        assert report.detail == _ybe_detail(*_spinor_triple(d, perturb_k=k), 2 ** (d // 2))
        assert report.detail == f"YBE: first residual {PERTURBED_YBE[d][k]}", (d, k)


# at d = 2 the perturbed R_0 and R_2 FAIL; a perturbed R_1 cannot
PERTURBED_YBE_D2 = {0: "-1/2 at entry (2,1)", 2: "-1/2 at entry (2,1)"}


def test_perturbed_ybe_at_d2():
    for k, want in PERTURBED_YBE_D2.items():
        report = rel.check_ybe(2, U, V, perturb_k=k)
        assert report.detail == _ybe_detail(*_spinor_triple(2, perturb_k=k), 2)
        assert report.detail == f"YBE: first residual {want}", k
    with pytest.raises(ValueError, match="perturb_k=1 cannot fail at d=2"):
        rel.check_ybe(2, U, V, perturb_k=1)
    # the skip budget is not consulted first
    with pytest.raises(ValueError, match="perturb_k=1 cannot fail at d=2"):
        rel.check_ybe(2, U, V, budget=1, perturb_k=1)
    # the table itself still takes the perturbation
    table = rmatrix.coefficients(2, U, Normalization.PRODUCT_FORM)
    assert table.perturbed(1)[1] == table[1] + 1


def test_perturbed_constant_table_cannot_fail():
    # with a table that has no factor (u + a), all three R's are one
    # operator at every point, and the YBE residual stays zero whichever R_k
    # of R(u) moves, for every rep: so check_ybe rejects any perturb_k there
    # as a configuration error
    pairs = []
    for d in range(2, clifford.MAX_D + 1, 2):
        for norm in Normalization:
            try:
                table = rmatrix.factor_table(d, norm)
            except ValueError:  # a normalization defined at one d only
                continue
            if not any(num or den for _, num, den in table):
                pairs.append((d, norm))
    assert pairs == [(2, Normalization.UNIT), (2, Normalization.BETA_FORM)]
    for d, norm in pairs:
        basis = rel._basis(d)
        for k, rep in itertools.product(range(d + 1), RepChoice):
            tables = [rmatrix.coefficients(d, x, norm) for x in (U, U + V, V)]
            tables[0] = tables[0].perturbed(k)
            ops = [rmatrix.assemble_spinor_R(basis, table, rep) for table in tables]
            assert yb_first_row(*ops, basis.dim).is_zero(), (d, norm, k, rep)
            with pytest.raises(ValueError, match=f"perturb_k={k} cannot fail at d={d}"):
                rel.check_ybe(d, U, V, norm, rep, budget=1, perturb_k=k)


@pytest.mark.parametrize("rep", list(RepChoice))
@pytest.mark.parametrize("norm", [Normalization.PRODUCT_FORM, Normalization.UNIT])
def test_d2_yang_baxter_holds_for_any_R1(rep, norm):
    # which is why perturb_k=1 is no negative control at d = 2: R_1 replaced
    # by a random Gaussian rational in each of the three R's
    rng = random.Random(f"{rep}-{norm}")
    basis = rel._basis(2)
    for _ in range(6):
        ops = []
        for x in (U, U + V, V):
            table = rmatrix.coefficients(2, x, norm)
            values = list(table.values)
            values[1] = ExactScalar(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                                    Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
            ops.append(rmatrix.assemble_spinor_R(
                basis, rmatrix.CoefficientTable(2, table.u, norm, tuple(values)), rep))
        assert yb_first_row(*ops, basis.dim).is_zero()


def test_planted_polynomial_coefficient_fails_ybe(monkeypatch):
    # one offset of the cached d = 6 R_2 = -u^2 (u + 2)/8 shifted to
    # -u^2 (u + 3)/8: R_2(u) moves by -u^2/8, and the Yang-Baxter check
    # locates the residual
    assert rel.check_ybe(6, U, V).passed
    cached = rmatrix.factor_table
    table = list(cached(6, Normalization.PRODUCT_FORM))
    c, num, den = table[2]
    assert num == (0, 0, 2)
    table[2] = c, (0, 0, 3), den
    monkeypatch.setattr(rmatrix, "factor_table", lambda d, norm: tuple(table)
                        if (d, norm) == (6, Normalization.PRODUCT_FORM) else cached(d, norm))
    closed = coefficients_closed_form(6, U, Normalization.PRODUCT_FORM)
    assert rmatrix.coefficients(6, U, Normalization.PRODUCT_FORM)[2] == closed[2] - U * U / 8
    report = rel.check_ybe(6, U, V)
    _fails_at(report, "YBE")
    assert report.detail == _ybe_detail(*_spinor_triple(6), 8)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_flipped_component_ybe_keeps_full_stream_detail(flipped_s2, d):
    report = rel.check_ybe(d, U, V, budget=100000)
    assert report.status is rel.Status.FAIL
    assert report.detail == _ybe_detail(*_spinor_triple(d), 2 ** (d // 2))


@pytest.mark.parametrize("d,value", [(4, "-197/216"), (6, "-51035/7776")])
def test_ybe_planted_entry_falls_back_to_ordered_stream(planted_entry, d, value):
    # the extra entry (0,1) is not invariant, so the certificate fails and
    # every row streams in order: the FAIL is the full residual's
    operands = _spinor_triple(d)
    assert not rel._basis(d).row_symmetry().certifies((0, 1), *operands)
    report = rel.check_ybe(d, U, V)
    assert report.detail == f"YBE: first residual {value} at entry (0,1)"
    assert report.detail == _ybe_detail(*operands, 2 ** (d // 2))


_gauss = st.builds(ExactScalar, st.fractions(-5, 5, max_denominator=6),
                   st.fractions(-5, 5, max_denominator=6))


@st.composite
def component_combinations(draw):
    """d, and three random combinations sum_k c_k S_k of the As-components,
    each with an extra entry at a random place when ``planted`` is drawn."""
    d = draw(st.sampled_from([4, 6]))
    comps = clifford.as_exp_components(rel._basis(d))
    dim = comps[0].dim
    ops = []
    for _ in range(3):
        op = SparseOperator.zero(dim)
        for comp in comps:
            op = op + comp.scale(draw(_gauss))
        if draw(st.booleans()):
            cell = st.integers(0, dim - 1)
            op = op + SparseOperator.from_entries(
                dim, {(draw(cell), draw(cell)): draw(_gauss)})
        ops.append(op)
    return d, ops


@given(component_combinations())
@settings(deadline=None, max_examples=40)
def test_orbit_reduced_first_row_matches_kron_chain(case):
    d, (a, b, c) = case
    n = rel._basis(d).dim
    lhs, rhs = yb_sides(a, b, c, n)
    symmetry = rel._basis(d).row_symmetry()
    assert yb_first_row(a, b, c, n, symmetry).first_nonzero() == (lhs - rhs).first_nonzero()
    assert (yb_first_row(a, b, c, n, symmetry, with_rhs=False).first_nonzero()
            == lhs.first_nonzero())


# --- the RLL relation on one row per orbit ----------------------------------

def _quantum(d, name):
    return so_defining_rep(d) if name == "defining" else so_spinor_rep(rel._basis(d))


@pytest.mark.parametrize("name,d,orbits", [("defining", 4, 16), ("defining", 6, 24),
                                           ("defining", 8, 32), ("spinor", 4, 20),
                                           ("spinor", 6, 40), ("spinor", 8, 70)])
def test_quantum_lifts_are_monomial_and_certify_quantum_L(name, d, orbits):
    basis = rel._basis(d)
    q = _quantum(d, name)
    assert len(q.lifts) == len(basis.weyl_lifts())
    for g in q.lifts:
        # a signed permutation (times 2 for the spinor w_k)
        assert sorted(c for (_, c), _v in g.items()) == list(range(q.m))
        assert len({r for (r, _), _v in g.items()}) == q.m
        assert {v for _, v in g.items()} <= {ExactScalar(s) for s in (1, -1, 2, -2)}
    symmetry = basis.row_symmetry(q)
    assert symmetry.dims == (basis.dim, basis.dim, q.m)
    assert len(symmetry.rows) == orbits
    assert symmetry.certifies((0, 2), *(rmatrix.quantum_L(basis, x, q) for x in (0, U, V)))


def _sign_flipped(q):
    """q with the sign of one entry of its first lift flipped: the lift stays
    monomial but is no longer a symmetry of the L-operator."""
    g = q.lifts[0]
    (r, c), value = next(g.items())
    flipped = g - SparseOperator.from_entries(g.dim, {(r, c): value * 2})
    return rmatrix.QuantumRep(q.d, q.m, q._gens, (flipped, *q.lifts[1:]))


@pytest.mark.parametrize("name,d,detail", [
    ("defining", 4, "spectral placement u-v"),
    ("defining", 6, "spectral placement u-v"),
    ("spinor", 6, "RLL: first residual 7/4 at entry (35,280)")])
def test_sign_flipped_lift_falls_back_to_ordered_stream(name, d, detail):
    basis = rel._basis(d)
    q = _quantum(d, name)
    flipped = _sign_flipped(q)
    assert not basis.row_symmetry(flipped).certifies(
        (0, 2), rmatrix.quantum_L(basis, U, flipped))
    want = rel.check_rll_quantum(d, U, V, q, name)
    got = rel.check_rll_quantum(d, U, V, flipped, name)
    assert got.detail == want.detail == detail
    assert got.to_json_dict(with_timing=False) == want.to_json_dict(with_timing=False)


@pytest.mark.parametrize("name,d,operand,cell,row", [
    ("defining", 4, "R", 5, 16), ("spinor", 4, "L", 3, 7),
    ("defining", 6, "L", 12, 12), ("spinor", 6, "R", 2, 2)])
def test_rll_planted_entry_falls_back_to_ordered_stream(monkeypatch, name, d, operand,
                                                        cell, row):
    # an extra diagonal entry breaks the certificate, and the first residual
    # then sits on a row that is no orbit minimum: only the ordered stream
    # finds it
    def planted(build):
        def build_planted(*args, **kwargs):
            op = build(*args, **kwargs)
            return op + SparseOperator.from_entries(op.dim, {(cell, cell): 1})
        return build_planted

    if operand == "R":
        monkeypatch.setattr(rel, "_spinor_R", planted(rel._spinor_R))
    else:
        monkeypatch.setattr(rel, "quantum_L", planted(rmatrix.quantum_L))
    basis, q = rel._basis(d), _quantum(d, name)
    R = rel._spinor_R(d, U - V, Normalization.PRODUCT_FORM, RepChoice.PRIMED)
    Lu, Lv = rel.quantum_L(basis, U, q), rel.quantum_L(basis, V, q)
    lhs, rhs = rll_sides(R, Lu, Lv, basis.dim, q.m)
    (r, c), value = (lhs - rhs).first_nonzero()
    assert r == row and row not in basis.row_symmetry(q).rows
    report = rel.check_rll_quantum(d, U, V, q, name)
    assert report.detail == f"RLL: first residual {value} at entry ({r},{c})"


@pytest.mark.parametrize("name,d", [("defining", 4), ("defining", 6),
                                    ("spinor", 4), ("spinor", 6)])
def test_marked_L_skips_its_certificate(monkeypatch, name, d):
    # K is certified once, next to its cache entry; every L = u 1 + K,
    # K = L(0) among them, then carries the (V, W) lifts, and the RLL
    # stream certifies neither R nor K
    basis, q = rel._basis(d), _quantum(d, name)
    symmetry = basis.row_symmetry(q)
    R = rel._spinor_R(d, U - V, Normalization.PRODUCT_FORM, RepChoice.PRIMED)
    K, Lu, Lv = (rmatrix.quantum_L(basis, x, q) for x in (0, U, V))
    assert K.certified_lifts == Lu.certified_lifts == Lv.certified_lifts == (
        basis.weyl_lifts(), q.lifts)
    certified = []
    certifies = RowSymmetry.certifies

    def spy(self, slots, *ops):
        certified.extend(ops)
        return certifies(self, slots, *ops)

    monkeypatch.setattr(RowSymmetry, "certifies", spy)
    got = rll_first_row(R, K, U, V, basis.dim, q.m, symmetry)
    assert certified == []
    lhs, rhs = rll_sides(R, Lu, Lv, basis.dim, q.m)
    assert got.first_nonzero() == (lhs - rhs).first_nonzero()


@pytest.mark.parametrize("name,d", [("defining", 4), ("defining", 6), ("spinor", 4)])
def test_planted_non_invariant_coupling_streams_every_row(monkeypatch, name, d):
    # an extra entry in M_12 leaves K non-invariant: K is unmarked, the
    # stream certifies it, the certificate fails and every row streams, so
    # the check FAILs at the materialized chain's first residual
    basis, q = rel._basis(d), _quantum(d, name)
    gens = dict(q._gens)
    gens[(1, 2)] = gens[(1, 2)] + SparseOperator.from_entries(q.m, {(0, 0): 1})
    planted = rmatrix.QuantumRep(d, q.m, gens, q.lifts)
    R = rel._spinor_R(d, U - V, Normalization.PRODUCT_FORM, RepChoice.PRIMED)
    K, Lu, Lv = (rmatrix.quantum_L(basis, x, planted) for x in (0, U, V))
    assert K.certified_lifts is None
    symmetry = basis.row_symmetry(planted)
    assert not symmetry.certifies((0, 2), K)
    seen = []
    slot_rows = _core.slot_rows

    def spy(lhs, rhs, dims, rows):
        seen.append(rows)
        return slot_rows(lhs, rhs, dims, rows)

    monkeypatch.setattr(_core, "slot_rows", spy)
    lhs, rhs = rll_sides(R, Lu, Lv, basis.dim, q.m)
    (r, c), value = (lhs - rhs).first_nonzero()
    assert rll_first_row(R, K, U, V, basis.dim, q.m, symmetry).first_nonzero() == ((r, c), value)
    assert seen == [range(basis.dim ** 2 * q.m)]
    report = rel.check_rll_quantum(d, U, V, planted, name)
    assert report.detail == f"RLL: first residual {value} at entry ({r},{c})"


def test_fresh_quantum_reps_share_one_cached_symmetry():
    # a long-running caller may build a fresh defining rep for every check;
    # the symmetry cache is keyed by the lifts' value, so it does not grow
    # (so_defining_rep is cached, so the fresh reps bypass its cache)
    basis = rel._basis(4)
    rel.check_rll_quantum(4, Fraction(1), V, so_defining_rep(4), "defining")
    size = len(basis._symmetries)
    reps = [so_defining_rep.__wrapped__(4) for _ in range(50)]
    assert len({id(q) for q in reps}) == len(reps)
    for q in reps:
        assert rel.check_rll_quantum(4, Fraction(1), V, q, "defining").passed
    assert len(basis._symmetries) == size


_small = st.fractions(-3, 3, max_denominator=4)


@st.composite
def rll_operands(draw):
    """d, the quantum rep, (R, K) and the points (x_u, x_v), with K = c X,
    X = L(0) the generator part, and R = sum_k c_k S_k: either random c_k,
    or those of R((x_u - x_v)/c), for which the relation holds on the
    defining rep (L(x) = x + K is c L(x/c)).  Then optionally R or K
    shifted by an invariant term on the negative-chirality half of the
    first slot, which keeps the certificate and moves the first residual
    row there, and R or K with an extra entry at a random place, which
    breaks the certificate."""
    d = draw(st.sampled_from([4, 6]))
    q = _quantum(d, draw(st.sampled_from(["defining", "spinor"])))
    basis = rel._basis(d)
    xu, xv = draw(_small), draw(_small)
    c = draw(_small.filter(bool))
    if draw(st.booleans()):
        table = rmatrix.coefficients(d, (xu - xv) / c, Normalization.PRODUCT_FORM)
        coeffs = [-table[k] if (k * (k - 1) // 2) % 2 else table[k] for k in range(d + 1)]
    else:
        coeffs = [draw(_gauss) for _ in range(d + 1)]
    comps = clifford.as_exp_components(basis)
    ops = [sum((comp.scale(ck) for comp, ck in zip(comps, coeffs)),
               SparseOperator.zero(basis.dim ** 2)),
           rmatrix.quantum_L(basis, 0, q).scale(c)]
    _, minus = weyl_projectors(basis)
    shifted = draw(st.sampled_from([None, 0, 1]))
    if shifted is not None:
        other = minus if shifted == 0 else SparseOperator.identity(q.m)
        ops[shifted] = ops[shifted] + kron(minus, other).scale(draw(_gauss))
    planted = draw(st.sampled_from([None, 0, 1]))
    if planted is not None:
        dim = ops[planted].dim
        cell = st.integers(0, dim - 1)
        ops[planted] = ops[planted] + SparseOperator.from_entries(
            dim, {(draw(cell), draw(cell)): draw(_gauss)})
    return basis, q, ops, (xu, xv)


@given(rll_operands())
@settings(deadline=None, max_examples=30)
def test_orbit_reduced_rll_first_row_matches_materialized_chain(case):
    basis, q, (R, K), (u, v) = case
    lhs, rhs = rll_sides(R, K.shifted(u), K.shifted(v), basis.dim, q.m)
    want = (lhs - rhs).first_nonzero()
    symmetry = basis.row_symmetry(q)
    assert rll_first_row(R, K, u, v, basis.dim, q.m, symmetry).first_nonzero() == want
    assert rll_first_row(R, K, u, v, basis.dim, q.m).first_nonzero() == want
