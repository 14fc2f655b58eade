import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import dense_local_ybe_sides
from ybverify import localyb as lyb
from ybverify.clifford import build_gamma
from ybverify.localyb import (CurveCoords, RegionTag, TripleXYZ, all_regions,
                              check_local_ybe, classify_region, companion_point,
                              forward_map, integrand_symmetry_check, invariants,
                              inverse_map, jacobian, jacobian_fd, sample_triple,
                              solve_primed)
from ybverify.relations import Status, _basis

F = Fraction


def triple(x, y, z):
    return TripleXYZ(F(x), F(y), F(z))


def test_forward_map_hand_values():
    assert forward_map(triple(2, 1, 1)) == CurveCoords(F(-9), F(-1), F(1, 3))
    assert forward_map(triple(3, 1, 2)) == CurveCoords(F(-4), F(-2), F(1, 2))


def test_forward_map_antisymmetric_point():
    # x = -y is fine for the map itself (a = 0 there)
    a, b, t = forward_map(triple(2, -2, 5))
    assert a == 0


def test_forward_map_singularities():
    with pytest.raises(ZeroDivisionError):
        forward_map(triple(2, F(1, 2), 1))  # xy = 1
    with pytest.raises(ZeroDivisionError):
        forward_map(triple(1, 1, 1))  # x = y
    with pytest.raises(ZeroDivisionError):
        forward_map(triple(2, F(-1, 2), 1))  # 1 + xy = 0


def test_invariants_hand_values():
    assert invariants(triple(2, 1, 1)) == (F(-1), F(9))
    assert invariants(triple(3, 1, 2)) == (F(-2), F(8))


def test_invariants_vanish_at_equal_arguments():
    lam1, _ = invariants(triple(3, 3, 7))
    assert lam1 == 0


def test_invariants_match_chart():
    rng = random.Random(1)
    for _ in range(30):
        p = TripleXYZ(rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 3))
        try:
            a, b, t = forward_map(p)
        except ZeroDivisionError:
            continue
        lam1, lam2 = invariants(p)
        assert abs(lam1 - b) < 1e-12 * max(1, abs(b))
        assert abs(lam2 - a * b) < 1e-12 * max(1, abs(a * b))


def test_companion_point_hand_values():
    assert companion_point(CurveCoords(F(-4), F(-2), F(1, 2))).t == 1
    assert companion_point(CurveCoords(F(-9), F(-1), F(1, 3))).t == F(1, 3)


def test_companion_point_involution():
    c = CurveCoords(F(5, 2), F(7, 3), F(-2, 9))
    assert companion_point(companion_point(c)) == c


def test_companion_point_zero_division():
    with pytest.raises(ZeroDivisionError):
        companion_point(CurveCoords(F(0), F(1), F(1)))


def test_classify_region():
    assert classify_region(triple(3, 1, 2)) == RegionTag(True, True, True)
    assert classify_region(triple(1, 3, 2)) == RegionTag(False, True, True)
    assert classify_region(triple(F(1, 2), F(1, 4), 1)) == RegionTag(True, False, True)
    assert classify_region(TripleXYZ(0.3, 0.9, -1.0)) == RegionTag(False, False, False)
    with pytest.raises(ValueError):
        classify_region(triple(2, 2, 1))
    with pytest.raises(ValueError):
        classify_region(triple(2, F(1, 2), 1))
    with pytest.raises(ValueError):
        classify_region(triple(2, 1, 0))


def test_region_sign_pattern_of_a():
    # x>y, xy>1 maps to the a <= -1 branch; the other two sampled regions
    # land on a >= +1
    a, _, _ = forward_map(triple(3, 1, 2))
    assert a <= -1
    a, _, _ = forward_map(triple(1, 3, 2))
    assert a >= 1
    a, _, _ = forward_map(triple(F(1, 2), F(1, 4), 1))
    assert a >= 1


def test_inverse_map_round_trips_exact():
    for p in (triple(2, 1, 1), triple(3, 1, 2)):
        c = forward_map(p)
        region = classify_region(p)
        q = inverse_map(c, region)
        assert q == p  # rational path: perfect-square discriminant
        assert all(isinstance(w, Fraction) for w in q)


def test_inverse_map_round_trips_float():
    rng = random.Random(9)
    for region in all_regions():
        for _ in range(40):
            p = sample_triple(rng, region)
            c = forward_map(p)
            q = inverse_map(c, region)
            for got, want in zip(q, p):
                assert abs(float(got) - float(want)) < 1e-12 * max(1, abs(float(want)))


def test_inverse_map_rejects_outside_chart_image():
    with pytest.raises(ValueError):
        inverse_map(CurveCoords(0.5, 1.0, 0.3), RegionTag(True, True, True))


def test_inverse_map_region_consistency():
    c = forward_map(triple(3, 1, 2))  # a = -4 < 0, t > 0 means x > y
    with pytest.raises(ValueError):
        inverse_map(c, RegionTag(False, True, True))
    with pytest.raises(ValueError):
        inverse_map(c, RegionTag(True, True, False))


def test_solve_primed_hand_value():
    # forward (3,1,2) -> (-4,-2,1/2), t' = 1; the positive-octant partner
    q = solve_primed(triple(3, 1, 2))
    a, b, t = forward_map(q)
    assert abs(float(a) + 4) < 1e-12
    assert abs(float(b) + 2) < 1e-12
    assert abs(float(t) - 1) < 1e-12
    assert all(float(w) > 0 for w in q)


def test_solve_primed_fixed_point():
    # (2,1,1) has t' = t, so it is its own partner
    q = solve_primed(triple(2, 1, 1))
    assert q == triple(2, 1, 1)


def test_solve_primed_satisfies_relations():
    rng = random.Random(23)
    for region in all_regions():
        for _ in range(50):
            p = sample_triple(rng, region)
            q = solve_primed(p)
            x, y, z = (float(w) for w in p)
            xp, yp, zp = (float(w) for w in q)
            r1 = (x + y) / (1 - x * y) - zp * (1 + xp * yp) / (1 - xp * yp)
            r2 = z * (1 + x * y) / (1 - x * y) - (xp + yp) / (1 - xp * yp)
            r3 = z * (x - y) / (1 - x * y) - zp * (xp - yp) / (1 - xp * yp)
            scale = max(1.0, abs(z * (1 + x * y) / (1 - x * y)))
            assert max(abs(r1), abs(r2), abs(r3)) < 1e-10 * scale, (p, q)


def test_solve_primed_preserves_invariants():
    rng = random.Random(29)
    for region in all_regions():
        for _ in range(30):
            p = sample_triple(rng, region)
            q = solve_primed(p)
            lam_p = invariants(p)
            lam_q = invariants(q)
            for a, b in zip(lam_p, lam_q):
                assert abs(float(a) - float(b)) < 1e-10 * max(1, abs(float(a)))


def test_solve_primed_is_involution():
    rng = random.Random(31)
    for region in all_regions():
        for _ in range(30):
            p = sample_triple(rng, region)
            back = solve_primed(solve_primed(p))
            for got, want in zip(back, p):
                assert abs(float(got) - float(want)) < 1e-9 * max(1, abs(float(want)))


def test_solve_primed_negative_z():
    rng = random.Random(53)
    for region in all_regions(z_positive=False):
        for _ in range(20):
            p = sample_triple(rng, region)
            q = solve_primed(p)
            assert float(q.z) < 0
            for a, b in zip(invariants(p), invariants(q)):
                assert abs(float(a) - float(b)) < 1e-10 * max(1, abs(float(a)))


def test_jacobian_hand_values():
    assert jacobian(triple(2, 1, 1)) == F(-20, 3)
    assert jacobian(triple(3, 1, 2)) == F(-5, 4)
    assert jacobian(TripleXYZ(0.0, 0.0, 5.0)) == 2


def test_jacobian_matches_finite_differences():
    rng = random.Random(37)
    for region in all_regions():
        for _ in range(25):
            p = sample_triple(rng, region)
            closed = float(jacobian(p))
            fd = jacobian_fd(p)
            assert abs(closed - fd) < 1e-6 * max(1.0, abs(closed)), p


# --- local Yang-Baxter -------------------------------------------------------

@pytest.fixture(scope="module")
def bases():
    return {d: build_gamma(d) for d in (2, 4)}


def test_local_ybe_specific_point(bases):
    report = check_local_ybe(bases[2], triple(3, 1, 2), tol=1e-9)
    assert report.passed, report.max_residual


def test_local_ybe_fixed_point_machine_precision(bases):
    report = check_local_ybe(bases[2], triple(2, 1, 1), tol=1e-12)
    assert report.passed


def test_local_ybe_randomized(bases):
    for d in (2, 4):
        rng = random.Random(lyb.DEFAULT_SEED)
        for region in all_regions():
            for _ in range(25):
                p = sample_triple(rng, region)
                report = check_local_ybe(bases[d], p, tol=1e-9)
                assert report.passed, (d, p, report.max_residual)


def _sample_points(per_region):
    rng = random.Random(lyb.DEFAULT_SEED)
    return [sample_triple(rng, region)
            for region in all_regions() for _ in range(per_region)]


@pytest.mark.parametrize("d, points", [(2, _sample_points(5)), (4, _sample_points(5)),
                                       (6, _sample_points(1)[:1])],
                         ids=["d2", "d4", "d6"])
def test_local_ybe_sides_match_dense_three_copy(d, points):
    basis = _basis(d)
    for p in points:
        q = solve_primed(p)
        for new, ref in zip(lyb.local_ybe_sides(basis, p, q),
                            dense_local_ybe_sides(basis, p, q)):
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(new - ref)) <= 1e-12 * scale, (d, p)


def _assert_every_point_fails(basis, d):
    for p in _sample_points(1):
        report = check_local_ybe(basis, p, tol=1e-9)
        assert report.status is Status.FAIL, (d, p)
        # a million times the tolerance: a planted defect, not rounding
        assert report.max_residual > 1e-3, (d, p, report.max_residual)


@pytest.mark.parametrize("d", [2, 4])
def test_local_ybe_fails_with_swapped_primed_point(monkeypatch, d):
    solve = lyb.solve_primed

    def swapped(p):
        q = solve(p)
        return TripleXYZ(q.y, q.x, q.z)

    monkeypatch.setattr(lyb, "solve_primed", swapped)
    _assert_every_point_fails(_basis(d), d)


@pytest.mark.parametrize("d", [2, 4])
def test_local_ybe_fails_with_sign_flipped_component(monkeypatch, d):
    # S_2: flipping S_1 alone is E(t) -> E(-t) at d = 2, and the relation
    # holds at (-x, -y, -z) too, so that would be no defect
    components = lyb.as_exp_components

    def flipped(basis):
        comps = list(components(basis))
        comps[2] = -comps[2]
        return tuple(comps)

    monkeypatch.setattr(lyb, "as_exp_components", flipped)
    # a fresh basis: the shared one may already have its unflipped dense stack
    _assert_every_point_fails(build_gamma(d), d)


def test_integrand_symmetry_measure_only():
    report = integrand_symmetry_check(2, 0.5, 1 / 3, 0.0, 0.0, 0.0, triple(3, 1, 2))
    assert report.passed


def test_integrand_symmetry_general_weights():
    report = integrand_symmetry_check(2, 0.5, 1 / 3, 1.0, 2.0, 3.0, triple(3, 1, 2))
    assert report.passed, report.max_residual


def test_integrand_symmetry_randomized():
    rng = random.Random(43)
    count = 0
    while count < 50:
        region = all_regions()[rng.randrange(4)]
        p = sample_triple(rng, region)
        report = integrand_symmetry_check(2, 0.7, 0.4, 0.2, -0.3, 0.5, p, tol=1e-8)
        assert report.passed, (p, report.max_residual)
        count += 1
