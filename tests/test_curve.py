from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodescent.curve import (
    CurveError,
    Curve,
    INFINITY,
    Pt,
    SingularModel,
    _integer_roots_monic_cubic,
    add,
    count_points_mod,
    discriminant,
    from_cubic_const,
    j_invariant,
    mul,
    neg,
    on_curve,
    pt,
    shift_x,
    torsion_order_bound,
    torsion_subgroup,
)

from .oracles import (
    count_points_brute,
    o_add,
    o_on_curve,
    torsion_invariants_brute,
)


def small_points(E: Curve, bound: int = 12) -> list[Pt]:
    """Every affine point with integer x in [-bound, bound] and integer y."""
    out = []
    for x in range(-bound, bound + 1):
        v = E.rhs(Fraction(x))
        if v >= 0 and v.denominator == 1:
            s = math.isqrt(v.numerator)
            if s * s == v.numerator:
                out.append(pt(x, s))
                if s:
                    out.append(pt(x, -s))
    return out


def test_curve_constructor_examples():
    E = Curve(6, 1, 0)
    assert (E.a2, E.a4, E.a6) == (6, 1, 0)
    E = Curve(0, 17, 0)
    assert (E.a2, E.a4, E.a6) == (0, 17, 0)
    with pytest.raises(SingularModel):
        Curve(0, 0, 0)
    with pytest.raises(SingularModel):
        Curve(-3, 3, -1)  # (x-1)^3


def test_discriminant_known_values():
    assert discriminant(Curve(6, 1, 0)) == 512
    assert discriminant(Curve(0, 17, 0)) == -314432
    assert discriminant(Curve(0, 0, 1)) == -432


@settings(max_examples=100, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_discriminant_closed_form_for_two_torsion_models(a, b):
    if b == 0 or a * a == 4 * b:
        return
    assert discriminant(Curve(a, b, 0)) == 16 * b * b * (a * a - 4 * b)


def test_j_invariant_families():
    for D in (1, 17, -1, 30):
        assert j_invariant(Curve(0, D, 0)) == 1728
    for D in (1, 8, -432):
        assert j_invariant(Curve(0, 0, D)) == 0
    assert j_invariant(Curve(0, 1, 1)) == Fraction(6912, 31)


def test_j_invariant_needs_depressed_model():
    with pytest.raises(CurveError):
        j_invariant(Curve(6, 1, 0))


def test_on_curve_examples():
    assert on_curve(Curve(6, 1, 0), pt(-1, 2))
    assert on_curve(Curve(0, 0, 1), pt(2, 3))
    assert on_curve(Curve(6, 1, 0), INFINITY)
    assert not on_curve(Curve(6, 1, 0), pt(1, 1))


def test_addition_examples():
    E = Curve(6, 1, 0)
    assert add(E, pt(-1, 2), pt(-1, 2)) == pt(0, 0)
    E2 = Curve(0, 0, 1)
    assert add(E2, pt(2, 3), pt(-1, 0)) == pt(0, -1)
    assert add(E, pt(-1, 2), INFINITY) == pt(-1, 2)
    assert add(E, INFINITY, INFINITY) == INFINITY


def test_addition_rejects_points_off_curve():
    with pytest.raises(CurveError):
        add(Curve(6, 1, 0), pt(1, 1), pt(0, 0))


def test_negation_and_inverse():
    E = Curve(6, 1, 0)
    P = pt(-1, 2)
    assert neg(E, P) == pt(-1, -2)
    assert add(E, P, neg(E, P)) == INFINITY
    assert neg(E, INFINITY) == INFINITY


CURVE_SAMPLES = [Curve(6, 1, 0), Curve(0, 17, 0), Curve(0, 0, 1),
                 Curve(-6, 12, 0), Curve(0, -1, 0), Curve(1, -2, 0)]


def test_group_law_matches_reference_on_found_points():
    for E in CURVE_SAMPLES:
        coeffs = (E.a2, E.a4, E.a6)
        pts = small_points(E) + [INFINITY]
        for P in pts:
            for Q in pts:
                R = add(E, P, Q)
                oP = None if P.is_infinity else (P.x, P.y)
                oQ = None if Q.is_infinity else (Q.x, Q.y)
                oR = o_add(coeffs, oP, oQ)
                assert (R.is_infinity and oR is None) or (R.x, R.y) == oR
                assert on_curve(E, R)


def test_group_law_commutes_and_associates():
    for E in CURVE_SAMPLES:
        pts = small_points(E)[:6] + [INFINITY]
        for P in pts:
            for Q in pts:
                assert add(E, P, Q) == add(E, Q, P)
                for R in pts:
                    assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))


def test_mul_agrees_with_repeated_addition():
    E = Curve(0, 0, 1)
    P = pt(2, 3)
    acc = INFINITY
    for m in range(1, 21):
        acc = add(E, acc, P)
        assert mul(E, m, P) == acc
    assert mul(E, 0, P) == INFINITY
    assert mul(E, -1, P) == neg(E, P)


def test_count_points_examples():
    assert count_points_mod(Curve(0, 1, 0), 7) == 8
    assert count_points_mod(Curve(0, 17, 0), 11) == 12
    assert count_points_mod(Curve(0, 1, 0), 3) == 4


def test_count_points_rejects_bad_reduction():
    with pytest.raises(CurveError):
        count_points_mod(Curve(0, 17, 0), 17)
    with pytest.raises(CurveError):
        count_points_mod(Curve(6, 1, 0), 2)


def test_count_points_matches_enumeration():
    for E in CURVE_SAMPLES:
        disc = discriminant(E)
        for q in (3, 5, 7, 11, 13):
            if disc % q == 0:
                continue
            assert count_points_mod(E, q) == count_points_brute((E.a2, E.a4, E.a6), q)


def test_torsion_order_bound_examples():
    assert torsion_order_bound(Curve(0, 17, 0), 3) % 2 == 0
    assert torsion_order_bound(Curve(6, 1, 0), 4) % 4 == 0
    # trivial torsion: the gcd over several primes must not be forced upward
    assert torsion_order_bound(Curve(0, 0, 2), 6) in (1, 2, 3, 4, 6)


def test_torsion_bound_is_multiple_of_torsion_order():
    for E in CURVE_SAMPLES:
        bound = torsion_order_bound(E, 6)
        assert bound % torsion_subgroup(E).order == 0


def test_torsion_subgroup_examples():
    t = torsion_subgroup(Curve(0, 17, 0))
    assert t.structure == "Z2"
    assert t.generators == (pt(0, 0),)
    assert torsion_subgroup(Curve(0, 0, 1)).structure == "Z6"
    t4 = torsion_subgroup(Curve(6, 1, 0))
    assert t4.structure == "Z4"
    assert t4.generators[0] in (pt(-1, 2), pt(-1, -2))


def test_torsion_subgroup_full_two_torsion():
    t = torsion_subgroup(Curve(0, -1, 0))
    assert t.structure == "Z2xZ2"
    assert t.invariants() == [2, 2]
    t8 = torsion_subgroup(Curve(0, 4, 0))
    assert t8.structure == "Z4"


def test_torsion_matches_reference_invariants():
    for E in CURVE_SAMPLES + [Curve(0, 4, 0), Curve(0, 0, -432), Curve(5, 4, 0)]:
        t = torsion_subgroup(E)
        assert t.invariants() == torsion_invariants_brute((E.a2, E.a4, E.a6))


def test_torsion_generators_check_out():
    for E in CURVE_SAMPLES:
        t = torsion_subgroup(E)
        for g in t.generators:
            assert on_curve(E, g)
        for P in t.points:
            assert on_curve(E, P)
        # the points really form a group of the stated order
        inv = t.invariants()
        expected = 1
        for n in inv:
            expected *= n
        assert t.order == (expected if inv else 1)


def test_from_cubic_const_models():
    assert from_cubic_const(2) == Curve(-6, 12, 0)
    assert from_cubic_const(1) == Curve(-3, 3, 0)
    assert from_cubic_const(3) == Curve(-9, 27, 0)
    with pytest.raises(CurveError):
        from_cubic_const(0)


def test_from_cubic_const_is_a_shift_of_the_cube_model():
    # x -> x - c carries y^2 = x^3 + c^3 to the returned model
    for c in (-3, -1, 1, 2, 5):
        E = from_cubic_const(c)
        cube = Curve(0, 0, c**3)
        for x in range(-8, 9):
            assert E.rhs(Fraction(x)) == cube.rhs(Fraction(x - c))


def test_shift_x():
    assert shift_x(pt(3, 3), -2) == pt(1, 3)
    assert shift_x(INFINITY, 5) == INFINITY
    assert shift_x(pt(Fraction(1, 2), 1), Fraction(1, 2)) == pt(1, 1)


def _roots_by_scan(c2, c1, c0):
    # every real root has |x| < 1 + max |c_i| (Cauchy)
    B = 1 + max(abs(c2), abs(c1), abs(c0))
    return [x for x in range(-B, B + 1) if ((x + c2) * x + c1) * x + c0 == 0]


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_cubic_integer_roots_match_bounded_scan(c2, c1, c0):
    assert _integer_roots_monic_cubic(c2, c1, c0) == _roots_by_scan(c2, c1, c0)


big = st.integers(-(10**12), 10**12)


@settings(max_examples=300, deadline=None)
@given(big, big, big, st.integers(-(10**6), 10**6))
def test_cubic_integer_roots_of_products(r1, r2, r3, c):
    # (x - r1)(x - r2)(x - r3), with double and triple roots, and
    # (x - r1)(x^2 + c) whose quadratic factor has no integer root
    for rs in ((r1, r2, r3), (r1, r1, r2), (r1, r1, r1)):
        a, b, c3 = rs
        roots = _integer_roots_monic_cubic(-(a + b + c3), a * b + a * c3 + b * c3, -a * b * c3)
        assert roots == sorted(set(rs))
    if c > 0 or math.isqrt(-c) ** 2 != -c:
        assert _integer_roots_monic_cubic(-r1, c, -r1 * c) == [r1]
