from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twodescent.curve as curve_module
from twodescent.arith import ArithError
from twodescent.curve import (
    CurveError,
    Curve,
    INFINITY,
    Pt,
    SingularModel,
    _character,
    _count_points,
    _good_odd_primes,
    _integer_roots,
    _multiples,
    _odd_poly,
    _sum,
    _torsion_group,
    add,
    count_points_mod,
    discriminant,
    from_cubic_const,
    j_invariant,
    neg,
    on_curve,
    pt,
    torsion_subgroup,
)

from .oracles import (
    count_points_brute,
    division_poly_oracle,
    o_add,
    o_mul,
    o_on_curve,
    o_order,
    torsion_candidates_oracle,
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


@pytest.mark.parametrize("coeffs", [(True, 17, 0), (0, True, 0), (0, 17, False)])
def test_bool_coefficients_are_refused(coeffs):
    # a bool is an int to isinstance, but Curve(True, 17, 0) once echoed a2=True back
    with pytest.raises(CurveError, match="coefficients must be integers"):
        Curve(*coeffs)


def test_j_invariant_of_a_model_with_a2():
    # x -> x - 2 takes y^2 = x^3 + 6x^2 + x to y^2 = x^3 - 11x + 14
    assert j_invariant(Curve(6, 1, 0)) == j_invariant(Curve(0, -11, 14)) == 287496


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-20, 20))
def test_j_invariant_is_unchanged_by_a_shift_of_x(a2, a4, a6, r):
    E = _model(a2, a4, a6)
    assume(E is not None)
    # x -> x + r: a2 + 3r, a4 + 2 a2 r + 3r^2, and the cubic's value at r
    shifted = Curve(a2 + 3 * r, a4 + 2 * a2 * r + 3 * r * r, int(E.rhs(r)))
    assert j_invariant(shifted) == j_invariant(E)


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


@pytest.mark.parametrize("call", [on_curve, neg, lambda E, P: add(E, P, P), lambda E, P: add(E, INFINITY, P)],
                         ids=["on_curve", "neg", "add", "add-second"])
@pytest.mark.parametrize("E, P", [((0, 17, 0), INFINITY), (Curve(0, 17, 0), (0, 0)), (Curve(0, 17, 0), None)],
                         ids=["tuple-model", "tuple-point", "no-point"])
def test_a_model_or_point_of_the_wrong_type_is_refused(call, E, P):
    # neg((0, 17, 0), INFINITY) once returned INFINITY, and a tuple point
    # raised AttributeError
    with pytest.raises(CurveError, match="need a Curve and a Pt"):
        call(E, P)


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
    # the integer multiples of the torsion search are the repeated sums of
    # the group law, and none when the order is past the cap: (2, 3) has
    # order 6 on y^2 = x^3 + 1
    E, P = Curve(0, 0, 1), pt(2, 3)
    sums = [P]
    while sums[-1] != neg(E, P):
        sums.append(add(E, sums[-1], P))
    assert add(E, sums[-1], P) == INFINITY
    assert _multiples(E, 2, 3, 12) == [(Q.x, Q.y) for Q in sums] and len(sums) == 5
    assert _multiples(E, 2, 3, 5) is None


def test_count_points_examples():
    assert count_points_mod(Curve(0, 1, 0), 7) == 8
    assert count_points_mod(Curve(0, 17, 0), 11) == 12
    assert count_points_mod(Curve(0, 1, 0), 3) == 4


def test_count_points_rejects_bad_reduction():
    with pytest.raises(CurveError):
        count_points_mod(Curve(0, 17, 0), 17)
    with pytest.raises(CurveError):
        count_points_mod(Curve(6, 1, 0), 2)


@pytest.mark.parametrize("call", [torsion_subgroup, lambda E: count_points_mod(E, 5)],
                         ids=["torsion_subgroup", "count_points_mod"])
def test_a_model_that_is_not_a_curve_is_refused(call):
    # a coefficient tuple once raised AttributeError
    with pytest.raises(CurveError, match=r"need a Curve, not \(0, 1, 0\)"):
        call((0, 1, 0))


@pytest.mark.parametrize("q", ["5", None])
def test_count_points_refuses_a_q_that_is_not_an_int(q):
    # comparing q with the bound first once raised a bare TypeError
    with pytest.raises(ArithError, match="need an integer"):
        count_points_mod(Curve(0, 1, 0), q)


def test_count_points_refuses_a_prime_beyond_its_bound(monkeypatch):
    # the count sums a character over all of F_q: 1.0 s and 55 MB at q = 1000003
    monkeypatch.setattr(curve_module, "_count_points", lambda *args: pytest.fail("counted"))
    with pytest.raises(CurveError, match=r"need q <= 10\^6"):
        count_points_mod(Curve(0, 1, 0), 1000003)


def test_counting_near_the_bound_keeps_no_q_sized_table():
    # counting at the 5 primes above 999 000 once kept 75 MB of tables
    q, E = 999983, Curve(0, 17, 0)
    _count_points.cache_clear()
    before = _character.cache_info()
    assert count_points_mod(E, q) == count_points_brute((0, 17, 0), q)
    assert _character.cache_info() == before


def test_count_points_matches_enumeration():
    for E in CURVE_SAMPLES:
        disc = discriminant(E)
        for q in (3, 5, 7, 11, 13):
            if disc % q == 0:
                continue
            assert count_points_mod(E, q) == count_points_brute((E.a2, E.a4, E.a6), q)


def test_torsion_order_bound_examples(monkeypatch):
    # the reduction bound torsion_subgroup ends with is a multiple of the
    # torsion order; for trivial torsion the gcd over several primes must
    # not be forced upward
    bounds = []
    torsion_group = curve_module._torsion_group
    monkeypatch.setattr(curve_module, "_torsion_group",
                        lambda E, cands, bound: bounds.append(bound) or torsion_group(E, cands, bound))
    for coeffs in ((0, 17, 0), (6, 1, 0), (0, 0, 2)):
        torsion_subgroup(Curve(*coeffs))
    assert bounds[0] % 2 == 0 and bounds[1] % 4 == 0 and bounds[2] in (1, 2, 3, 4, 6)


ODD_PRIMES_BELOW_200 = [q for q in range(3, 200, 2) if all(q % d for d in range(3, q, 2))]


def brute_bound(E: Curve, k: int = 6) -> int:
    """gcd of the brute point counts mod the first k odd primes below 200 of
    good reduction: a multiple of the rational torsion order."""
    good = [q for q in ODD_PRIMES_BELOW_200 if discriminant(E) % q][:k]
    assert len(good) == k
    return math.gcd(*(count_points_brute((E.a2, E.a4, E.a6), q) for q in good))


@settings(max_examples=150, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60),
       st.integers(0, 25), st.integers(1, 8))
def test_torsion_order_bound_is_the_gcd_of_brute_counts(a2, a4, a6, n, k):
    # the model scaled by t, the product of the first n odd primes, has
    # every one of them bad, so the good primes can lie far out; the
    # torsion search's bound is the gcd of its counts at _good_odd_primes
    t = math.prod(ODD_PRIMES_BELOW_200[:n])
    try:
        E = Curve(a2 * t, a4 * t * t, a6 * t**3)
    except SingularModel:
        assume(False)
    good = _good_odd_primes(E, k)
    assert good == [q for q in ODD_PRIMES_BELOW_200 if discriminant(E) % q][:k]
    assert math.gcd(*(_count_points(q, E.a2 % q, E.a4 % q, E.a6 % q) for q in good)) == brute_bound(E, k)


def test_torsion_bound_is_multiple_of_torsion_order():
    for E in CURVE_SAMPLES:
        assert brute_bound(E) % torsion_subgroup(E).order == 0


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


def _model(a2: int, a4: int, a6: int) -> Curve | None:
    try:
        return Curve(a2, a4, a6)
    except SingularModel:
        return None


def _split_model(r: int, s: int, t: int) -> Curve | None:
    """y^2 = (x - r)(x - s)(x - t): all of E[2] is rational."""
    return _model(-(r + s + t), r * s + r * t + s * t, -r * s * t)


def _tate_model(b, c) -> Curve | None:
    """y^2 + (1 - c)xy - by = x^3 - bx^2 (Tate normal form, with (0, 0)
    of order >= 4 when b != 0), completed to a2, a4, a6 shape and scaled
    by u = lcm of the denominators of b and c to integers."""
    b, c = Fraction(b), Fraction(c)
    u = math.lcm(b.denominator, c.denominator)
    a2, a4, a6 = (1 - c) ** 2 - 4 * b, -8 * (1 - c) * b, 16 * b * b
    return _model(int(a2 * u**2), int(a4 * u**4), int(a6 * u**6))


def _oracle_torsion(E: Curve):
    return _torsion_group(E, torsion_candidates_oracle((E.a2, E.a4, E.a6)), brute_bound(E))


@st.composite
def _origin_models(draw):
    """a6 = 0 with a2^2 - 4 a4 a square, x(x - r)(x - s), or not a square:
    both ways the 2-torsion roots come out of x(x^2 + a2 x + a4)."""
    r, s = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    if draw(st.booleans()):
        return _model(-(r + s), r * s, 0)
    assume(math.isqrt(max(r * r - 4 * s, 0)) ** 2 != r * r - 4 * s)
    return _model(r, s, 0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(_model, st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40)),
    st.builds(_model, st.integers(-40, 40), st.integers(-40, 40), st.just(0)),
    st.builds(_split_model, st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
    st.builds(_tate_model, st.integers(-12, 12), st.integers(-12, 12)),
    _origin_models(),
))
def test_torsion_equals_divisor_enumeration(E):
    # the division-polynomial roots give the group, generators and point
    # order that the y^2 | disc candidates of the integral-point criterion give
    assume(E is not None)
    assert torsion_subgroup(E) == _oracle_torsion(E)


def _z8(t):
    return (2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t


def _z2xz6(t):
    c = (10 - 2 * t) / (t * t - 9)
    return c + c * c, c


def _z12(t):
    m = (3 * t - 3 * t * t - 1) / (t - 1)
    f, d = m / (1 - t), m + t
    return (f * d - f) * d, f * d - f


# Kubert's parametrizations of (b, c) in Tate normal form by the torsion
# structure they force, with parameters t where the torsion is no larger
# and the discriminant small enough for the divisor oracle.
KUBERT = {
    "Z5": (lambda t: (t, t), ("2", "-3")),
    "Z6": (lambda t: (t + t * t, t), ("2", "-2")),
    "Z7": (lambda t: (t**3 - t**2, t**2 - t), ("2", "3")),
    "Z8": (_z8, ("2", "3/2")),
    "Z9": (lambda t: (t**2 * (t - 1) * (t * t - t + 1), t**2 * (t - 1)), ("2", "3")),
    "Z10": (lambda t: (t**3 * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1) ** 2,
                       -t * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1)), ("2", "1/3")),
    "Z12": (_z12, ("2", "2/3")),
    "Z2xZ4": (lambda t: (t * t - Fraction(1, 16), 0), ("2", "-3/2")),
    "Z2xZ6": (_z2xz6, ("2", "7/3")),
    "Z2xZ8": (lambda t: _z8(t * (8 * t + 2) / (8 * t * t - 1)), ("-1/3",)),
}


@pytest.mark.parametrize("structure,t", [
    pytest.param(s, Fraction(t), id=f"{s}-t={t.replace('/', ':')}")
    for s, (_, ts) in KUBERT.items() for t in ts
])
def test_torsion_of_kubert_models(structure, t):
    E = _tate_model(*KUBERT[structure][0](t))
    T = torsion_subgroup(E)
    assert T.structure == structure
    assert T == _oracle_torsion(E)


def _fraction_multiples(E: Curve, P, cap: int):
    """P, 2P, ..., (o - 1)P of the pair P by o_mul if P has order o <= cap, else None."""
    ms = [o_mul((E.a2, E.a4, E.a6), m, P) for m in range(1, cap + 1)]
    return ms[:ms.index(None)] if None in ms else None


@settings(max_examples=300, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.one_of(st.just(0), st.integers(-30, 30)), st.integers(1, 12))
def test_integer_multiples_match_the_fraction_group_law(a2, a4, x, y, cap):
    # a6 plants the integral point (x, y); y = 0 gives order 2
    E = _model(a2, a4, y * y - ((x + a2) * x + a4) * x)
    assume(E is not None)
    assert _multiples(E, x, y, cap) == _fraction_multiples(E, (Fraction(x), Fraction(y)), cap)


@pytest.mark.parametrize("structure", list(KUBERT))
def test_integer_multiples_of_torsion_points_match_the_fraction_group_law(structure):
    # points of every order up to 12; the pairs equal to Fractions are integers
    E = _tate_model(*KUBERT[structure][0](Fraction(KUBERT[structure][1][0])))
    for P in torsion_subgroup(E).points[1:]:
        want = _fraction_multiples(E, (P.x, P.y), 12)
        assert want is not None
        assert _multiples(E, int(P.x), int(P.y), 12) == want


@pytest.mark.parametrize("coeffs,structure,built", [
    ((-7, 1, 0), "Z2", []),              # bound 8: T halves to no rational point
    ((-10, 9, 0), "Z2xZ2", []),          # bound 8: no T halves
    ((-1, 1, 0), "Z4", []),              # bound 8: the points of order 4 halve to none
    ((1, -128, 0), "Z6", [(3, None)]),   # the points of order 6 are sums, with no f_6
    ((25, -512, 0), "Z10", [(5, None)]),
    ((1177, 50176, 0), "Z12", [(3, None)]),  # sums of points of orders 3 and 4, with no f_4, f_6 or f_12
    ((94, -14175, 0), "Z2xZ8", []),      # bound 16: the points of order 8 come from the halving quartic
    ((-39, 288, 2304), "Z9", [(3, None), (3, 16)]),  # the thirds of the points (16, +-y0) of order 3
    ((-15, 32, 256), "Z7", [(7, None)]),
    ((-7, 16, 64), "Z5", [(5, None)]),
])
def test_torsion_skips_f_m_without_points_of_order_m_over_l(monkeypatch, coeffs, structure, built):
    # the search asks for f_l at the odd primes l, and for the thirds of a
    # point of order 3 only: the 2-power points come by halving and every
    # other point as a sum
    requested: list[tuple[int, int | None]] = []
    odd_poly = curve_module._odd_poly
    monkeypatch.setattr(curve_module, "_odd_poly",
                        lambda E, m, x0=None: requested.append((m, x0)) or odd_poly(E, m, x0))
    E = Curve(*coeffs)
    T = torsion_subgroup(E)
    assert T.structure == structure
    assert brute_bound(E) != 1 + sum(P.y == 0 for P in T.points[1:])  # past the early return
    assert requested == built


@pytest.mark.parametrize("coeffs,two,counts,builds", [
    ((0, 17, 0), 2, 2, 0),    # Z2: the counts mod 3 and 5, 4 and 2, have gcd 2 = |E[2](Q)|
    ((-10, 9, 0), 4, 6, 0),   # Z2xZ2 with bound 8: all six counts, and no T halves
    ((-1, 1, 0), 2, 6, 0),    # Z4 with bound 8: the order-4 points come by halving, with no f_4
])
def test_torsion_counts_points_until_the_gcd_is_the_two_torsion(monkeypatch, coeffs, two, counts, builds):
    # each partial gcd of the counts is a multiple of |E(Q)_tors|, which
    # |E[2](Q)| divides: the counting stops at a gcd of |E[2](Q)|, and the
    # odd polynomials are built only when an odd prime divides the bound
    E = Curve(*coeffs)
    good, g, stop = _good_odd_primes(E, 6), 0, 6
    for i, q in enumerate(good, 1):
        g = math.gcd(g, count_points_brute(coeffs, q))
        if g == two:
            stop = i
            break
    assert stop == counts
    counted, built = [], []
    count_points, odd_poly = curve_module._count_points, curve_module._odd_poly
    monkeypatch.setattr(curve_module, "_count_points", lambda *args: counted.append(args) or count_points(*args))
    monkeypatch.setattr(curve_module, "_odd_poly", lambda *args: built.append(args) or odd_poly(*args))
    T = torsion_subgroup(E)
    assert T.invariants() == torsion_invariants_brute(coeffs) and 1 + sum(P.y == 0 for P in T.points[1:]) == two
    assert [args[0] for args in counted] == good[:counts] and len(built) == builds


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.sampled_from([3, 5, 7]))
def test_closed_form_f_m_equals_the_division_polynomial_recursion(a2, a4, a6, m):
    E = _model(a2, a4, a6)
    assume(E is not None)
    assert _odd_poly(E, m) == division_poly_oracle((a2, a4, a6), m)


# the Kubert families with points of 2-power order and odd order, or of order 8
COMPOSITE_FAMILIES = ["Z6", "Z8", "Z10", "Z12", "Z2xZ4", "Z2xZ6", "Z2xZ8"]
# the Kubert families of odd order: f_5, f_7, and the thirds of a point of order 3
ODD_FAMILIES = ["Z5", "Z7", "Z9"]
# discriminants up to this many bits keep the divisor oracle under a second
ORACLE_DISC_BITS = 80


def _kubert_model(structure: str, t: Fraction) -> Curve | None:
    try:
        return _tate_model(*KUBERT[structure][0](t))
    except ZeroDivisionError:
        return None


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(COMPOSITE_FAMILIES + ODD_FAMILIES), st.integers(-9, 9), st.integers(1, 6))
def test_torsion_of_kubert_families_equals_divisor_enumeration(structure, p, q):
    # halving, the odd part and the sums against the y^2 | disc candidates;
    # a special t may force more torsion than the family's
    E = _kubert_model(structure, Fraction(p, q))
    assume(E is not None and abs(discriminant(E)).bit_length() <= ORACLE_DISC_BITS)
    T = torsion_subgroup(E)
    assert T == _oracle_torsion(E)
    assert T.order % math.prod(int(n) for n in structure[1:].split("xZ")) == 0


def _kubert_models(structures):
    return [pytest.param(s, _kubert_model(s, Fraction(t)), id=f"{s}-t={t.replace('/', ':')}")
            for s in structures for t in KUBERT[s][1]]


@pytest.mark.parametrize("structure,E", _kubert_models(COMPOSITE_FAMILIES))
def test_sum_of_torsion_points_of_coprime_orders_matches_the_fraction_group_law(structure, E):
    coeffs = (E.a2, E.a4, E.a6)
    points = [(P.x, P.y) for P in _oracle_torsion(E).points[1:]]
    pairs = [(P, Q) for P in points for Q in points if math.gcd(o_order(coeffs, P), o_order(coeffs, Q)) == 1]
    assert pairs or structure in ("Z8", "Z2xZ4", "Z2xZ8")
    for P, Q in pairs:
        assert _sum(E, (int(P[0]), int(P[1])), (int(Q[0]), int(Q[1]))) == o_add(coeffs, P, Q)


@pytest.mark.parametrize("structure,E", _kubert_models(["Z9"]))
def test_thirds_nonic_roots_are_the_x_of_the_points_of_order_9(structure, E):
    # for each point Q of order 3 the nonic is monic of degree 9, and its
    # integer roots are the x of the rational P with 3P = +-Q
    coeffs = (E.a2, E.a4, E.a6)
    points = [(P.x, P.y) for P in _oracle_torsion(E).points[1:]]
    order3 = [Q for Q in points if o_order(coeffs, Q) == 3]
    assert order3
    for Q in order3:
        f = _odd_poly(E, 3, int(Q[0]))
        assert len(f) == 10 and f[-1] == 1
        thirds = {P[0] for P in points if o_mul(coeffs, 3, P) in (Q, (Q[0], -Q[1]))}
        assert len(thirds) == 3
        assert set(_integer_roots(f, next(q for q in _good_odd_primes(E, 6) if q != 3))) == thirds


@pytest.mark.parametrize("structure,E", _kubert_models(["Z8", "Z2xZ4", "Z2xZ8", "Z12"]))
def test_halving_quartic_roots_are_the_x_of_the_halves(monkeypatch, structure, E):
    # every monic quartic the search solves is x(2P) = x0 for a point Q of
    # order 4: each integer root r is the x of a P with 2P = +-Q over
    # Q(sqrt(f(r))), checked on the twist by d = f(r) at (d r, d^2), and
    # every rational P with 2P = +-Q has its x among the roots
    coeffs = (E.a2, E.a4, E.a6)
    integer_roots, solved = curve_module._integer_roots, []
    monkeypatch.setattr(curve_module, "_integer_roots",
                        lambda f, q: solved.append((f, roots := integer_roots(f, q))) or roots)
    oracle = _oracle_torsion(E)
    assert torsion_subgroup(E) == oracle
    points = [(P.x, P.y) for P in oracle.points[1:]]
    quartics = [(f, roots) for f, roots in solved if len(f) == 5 and f[4] == 1]
    assert quartics or structure == "Z12" and brute_bound(E) % 8
    for f, roots in quartics:
        x0 = Fraction(-f[3], 4)
        Q = next(P for P in points if P[0] == x0)
        assert o_order(coeffs, Q) == 4
        halves = {P[0] for P in points if o_mul(coeffs, 2, P) in (Q, (Q[0], -Q[1]))}
        assert halves <= set(roots) and len(roots) <= 4
        for r in roots:
            d = E.rhs(Fraction(r))
            twist = (E.a2 * d, E.a4 * d * d, E.a6 * d**3)
            assert o_mul(twist, 2, (d * r, d * d))[0] == d * x0


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60)),
    st.tuples(st.integers(-300, 300), st.integers(-300, 300), st.just(0)),
    st.tuples(st.integers(-300, 300), st.integers(-300, 300)).map(lambda rs: (-(rs[0] + rs[1]), rs[0] * rs[1], 0)),
))
def test_torsion_stops_at_the_full_reduction_bound(coeffs):
    # the bound the search ends with, early or not, is the gcd over all six primes
    E = _model(*coeffs)
    assume(E is not None)
    bounds = []
    torsion_group = curve_module._torsion_group
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve_module, "_torsion_group", lambda E, cands, bound: bounds.append(bound) or
                   torsion_group(E, cands, bound))
        torsion_subgroup(E)
    assert bounds == [brute_bound(E)]


@pytest.mark.parametrize("k", [16, 30])
def test_torsion_of_primorial_dx_models_is_fast(k):
    # y^2 = x^3 + Dx, D = 2*3*...*p_k.  At k = 16 the reduction bound is 4
    # (every good q = 3 mod 4 counts q + 1 points) while the torsion is Z2,
    # and disc = -2^9 * (odd part of D)^3 has 10 * 4^15 divisors
    D = math.prod([p for p in range(2, 120) if all(p % d for d in range(2, p))][:k])
    start = time.perf_counter()
    T = torsion_subgroup(Curve(0, D, 0))
    assert time.perf_counter() - start < 1.0
    assert T.structure == "Z2"
    assert T.points == (INFINITY, pt(0, 0))


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
    with pytest.raises(CurveError, match="need a nonzero integer c, not True"):
        from_cubic_const(True)  # once Curve(-3, 3, 0)


def test_from_cubic_const_is_a_shift_of_the_cube_model():
    # x -> x - c carries y^2 = x^3 + c^3 to the returned model
    for c in (-3, -1, 1, 2, 5):
        E = from_cubic_const(c)
        cube = Curve(0, 0, c**3)
        for x in range(-8, 9):
            assert E.rhs(Fraction(x)) == cube.rhs(Fraction(x - c))


def _roots_by_scan(c2, c1, c0):
    # every real root has |x| < 1 + max |c_i| (Cauchy)
    B = 1 + max(abs(c2), abs(c1), abs(c0))
    return [x for x in range(-B, B + 1) if ((x + c2) * x + c1) * x + c0 == 0]


def _cubic_roots(c2, c1, c0):
    # f_2 of a nonsingular model, with q its least good odd prime
    q = _good_odd_primes(Curve(c2, c1, c0), 1)[0]
    return _integer_roots([c0, c1, c2, 1], q)


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_cubic_integer_roots_match_bounded_scan(c2, c1, c0):
    assume(_model(c2, c1, c0) is not None)
    assert _cubic_roots(c2, c1, c0) == _roots_by_scan(c2, c1, c0)


big = st.integers(-(10**12), 10**12)


@settings(max_examples=300, deadline=None)
@given(big, big, big, st.integers(-(10**6), 10**6))
def test_cubic_integer_roots_of_products(r1, r2, r3, c):
    # (x - r1)(x - r2)(x - r3) with distinct roots, and (x - r1)(x^2 + c)
    # whose quadratic factor has no integer root
    if len({r1, r2, r3}) == 3:
        roots = _cubic_roots(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
        assert roots == sorted({r1, r2, r3})
    if c > 0 or (c < 0 and math.isqrt(-c) ** 2 != -c):
        assert _cubic_roots(-r1, c, -r1 * c) == [r1]
