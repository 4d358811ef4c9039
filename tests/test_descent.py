from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache, reduce
from operator import xor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twodescent.descent as descent_module
from twodescent.arith import ONE, SquareClass, legendre, squarefree_part
from twodescent.curve import Curve, Pt, add, discriminant, on_curve, pt, torsion_subgroup
from twodescent.descent import (
    BadSet,
    DescentError,
    SelmerSet,
    _BAND_BITS,
    _DX2,
    _MODULI,
    _ORDER,
    _PAIRS,
    _band_mask,
    _classes,
    _first_square,
    _generators,
    _local_images,
    _minus_one_real,
    _on_curve_xyz,
    _orbit_masks,
    _preimage,
    _selmer,
    _space,
    _span,
    bad_set,
    descent_report,
    isogenous_curve,
    qs2,
    selmer,
)

import twodescent.localsolve as localsolve_module
from twodescent.localsolve import QuarticForm, _qp_soluble, _setup, poly_disc, qp_soluble, r_soluble

from . import oracles
from .oracles import (
    canonical_generator_oracle,
    certify_oracle,
    class_on_oracle,
    hilbert_brute,
    o_add,
    o_mul,
    o_neg,
    o_on_curve,
    o_order,
    phi_hat_oracle,
    psi_oracle,
    qp_soluble_two_pass_oracle,
    search_point_oracle,
    selmer_pivot_oracle,
    selmer_walk_oracle,
    space_oracle,
    span_oracle,
    unit_orbit_masks_oracle,
    val_oracle,
)


def classes(*reps: int) -> set[SquareClass]:
    return {squarefree_part(r) for r in reps}


def test_isogenous_curve_examples():
    assert isogenous_curve(Curve(6, 1, 0)).Eprime == Curve(-12, 32, 0)
    assert isogenous_curve(Curve(0, 17, 0)).Eprime == Curve(0, -68, 0)
    for p in (3, 7, 19):
        assert isogenous_curve(Curve(0, p, 0)).Eprime == Curve(0, -4 * p, 0)


def test_isogenous_curve_rejects_bad_models():
    with pytest.raises(DescentError):
        isogenous_curve(Curve(6, 1, 2))
    with pytest.raises(DescentError):
        isogenous_curve(Curve(1, 0, 2))  # b = 0: (0,0) not on E
    # a^2 = 4b or b = 0 never reaches the descent: the model is singular
    from twodescent.curve import SingularModel

    with pytest.raises(SingularModel):
        Curve(2, 1, 0)
    with pytest.raises(SingularModel):
        Curve(3, 0, 0)


@pytest.mark.parametrize("call", [
    lambda E: descent_report(E, 20), selmer, bad_set, isogenous_curve,
], ids=["descent_report", "selmer", "bad_set", "isogenous_curve"])
def test_a_model_that_is_not_a_curve_is_refused(call):
    # a coefficient tuple once raised AttributeError
    with pytest.raises(DescentError, match=r"need a Curve, not \(0, 17, 0\)"):
        call((0, 17, 0))


@pytest.mark.parametrize("b", [1, 2, 17, -1])
@pytest.mark.parametrize("H", [0, -1])
def test_descent_report_refuses_a_height_below_one_before_any_selmer_group(monkeypatch, b, H):
    # some of these curves make no point search at any height; each is
    # refused up front all the same, before a Selmer group is computed
    def no_selmer(*args):
        raise AssertionError("Selmer group computed")

    monkeypatch.setattr(descent_module, "_selmer", no_selmer)
    with pytest.raises(DescentError, match="need H >= 1"):
        descent_report(Curve(0, b, 0), H)


def test_second_iterate_is_quartic_twist_back():
    # E'' = (4a, 16b) returns to E under (x, y) -> (x/4, y/8), and phi-hat
    # after phi is multiplication by 2
    pair = isogenous_curve(Curve(6, 1, 0))
    second = isogenous_curve(pair.Eprime)
    assert second.Eprime == Curve(24, 16, 0)
    P = (Fraction(-1), Fraction(2))
    x, y = phi_hat_oracle(second.b, phi_hat_oracle(pair.b, P))
    back = (x / 4, y / 8)
    assert o_on_curve((6, 1, 0), back)
    assert back == o_mul((6, 1, 0), 2, P)


def test_an_off_curve_image_is_a_typed_refusal(monkeypatch):
    # the checks on the lifts moved to E and on the rank interval raise
    # DescentError, so they also hold under python -O
    E = Curve(0, -2, 0)  # rank 1, generator (-1, 1) lifted from a 2-covering
    real_xyz = _on_curve_xyz
    monkeypatch.setattr(descent_module, "_on_curve_xyz", lambda C, P: real_xyz(C, P) and C != E)
    with pytest.raises(DescentError, match="did not descend"):
        descent_report(E, 10)
    monkeypatch.setattr(descent_module, "_on_curve_xyz", real_xyz)
    certify = descent_module._certify_direction
    monkeypatch.setattr(descent_module, "_certify_direction",
                        lambda *args: (lambda image, lifts: (image * 4, lifts))(*certify(*args)))
    with pytest.raises(DescentError, match="exceed the Selmer groups"):
        descent_report(E, 10)


def test_phi_map_lands_on_the_isogenous_curve():
    # the textbook phi sends points of E onto the model isogenous_curve gives
    pair = isogenous_curve(Curve(-6, 12, 0))
    Ep = pair.Eprime
    for x, y in ((3, 3), (3, -3), (4, 4), (4, -4)):
        P = (Fraction(x), Fraction(y))
        assert o_on_curve((-6, 12, 0), P)
        assert o_on_curve((Ep.a2, Ep.a4, 0), phi_hat_oracle(pair.b, P))


def test_delta_class_examples():
    # y^2 = x^3 + 6x^2 + x has torsion Z4 = <(-1, 2)>: delta(O) = 1 and
    # delta((0, 0)) on E' = (-12, 32), the class 2 of its a4, make up the
    # phi image, and the phi-hat image holds the class -1 of x(-1, 2)
    rep = descent_report(Curve(6, 1, 0), 5)
    assert set(rep.image_phi) == classes(1, 2)
    assert set(rep.image_phi_hat) == classes(1, -1)


def test_bad_set_contents():
    S = bad_set(Curve(6, 1, 0))
    assert S.primes == (2,)
    assert bad_set(Curve(0, 17, 0)).primes == (2, 17)
    assert bad_set(Curve(0, -68, 0)).primes == (2, 17)


def test_qs2_group():
    small = qs2(bad_set(Curve(6, 1, 0)))
    assert set(small) == classes(1, -1, 2, -2)
    big = qs2(bad_set(Curve(0, 17, 0)))
    assert set(big) == classes(1, -1, 2, -2, 17, -17, 34, -34)
    assert ONE in big
    assert list(big) == sorted(big)


@pytest.mark.parametrize("S", [(2, 3), [2, 3], None, Curve(0, 17, 0)])
def test_qs2_refuses_what_is_not_a_bad_set(S):
    # qs2((2, 3)) once raised AttributeError on the missing primes
    with pytest.raises(DescentError, match="need a BadSet"):
        qs2(S)


def test_hom_space_cleared_forms():
    # the engine's C_d is the textbook model, from b' = a^2 - 4b
    assert _space(6, 32, 2) == space_oracle(6, 1, 2) == (64, 0, -48, 0, 8)
    for p, d in ((17, -1), (17, 17), (5, 2)):
        assert _space(0, -4 * p, d) == space_oracle(0, p, d) == (-4 * p * d, 0, 0, 0, d**3)
    assert QuarticForm(_space(6, 32, 1))(0) == 1


@st.composite
def reduced_models(draw):
    """(v, a, b') with v-adic valuations up to 8 planted in a and b', and
    a^2 != b' = a^2 (mod 4), so that b = (a^2 - b')/4 is an integer: the
    models _selmer runs its local tests on.  At v = 100003 a split visits
    every residue, about 0.1 s a level, so valuations stop at 2 there."""
    v = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 100003)))
    unit = st.integers(-40, 40).filter(lambda n: n % v)
    vals = st.integers(0, 8 if v < 100 else 2)
    a = draw(st.just(0) | st.builds(lambda e, u: v**e * u, vals, unit))
    j = draw(vals)
    if v == 2:  # b' is odd with a, and divisible by 4 with a even
        bp = 4 * draw(st.integers(-40, 40)) + 1 if a % 2 else 2 ** (j + 2) * draw(unit)
    else:  # v^j w = a^2 (mod 4) at w = a^2 v^j (mod 4), as v^2 = 1 (mod 4)
        bp = v**j * (4 * draw(st.integers(-40, 40)) + a * a * v**j % 4)
    assume(bp not in (0, a * a))
    return v, a, bp


@settings(max_examples=150, deadline=None)
@given(reduced_models(), st.data())
def test_local_tests_on_coefficient_tuples_match_the_oracles(model, data):
    # _selmer's path: the tuple of _space, _setup's closed-form val(disc)
    # of an even quartic and the truth of _qp_soluble's bare result,
    # against the textbook model, poly_disc and two whole public searches
    v, a, bp = model
    d = data.draw(st.sampled_from(_classes(v)))
    c = _space(a, bp, d)
    assert c == space_oracle(a, (a * a - bp) // 4, d)
    m = val_oracle(math.gcd(*c), v)
    stripped = tuple(x // v ** (m - m % 2) for x in c)
    assert _setup(c, v) == (stripped, m % 2 == 1, val_oracle(poly_disc(stripped), v))
    assert bool(_qp_soluble(c, v)) == bool(qp_soluble_two_pass_oracle(QuarticForm(c), v))


def test_selmer_worked_example():
    assert set(selmer(Curve(6, 1, 0))) == classes(1, 2)
    assert set(selmer(Curve(-12, 32, 0))) == classes(1, -1)
    assert set(selmer(Curve(0, 17, 0))) == classes(1, -1, 2, -2, 17, -17, 34, -34)


def test_selmer_is_a_subgroup_with_seed_class():
    for E in (Curve(6, 1, 0), Curve(0, 17, 0), Curve(0, -68, 0), Curve(1, 6, 0)):
        sel = selmer(E)
        assert ONE in sel
        seed = squarefree_part(E.a2**2 - 4 * E.a4)
        assert seed in sel
        for u in sel:
            for v in sel:
                assert u * v in sel


def test_selmer_set_validates_its_invariants():
    with pytest.raises(DescentError):
        SelmerSet((squarefree_part(2),))  # missing the trivial class
    with pytest.raises(DescentError):
        SelmerSet((ONE, squarefree_part(2), squarefree_part(3)))  # 6 missing
    with pytest.raises(DescentError):
        SelmerSet((squarefree_part(2), ONE))  # unsorted
    ok = SelmerSet(tuple(sorted(classes(1, 2))))
    assert ok.size == 2 and ok.dim2 == 1
    assert squarefree_part(2) in ok and squarefree_part(3) not in ok
    for value in (None, (1,), [ONE], (ONE, True), "1", (ONE, 2)):  # a typed refusal that names the value
        with pytest.raises(DescentError, match="need a tuple of SquareClass, not") as refusal:
            SelmerSet(value)
        assert str(refusal.value).endswith(repr(value))


def test_engine_builds_its_selmer_sets_without_the_validator(monkeypatch):
    # the engine's sets are sorted subgroups by construction; the same
    # tuples handed in by a caller pass the validator
    checked = []
    validate = SelmerSet.__post_init__
    monkeypatch.setattr(SelmerSet, "__post_init__", lambda self: checked.append(self) or validate(self))
    rep = descent_report(Curve(0, -68, 0), 20)
    sets = (rep.selmer_phi, rep.selmer_phi_hat, rep.image_phi, rep.image_phi_hat)
    assert checked == []
    assert [SelmerSet(s.classes) for s in sets] == list(sets)
    assert len(checked) == 4


# box curves whose reports have a generator, with torsion Z2 x Z2
TORSION_FOUR = ((-12, 11), (-9, -10), (-5, -6), (2, -8), (8, 12), (11, 10))


@pytest.mark.parametrize("a, b", TORSION_FOUR + ((0, -2), (1, 5), (-3, 6)))
def test_canonical_generator_is_the_least_of_plus_minus_q_plus_torsion(a, b):
    E = Curve(a, b, 0)
    rep = descent_report(E, 20)
    assert rep.generators
    for G in rep.generators:
        least = min((add(E, R, T) for R in (G, Pt(G.x, -G.y)) for T in rep.torsion.points),
                    key=lambda P: (abs(P.x), P.x, abs(P.y), -P.y))
        assert G == least
        for T in rep.torsion.points:
            for Q in (add(E, G, T), add(E, Pt(G.x, -G.y), T)):
                assert _generators(a, rep.torsion, [_xyz(Q)]) == (G,)


def _xyz(P: Pt) -> tuple[int, int, int]:
    """(X, Y, Z), Z > 0, with x = X/Z^2 and y = Y/Z^3, of an affine point of an integral model."""
    Z = math.isqrt(P.x.denominator)
    assert Z * Z == P.x.denominator and P.y.denominator == Z**3
    return P.x.numerator, P.y.numerator, Z


def _xyz_point(P) -> Pt:
    X, Y, Z = P
    return Pt(Fraction(X, Z * Z), Fraction(Y, Z**3))


# Kubert's curves (Tate normal form, test_curve.KUBERT; Z4 is b = t, c = 0)
# at parameters t where descent_report at height 30 finds a point of
# infinite order once the rational 2-torsion point of index i, by
# ascending x, is moved to (0, 0)
KUBERT_GENERATOR_MODELS = (("Z4", "-12", 0), ("Z4", "-11/5", 0), ("Z2xZ4", "-4", 0), ("Z2xZ4", "-4", 1),
                           ("Z2xZ4", "-3/2", 2), ("Z8", "-3", 0), ("Z8", "-1/4", 0), ("Z2xZ8", "1/3", 2),
                           ("Z2xZ8", "-5/16", 1))


@lru_cache(maxsize=None)
def _kubert_origin_model(structure: str, t: str, i: int) -> Curve:
    from .test_curve import KUBERT, _tate_model

    E = _tate_model(*((Fraction(t), 0) if structure == "Z4" else KUBERT[structure][0](Fraction(t))))
    r = sorted(int(P.x) for P in torsion_subgroup(E).points[1:] if P.y == 0)[i]
    return Curve(E.a2 + 3 * r, E.a4 + 2 * E.a2 * r + 3 * r * r, 0)


@lru_cache(maxsize=None)
def _torsion_and_generators(E: Curve):
    rep = descent_report(E, 30)
    return rep.torsion, rep.generators


@pytest.mark.parametrize("model", KUBERT_GENERATOR_MODELS)
def test_kubert_origin_models_keep_their_torsion_and_have_a_generator(model):
    tors, gens = _torsion_and_generators(_kubert_origin_model(*model))
    assert tors.structure == model[0] and gens


GENERATOR_CURVES = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
        lambda ab: nonsingular(*ab)).map(lambda ab: Curve(*ab, 0)),
    st.integers(-10**6, 10**6).filter(bool).map(lambda D: Curve(0, D, 0)),
    st.sampled_from(TORSION_FOUR).map(lambda ab: Curve(*ab, 0)),
    st.sampled_from(KUBERT_GENERATOR_MODELS).map(lambda m: _kubert_origin_model(*m)),
)


@settings(max_examples=200, deadline=None)
@given(GENERATOR_CURVES, st.integers(1, 3), st.booleans(), st.integers(0, 15),
       st.integers(-4, 4).filter(bool))
def test_integer_generator_choice_matches_the_fraction_oracle(E, k, negate, t, lam):
    # Q = +-kG + T, G a generator the report found and T torsion, given as
    # (lam^2 X, lam^3 Y, lam Z): lam < 0 makes Z < 0, as a phi hit of d < 0 does
    tors, gens = _torsion_and_generators(E)
    assume(gens)
    coeffs = (E.a2, E.a4, 0)
    pairs = [None] + [(P.x, P.y) for P in tors.points[1:]]
    kG = o_mul(coeffs, k, (gens[0].x, gens[0].y))
    Q = Pt(*o_add(coeffs, o_neg(kG) if negate else kG, pairs[t % tors.order]))
    X, Y, Z = _xyz(Q)
    want = canonical_generator_oracle(coeffs, pairs, (Q.x, Q.y))
    assert _generators(E.a2, tors, [(lam * lam * X, lam**3 * Y, lam * Z)]) == (Pt(*want),)
    # Q twice, scaled apart, is kept once, and the torsion points are dropped
    torsion = [_xyz(P) for P in tors.points[1:]]
    assert _generators(E.a2, tors, [(lam * lam * X, lam**3 * Y, lam * Z), *torsion, (X, Y, Z)]) == (Pt(*want),)


@settings(max_examples=300, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30).filter(bool), st.integers(1, 4),
       st.integers(-3, 3).filter(bool), st.integers(-2, 2), st.integers(-2, 2), st.integers(-10**4, 10**4),
       st.integers(-10**4, 10**4), st.integers(-30, 30).filter(bool))
def test_integer_on_curve_check_matches_on_curve(a, c, x0, k, lam, dx, dy, X, Y, Z):
    # b plants the integral point (x0, c x0) on E; its multiple kP, scaled
    # by lam, is on E, and moved by (dx, dy) mostly off it; (X, Y, Z) is drawn
    b = c * c * x0 - x0 * x0 - a * x0
    assume(nonsingular(a, b))
    E = Curve(a, b, 0)
    P = o_mul((a, b, 0), k, (Fraction(x0), Fraction(c * x0)))
    if P is not None:
        X0, Y0, Z0 = _xyz(Pt(*P))
        assert _on_curve_xyz(E, (lam * lam * X0, lam**3 * Y0, lam * Z0))
        moved = (lam * lam * X0 + dx, lam**3 * Y0 + dy, lam * Z0)
        assert _on_curve_xyz(E, moved) == on_curve(E, _xyz_point(moved))
    assert _on_curve_xyz(E, (X, Y, Z)) == on_curve(E, _xyz_point((X, Y, Z)))


def test_a_hit_at_z_zero_is_a_typed_refusal(monkeypatch):
    # a hit with m = 0 would give Z = 0, which is no affine point: the
    # report refuses it with a DescentError, not a ZeroDivisionError
    certify = descent_module._certify_direction
    monkeypatch.setattr(descent_module, "_certify_direction",
                        lambda *args: (certify(*args)[0], [(1, 0, 1, 1)]))
    with pytest.raises(DescentError, match="did not descend"):
        descent_report(Curve(0, -2, 0), 10)


def selmer_per_class(E: Curve) -> tuple[int, ...]:
    """Reference: every class of qs2 gets a real test, then each p of S."""
    S = bad_set(E)
    kept = []
    for d in qs2(S):
        f = QuarticForm(space_oracle(E.a2, E.a4, int(d)))
        if r_soluble(f) and all(qp_soluble(f, p) for p in S.primes):
            kept.append(int(d))
    return tuple(kept)


def nonsingular(a: int, b: int) -> bool:
    return b != 0 and a * a != 4 * b


@settings(max_examples=80, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_selmer_matches_per_class_reference_on_box(a, b):
    assume(nonsingular(a, b))
    E = Curve(a, b, 0)
    assert tuple(int(d) for d in selmer(E)) == selmer_per_class(E)


@st.composite
def many_prime_dx(draw):
    """D of 5 to 8 distinct primes below 200, 2 among them or not, of either
    sign, times a fourth power or not: bad sets that random |D| <= 10^6
    rarely reach."""
    primes = draw(st.lists(st.sampled_from(PRIMES_BELOW_200), min_size=5, max_size=8, unique=True))
    return draw(st.sampled_from((1, -1))) * draw(st.sampled_from((1, 2**4, 3**4, 2**8 * 5**4))) * math.prod(primes)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(-10**6, 10**6).filter(bool), many_prime_dx()))
def test_selmer_matches_per_class_reference_on_dx(D):
    for E in (Curve(0, D, 0), Curve(0, -4 * D, 0)):
        assert tuple(int(d) for d in selmer(E)) == selmer_per_class(E)


@settings(max_examples=40, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.data())
def test_local_verdict_depends_only_on_the_local_class(a, b, data):
    assume(nonsingular(a, b))
    E = Curve(a, b, 0)
    p = data.draw(st.sampled_from(bad_set(E).primes + (3, 5)))
    d = int(data.draw(st.sampled_from(qs2(bad_set(E)))))
    s = data.draw(st.integers(1, 12))
    if p == 2:
        u = data.draw(st.integers(-10, 10).map(lambda k: 8 * k + 1))
    else:
        u = data.draw(st.integers(-60, 60).filter(
            lambda k: k % p != 0 and legendre(k, p) == 1))
    f, g = (QuarticForm(space_oracle(a, b, e)) for e in (d, d * s * s * u))
    assert bool(qp_soluble(f, p)) == bool(qp_soluble(g, p))
    if u > 0:
        assert bool(r_soluble(f)) == bool(r_soluble(g))


def _selmer_and_tests(E: Curve):
    """Both Selmer sets of _selmer(E, S) as ints, with the local tests per
    prime that _local_images' records list; the real place, the odd primes
    prime to a/t^2 and every place of a/t^2 = 0 are decided by rule, with no test."""
    S = bad_set(E)
    tests = {v: len(tested) for v, *_, tested in _local_images(E.a2, E.a4, S)[2] if tested}
    return tuple(tuple(d for _, d, _ in sel) for sel in _selmer(E, S)[:2]), tests


def _both_walks(E: Curve):
    """selmer_walk_oracle on E and on E': both sets, and the tests per place
    of the two walks together."""
    (sel, tests), (sel_hat, tests_hat) = map(selmer_walk_oracle, (E, isogenous_curve(E).Eprime))
    return (sel, sel_hat), {v: tests.get(v, 0) + tests_hat.get(v, 0) for v in {*tests, *tests_hat}}


@pytest.mark.parametrize("E", [
    Curve(0, 30030, 0),              # S = {2, 3, 5, 7, 11, 13}: 128 classes
    Curve(0, -2 * 3 * 5 * 7 * 11 * 13 * 17, 0),
    Curve(6, 1, 0),
    Curve(-11, 2, 0),
    Curve(0, 912247, 0),
])
def test_selmer_tests_each_local_class_once(E, monkeypatch):
    # one call decides both groups from the local images of E alone: at
    # most one test per local class of E, never more than the walks on E
    # and on E' make together, and fewer in all; bad_set's factorization
    # has proved each prime, so no local test proves it again
    sels, tests = _selmer_and_tests(E)
    walk_sels, walk_tests = _both_walks(E)
    assert sels == walk_sels == (selmer_per_class(E), selmer_per_class(isogenous_curve(E).Eprime))
    assert set(tests) <= set(walk_tests) - {0} <= set(bad_set(E).primes)
    assert all(n <= walk_tests[v] for v, n in tests.items())
    assert sum(tests.values()) < sum(walk_tests.values())
    assert 0 not in tests and tests.get(2, 0) <= 7
    assert all(n <= 3 and E.a2 % v == 0 for v, n in tests.items() if v > 2)
    S = bad_set(E)
    monkeypatch.setattr(localsolve_module, "is_prime", lambda n: pytest.fail(f"{n} proved prime again"))
    assert tuple(tuple(d for _, d, _ in sel) for sel in _selmer(E, S)[:2]) == sels


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@st.composite
def twisted_box_curves(draw):
    """(t*a, t^2*b) for a box curve (a, b), a != 0, and t = +-(a product of
    up to 10 random primes): b and b' both carry every prime of t."""
    a = draw(st.integers(-12, 12).filter(bool))
    b = draw(st.integers(-12, 12).filter(lambda b: nonsingular(a, b)))
    t = draw(st.sampled_from((1, -1))) * math.prod(
        draw(st.lists(st.sampled_from(PRIMES_BELOW_200), max_size=10, unique=True)))
    return Curve(t * a, t * t * b, 0)


SELMER_CURVES = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
        lambda ab: nonsingular(*ab)).map(lambda ab: Curve(*ab, 0)),
    st.integers(-10**6, 10**6).filter(bool).map(lambda D: Curve(0, D, 0)),
    twisted_box_curves(),
)


@settings(max_examples=60, deadline=None)
@given(SELMER_CURVES)
def test_selmer_matches_walk_oracle_with_no_more_tests(E):
    sels, tests = _selmer_and_tests(E)
    walk_sels, walk_tests = _both_walks(E)
    assert sels == walk_sels
    assert all(n <= walk_tests.get(v, 0) for v, n in tests.items())
    assert 0 not in tests and tests.get(2, 0) <= 7
    assert all(n <= 3 and E.a2 % v == 0 for v, n in tests.items() if v > 2)


@settings(max_examples=60, deadline=None)
@given(st.one_of(SELMER_CURVES, st.tuples(st.integers(1, 10), st.sampled_from((1, -1))).map(
    lambda ks: Curve(0, ks[1] * math.prod(PRIMES_BELOW_200[:ks[0]]), 0))))
def test_both_selmer_sets_match_the_pivot_and_walk_oracles(E):
    # the kernels read off E's local images give both sets, masks and
    # order included; the second is the first set of the call on E'
    Ep = isogenous_curve(E).Eprime
    S = bad_set(E)
    sel, sel_hat, *_ = _selmer(E, S)
    assert [(SquareClass(d), m) for _, d, m in sel] == list(selmer_pivot_oracle(E).items())
    assert [(SquareClass(d), m) for _, d, m in sel_hat] == list(selmer_pivot_oracle(Ep).items())
    assert all(n == abs(d) for n, d, _ in sel + sel_hat)
    assert tuple(d for _, d, _ in sel) == selmer_walk_oracle(E)[0]
    assert tuple(d for _, d, _ in sel_hat) == selmer_walk_oracle(Ep)[0]
    assert _selmer(Ep, S)[0] == sel_hat


@settings(max_examples=100, deadline=None)
@given(SELMER_CURVES)
def test_selmer_returns_the_seed_masks_of_b_prime_and_b(E):
    # the report's seeds, the classes of b' and b, come from the same
    # valuation pass as the Selmer sets
    S = bad_set(E)
    bp = isogenous_curve(E).b_prime
    assert _selmer(E, S)[2:] == (class_on_oracle(bp, S.primes), class_on_oracle(E.a4, S.primes))


@settings(max_examples=60, deadline=None)
@given(st.integers(-12, 12), st.integers(-50, 50), st.integers(1, 12))
@example(0, 2, 8)  # 2^12 * 2: the reduction takes out 2^12
@example(3, -1, 6)  # u = 6 scales a and b at 2 and at 3
@example(1, 16, 3)  # 2^4 | b but 2 does not divide a: 3 is all that comes out
@example(1, -2, 3)  # 3 | b' = 9 * 3^4: the rule reads v(b'/t^4), not v(b')
@example(1, 1, 11)  # 11 | t alone: good reduction at 11 in the reduced model
def test_selmer_of_a_scaled_model_is_the_walk_on_that_model(a, b, u):
    # the local tests run on the model with u^2 and u^4 taken out again;
    # the walk tests the spaces of the scaled model (u^2 a, u^4 b) itself
    assume(b != 0 and a * a != 4 * b)
    E = Curve(u * u * a, u**4 * b, 0)
    Ep = isogenous_curve(E).Eprime
    sel, sel_hat, *_ = _selmer(E, bad_set(E))
    assert (tuple(d for _, d, _ in sel), tuple(d for _, d, _ in sel_hat)) == (
        selmer_walk_oracle(E)[0], selmer_walk_oracle(Ep)[0])


def _spanned(basis) -> set[int]:
    """The XORs of the subsets of basis."""
    out = {0}
    for x in basis:
        out |= {x ^ y for y in out}
    return out


def _local_spans(E: Curve):
    """W_v and W'_v per place v (0 for R) as sets of local classes, spanned from
    _local_images' records, and the classes tested where no rule settles W_v."""
    places = _local_images(E.a2, E.a4, bad_set(E))[2]
    W = {v: _spanned(basis) for v, _, basis, _, _ in places}
    W_hat = {v: _spanned(dual) for v, _, _, dual, _ in places}
    return W, W_hat, {v: list(xs) for v, *_, xs in places if xs is not None}


def _soluble_at(a: int, b: int, v: int) -> set[int]:
    """The local classes x at v whose space on (a, b) the oracle finds soluble."""
    return {x for x, d in enumerate(_classes(v))
            if qp_soluble_two_pass_oracle(QuarticForm(space_oracle(a, b, d)), v)}


@settings(max_examples=60, deadline=None)
@given(SELMER_CURVES)
def test_local_tests_are_the_classes_the_records_list(E):
    # the one test that watches the local step from outside: each call of
    # _qp_soluble is on the reduced model's space of _classes(v)[x] for the
    # next class x a record lists, and R, the rule places and every place
    # of a reduced model with a = 0 get no call
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(descent_module, "_qp_soluble", lambda c, p: calls.append((c, p)) or _qp_soluble(c, p))
        places = _local_images(E.a2, E.a4, bad_set(E))[2]
    a, b = _reduced(E.a2, E.a4)
    assert calls == [(_space(a, a * a - 4 * b, _classes(v)[x]), v) for v, *_, xs in places if xs for x in xs]
    assert [v for v, *_, xs in places if xs is None] == [v for v, *_ in places if v == 0 or a == 0 or v > 2 and a % v]


@settings(max_examples=100, deadline=None)
@given(SELMER_CURVES)
def test_local_dimensions_add_up_per_place_and_to_the_selmer_difference(E):
    # W'_v is the annihilator of W_v under a nondegenerate pairing on 2, 8
    # or 4 classes, so the two bases hold 1, 3 or 2; and s - s' is the sum
    # of dim W_v - 1 over S and R (Cassels, Lectures on Elliptic Curves)
    S = bad_set(E)
    places = _local_images(E.a2, E.a4, S)[2]
    for v, _, W, W_hat, _ in places:
        assert len(W) + len(W_hat) == (1 if v == 0 else 3 if v == 2 else 2), v
        assert len(_spanned(W)) == 2 ** len(W) and len(_spanned(W_hat)) == 2 ** len(W_hat), v
    s, s_hat = (len(sel).bit_length() - 1 for sel in _selmer(E, S)[:2])
    assert s - s_hat == sum(len(W) - 1 for _, _, W, _, _ in places)


@pytest.mark.parametrize("a, b, W2, W2_hat, sels", [
    (-11, -40, (), (1, 2, 4), ([1, 281], [-1, 1, -2, 2, -5, 5, -10, 10])),  # W'_2 holds all 8 classes
    (-12, -39, (6, 2, 1), (), ([1, 3, 10, 30], [1, -39])),  # and here W_2 does
])
def test_local_images_at_two_of_dimension_zero_and_three(a, b, W2, W2_hat, sels):
    E = Curve(a, b, 0)
    v, _, W, W_hat, _ = _local_images(a, b, bad_set(E))[2][1]
    assert (v, W, W_hat) == (2, W2, W2_hat)
    assert tuple([int(d) for d in selmer(C)] for C in (E, isogenous_curve(E).Eprime)) == sels


@st.composite
def rule_places(draw):
    """(v, a, b, u): an odd v, a reduced model (a, b) with a prime to v and
    v(b) or v(b') planted from 0 to 8 (to 2 at 100003), split or not as a or
    -2a is a square mod v, and a scale u in {1, v, v^2, 6}."""
    v = draw(st.sampled_from((3, 5, 7, 11, 13, 100003)))
    a = draw(st.integers(-40, 40).filter(lambda n: n % v))
    n = draw(st.integers(0, 8 if v < 100 else 2))
    if draw(st.booleans()):
        b = v**n * draw(st.integers(-40, 40).filter(lambda w: w % v))
    else:  # v^n w = a^2 (mod 4) at w = a^2 v^n (mod 4), as v^2 = 1 (mod 4)
        w = 4 * draw(st.integers(-40, 40)) + a * a * v**n % 4
        assume(w % v)
        b = (a * a - v**n * w) // 4
    assume(b != 0 and a * a != 4 * b)  # w = 0 at n = 0 makes b' = 0
    return v, a, b, draw(st.sampled_from((1, v, v * v, 6)))


@settings(max_examples=100, deadline=None)
@given(rule_places())
@example((3, 1, -1, 3))  # good at 3 once t = 3 comes out, with v(b) = v(b') = 4
@example((100003, 1, 100003, 1))  # split I_2 on E and I_1 on E': W_v = {1}
def test_local_image_by_rule_is_the_soluble_classes(place):
    # at an odd v prime to a/t^2, W_v as _selmer takes it from the rule,
    # with no local test at v, against the classes the oracle finds soluble
    v, a, b, u = place
    E = Curve(u * u * a, u**4 * b, 0)
    assume(v in bad_set(E).primes)
    W, _, tested = _local_spans(E)
    assert v not in tested
    assert W[v] == _soluble_at(a, b, v)


def _reduced(a: int, b: int) -> tuple[int, int]:
    """(a/t^2, b/t^4) for the largest t with t^2 | a and t^4 | b."""
    t = 1
    for q in bad_set(Curve(a, b, 0)).primes:  # each prime of t divides b
        while a % (t * q) ** 2 == 0 and b % (t * q) ** 4 == 0:
            t *= q
    return a // t**2, b // t**4


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(-60, 60).filter(bool), st.integers(-60, 60)).filter(lambda ab: nonsingular(*ab)),
       st.sampled_from((1, 2, 3, 5, 6)))
@example((-25, 25), 1)  # three local tests at 5
@example((-15, 36), 1)  # three at 3
@example((4, 2), 2)  # 2^4 comes out of b at 2 and 2^2 out of a
def test_local_image_by_tests_is_the_soluble_classes(ab, u):
    # at 2 and at each odd v | a/t^2, a/t^2 != 0, W_v as _selmer's local tests
    # build it, against the classes the oracle finds soluble on the reduced
    # model; y^2 = x^3 + bx is tested by the two tests below
    E = Curve(u * u * ab[0], u**4 * ab[1], 0)
    a, b = _reduced(E.a2, E.a4)
    W, _, tested = _local_spans(E)
    places = [v for v in bad_set(E).primes if v == 2 or a % v == 0]
    assert set(tested) == set(places)
    for v in places:
        soluble = _soluble_at(a, b, v)
        assert W[v] == soluble, v
        # in _ORDER, each test on a class that pairs to 1 with L_v(b) and
        # that no verdict so far settles: not in the span K of L_v(b') and
        # the soluble classes, nor in y + K for an insoluble y
        xs = tested[v]
        assert xs == sorted(xs, key=_ORDER.index)
        known, out = {0, _local_coordinates(a * a - 4 * b, v)}, []
        for x in xs:
            assert not (x & _PAIRS[v % 4][_local_coordinates(b, v)]).bit_count() & 1, (v, x)
            assert x not in known and all(x ^ y not in known for y in out), (v, x)
            if x in soluble:
                known |= {x ^ k for k in known}
            else:
                out.append(x)


@pytest.mark.parametrize("key", range(32))
def test_two_adic_table_of_dx_is_the_soluble_classes(key):
    # each entry of _DX2, rebuilt from the oracle on a representative
    # D = 2^e u, u = 2r + 1 (mod 16), and W_2 and W'_2 of _local_images for
    # D and for 2^16 D, whose reduced model is D's, against the oracle on E
    # and E' of that model
    e, r = divmod(key, 8)
    D = 2**e * (2 * r + 1 - 16 * (r > 3))
    W, W_hat = _soluble_at(0, D, 2), _soluble_at(0, -4 * D, 2)
    assert _DX2[key] == sum(1 << x for x in W if x)
    for scale in (1, 2**16):
        W_E, W_hat_E, tested = _local_spans(Curve(0, scale * D, 0))
        assert 2 not in tested and (W_E[2], W_hat_E[2]) == (W, W_hat)


@st.composite
def dx_odd_places(draw):
    """(v, D): an odd v and D = v^e m s^4 with e in {1, 2, 3, 4}, m prime to v,
    |m| <= 200, a residue or not as drawn, and s in {1, v}, so that the
    reduced model has v(b) = e < 4, or v(b) = 0 with v in S."""
    v = draw(st.sampled_from((3, 5, 7, 13, 17, 100003)))
    residue = draw(st.booleans())
    m = draw(st.integers(-200, 200).filter(lambda m: m % v and (legendre(m, v) > 0) == residue))
    return v, v ** draw(st.integers(1, 4)) * m * draw(st.sampled_from((1, v)))**4


@settings(max_examples=40, deadline=None)
@given(dx_odd_places())
@example((3, -84969))  # -3^4 * 1049: good at 3 once 3^4 comes out, W_3 the unit classes
@example((13, 507))  # 13^2 * 3, 3 = 4^2 (mod 13): W_13 = <2 * 13 * 4>, 8 a non-residue
@example((100003, 3 * 100003**2))  # W = 0: one local test used to prove class 2 insoluble
def test_odd_rule_of_dx_is_the_soluble_classes(place):
    # W_v and W'_v at an odd v of y^2 = x^3 + Dx from the rule on e = v(b)
    # and b/v^e of the reduced model, with no local test, against the oracle
    v, D = place
    E = Curve(0, D, 0)
    b = _reduced(0, D)[1]
    assert v in bad_set(E).primes
    W, W_hat, tested = _local_spans(E)
    assert not tested
    assert (W[v], W_hat[v]) == (_soluble_at(0, b, v), _soluble_at(0, -4 * b, v))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    rule_places(),
    st.tuples(st.just(0), st.integers(-60, 60), st.integers(-60, 60), st.sampled_from((1, 2, 3, 5, 6))).filter(
        lambda place: nonsingular(*place[1:3])),
))
@example((100003, 1, 100003, 1))  # the rule's W_v = {1} at 100003, so W'_v is everything
@example((0, -25, 25, 1))  # three local tests at 5
def test_local_image_of_the_isogenous_curve_is_its_soluble_classes(place):
    # W'_v, the annihilator whose basis _local_images records, at R and
    # at the primes of S, by rule or by tests, against the classes whose
    # space on E' of the reduced model the oracle finds soluble.  Proving
    # a class insoluble costs the oracle time in step with p, so beside a
    # planted v only the primes below 5000 are checked: all of S on the
    # |a|, |b| <= 60 grid (v = 0)
    v, a, b, u = place
    E = Curve(u * u * a, u**4 * b, 0)
    assume(v == 0 or v in bad_set(E).primes)
    a, b = _reduced(E.a2, E.a4)
    W_hat = _local_spans(E)[1]
    assert W_hat.pop(0) == ({0, 1} if r_soluble(QuarticForm(space_oracle(-2 * a, a * a - 4 * b, -1))) else {0})
    assert set(W_hat) == set(bad_set(E).primes)
    for p in (q for q in W_hat if q == v or q < 5000):
        assert W_hat[p] == _soluble_at(-2 * a, a * a - 4 * b, p), p


@pytest.mark.parametrize("E, v", [(Curve(-25, 25, 0), 5), (Curve(-15, 36, 0), 3)])
def test_three_local_tests_at_an_odd_prime_of_a(E, v):
    # the most an odd v | a/t^2 takes: each class but 1 tested once
    assert _selmer_and_tests(E)[1][v] == 3


@pytest.mark.parametrize("b, sel, sel_hat, rank_upper", [
    (1000003, [1, -3, 617, -1851, 2161, -6483, 1333337, -4000011], [1, 1000003], 2),
    (100003, [1, -3, 133337, -400011], [1, 100003], 1),
])
def test_multiplicative_places_at_a_large_prime_cost_no_local_test(b, sel, sel_hat, rank_upper):
    # b prime and b' = 1 - 4b: the rule settles b, where proving a class
    # insoluble by search takes seconds
    start = time.perf_counter()
    report = descent_report(Curve(1, b, 0), 20)
    assert time.perf_counter() - start < 0.1
    assert [int(d) for d in report.selmer_phi] == sel
    assert [int(d) for d in report.selmer_phi_hat] == sel_hat
    assert (report.rank_lower, report.rank_upper) == (0, rank_upper)


@pytest.mark.parametrize("b, sel, sel_hat", [
    (3 * 1000003**2, [1, -3], [1, 3, 1000003, 3000009]),
    (-3 * 1000003**2, [1, 3, 1000003, 3000009], [1, -3]),
    (2 * 100003**2, [1, -2], [1, 2, 100003, 200006]),
])
def test_additive_places_of_dx_at_a_large_prime_cost_no_local_test(b, sel, sel_hat):
    # e = 2 at p = 1000003 or 100003, both 3 (mod 4): W_p is 0 or all four
    # classes by rule, where one local test took 0.3 to 4 seconds to prove
    # a class insoluble
    start = time.perf_counter()
    report = descent_report(Curve(0, b, 0), 20)
    assert time.perf_counter() - start < 0.1
    assert [int(d) for d in report.selmer_phi] == sel
    assert [int(d) for d in report.selmer_phi_hat] == sel_hat
    assert (report.rank_lower, report.rank_upper) == (0, 1)


@pytest.mark.parametrize("E, v", [(Curve(-11, 2, 0), 113), (Curve(1, 1000003, 0), 1000003),
                                  (Curve(1, 100003, 0), 100003), (Curve(9, 3**5, 0), 3)])
def test_no_local_test_at_a_place_the_rule_decides(E, v):
    # 113 | b' = 121 - 8; 3^4 comes out of (9, 3^5), leaving (1, 3)
    assert v in bad_set(E).primes and v not in _selmer_and_tests(E)[1]


def test_a_large_power_of_two_in_b_costs_what_its_reduction_costs():
    # y^2 = x^3 + 2^89 x is y^2 = x^3 + 2x scaled by u = 2^22; on the model
    # as given, the local test at 2 had not finished after a minute
    start = time.perf_counter()
    report = descent_report(Curve(0, 2**89, 0), 20)
    assert time.perf_counter() - start < 0.1
    assert [int(d) for d in report.selmer_phi] == [1, -2]
    assert [int(d) for d in report.selmer_phi_hat] == [1, 2]


def _local_coordinates(n: int, v: int) -> int:
    """The coordinate bits of n in Q_v*/Q_v*^2, as _classes orders them."""
    if v == 0:
        return int(n < 0)
    e = 0
    while n % v == 0:
        n, e = n // v, e + 1
    if v == 2:
        return e % 2 | (n % 4 == 3) << 1 | (n % 8 in (3, 5)) << 2
    return e % 2 | (legendre(n, v) < 0) << 1


def test_local_tables_match_the_hilbert_symbol():
    # the class of each generator at each place in _local_images' records,
    # class integers, pairing bits and test order at 2 and odd p of both
    # residues mod 4; mod v^2 is out of reach at 1000003, where the textbook
    # formula (-1)^(e f (p-1)/2) (u/p)^f (w/p)^e stands in for the brute
    # search, which checks it at the small primes
    E = Curve(0, 3 * 5 * 7 * 11 * 13 * 1000003, 0)
    S = bad_set(E)
    assert S.primes == (2, 3, 5, 7, 11, 13, 1000003)
    gens, places = (-1,) + S.primes, _local_images(E.a2, E.a4, S)[2]
    assert [v for v, *_ in places] == [0, *S.primes]
    assert places[0][1] == [_local_coordinates(g, 0) for g in gens]
    for v, xs, *_ in places[1:]:
        reps = _classes(v)
        pairs, order = _PAIRS[v % 4], _ORDER[:len(reps)]
        assert len(pairs) == len(reps) == 1 << (3 if v == 2 else 2)
        assert xs == [_local_coordinates(g, v) for g in gens]
        assert [_local_coordinates(r, v) for r in reps] == list(range(len(reps)))
        assert list(order) == sorted(range(len(reps)), key=lambda x: abs(reps[x]))
        for x, rx in enumerate(reps):
            for y, ry in enumerate(reps):
                minus = bool((x & pairs[y]).bit_count() & 1)
                if v != 1000003:
                    assert minus != hilbert_brute(rx, ry, v), (v, rx, ry)
                if v > 2:
                    e, f = rx % v == 0, ry % v == 0
                    u, w = (rx // v if e else rx), (ry // v if f else ry)
                    textbook = (-1) ** (e * f * (v - 1) // 2) * legendre(u, v) ** f * legendre(w, v) ** e
                    assert minus == (textbook < 0), (v, rx, ry)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(lambda w: st.tuples(
    st.lists(st.integers(0, (1 << w) - 1), max_size=8), st.lists(st.integers(0, (1 << w) - 1), max_size=10))))
def test_preimage_is_a_basis_of_the_masks_whose_rows_land_in_the_image(case):
    # by brute force over every mask u of the rows: u is in the span of
    # _preimage's masks exactly when the XOR of its rows is in span(image)
    rows, image = case
    target, out = _spanned(image), _preimage(rows, image)
    span = _spanned(out)
    assert len(span) == 2 ** len(out)  # the masks are independent
    assert span == {u for u in range(1 << len(rows))
                    if reduce(xor, (r for j, r in enumerate(rows) if u >> j & 1), 0) in target}


def test_real_place_rule_matches_the_real_solver_on_the_box():
    # C_-1 has a real point exactly when b' < 0 or a < 0 < b
    for a in range(-30, 31):
        for b in range(-30, 31):
            if nonsingular(a, b):
                assert _minus_one_real(a, b) == bool(r_soluble(QuarticForm(space_oracle(a, b, -1)))), (a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_real_place_rule_matches_the_real_solver(a, b):
    assume(nonsingular(a, b))
    assert _minus_one_real(a, b) == bool(r_soluble(QuarticForm(space_oracle(a, b, -1))))


def test_selmer_of_the_20_prime_primorial_dx_model_is_fast():
    # S has 20 primes, so Q(S, 2) has 2^21 classes, far too many to visit
    D = math.prod(PRIMES_BELOW_200[:20])
    start = time.perf_counter()
    sel, sel_hat = selmer(Curve(0, D, 0)), selmer(Curve(0, -4 * D, 0))
    assert time.perf_counter() - start < 1.0
    assert squarefree_part(-4 * D) in sel and squarefree_part(D) in sel_hat
    assert sel.dim2 + sel_hat.dim2 >= 2


def test_dual_selmer_of_ep_is_minimal():
    for p in (3, 7, 17, 41, 73):
        sel = selmer(Curve(0, -4 * p, 0))
        assert set(sel) == classes(1, p)


def engine_search(a: int, b: int, d: int, H: int):
    """The engine's search of C_d of (a, b) to height H, as search_point_oracle
    gives a hit: (z, w) with w >= 0, or None."""
    hit = _first_square(*_space(a, a * a - 4 * b, d)[::2], H)
    return None if hit is None else (Fraction(hit[0], hit[1]), Fraction(hit[2], hit[1] ** 2 * abs(d)))


def test_search_point_examples():
    assert engine_search(6, 1, 2, 2) == (Fraction(1, 2), Fraction(0))
    assert engine_search(-12, 32, -1, 2) == (Fraction(1, 2), Fraction(2))
    assert engine_search(0, 17, -2, 30) is None
    # the seed class -17 of (0, 17) has its points at infinity only: the
    # report certifies it without a search, which finds no affine point
    c4, _, c2, _, c0 = space_oracle(0, 17, -17)
    assert search_point_oracle(c4, c2, c0, -17, c4, 2) == "infinity"
    assert engine_search(0, 17, -17, 2) is None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.sampled_from((1, 3, 4, 12)),
    st.integers(1, 30),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((1, -1)),
    st.one_of(st.just(1), st.integers(1, 40)),
)
def test_search_point_matches_naive_scan(a, b, scale, k, s, sign, H):
    # scale makes the coefficients divisible by 9 or 16; s puts square
    # factors into d; either sign of d and of b' gives c4 < 0 too
    a, b, d = a * scale, b * scale * scale, sign * k * s * s
    assume(b != 0 and a * a != 4 * b)
    c4, _, c2, _, c0 = space_oracle(a, b, d)
    assert engine_search(a, b, d, H) == search_point_oracle(c4, c2, c0, d, 0, H)


EDGES = (4, 5, 8, 9, 16, 17, 32, 33)
SIEVE_MULTIPLES = (16, 32, 9, 18, 27, 5, 10, 7, 14, 11, 22, 13, 26)


@st.composite
def planted_points(draw):
    """A point (m0, n0) at a band edge or with n0 = 0 mod a sieve modulus."""
    if draw(st.booleans()):
        h = draw(st.sampled_from(EDGES))
        n0 = draw(st.sampled_from((1, 2, h - 1, h)))
    else:
        n0 = draw(st.sampled_from(SIEVE_MULTIPLES))
        h = draw(st.integers(n0, 40))
    m0 = h if n0 < h else draw(st.integers(-h, h))
    assume(math.gcd(m0, n0) == 1)
    return draw(st.sampled_from((1, -1))) * m0, n0


@settings(max_examples=200, deadline=None)
@given(planted_points(), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 8))
def test_sieve_matches_naive_scan_at_band_edges(mn, x, y, s, t, extra):
    # N(m, n) = (x m^2 + y n^2)^2 + (t m^2 + s n^2)(n0^2 m^2 - m0^2 n^2)
    # is a square at (m0, n0) whatever x, y, s and t are
    m0, n0 = mn
    c4 = x * x + t * n0 * n0
    c2 = 2 * x * y - t * m0 * m0 + s * n0 * n0
    c0 = y * y - s * m0 * m0
    assert c4 * m0**4 + c2 * m0 * m0 * n0 * n0 + c0 * n0**4 == (x * m0 * m0 + y * n0 * n0) ** 2
    H = max(abs(m0), n0) + extra
    expected = search_point_oracle(c4, c2, c0, 1, 0, H)
    hit = _first_square(c4, c2, c0, H)
    got = None if hit is None else (Fraction(hit[0], hit[1]), Fraction(hit[2], hit[1] ** 2))
    assert got == expected and got is not None


def planted_form(p1, p2, x: int, y: int, t: int) -> tuple[int, int, int]:
    """(c4, c2, c0) with N(m, n) a square at both points (m, n).

    N = (x X + y Y)^2 + t (Y1 X - X1 Y)(Y2 X - X2 Y) in X = m^2, Y = n^2.
    """
    (X1, Y1), (X2, Y2) = ((m * m, n * n) for m, n in (p1, p2))
    return x * x + t * Y1 * Y2, 2 * x * y - t * (Y1 * X2 + X1 * Y2), y * y + t * X1 * X2


def first_square_agrees(c4: int, c2: int, c0: int, H: int):
    """_first_square's hit as the naive scan's (z, w), after checking both agree."""
    hit = _first_square(c4, c2, c0, H)
    got = None if hit is None else (Fraction(hit[0], hit[1]), Fraction(hit[2], hit[1] ** 2))
    assert got == search_point_oracle(c4, c2, c0, 1, 0, H)
    return hit


@st.composite
def coprime_point(draw, ns, hmax: int):
    n = draw(ns)
    m = draw(st.integers(0, hmax))
    assume(math.gcd(m, n) == 1)
    return draw(st.sampled_from((1, -1))) * m, n


small = st.integers(-9, 9)


@settings(max_examples=150, deadline=None)
@given(coprime_point(st.sampled_from((17, 19, 23, 34, 51)), 120),
       coprime_point(st.integers(1, 40), 40), small, small, small, st.integers(1, 120))
def test_first_square_matches_naive_scan_with_large_prime_denominators(p1, p2, x, y, t, H):
    # n0 has a prime factor above the sieve moduli: the coprime mask of n0
    # strikes the multiples of a prime that no residue row sees
    hit = first_square_agrees(*planted_form(p1, p2, x, y, t), H)
    if H >= max(abs(p1[0]), p1[1]):
        assert hit is not None


@settings(max_examples=100, deadline=None)
@given(coprime_point(st.integers(1, 30), 30), small, small, small, st.integers(1, 120))
def test_first_square_hits_at_m_zero(p2, x, y, t, H):
    c4, c2, c0 = planted_form((0, 1), p2, x, y, t)
    assert first_square_agrees(c4, c2, c0, H) == (0, 1, abs(y))


@settings(max_examples=200, deadline=None)
@given(coprime_point(st.integers(1, 20), 20), coprime_point(st.integers(1, 20), 20),
       small, small, small, st.integers(1, 15))
def test_first_square_below_the_sieve_moduli(p1, p2, x, y, t, H):
    first_square_agrees(*planted_form(p1, p2, x, y, t), H)


@settings(max_examples=150, deadline=None)
@given(coprime_point(st.integers(2, 40), 40), st.integers(1, 80), small, small,
       small.filter(bool), st.integers(0, 40))
def test_lower_height_beats_an_earlier_n_equal_one_hit(p0, up, x, y, t, extra):
    # (m1, 1) comes first in n but (m0, n0), n0 >= 2, is lower in height
    h0 = max(abs(p0[0]), p0[1])
    m1 = h0 + up
    hit = first_square_agrees(*planted_form(p0, (m1, 1), x, y, t), min(120, m1 + extra))
    assert hit is not None and max(hit[0], hit[1]) <= h0


@pytest.mark.parametrize("x, y, t", [(1, 1, 1), (2, -1, 1), (1, 2, -1), (3, 1, 2)])
def test_a_lower_hit_in_a_later_band_beats_a_first_hit_with_m_above_n(x, y, t):
    # at H = 200 a band holds 81 rows: the scan meets (150, 7) first, in the
    # first band, then passes over the survivors with m >= 150 until the
    # lower hit (101, 90) in the second band
    c4, c2, c0 = planted_form((150, 7), (101, 90), x, y, t)
    squares = [(m, n) for n in range(1, 8) for m in range(201) if math.gcd(m, n) == 1
               and (N := c4 * m**4 + c2 * m * m * n * n + c0 * n**4) >= 0 and math.isqrt(N) ** 2 == N]
    assert squares[0] == (150, 7)
    assert first_square_agrees(c4, c2, c0, 200)[:2] == (101, 90)


# forms congruent mod the product of the sieve moduli share every band mask
SIEVE_LCM = math.lcm(*_MODULI)
# 433 = 1 (mod 16 * 9) is prime to every modulus, so 433^2 scales each
# form by a unit square: the same cache keys, the same hits with r * 433
UNIT_SQUARE = 433**2


@settings(max_examples=40, deadline=None)
@given(coprime_point(st.integers(1, 30), 30), coprime_point(st.integers(1, 30), 30),
       small, small, small, st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_first_square_with_cached_words_and_interleaved_heights(p1, p2, x, y, t, shifts):
    # adding SIEVE_LCM * s * (n1^2 m^4 - m1^2 m^2 n^2) changes neither
    # N(m1, n1) nor any coefficient mod a sieve modulus, and scaling by
    # UNIT_SQUARE changes no normalised key, so after the first form at each
    # height every band mask comes from the cache; the heights revisit 20
    # after 100 and are one band each
    c4, c2, c0 = planted_form(p1, p2, x, y, t)
    X1, Y1 = p1[0] ** 2, p1[1] ** 2
    for H in (20, 100, 7):
        first_square_agrees(c4, c2, c0, H)
    misses = _band_mask.cache_info().misses
    for s in [0, *shifts]:
        form = (c4 + SIEVE_LCM * s * Y1, c2 - SIEVE_LCM * s * X1, c0)
        for H in (20, 100, 20, 7):
            hit = first_square_agrees(*form, H)
            if H >= max(abs(p1[0]), p1[1]):
                assert hit is not None
            scaled = first_square_agrees(*(UNIT_SQUARE * c for c in form), H)
            assert scaled == (hit and (hit[0], hit[1], 433 * hit[2]))
    assert _band_mask.cache_info().misses == misses


def band_rows(H: int) -> int:
    """The rows per band of _first_square at height H."""
    return min(H, max(1, _BAND_BITS // (H + 1)))


def moduli_applied(H: int) -> int:
    """How many of _MODULI _first_square applies at height H: about four
    expected survivors per band, and never fewer than one modulus."""
    return max(1, (band_rows(H) * (H + 1)).bit_length() - 2)


def _tile(q: int, rows: dict[int, int], W: int, R: int) -> int:
    """Bit k*W + m, k < q + R and m < W, set when bit m mod q of
    rows[k^2 mod q] is: a product with copies of 1 spaced q apart tiles a
    q-bit row along W bits, and one with copies q rows apart tiles the
    first q rows down."""
    across = sum(1 << j * q for j in range(W // q + 1))
    down = sum(1 << j * q * W for j in range(R // q + 2))
    block = sum((rows[k * k % q] * across & ((1 << W) - 1)) << k * W for k in range(q))
    return block * down & ((1 << (q + R) * W) - 1)


@pytest.mark.parametrize("H", [20, 100])
@pytest.mark.parametrize("q", _MODULI)
def test_orbit_masks_match_the_tuple_set_orbits(q, H):
    # pairs coded as k*q + m, v = u*w with w^2 = 1: the same orbits, in the
    # same order and over the same q rows, as the scan of all unit pairs
    # into sets of tuples, laid out bit by bit
    assert _orbit_masks.__wrapped__(q, H + 1) == unit_orbit_masks_oracle(q, H + 1)


def test_orbit_masks_keep_one_height_of_blocks():
    # the searches of y^2 = x^3 - 576620x look up 7 moduli at H = 20 and 12
    # at H = 100, 19 (q, W) blocks in all: the cache keeps one height's
    # moduli, as _period does, not the blocks of heights no longer searched
    for cached in (_orbit_masks, descent_module._period, _band_mask):
        cached.cache_clear()
    for H in (20, 100):
        descent_report(Curve(0, -576620, 0), H)
    assert _orbit_masks.cache_info().misses == 7 + 12
    assert _orbit_masks.cache_info().currsize <= len(_MODULI)


# the forms (a, b, c) mod q of test_period_masks_match_the_brute_definition:
# all of them for q <= 29, a fixed sample of 60 for the larger moduli
EXHAUSTIVE_MODULUS = 29


def period_forms(q: int) -> list[tuple[int, int, int]]:
    cube = itertools.product(range(q), repeat=3)
    if q <= EXHAUSTIVE_MODULUS:
        return [f for f in cube if any(f)]
    rng = random.Random(q)
    return sorted({tuple(rng.randrange(q) for _ in range(3)) for _ in range(60)} - {(0, 0, 0)})


def test_period_masks_match_the_brute_definition():
    # bit k*W + m of _band_mask from row r, a cut of one period of q rows,
    # is set iff N(m, n) = a m^4 + b m^2 n^2 + c n^4, n = r + k (mod q), is
    # a square mod q: every modulus, every (a, b, c) mod q but zero (a
    # sample above EXHAUSTIVE_MODULUS), and the band shapes of six heights
    # (H <= 28 gives rows narrower than q, H = 200 two bands), and only
    # where gcd(m, n, q) = 1.  The exhaustive forms start at the row
    # r = a + b + c mod q, so every r < q comes up; each sampled form
    # starts at every r.  N mod q depends on m^2 and n^2 mod q only, so
    # the expected period is a tiling of one q-bit row per n^2, made once
    # per distinct set of rows, then cut to the pairs prime to q and to
    # the band
    for q in _MODULI:
        squares = {i * i % q for i in range(q)}
        # the residue r, written chr(r), to "1" when r + j is a square mod q
        shift = [str.maketrans({chr(r): "01"[(r + j) % q in squares] for r in range(q)}) for j in range(q)]
        sq_desc = [m * m % q for m in reversed(range(q))]
        ts = sorted(set(sq_desc))
        shapes = [(H + 1, band_rows(H)) for H in (1, 7, 20, 28, 100, 200)]
        prime_to_q = [sum(1 << k * W + m for k in range(q + R) for m in range(W) if math.gcd(k, m, q) == 1)
                      for W, R in shapes]
        expected: dict[tuple[str, ...], list[int]] = {}
        for a, b, c in period_forms(q):
            # per t = n^2, a m^4 + b m^2 t for m = q - 1 down to 0, as chr
            part = {t: "".join(chr((a * s * s + b * s * t) % q) for s in sq_desc) for t in ts}
            rows = tuple(part[t].translate(shift[c * t * t % q]) for t in ts)
            if rows not in expected:
                bits = {t: int(r, 2) for t, r in zip(ts, rows)}
                expected[rows] = [_tile(q, bits, W, R) & cut for (W, R), cut in zip(shapes, prime_to_q)]
            starts = [(a + b + c) % q] if q <= EXHAUSTIVE_MODULUS else range(q)
            for r in starts:
                for (W, R), want in zip(shapes, expected[rows]):
                    got = _band_mask.__wrapped__(q, a, b, c, W, r, R)
                    assert got == want >> r * W & ((1 << R * W) - 1), (q, a, b, c, W, r)


# Both sides of every height where moduli_applied steps, to height 300
MODULI_STEPS = sorted({1, 2}.union(*({H - 1, H} for H in range(2, 301)
                                     if moduli_applied(H) != moduli_applied(H - 1))))


def test_each_band_applies_the_moduli_its_size_needs(monkeypatch):
    # N = m^4 passes every mask, so each band looks up moduli_applied(H)
    # of them (the search hits (0, 1) in its first band); 3 m^4 + 3 n^4 is
    # 3 or 6 mod 16 at every pair not both even, so its AND reaches 0 at
    # the first modulus and ends the lookups of its band
    seen = []
    band_mask = descent_module._band_mask
    monkeypatch.setattr(descent_module, "_band_mask", lambda q, *rest: seen.append(q) or band_mask(q, *rest))
    for H, applied in ((1, 1), (2, 1), (20, 7), (100, 12), (300, 12)):
        seen.clear()
        assert _first_square(1, 0, 0, H) == (0, 1, 0)
        assert moduli_applied(H) == applied and seen == list(_MODULI[:applied])
    assert [moduli_applied(H) for H in (2**14, 50_000)] == [13, 14]
    seen.clear()
    assert _first_square(3, 0, 3, 100) is None and seen == [16]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MODULI_STEPS), st.data(), small, small, small)
def test_first_square_matches_naive_scan_on_both_sides_of_each_moduli_step(H, data, x, y, t):
    # the same hit, or the same miss, whether a height applies one modulus
    # more or one fewer; a planted point may lie above H, so misses come up
    p1 = data.draw(coprime_point(st.integers(1, H + 2), H + 2))
    p2 = data.draw(coprime_point(st.integers(1, H), H))
    first_square_agrees(*planted_form(p1, p2, x, y, t), H)


@st.composite
def point_and_multiple(draw):
    """H <= 300, a box of 1 to 6 bands, and a coprime (m, n) with g*(m, n),
    g >= 2, in the box; g is often one of the largest sieve moduli or a
    prime above them (47, 53, 59), whose multiples no mask strikes."""
    g = draw(st.one_of(st.integers(2, 40), st.sampled_from((31, 37, 41, 43, 47, 53, 59))))
    H = draw(st.integers(g, 300))
    n = draw(st.integers(1, H // g))
    m = draw(st.integers(0, H // g))
    assume(math.gcd(m, n) == 1)
    return H, g, (m, n)


@settings(max_examples=120, deadline=None)
@given(point_and_multiple(), small, small, small)
def test_first_square_returns_the_coprime_point_before_its_multiple(point, x, y, t):
    # the search has no coprimality test: (g*m, g*n) is a hit with (m, n),
    # which lies in an earlier row and is lower in height, so the hit
    # returned is coprime and the naive scan, which skips non-coprime
    # pairs, finds the same one
    H, g, (m, n) = point
    assert 1 <= -(-H // band_rows(H)) <= 6
    hit = first_square_agrees(*planted_form((m, n), (g * m, g * n), x, y, t), H)
    assert hit is not None and math.gcd(hit[0], hit[1]) == 1
    assert (max(hit[0], hit[1]), hit[1], hit[0]) <= (max(m, n), n, m)


@st.composite
def band_edge_point(draw):
    """H <= 300 and a coprime (m, n) with n the first or last row of a band
    and m drawn from 0, H and all of [0, H]."""
    H = draw(st.integers(1, 300))
    R = band_rows(H)
    firsts = range(1, H + 1, R)
    n = draw(st.sampled_from([*firsts, *(min(f + R - 1, H) for f in firsts)]))
    m = draw(st.one_of(st.sampled_from((0, H)), st.integers(0, H)))
    assume(math.gcd(m, n) == 1)
    return H, (draw(st.sampled_from((1, -1))) * m, n)


@settings(max_examples=80, deadline=None)
@given(band_edge_point(), st.data(), small, small, small)
def test_first_square_matches_naive_scan_at_band_edges_to_height_300(point, data, x, y, t):
    H, p1 = point
    p2 = data.draw(coprime_point(st.integers(1, H), H))
    hit = first_square_agrees(*planted_form(p1, p2, x, y, t), H)
    assert hit is not None and max(hit[0], hit[1]) <= max(abs(p1[0]), p1[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(129, 300), st.data(), small, small, small.filter(bool))
def test_lower_point_in_a_later_band_beats_an_earlier_hit(H, data, x, y, t):
    # (m1, n1) lies in the first band and comes first in n, but (m2, n2),
    # in a later band, is lower in height; from H = 129 on a band has at
    # most H - 3 rows
    R = band_rows(H)
    assert R < H
    n1 = data.draw(st.integers(1, R))
    m1 = data.draw(st.integers(R + 2, H))
    n2 = data.draw(st.integers(R + 1, m1 - 1))
    m2 = data.draw(st.integers(0, m1 - 1))
    assume(math.gcd(m1, n1) == 1 and math.gcd(m2, n2) == 1)
    hit = first_square_agrees(*planted_form((m1, n1), (m2, n2), x, y, t), H)
    assert hit is not None and max(hit[0], hit[1]) <= max(m2, n2) < m1


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**6, 10**6).filter(bool), st.integers(-30, 30).filter(bool),
       st.integers(1, 120))
def test_search_point_matches_naive_scan_to_height_120(D, k, H):
    # the descent-dx shape y^2 = x^3 + Dx; d shares small primes with D,
    # as the Selmer classes of these curves do
    d = int(squarefree_part(k * math.gcd(D, 2 * 3 * 5 * 7 * 11 * 13 * 17)))
    c4, _, c2, _, c0 = space_oracle(0, D, d)
    assert engine_search(0, D, d, H) == search_point_oracle(c4, c2, c0, d, 0, H)


def test_search_point_results_satisfy_the_space_equation():
    # d w^2 = d^2 - 2 a d z^2 + (a^2 - 4b) z^4
    for a, b, d in ((6, 1, 2), (-12, 32, -1), (-6, 12, 6), (12, -12, 3)):
        res = engine_search(a, b, d, 8)
        assert res is not None
        z, w = res
        assert d * w * w == d * d - 2 * a * d * z * z + (a * a - 4 * b) * z**4


def test_lift_point_dual_direction(monkeypatch):
    # the report finds (z, w) = (1/2, 2) on C_-1 of E' = (-12, 32) and
    # lifts it by psi to (-4, 16) on E'' = (24, 16), which (x/4, y/8)
    # takes to (-1, 2) on E = (6, 1), up to the sign of w
    hits, checked = [], []
    certify = descent_module._certify_direction
    monkeypatch.setattr(descent_module, "_certify_direction",
                        lambda *args: (lambda out: hits.append(out[1]) or out)(certify(*args)))
    monkeypatch.setattr(descent_module, "_on_curve_xyz",
                        lambda C, P: checked.append((C, _xyz_point(P))) or _on_curve_xyz(C, P))
    descent_report(Curve(6, 1, 0), 5)
    assert hits == [[], [(-1, 1, 2, 8)]]
    assert psi_oracle(-1, (Fraction(1, 2), Fraction(2))) == (-4, 16)
    assert o_on_curve((24, 16, 0), (Fraction(-4), Fraction(16)))
    assert checked == [(Curve(6, 1, 0), pt(-1, -2))]


def test_report_zero_rank_curve():
    rep = descent_report(Curve(6, 1, 0), 5)
    assert (rep.selmer_phi.size, rep.selmer_phi_hat.size) == (2, 2)
    assert (rep.rank_lower, rep.rank_upper, rep.rank_exact) == (0, 0, True)
    assert rep.sha_phi_dim_upper == 0 and rep.sha_phi_hat_dim_upper == 0
    assert rep.torsion.structure == "Z4"
    assert rep.generators == ()


def test_report_seventeen_curve():
    rep = descent_report(Curve(0, 17, 0), 20)
    assert discriminant(rep.curve) == -314432
    assert (rep.selmer_phi.size, rep.selmer_phi_hat.size) == (8, 2)
    assert (rep.rank_lower, rep.rank_upper, rep.rank_exact) == (0, 2, False)
    assert rep.sha_phi_dim_upper == 2
    assert rep.torsion.structure == "Z2"
    assert rep.torsion.generators == (pt(0, 0),)


def test_report_rank_one_curve_with_generator():
    rep = descent_report(Curve(-6, 12, 0), 10)
    assert (rep.selmer_phi.size, rep.selmer_phi_hat.size) == (4, 2)
    assert (rep.rank_lower, rep.rank_upper, rep.rank_exact) == (1, 1, True)
    assert len(rep.generators) == 1
    g = rep.generators[0]
    assert on_curve(Curve(-6, 12, 0), g)
    # infinite order: not among the torsion points
    assert g not in rep.torsion.points


@pytest.mark.parametrize("a, b", [(-11, -9), (-11, 2)])
def test_report_decides_deep_padic_trees(a, b):
    # a plain residue-class worklist needs over 500k classes at one prime here
    rep = descent_report(Curve(a, b, 0), 20)
    assert (rep.rank_lower, rep.rank_upper) == (1, 1)
    assert rep.generators
    for P in rep.generators:
        Q = (P.x, P.y)
        assert o_on_curve((a, b, 0), Q)
        assert o_order((a, b, 0), Q) is None


def test_report_invariants_across_samples():
    for E in (Curve(6, 1, 0), Curve(0, 17, 0), Curve(-6, 12, 0), Curve(1, 6, 0),
              Curve(0, -1, 0), Curve(3, -2, 0)):
        rep = descent_report(E, 8)
        sel, img = rep.selmer_phi, rep.image_phi
        assert set(img) <= set(sel)
        assert set(rep.image_phi_hat) <= set(rep.selmer_phi_hat)
        s, g = sel.dim2, img.dim2
        s2, g2 = rep.selmer_phi_hat.dim2, rep.image_phi_hat.dim2
        assert rep.rank_upper - rep.rank_lower == (s - g) + (s2 - g2)
        assert rep.rank_exact == (rep.rank_lower == rep.rank_upper)
        assert 0 <= rep.rank_lower <= rep.rank_upper
        assert rep.sha_phi_dim_upper == s - g
        assert rep.sha_phi_hat_dim_upper == s2 - g2
        for P in rep.generators:
            assert on_curve(E, P)


def test_report_flags_odd_selmer_residual():
    # rank bounds stay honest when the residual is odd: note, not failure
    rep = descent_report(Curve(0, 17, 0), 2)
    assert not rep.rank_exact


def test_certified_classes_have_global_points():
    # each certified class but the seed, whose points are at infinity, has
    # an affine point on its space within the height
    rep = descent_report(Curve(0, -68, 0), 20)
    seed = squarefree_part(rep.pair.b_prime)
    for d in rep.image_phi:
        assert d == seed or engine_search(0, -68, int(d), 20) is not None


SIGNED_SQUAREFREE = [s * r for r in (1, 2, 3, 5, 6, 7, 10, 15, 21, 30, 105, 210) for s in (1, -1)]


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(SIGNED_SQUAREFREE), max_size=6))
def test_span_matches_fixed_point_closure(reps):
    gens, S = (-1, 2, 3, 5, 7), BadSet((2, 3, 5, 7))
    rows = []  # _span takes independent rows
    for r in reps:
        if class_on_oracle(r, S.primes) not in (m for _, _, m in _span(rows, gens)):
            rows.append(class_on_oracle(r, S.primes))
    out = _span(rows, gens)
    masks = [m for _, _, m in out]
    assert len(masks) == len(set(masks)) == 2 ** len(rows)
    assert out == sorted(out)
    assert all(d == math.prod(g for j, g in enumerate(gens) if m >> j & 1) and n == abs(d) for n, d, m in out)
    span = {SquareClass(d) for _, d, _ in out}
    assert {int(c) for c in span} == span_oracle(reps)
    # a span passes the closure check; without its largest class (never
    # the trivial one at size >= 4) the size is odd, so it cannot be closed
    SelmerSet(tuple(sorted(span)))
    if len(span) > 2:
        with pytest.raises(DescentError):
            SelmerSet(tuple(sorted(span - {max(span)})))


@settings(max_examples=60, deadline=None)
@given(SELMER_CURVES, st.sampled_from((1, 5, 20)))
def test_certified_images_match_the_square_class_walk(E, H):
    # the mask walk against certify_oracle on integer classes: the same
    # spaces searched in the same order, the same images and generators
    searched = []
    first_square, naive_scan = descent_module._first_square, oracles.search_point_oracle

    def oracle_direction(a, bp, sel, seed, H):
        # certify_oracle searches the model (a, b) with b' = bp by the naive
        # scan; a lift (X, Y) = psi(z, w) of class d gives back z = m/n by
        # z^2 = d/X and r = n^2 * d*w = -Y * m^3/n
        span, lifts = certify_oracle(a, (a * a - bp) // 4, [d for _, d, _ in sel],
                                     int(squarefree_part(bp)), H)
        assert span <= {d for _, d, _ in sel}
        hits = []
        for d, (X, Y) in lifts:
            z2 = d / X
            m, n = math.isqrt(z2.numerator), math.isqrt(z2.denominator)
            r = -Y * m**3 / n
            assert r.denominator == 1
            hits.append((d, m, n, int(r)))
        return [i for i, (_, d, _) in enumerate(sel) if d in span], hits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent_module, "_first_square",
                   lambda *args: searched.append(args) or first_square(*args))
        rep = descent_report(E, H)
        engine_searched = searched[:]
        searched.clear()
        mp.setattr(descent_module, "_certify_direction", oracle_direction)
        mp.setattr(oracles, "search_point_oracle",
                   lambda c4, c2, c0, *rest: searched.append((c4, c2, c0, rest[-1])) or naive_scan(c4, c2, c0, *rest))
        want = descent_report(E, H)
    assert engine_searched == searched
    assert rep.image_phi == want.image_phi and rep.image_phi_hat == want.image_phi_hat
    assert rep.generators == want.generators and rep.rank_lower == want.rank_lower


def test_certify_direction_never_searches_a_torsion_image_on_the_box(monkeypatch):
    # class 1 and the seed, the class of b' of the searched model, start
    # in the span: only their spaces have a point at z = 0 or at infinity,
    # so every hit has m != 0.  The space of d has c4 = d*b' and c0 = d^3,
    # so d = 1 reads c0 = 1 and d = the seed (d squarefree) c4 a square
    searched, hits = [], []
    first_square = descent_module._first_square

    def recording(c4, c2, c0, H):
        searched.append((c4, c0))
        hit = first_square(c4, c2, c0, H)
        if hit:
            hits.append(hit)
        return hit

    monkeypatch.setattr(descent_module, "_first_square", recording)
    for a in range(-12, 13):
        for b in range(-12, 13):
            if b and a * a != 4 * b:
                descent_report(Curve(a, b, 0), 20)
    assert searched and hits
    for c4, c0 in searched:
        assert c0 != 1 and not (c4 > 0 and math.isqrt(c4) ** 2 == c4), (c4, c0)
    assert all(m != 0 for m, n, r in hits)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
        lambda ab: nonsingular(*ab)).map(lambda ab: Curve(*ab, 0)),
    st.integers(-10**6, 10**6).filter(bool).map(lambda D: Curve(0, D, 0)),
), st.sampled_from((5, 20, 100)))
@example(Curve(-3, 10, 0), 20).via("a phi hit and a phi-hat hit")
@example(Curve(0, -2, 0), 10).via("a phi-hat hit")
def test_closed_form_points_are_the_lifts_pushed_down_to_e(E, H):
    # per hit (d, m, n, r) of either direction, the point of E that
    # descent_report checks is psi(z, w) at z = m/n, w = r/(d*n^2), then
    # phi-hat for a phi hit, then (x/4, y/8); and (z, +-w) is the naive
    # scan's point of C_d
    hits, checked = [], []
    certify = descent_module._certify_direction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent_module, "_certify_direction",
                   lambda *args: (lambda out: hits.append(out[1]) or out)(certify(*args)))
        mp.setattr(descent_module, "_on_curve_xyz",
                   lambda C, P: checked.append((C, _xyz_point(P))) or _on_curve_xyz(C, P))
        descent_report(E, H)
    pair = isogenous_curve(E)
    back = isogenous_curve(pair.Eprime)
    want = []
    for source, direction in ((E, hits[0]), (pair.Eprime, hits[1])):
        for d, m, n, r in direction:
            z, w = Fraction(m, n), Fraction(r, d * n * n)
            c4, _, c2, _, c0 = space_oracle(source.a2, source.a4, d)
            assert search_point_oracle(c4, c2, c0, d, 0, H) == (z, abs(w))
            x, y = psi_oracle(d, (z, w))
            if source == E:
                x, y = phi_hat_oracle(back.b, (x, y))
            want.append((E, Pt(x / 4, y / 8)))
    assert checked == want


def test_height_above_the_bound_is_refused_before_any_work(monkeypatch):
    # the point search's time grows as H^2, so a height beyond the bound
    # is refused before the Selmer groups or any search
    def no_work(*args):
        raise AssertionError("work done before the height was checked")

    for name in ("_selmer", "_first_square", "torsion_subgroup", "bad_set"):
        monkeypatch.setattr(descent_module, name, no_work)
    with pytest.raises(DescentError, match=r"need H <= 50000"):
        descent_report(Curve(0, 17, 0), 50_001)
    with pytest.raises(DescentError, match=r"need H >= 1"):
        descent_report(Curve(0, 17, 0), 0)
    with pytest.raises(DescentError, match=r"need an integer H, not 2\.5"):
        descent_report(Curve(0, 17, 0), 2.5)


@pytest.mark.parametrize("H", [True, False])
def test_bool_heights_are_refused(H):
    # a bool is an int to isinstance, but a report once echoed
    # search_height=True back, and "search_height": true in its document
    with pytest.raises(DescentError, match=f"need an integer H, not {H}"):
        descent_report(Curve(0, 17, 0), H)


def test_descent_report_factors_each_odd_part_of_b_and_b_prime_once(monkeypatch):
    # E and E' share the odd parts of b and b' (b'' = 16b), and the seed
    # classes are read off the bad set, so nothing is factored twice
    seen = []
    factorize = descent_module.factorize
    monkeypatch.setattr(descent_module, "factorize", lambda n: seen.append(n) or factorize(n))
    for a, b, parts in ((0, 3111, [3111]), (3, 5, [5, 11]), (1, -6, [3, 25]), (0, -4, [1])):
        seen.clear()
        rep = descent_report(Curve(a, b, 0), 20)
        assert sorted(seen) == parts
        assert bad_set(rep.curve) == bad_set(rep.isogenous)


def test_descent_report_builds_quartic_forms_only_in_hom_space(monkeypatch):
    # the local tests of _selmer (the records show some run where a != 0) and
    # the point searches take every space from _space as a bare coefficient
    # tuple: the report builds no QuarticForm, so no form is validated,
    # stripped or reversed
    built = []
    post_init = QuarticForm.__post_init__
    monkeypatch.setattr(QuarticForm, "__post_init__", lambda f: built.append(f) or post_init(f))
    for a, b in ((0, 3111), (0, -2 * 3 * 5 * 7 * 11), (6, 1), (-11, 2), (12, 32)):
        descent_report(Curve(a, b, 0), 20)
        assert not built and (a == 0 or _selmer_and_tests(Curve(a, b, 0))[1])


def test_descent_report_checks_each_lifted_point_once_per_curve(monkeypatch):
    # each hit becomes one point, built on E in integers and checked there
    # once: the report path checks no point with the Fraction on_curve and
    # builds a Pt only for each generator it keeps
    import twodescent.curve as curve_module

    checks, built, hits = [], [], []
    Pt_, certify = descent_module.Pt, descent_module._certify_direction
    monkeypatch.setattr(descent_module, "_on_curve_xyz",
                        lambda C, P: checks.append((C, P)) or _on_curve_xyz(C, P))
    monkeypatch.setattr(descent_module, "Pt", lambda x, y: built.append(Pt_(x, y)) or built[-1])
    monkeypatch.setattr(descent_module, "_certify_direction",
                        lambda *args: (lambda out: hits.extend(out[1]) or out)(certify(*args)))

    def refused(*args):
        raise AssertionError("on_curve called on the report path")

    monkeypatch.setattr(curve_module, "on_curve", refused)
    for a, b in ((-6, 12), (-11, 2), (-11, -9)):
        checks.clear()
        built.clear()
        hits.clear()
        E = Curve(a, b, 0)
        rep = descent_report(E, 20)
        assert rep.generators and hits and [C for C, _ in checks] == [E] * len(hits)
        assert all(on_curve(E, _xyz_point(P)) for _, P in checks)
        assert built == list(rep.generators)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_bad_set_is_two_and_the_primes_of_b_and_b_prime(a, b):
    from .oracles import factor_oracle

    assume(b != 0 and a * a - 4 * b != 0)
    primes = {2} | set(factor_oracle(b)) | set(factor_oracle(a * a - 4 * b))
    assert bad_set(Curve(a, b, 0)).primes == tuple(sorted(primes))
