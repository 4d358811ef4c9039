from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twodescent.descent as descent_module
from twodescent.arith import ONE, SquareClass, legendre, squarefree_part
from twodescent.curve import Curve, INFINITY, discriminant, mul, on_curve, pt
from twodescent.descent import (
    DescentError,
    SelmerSet,
    TorsionImageError,
    _first_square,
    _span,
    bad_set,
    delta_class,
    descent_report,
    hom_space,
    isogenous_curve,
    lift_point,
    phi_map,
    qs2,
    search_point,
    selmer,
)

from twodescent.localsolve import qp_soluble, r_soluble

from .oracles import o_on_curve, o_order, search_point_oracle, span_oracle


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


def test_second_iterate_is_quartic_twist_back():
    # E'' = (4a, 16b) returns to E under (x, y) -> (x/4, y/8)
    pair = isogenous_curve(Curve(6, 1, 0))
    second = isogenous_curve(pair.Eprime)
    assert second.Eprime == Curve(24, 16, 0)
    P = pt(-1, 2)
    Q = phi_map(second, phi_map(pair, P))
    back = pt(Q.x / 4, Q.y / 8)
    assert on_curve(Curve(6, 1, 0), back)
    assert back == mul(Curve(6, 1, 0), 2, P)


def test_phi_map_examples():
    pair = isogenous_curve(Curve(6, 1, 0))
    assert phi_map(pair, pt(-1, 2)) == pt(4, 0)
    assert phi_map(pair, pt(0, 0)) == INFINITY
    assert phi_map(pair, INFINITY) == INFINITY
    with pytest.raises(DescentError):
        phi_map(pair, pt(1, 1))


def test_phi_map_lands_on_the_isogenous_curve():
    pair = isogenous_curve(Curve(-6, 12, 0))
    for P in (pt(3, 3), pt(3, -3), pt(4, 4), pt(4, -4)):
        assert on_curve(pair.E, P)
        assert on_curve(pair.Eprime, phi_map(pair, P))


def test_delta_class_examples():
    assert delta_class(Curve(-12, 32, 0), pt(0, 0)) == squarefree_part(2)
    assert delta_class(Curve(-12, 32, 0), INFINITY) == ONE
    assert delta_class(Curve(6, 1, 0), pt(-1, 2)) == squarefree_part(-1)
    with pytest.raises(DescentError):
        delta_class(Curve(6, 1, 0), pt(2, 2))


def test_delta_is_a_homomorphism_on_sample_points():
    from twodescent.curve import add

    E = Curve(-6, 12, 0)
    P, Q = pt(3, 3), pt(4, 4)
    assert add(E, P, Q) == pt(0, 0)
    # delta(P + Q) = delta(P) * delta(Q), with (0, 0) mapping to cls(a4)
    assert delta_class(E, pt(0, 0)) == delta_class(E, P) * delta_class(E, Q)
    assert delta_class(E, pt(0, 0)) == squarefree_part(12)


def test_bad_set_contents():
    S = bad_set(Curve(6, 1, 0))
    assert S.primes == (2,)
    assert S.includes_infinity
    assert bad_set(Curve(0, 17, 0)).primes == (2, 17)
    assert bad_set(Curve(0, -68, 0)).primes == (2, 17)


def test_qs2_group():
    small = qs2(bad_set(Curve(6, 1, 0)))
    assert set(small) == classes(1, -1, 2, -2)
    big = qs2(bad_set(Curve(0, 17, 0)))
    assert set(big) == classes(1, -1, 2, -2, 17, -17, 34, -34)
    assert ONE in big
    assert list(big) == sorted(big)


def test_hom_space_cleared_forms():
    f = hom_space(Curve(6, 1, 0), 2)
    assert f.c == (64, 0, -48, 0, 8)
    for p, d in ((17, -1), (17, 17), (5, 2)):
        g = hom_space(Curve(0, p, 0), d)
        assert g.c == (-4 * p * d, 0, 0, 0, d**3)
    triv = hom_space(Curve(6, 1, 0), 1)
    assert triv(0) == 1


def test_hom_space_accepts_square_class_objects():
    assert hom_space(Curve(6, 1, 0), squarefree_part(2)).c == (64, 0, -48, 0, 8)


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


def selmer_per_class(E: Curve) -> tuple[int, ...]:
    """Reference: every class of qs2 gets a real test, then each p of S."""
    S = bad_set(E)
    kept = []
    for d in qs2(S):
        f = hom_space(E, d)
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


@settings(max_examples=25, deadline=None)
@given(st.integers(-10**6, 10**6).filter(bool))
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
    f, g = hom_space(E, d), hom_space(E, d * s * s * u)
    assert bool(qp_soluble(f, p)) == bool(qp_soluble(g, p))
    if u > 0:
        assert bool(r_soluble(f)) == bool(r_soluble(g))


@pytest.mark.parametrize("E", [
    Curve(0, 30030, 0),              # S = {2, 3, 5, 7, 11, 13}: 128 classes
    Curve(0, -2 * 3 * 5 * 7 * 11 * 13 * 17, 0),
    Curve(6, 1, 0),
    Curve(-11, 2, 0),
    Curve(0, 912247, 0),
])
def test_selmer_tests_each_local_class_once(monkeypatch, E):
    calls: dict[int, int] = {}

    def counting_qp(f, p):
        calls[p] = calls.get(p, 0) + 1
        return qp_soluble(f, p)

    def counting_r(f):
        calls[0] = calls.get(0, 0) + 1
        return r_soluble(f)

    monkeypatch.setattr(descent_module, "qp_soluble", counting_qp)
    monkeypatch.setattr(descent_module, "r_soluble", counting_r)
    for C in (E, isogenous_curve(E).Eprime):
        calls.clear()
        assert tuple(int(d) for d in selmer(C)) == selmer_per_class(C)
        assert calls.get(0, 0) <= 2
        assert calls.get(2, 0) <= 8
        assert all(n <= 4 for p, n in calls.items() if p > 2)
        assert set(calls) <= {0} | set(bad_set(C).primes)


def test_dual_selmer_of_ep_is_minimal():
    for p in (3, 7, 17, 41, 73):
        sel = selmer(Curve(0, -4 * p, 0))
        assert set(sel) == classes(1, p)


def test_search_point_examples():
    assert search_point(Curve(6, 1, 0), 2, 2) == (Fraction(1, 2), Fraction(0))
    assert search_point(Curve(-12, 32, 0), -1, 2) == (Fraction(1, 2), Fraction(2))
    assert search_point(Curve(0, 17, 0), -17, 2) == "infinity"
    assert search_point(Curve(0, 17, 0), -2, 30) is None


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
    E = Curve(a, b, 0)
    c4, _, c2, _, c0 = hom_space(E, d).c
    assert search_point(E, d, H) == search_point_oracle(
        c4, c2, c0, d, d * (a * a - 4 * b), H
    )


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


def test_search_point_results_satisfy_the_space_equation():
    # d w^2 = d^2 - 2 a d z^2 + (a^2 - 4b) z^4
    for E, d in ((Curve(6, 1, 0), 2), (Curve(-12, 32, 0), -1),
                 (Curve(-6, 12, 0), 6), (Curve(12, -12, 0), 3)):
        res = search_point(E, d, 8)
        assert res is not None and res != "infinity"
        z, w = res
        a, b = E.a2, E.a4
        assert d * w * w == d * d - 2 * a * d * z * z + (a * a - 4 * b) * z**4


def test_lift_point_examples():
    pair = isogenous_curve(Curve(6, 1, 0))
    L = lift_point(pair, 2, (Fraction(1, 2), Fraction(0)))
    assert L == pt(8, 0)
    assert on_curve(pair.Eprime, L)
    assert delta_class(pair.Eprime, L) == squarefree_part(2)


def test_lift_point_dual_direction():
    dual = isogenous_curve(Curve(-12, 32, 0))
    L = lift_point(dual, -1, (Fraction(1, 2), Fraction(2)))
    assert L == pt(-4, 16)
    assert on_curve(Curve(24, 16, 0), L)
    back = pt(L.x / 4, L.y / 8)
    assert back == pt(-1, 2)
    assert on_curve(Curve(6, 1, 0), back)


def test_lift_point_torsion_inputs_are_rejected():
    pair = isogenous_curve(Curve(6, 1, 0))
    with pytest.raises(TorsionImageError):
        lift_point(pair, 2, (Fraction(0), Fraction(1)))
    with pytest.raises(TorsionImageError):
        lift_point(pair, 32, "infinity")


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
    rep = descent_report(Curve(0, -68, 0), 20)
    E = Curve(0, -68, 0)
    for d in rep.image_phi:
        res = search_point(E, int(d), 20)
        assert res is not None


SIGNED_SQUAREFREE = [s * r for r in (1, 2, 3, 5, 6, 7, 10, 15, 21, 30, 105, 210) for s in (1, -1)]


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(SIGNED_SQUAREFREE), max_size=6))
def test_span_matches_fixed_point_closure(reps):
    span = _span({squarefree_part(r) for r in reps})
    assert {int(c) for c in span} == span_oracle(reps)
    # a span passes the closure check; without its largest class (never
    # the trivial one at size >= 4) the size is odd, so it cannot be closed
    SelmerSet(tuple(sorted(span)))
    if len(span) > 2:
        with pytest.raises(DescentError):
            SelmerSet(tuple(sorted(span - {max(span)})))
