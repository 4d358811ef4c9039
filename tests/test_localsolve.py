from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twodescent.arith import is_padic_square
from twodescent.localsolve import (
    LocalSolveError,
    QuarticForm,
    poly_disc,
    qp_soluble,
    r_soluble,
    zp_soluble,
)

from .oracles import (
    brute_mod_oracle,
    first_square_value,
    qp_soluble_two_pass_oracle,
    quartic_disc_oracle,
    r_soluble_oracle,
    real_soluble_oracle,
    reversed_form,
    zp_soluble_oracle,
)

SMALL_PRIMES = (2, 3, 5, 7, 17)

coeff = st.integers(min_value=-20, max_value=20)


def nonsingular_quartics():
    return (
        st.tuples(coeff, coeff, coeff, coeff, coeff)
        .filter(lambda c: c[0] != 0 and poly_disc(c) != 0)
        .map(QuarticForm)
    )


def test_quartic_form_validation():
    with pytest.raises(LocalSolveError):
        QuarticForm((0, 0, 0, 0, 0))
    with pytest.raises(LocalSolveError):
        QuarticForm((1, 2, 3))
    f = QuarticForm((0, 0, 1, 0, -2))
    assert f.degree == 2
    assert QuarticForm((3, 0, 0, 0, 1)).degree == 4


@pytest.mark.parametrize("c", [(1, 0, 0, 0, 2.5), (-1, 0, 0, 0, 2.5), (1, 0, 0, 0, True), (Fraction(1), 0, 0, 0, 2)])
def test_quartic_form_refuses_non_integer_coefficients(c):
    # (1, 0, 0, 0, 2.5) once made qp_soluble raise a bare TypeError, and
    # r_soluble answered on (-1, 0, 0, 0, 2.5)
    with pytest.raises(LocalSolveError, match="need five integer coefficients"):
        QuarticForm(c)


@pytest.mark.parametrize("c", [None, 5, [1, 0, 0, 0, 1]])
def test_quartic_form_refuses_coefficients_that_are_not_a_tuple(c):
    # None and 5 once raised a bare TypeError, and a list made a form
    # that could not be hashed
    with pytest.raises(LocalSolveError, match=r"need five integer coefficients in a tuple, not "):
        QuarticForm(c)


def test_quartic_form_evaluation_and_reverse():
    f = QuarticForm((64, 0, -48, 0, 8))
    assert f(Fraction(1, 2)) == 0
    assert f(0) == 8
    assert reversed_form(f).c == (8, 0, -48, 0, 64)
    assert reversed_form(f)(2) == 16 * f(Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(nonsingular_quartics())
def test_poly_disc_matches_reference(f):
    assert poly_disc(f.c) == quartic_disc_oracle(f.c)


def test_brute_oracle_congruence_obstruction_mod_eight():
    # w^2 = -16z^4 + 12z^2 - 2 reads 4z^2 + 6 mod 8: never a square mod 8
    f = QuarticForm((-16, 0, 12, 0, -2))
    assert brute_mod_oracle(f.c, 2, 3) == set()


def test_brute_oracle_trivial_square():
    f = QuarticForm((1, 0, 0, 0, 0))
    for p in (2, 3, 5):
        assert brute_mod_oracle(f.c, p, 1) == set(range(p))


def test_brute_oracle_norm_form_witness():
    # 1 - 31z^4 takes the square value 1 at z = 1 mod 31
    f = QuarticForm((-31, 0, 0, 0, 1))
    assert 1 in brute_mod_oracle(f.c, 31, 1)


def test_brute_oracle_budget():
    with pytest.raises(ValueError):
        brute_mod_oracle((1, 0, 0, 0, 1), 11, 8)


def _shifted_square_form(r, q, p, k, s1, s0):
    """(z - r)^2 * q(z) + p^k * (s1*z + s0): a double root mod p^k at r."""
    q2, q1, q0 = q
    m = p**k
    return (
        q2,
        q1 - 2 * r * q2,
        q0 - 2 * r * q1 + r * r * q2,
        r * r * q1 - 2 * r * q0 + m * s1,
        r * r * q0 + m * s0,
    )


small = st.integers(min_value=-6, max_value=6)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=-8, max_value=8),
    st.tuples(small.filter(bool), small, small),
    st.integers(min_value=0, max_value=6),
    small,
    small,
)
def test_zp_matches_worklist_oracle(p, r, q, k, s1, s0):
    c = _shifted_square_form(r, q, p, k, s1, s0)
    if c[4] == 0 or poly_disc(c) == 0:
        return
    f = QuarticForm(c)
    for g in (f, reversed_form(f)):
        assert bool(zp_soluble(g, p)) == zp_soluble_oracle(g.c, p)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11)),
    st.integers(min_value=-8, max_value=8),
    st.tuples(small.filter(bool), small, small),
    st.integers(min_value=0, max_value=4),
    small,
    small,
)
def test_zp_content_exactly_p_matches_worklist_oracle(p, r, q, k, s1, s0):
    # p times a form with a double root mod p^k: the depth-1 scan runs on
    # the cofactor, and only its roots go deeper
    g = _shifted_square_form(r, q, p, k, s1, s0)
    c = tuple(p * v for v in g)
    if c[4] == 0 or poly_disc(c) == 0 or all(v % p == 0 for v in g):
        return
    f = QuarticForm(c)
    for h in (f, reversed_form(f)):
        assert bool(zp_soluble(h, p)) == zp_soluble_oracle(h.c, p)


def test_zp_content_exactly_p_skips_the_nonroots():
    # z^4 + 1 has no root mod p = 3 (mod 4), so p*(z^4 + 1) is insoluble
    # at once: every class mod p has val f = 1
    p = 1000003
    f = QuarticForm((p, 0, 0, 0, p))
    t0 = time.perf_counter()
    assert not zp_soluble(f, p)
    assert time.perf_counter() - t0 < 2.0
    assert qp_soluble(f, p) == qp_soluble_two_pass_oracle(f, p)


def test_zp_lemma_seven_cases_at_two():
    # 4z^2 + 4z + 5 = 5 (mod 8) everywhere: both classes mod 2 split once,
    # since 5 = 1 (mod 4), and die at depth 2
    assert not zp_soluble(QuarticForm((0, 0, 4, 4, 5)), 2)
    # z^2 + z + 3 maps 0 mod 2 onto all odd 2-adic units (f'(0) = 1),
    # among them squares such as f(2) = 9
    v = zp_soluble(QuarticForm((0, 0, 1, 1, 3)), 2)
    assert v.soluble and v.witness.kind == "hensel"


def test_zp_insoluble_at_two():
    f = QuarticForm((-64, 0, -48, 0, -8))
    assert not zp_soluble(f, 2)
    assert not zp_soluble(reversed_form(f), 2)


def test_zp_soluble_with_immediate_witness():
    v = zp_soluble(QuarticForm((1, 0, 0, 0, 1)), 5)
    assert v.soluble
    assert v.witness.z == 0


def test_zp_odd_valuation_everywhere():
    # every value of 3z^4 + 3 has odd 3-adic valuation
    assert not zp_soluble(QuarticForm((3, 0, 0, 0, 3)), 3)


def test_zp_rejects_degenerate_input():
    with pytest.raises(LocalSolveError):
        zp_soluble(QuarticForm((0, 0, 0, 1, 2)), 3)
    with pytest.raises(LocalSolveError, match="zero discriminant"):
        zp_soluble(QuarticForm((1, 0, -2, 0, 1)), 5)  # (z^2-1)^2 has disc 0


@pytest.mark.parametrize("c", [(1, 0, 1, 0, 0), (1, 0, 2, 0, 1), (1, 0, -2, 0, 1)])
def test_qp_refuses_even_quartic_of_zero_discriminant_at_2(c):
    # z^4 + z^2 (C = 0), (z^2 + 1)^2 and (z^2 - 1)^2 (B^2 = 4AC)
    with pytest.raises(LocalSolveError, match="zero discriminant"):
        qp_soluble(QuarticForm(c), 2)


@pytest.mark.parametrize("p", [4, 6, 9, 15, 1, 0, -3, 3.0, True])
def test_a_p_that_is_not_a_prime_int_is_refused(p):
    # 4, 6, 9 and 15 once got verdicts, and 1 an error about the valuation base
    f = QuarticForm((1, 0, 0, 0, 3))
    for solve in (zp_soluble, qp_soluble):
        with pytest.raises(LocalSolveError, match=f"need a prime p, not {p!r}"):
            solve(f, p)


@pytest.mark.parametrize("solve", [
    lambda f: zp_soluble(f, 3), lambda f: qp_soluble(f, 3), r_soluble, lambda f: qp_soluble(f, 4),
], ids=["zp", "qp", "r", "qp-at-4"])
def test_a_form_that_is_not_a_quartic_form_is_refused(solve):
    # a bare coefficient tuple once raised AttributeError
    with pytest.raises(LocalSolveError, match=r"need a QuarticForm, not \(1, 0, 0, 0, 3\)"):
        solve((1, 0, 0, 0, 3))


# The verdicts of the public calls, with every witness kind and note:
# exact roots, square values and Hensel lifts, found directly and on the
# reversed form, points at infinity and insoluble forms, at p = 2 and odd
# p, with content p^0, p^1 and p^3, on general quartics (the poly_disc
# branch of the setup) and on the spaces C_d (the even closed form).
PINNED_WITNESSES = [
    ("qp", (-3, -3, -3, -3, 0), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(0, 1), note='f(0) = 0'))"),
    ("qp", (-375, -375, -375, -375, 0), 5,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(0, 1), note='f(0) = 0'))"),
    ("qp", (-81, -54, 27, 81, -27), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(1, 3), note='reversed form: f(3) = 0'))"),
    ("qp", (-8, -4, -4, 0, 2), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(1, 2), note='reversed form: f(2) = 0'))"),
    ("qp", (-8, 0, 6, 0, -1), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(1, 2), note='reversed form: f(2) = 0'))"),
    ("qp", (-3, -3, -3, 3, -3), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 4 mod 3^2'))"),
    ("qp", (-375, -375, -375, -125, -375), 5,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 9 mod 5^2'))"),
    ("qp", (-81, -54, -81, -81, -81), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='reversed form: f has a root on 3 mod 3^2'))"),
    ("qp", (-3, -2, -3, -1, -1), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='reversed form: f has a root on 0 mod 3^1'))"),
    ("qp", (-32, -28, -28, -20, 3), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='reversed form: f has a root on 0 mod 2^3'))"),
    ("qp", (-16, -12, -12, -8, 3), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='reversed form: f has a square value on 0 mod 2^3'))"),
    ("qp", (-4, -6, -6, -4, -6), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='reversed form: f has a square value on 0 mod 2^2'))"),
    ("qp", (-6, -6, -6, -4, -2), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 1 mod 2^2'))"),
    ("qp", (-3, -3, -3, -3, -2), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 0 mod 2^1'))"),
    ("qp", (-6, -6, -6, -6, -4), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a square value on 0 mod 2^2'))"),
    ("qp", (-3, -3, -3, -3, -3), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a square value on 0 mod 2^1'))"),
    ("qp", (625, -375, -375, -375, -250), 5,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_5'))"),
    ("qp", (-2, -3, -2, -3, -3), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_3'))"),
    ("qp", (1, -2, -3, -2, -3), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_2'))"),
    ("qp", (64, 0, -48, 0, 8), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_2'))"),
    ("qp", (-375, -375, -375, -375, -375), 5,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (-3, -3, -3, -3, -3), 3,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (-3, -2, -3, -2, -3), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (32, 0, 96, 0, 8), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (-375, -375, -375, -375, 625), 5,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_5'))"),
    ("qp", (-3, -3, -3, -3, -2), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_3'))"),
    ("qp", (-81, -54, -54, -27, -54), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(1, 3), note='reversed form: f(3) is a square in Q_3'))"),
    ("qp", (-3, -3, -3, -3, 1), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_2'))"),
    ("qp", (-4, -4, -4, -4, -6), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(1, 2), note='reversed form: f(2) is a square in Q_2'))"),
    ("qp", (-3, -2, -2, -2, -2), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(1, 2), note='reversed form: f(2) is a square in Q_2'))"),
    ("qp", (68, 0, 0, 0, -1), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_2'))"),
    ("qp", (68, 0, 0, 0, -1), 17,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_17'))"),
    ("qp", (-136, 0, 0, 0, 8), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 5 mod 2^4'))"),
    ("qp", (-136, 0, 0, 0, 8), 17,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_17'))"),
    ("qp", (1156, 0, 0, 0, -4913), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_2'))"),
    ("qp", (1156, 0, 0, 0, -4913), 17,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(1, 1), note='f(1) is a square in Q_17'))"),
    ("qp", (-2312, 0, 0, 0, 39304), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a square value on 5 mod 2^4'))"),
    ("qp", (-2312, 0, 0, 0, 39304), 17,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(1, 1), note='f(1) is a square in Q_17'))"),
    ("qp", (-8, 0, 0, 0, -1), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (16, 0, 0, 0, 8), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_2'))"),
    ("qp", (-16, 0, 0, 0, -8), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (64, 0, -48, 0, 8), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_2'))"),
    ("qp", (64, 0, -48, 0, 8), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 1 mod 3^1'))"),
    ("qp", (-64, 0, -48, 0, -8), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("qp", (-64, 0, -48, 0, -8), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_3'))"),
    ("qp", (-114244, 0, 0, 0, 2197), 13,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_13'))"),
    ("qp", (114244, 0, 0, 0, -2197), 13,
     "LocalVerdict(soluble=True, witness=Witness(kind='infinity', z=None, note='leading coefficient is a square in Q_13'))"),
    ("zp", (-3, -3, -3, -3, 0), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(0, 1), note='f(0) = 0'))"),
    ("zp", (-6, -6, -6, -6, 0), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='exact-root', z=Fraction(0, 1), note='f(0) = 0'))"),
    ("zp", (-3, -3, -3, 3, -3), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 4 mod 3^2'))"),
    ("zp", (-6, -6, -6, -4, -2), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a root on 1 mod 2^2'))"),
    ("zp", (-3, -3, -3, -3, -3), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a square value on 0 mod 2^1'))"),
    ("zp", (-375, -375, -375, -375, 625), 5,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_5'))"),
    ("zp", (-3, -3, -3, -3, 1), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(0, 1), note='f(0) is a square in Q_2'))"),
    ("zp", (-375, -375, -375, -375, -375), 5,
     "LocalVerdict(soluble=False, witness=None)"),
    ("zp", (-6, -6, -6, -6, -6), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("zp", (0, 0, 1, 1, 3), 2,
     "LocalVerdict(soluble=True, witness=Witness(kind='hensel', z=None, note='f has a square value on 0 mod 2^1'))"),
    ("zp", (0, 0, 4, 4, 5), 2,
     "LocalVerdict(soluble=False, witness=None)"),
    ("zp", (0, 1, 0, 3, 3), 3,
     "LocalVerdict(soluble=True, witness=Witness(kind='square-value', z=Fraction(1, 1), note='f(1) is a square in Q_3'))"),
    ("zp", (0, 0, 5, 0, 15), 5,
     "LocalVerdict(soluble=False, witness=None)"),
]


def test_public_witnesses_are_pinned():
    solve = {"qp": qp_soluble, "zp": zp_soluble}
    got = [(name, c, p, repr(solve[name](QuarticForm(c), p))) for name, c, p, _ in PINNED_WITNESSES]
    assert got == PINNED_WITNESSES


def test_qp_examples_at_two():
    assert not qp_soluble(QuarticForm((32, 0, 96, 0, 8)), 2)
    # z = 1/2 is a root, but the reversed form's value 16 at t = 0 is a
    # 2-adic square and is found first: the point at infinity
    v = qp_soluble(QuarticForm((64, 0, -48, 0, 8)), 2)
    assert v.soluble
    assert v.witness.kind == "infinity"


def test_qp_square_leading_coefficient_is_soluble():
    # 4z^4 + 3z^2 + 1 has no rational root but a square leading coefficient
    f = QuarticForm((4, 0, 3, 0, 1))
    for p in (2, 3, 7):
        assert qp_soluble(f, p).soluble


def test_qp_point_at_infinity_witness():
    # insoluble for z in Z_2 but the reversed form hits t = 0
    f = QuarticForm((1, 0, 0, 0, -2))
    v = qp_soluble(f, 2)
    assert v.soluble


def test_r_soluble_examples():
    assert r_soluble(QuarticForm((68, 0, 0, 0, -1)))
    assert not r_soluble(QuarticForm((-272, 0, 0, 0, -1)))
    assert r_soluble(QuarticForm((-1, 0, 2, 0, -1)))


def test_r_soluble_degree_edge_cases():
    assert r_soluble(QuarticForm((0, 0, 0, 1, -5)))
    assert not r_soluble(QuarticForm((0, 0, -1, 0, -1)))
    with pytest.raises(LocalSolveError):
        r_soluble(QuarticForm((0, 0, 0, 0, 3)))


@settings(max_examples=60, deadline=None)
@given(nonsingular_quartics())
def test_r_soluble_matches_reference(f):
    assert bool(r_soluble(f)) == real_soluble_oracle(f.c)


@settings(max_examples=80, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3),
       st.booleans())
def test_r_soluble_matches_reference_with_repeated_roots(r, s, t, m, square):
    # -m (z^2 + s z + t)^2 or -m (z - r)^2 (z^2 + s z + t): the Sturm
    # chain ends at a nonconstant gcd
    if square:
        c = (1, 2 * s, s * s + 2 * t, 2 * s * t, t * t)
    else:
        c = (1, s - 2 * r, t - 2 * r * s + r * r, r * r * s - 2 * r * t, r * r * t)
    c = tuple(-m * v for v in c)
    assert bool(r_soluble(QuarticForm(c))) == real_soluble_oracle(c)


def real_note(c: tuple[int, ...]) -> str:
    lead = next(v for v in c if v != 0)
    degree = 4 - c.index(lead)
    return ("positive leading coefficient" if lead > 0
            else "odd degree" if degree % 2 else "real root")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((20, 10**30)).flatmap(
    lambda b: st.tuples(*[st.integers(-b, b)] * 5)), st.integers(0, 3))
def test_r_soluble_matches_sturm_oracle(c, drop):
    # small and 30-digit coefficients, degree 4 down to 1
    c = (0,) * drop + c[drop:]
    assume(any(c[:4]))
    v = r_soluble(QuarticForm(c))
    assert v.soluble == r_soluble_oracle(c)
    if v.soluble:
        assert v.witness.kind == "real" and v.witness.note == real_note(c)
    else:
        assert v.witness is None


def poly_mul(*factors: tuple[int, ...]) -> tuple[int, ...]:
    out = (1,)
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        out = tuple(prod)
    return (0,) * (5 - len(out)) + out


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 40), st.integers(1, 5),
       st.integers(1, 4))
def test_r_soluble_on_planted_multiple_roots(r, s, k, t, m):
    # (t z - r) and (t z - s) are real linear factors, z^2 + k has no real root
    lin_r, lin_s, no_root = (t, -r), (t, -s), (1, 0, k)
    cases = [
        (poly_mul((-m,), no_root, no_root), False),         # -(z^2 + k)^2
        (poly_mul((-m,), lin_r, lin_r, no_root), True),     # -(z - r)^2 (z^2 + k)
        (poly_mul((-m,), lin_r, lin_r, (1, 0, -k)), True),  # two more real roots
        (poly_mul((-m,), lin_r, lin_r, lin_r, lin_r), True),  # -(z - r)^4
        (poly_mul((-m,), lin_r, lin_r, lin_r, lin_s), True),  # -(z - r)^3 (z - s)
        (poly_mul((-m,), lin_r, lin_r, lin_s, lin_s), True),  # two real double roots
        (poly_mul((-m,), lin_r, lin_r), True),              # degree 2, double root
        (poly_mul((-m,), lin_r, lin_s), True),              # degree 2, real roots
        (poly_mul((-m,), no_root), False),                  # degree 2, no real root
        (poly_mul((m,), no_root, no_root), True),
    ]
    for c, expected in cases:
        v = r_soluble(QuarticForm(c))
        assert v.soluble == expected == r_soluble_oracle(c), c
        if expected:
            assert v.witness.note == real_note(c)


@settings(max_examples=40, deadline=None)
@given(nonsingular_quartics(), st.sampled_from(SMALL_PRIMES), st.sampled_from((2, 3)))
def test_substitution_invariance(f, p, c):
    scaled = QuarticForm(tuple(v * c**i for i, v in enumerate(f.c)))
    assert bool(qp_soluble(f, p)) == bool(qp_soluble(scaled, p))


@settings(max_examples=40, deadline=None)
@given(nonsingular_quartics(), st.sampled_from(SMALL_PRIMES), st.sampled_from((2, 3, 6)))
def test_square_scaling_never_changes_verdicts(f, p, m):
    scaled = QuarticForm(tuple(m * m * v for v in f.c))
    assert bool(qp_soluble(f, p)) == bool(qp_soluble(scaled, p))
    assert bool(r_soluble(f)) == bool(r_soluble(scaled))


@settings(max_examples=50, deadline=None)
@given(nonsingular_quartics(), st.sampled_from(SMALL_PRIMES))
def test_affine_witnesses_are_exact(f, p):
    v = qp_soluble(f, p)
    if not v.soluble or v.witness.z is None:
        return
    z = v.witness.z
    value = f(z) * z.denominator**4
    assert value.denominator == 1
    if value != 0:
        assert is_padic_square(value.numerator, p)


@settings(max_examples=30, deadline=None)
@given(nonsingular_quartics(), st.sampled_from((2, 3, 5)))
def test_oracle_agreement_shallow(f, p):
    """The verdict equals the worklist oracle's on f or reversed_form(f), and a
    soluble form keeps a square value mod p^3 on one of them.
    """
    v = qp_soluble(f, p)
    oracle = [zp_soluble_oracle(g.c, p) for g in (f, reversed_form(f))]
    if v.soluble:
        assert any(oracle)
        assert (first_square_value(f.c, p, 3) is not None
                or first_square_value(reversed_form(f).c, p, 3) is not None)
    else:
        assert not any(oracle)


@settings(max_examples=60, deadline=None)
@given(nonsingular_quartics(), st.sampled_from(SMALL_PRIMES), st.integers(1, 3))
def test_p_squared_scaling_keeps_verdicts_and_witnesses(f, p, e):
    # p^(2e) f strips back to the coefficients f strips to
    scaled = QuarticForm(tuple(p ** (2 * e) * v for v in f.c))
    for solve in (zp_soluble, qp_soluble):
        assert solve(scaled, p) == solve(f, p)


def _verdict_or_error(solve, f, p):
    try:
        return solve(f, p)
    except LocalSolveError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 11, 13, 101, 1009, 1000003)),
    st.integers(min_value=-8, max_value=8),
    st.tuples(small.filter(bool), small, small),
    st.integers(min_value=0, max_value=4),
    small,
    small,
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
)
# draws the zero form: z^4 reversed is the constant 1, and dropping it leaves 0
@example(p=2, r=0, q=(1, 0, 0), k=0, s1=0, s0=0, content=0, at_infinity=True, no_constant=True)
def test_qp_matches_two_pass_oracle(p, r, q, k, s1, s0, content, at_infinity, no_constant):
    """One search of f and one of reversed_form(f) on t = 0 (mod p) give the
    verdict, witness or error of two whole searches: double roots planted
    in Z_p or at t = 0 (mod p), content p^0..p^3 and forms with f(0) = 0."""
    if p > 1009:
        # odd content at p = 1000003 scans all p residues in Python, about
        # 0.5 s a search and seconds with a split;
        # test_zp_content_exactly_p_skips_the_nonroots keeps one such case
        content -= content % 2
    c = _shifted_square_form(r * p if at_infinity else r, q, p, k, s1, s0)
    if at_infinity:
        c = c[::-1]
    if no_constant:
        c = c[:4] + (0,)
    assume(any(c))
    f = QuarticForm(tuple(p**content * v for v in c))
    assert _verdict_or_error(qp_soluble, f, p) == _verdict_or_error(
        qp_soluble_two_pass_oracle, f, p)
