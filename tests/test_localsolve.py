from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodescent.arith import is_padic_square, val
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
    quartic_disc_oracle,
    real_soluble_oracle,
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


def test_quartic_form_evaluation_and_reverse():
    f = QuarticForm((64, 0, -48, 0, 8))
    assert f(Fraction(1, 2)) == 0
    assert f(0) == 8
    assert f.reverse().c == (8, 0, -48, 0, 64)
    assert f.reverse()(2) == 16 * f(Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(nonsingular_quartics())
def test_poly_disc_matches_reference(f):
    assert f.disc() == quartic_disc_oracle(f.c)


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
    for g in (f, f.reverse()):
        assert bool(zp_soluble(g, p)) == zp_soluble_oracle(g.c, p)


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
    assert not zp_soluble(f.reverse(), 2)


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
    with pytest.raises(LocalSolveError):
        zp_soluble(QuarticForm((1, 0, -2, 0, 1)), 5)  # (z^2-1)^2 has disc 0


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
    """Nonempty residue sets must persist for soluble forms; insoluble forms
    must lose every residue at some depth (checked to 4 here, 6 in the
    acceptance sweep).
    """
    v = qp_soluble(f, p)
    if v.soluble:
        assert (first_square_value(f.c, p, 3) is not None
                or first_square_value(f.reverse().c, p, 3) is not None)
    else:
        for g in (f, f.reverse()):
            empty = False
            for k in range(1, 5):
                if first_square_value(g.c, p, k) is None:
                    empty = True
                    break
            if not empty:
                # survivors this shallow are fine; the acceptance test
                # inspects them for Hensel certificates at depth 6
                assert first_square_value(g.c, p, 4) is not None


def test_strip_square_content_preserves_verdicts():
    f = QuarticForm((64, 0, -48, 0, 8))
    g = f.strip_square_content(2)
    assert val(g.c[0], 2) < 2 or val(g.c[4], 2) < 2
    assert bool(zp_soluble(f, 2)) == bool(zp_soluble(g, 2))
