from __future__ import annotations

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twodescent.arith import (
    ArithError,
    Factorization,
    SquareClass,
    ONE,
    divisors,
    factorize,
    is_padic_square,
    is_prime,
    legendre,
    quartic_residue_exp,
    quartic_residue_gauss,
    sieve_primes,
    squarefree_part,
    two_squares,
    val,
)

from .oracles import factor_oracle, qr_set, quartic_set, two_squares_brute

ODD_PRIMES = [p for p in sieve_primes(300) if p > 2]

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)


def test_val_known_values():
    assert val(-314432, 2) == 6
    assert val(17, 2) == 0
    assert val(32, 2) == 5
    assert val(-314432, 17) == 3


def test_val_of_zero_rejected():
    with pytest.raises(ArithError):
        val(0, 2)


def test_factorize_known_values():
    f = factorize(314432)
    assert f.sign == 1
    assert f.factors == ((2, 6), (17, 3))
    assert factorize(18496).factors == ((2, 6), (17, 2))
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_sign_and_zero():
    assert factorize(-12).sign == -1
    assert factorize(-12).factors == ((2, 2), (3, 1))
    with pytest.raises(ArithError):
        factorize(0)


@settings(max_examples=120, deadline=None)
@given(nonzero_ints)
def test_factorize_round_trips_and_agrees_with_reference(n):
    f = factorize(n)
    assert f.value() == n
    assert all(is_prime(p) for p in f.primes())
    assert list(f.primes()) == sorted(f.primes())
    assert {p: e for p, e in f.factors} == factor_oracle(n)


LARGE_PRIMES = (999983, 1000003, 2**31 - 1, 10**12 + 39)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from((2, 3, 5, 7, 997)), max_size=4),
       st.sampled_from(LARGE_PRIMES), st.integers(1, 4), st.sampled_from((1, -1)))
def test_factorize_settles_large_prime_square_and_cube_cofactors(small, q, e, sign):
    n = sign * q**e * math.prod(small)
    assume(abs(n) < 10**24)  # inside the deterministic primality test
    assert {p: k for p, k in factorize(n).factors} == factor_oracle(n)
    assert factorize(n).sign == sign


def test_factorize_discriminant_shapes_skip_the_trial_walk():
    # 64*D^3 and 16*D^2 with D prime near 10**6: trial division alone
    # walks about 266000 candidates for each (tens of milliseconds);
    # settling the cube or square root first takes well under one
    t0 = time.perf_counter()
    for q in (999983, 999979, 999961, 999959, 999953):
        assert factorize(64 * q**3).factors == ((2, 6), (q, 3))
        assert factorize(-16 * q**2).factors == ((2, 4), (q, 2))
    # a cube whose root is composite: the root is factored the same way
    assert factorize(64 * (1009 * 999983) ** 3).factors == ((2, 6), (1009, 3), (999983, 3))
    assert time.perf_counter() - t0 < 0.1
    # two primes past the trial bound still reach rho
    n = 49 * 1000003 * 1000033
    assert factorize(n).factors == ((7, 2), (1000003, 1), (1000033, 1))


def test_divisors_small():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_squarefree_part_known_values():
    assert int(squarefree_part(32)) == 2
    assert int(squarefree_part(-68)) == -17
    assert int(squarefree_part(1)) == 1
    assert int(squarefree_part(-1)) == -1


@settings(max_examples=150, deadline=None)
@given(nonzero_ints)
def test_squarefree_part_quotient_is_a_square(n):
    r = int(squarefree_part(n))
    q, rem = divmod(n, r)
    assert rem == 0
    s = math.isqrt(q)
    assert s * s == q
    # and r itself carries no square factor
    assert all(e == 1 for _, e in factorize(r).factors)


@settings(max_examples=100, deadline=None)
@given(nonzero_ints, nonzero_ints)
def test_square_class_multiplication_is_squarefree_product(x, y):
    prod = squarefree_part(x) * squarefree_part(y)
    assert prod == squarefree_part(x * y)


@settings(max_examples=100, deadline=None)
@given(nonzero_ints)
def test_square_class_is_self_inverse(n):
    cls = squarefree_part(n)
    assert cls * cls == ONE


def test_square_class_constructors():
    with pytest.raises(ArithError):
        SquareClass(0)
    with pytest.raises(ArithError):
        squarefree_part(0)
    # the normalizing constructor reduces; the raw one trusts its input
    assert squarefree_part(4) == ONE
    assert squarefree_part(-2) == SquareClass(-2)


def test_legendre_known_values():
    assert legendre(2, 7) == 1
    assert legendre(-1, 5) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ArithError):
        legendre(3, 2)
    with pytest.raises(ArithError):
        legendre(3, 15)


def test_legendre_matches_brute_tables_below_100():
    for p in ODD_PRIMES:
        if p >= 100:
            break
        residues = qr_set(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert legendre(a, p) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(-500, 500), st.integers(-500, 500), st.sampled_from(ODD_PRIMES))
def test_legendre_is_completely_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.sampled_from(ODD_PRIMES))
def test_quadratic_reciprocity(p, q):
    if p == q:
        return
    sign = -1 if (p % 4 == 3 and q % 4 == 3) else 1
    assert legendre(p, q) * legendre(q, p) == sign


def test_is_padic_square_at_two():
    assert is_padic_square(17, 2)
    assert not is_padic_square(8, 2)
    assert not is_padic_square(-4, 2)
    assert is_padic_square(4, 2)


def test_is_padic_square_odd_primes():
    assert is_padic_square(2, 7)
    assert not is_padic_square(3, 7)
    assert is_padic_square(9 * 49, 3)
    assert not is_padic_square(3, 3)


def test_is_padic_square_rejects_composite_modulus():
    # the modulus is checked before the valuation, whatever its parity
    for n, p in ((4, 9), (15, 15), (3, 1)):
        with pytest.raises(ArithError):
            is_padic_square(n, p)


@settings(max_examples=80, deadline=None)
@given(nonzero_ints, st.sampled_from([2, 3, 5, 7, 13]))
def test_padic_square_consistent_with_actual_squares(n, p):
    assert is_padic_square(n * n, p)


def test_quartic_residue_exp_known_values():
    assert not quartic_residue_exp(2, 17)
    assert quartic_residue_exp(2, 73)
    assert quartic_residue_exp(1, 13)


def test_quartic_residue_exp_matches_enumeration():
    for p in (5, 13, 17, 29, 37, 41, 73, 89, 97):
        quartics = quartic_set(p)
        for a in range(1, p):
            assert quartic_residue_exp(a, p) == (a in quartics)


def test_quartic_residue_exp_rejects_bad_input():
    with pytest.raises(ArithError):
        quartic_residue_exp(17, 17)
    with pytest.raises(ArithError):
        quartic_residue_exp(2, 7)


def test_two_squares_known_values():
    assert two_squares(5) == (1, 2)
    assert two_squares(17) == (1, 4)
    assert two_squares(73) == (3, 8)


def test_two_squares_rejects_wrong_residue():
    with pytest.raises(ArithError):
        two_squares(7)


def test_two_squares_normalization_and_uniqueness():
    for p in ODD_PRIMES:
        if p % 4 != 1:
            continue
        a, b = two_squares(p)
        assert a * a + b * b == p
        assert a % 2 == 1 and b % 2 == 0
        assert a > 0 and b > 0
        assert (a, b) == two_squares_brute(p)


def test_two_squares_product_divisible_by_four_when_one_mod_eight():
    for p in ODD_PRIMES:
        if p % 8 == 1:
            a, b = two_squares(p)
            assert a * b % 4 == 0


def test_quartic_residue_gauss_known_values():
    assert not quartic_residue_gauss(17)
    assert quartic_residue_gauss(73)
    assert quartic_residue_gauss(113)


def test_quartic_residue_gauss_rejects_wrong_residue():
    with pytest.raises(ArithError):
        quartic_residue_gauss(5)


def test_gauss_criterion_equals_exponent_test_small_range():
    for p in sieve_primes(3000):
        if p % 8 == 1:
            assert quartic_residue_gauss(p) == quartic_residue_exp(2, p)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(91)
    # beyond the trial bound: a 12-digit prime and a semiprime
    assert is_prime(1000000000039)
    assert not is_prime(1000003 * 1000033)


def test_sieve_matches_is_prime():
    assert sieve_primes(50) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
