from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twodescent.arith import (
    ArithError,
    Factorization,
    SquareClass,
    ONE,
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

from twodescent.curve import Curve, count_points_mod
from twodescent.families import edx_torsion, ep_rank, ep_rank_sha_dim, ep_selmer, ep_table

from .oracles import (
    divisors_oracle,
    factor_oracle,
    qr_set,
    quartic_set,
    two_squares_brute,
    val_oracle,
)

ODD_PRIMES = [p for p in sieve_primes(300) if p > 2]

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)


def test_val_known_values():
    assert val(-314432, 2) == 6
    assert val(17, 2) == 0
    assert val(32, 2) == 5
    assert val(-314432, 17) == 3


@settings(max_examples=150, deadline=None)
@given(st.integers(-10**40, 10**40).filter(bool), st.integers(0, 70), st.sampled_from((2, 3, 7)))
def test_val_agrees_with_repeated_division(n, k, p):
    # p = 2 reads the lowest set bit, negative n included
    assert val(n * p**k, p) == val_oracle(n * p**k, p)


def test_val_of_zero_rejected():
    with pytest.raises(ArithError):
        val(0, 2)


NON_INTEGER_CALLS = [
    (is_prime, (7.0,)),
    (factorize, (12.0,)),
    (ep_rank_sha_dim, (13.0,)),
    (edx_torsion, (4.0,)),
    (count_points_mod, (Curve(0, 1, 0), 5.0)),
    (ep_rank, (17.0,)),
    (ep_selmer, (13.0,)),
    (legendre, (3, 7.0)),
    (two_squares, (13.0,)),
    (quartic_residue_exp, (2, 17.0)),
    (quartic_residue_gauss, (17.0,)),
    (ep_table, (30.0,)),
]


@pytest.mark.parametrize("f, args", NON_INTEGER_CALLS, ids=[f.__name__ for f, _ in NON_INTEGER_CALLS])
def test_a_non_integer_argument_is_a_typed_refusal(f, args):
    # a float that equals an integer once gave a wrong factorization, a
    # rank and a torsion group, or a bare TypeError
    with pytest.raises(ValueError, match="need an integer"):
        f(*args)


# a float once gave a wrong valuation (val(2.5, 3) read 0), a wrong p-adic
# verdict or a bare TypeError, and a bool answered as the int it equals
UNTYPED_CALLS = {
    "val-float": (val, (2.5, 3)),
    "val-bool": (val, (True, 3)),
    "legendre-float": (legendre, (2.5, 7)),
    "legendre-bool": (legendre, (True, 7)),
    "is_padic_square-float": (is_padic_square, (2.5, 7)),
    "is_padic_square-float-p": (is_padic_square, (17, 2.0)),
    "quartic_residue_exp-float": (quartic_residue_exp, (2.5, 17)),
    "factorize-bool": (factorize, (True,)),
    "squarefree_part-bool": (squarefree_part, (True,)),
    "is_prime-bool": (is_prime, (True,)),
    "sieve_primes-float": (sieve_primes, (2.5,)),
}


@pytest.mark.parametrize("f, args", UNTYPED_CALLS.values(), ids=UNTYPED_CALLS)
def test_a_float_or_bool_argument_is_an_arith_refusal(f, args):
    with pytest.raises(ArithError, match="need an integer"):
        f(*args)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(10**3, 10**9), st.integers(10**3, 10**9),
       st.sampled_from((1, 2, 12, 77, 2**5 * 3)), st.sampled_from((1, -1)))
def test_factorize_semiprime_cofactors_agree_with_reference(x, y, small, sign):
    p, q = sympy.nextprime(x), sympy.nextprime(y)
    n = sign * small * p * q
    assert {p: k for p, k in factorize(n).factors} == factor_oracle(n)
    assert factorize(n).sign == sign


def test_factorize_semiprime_cofactor_skips_the_trial_walk():
    # p*q with both primes near 10**6: past 2**10 rho splits the cofactor
    # at once; the walk to the trial bound took about 80 ms for each of these
    t0 = time.perf_counter()
    for p, q in ((1000003, 1000033), (999983, 1000003), (1000037, 1000039),
                 (999979, 1999993)):
        assert factorize(4 * p * q).factors == ((2, 2), (p, 1), (q, 1))
    assert time.perf_counter() - t0 < 0.1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(10**3, 3 * 10**6), min_size=3, max_size=4),
       st.sampled_from((1, 2, 12, 77, 2**5 * 3)), st.sampled_from((1, -1)))
# a cofactor of about 3.317e24, above the witness bound, that rho must split
@example(xs=[1008263, 1487201, 1487251, 1487251], small=1, sign=1)
def test_factorize_cofactors_of_three_or_more_primes_agree_with_reference(xs, small, sign):
    # repeated primes too: nextprime maps nearby x to the same prime
    n = sign * small * math.prod(sympy.nextprime(x) for x in xs)
    assert {p: k for p, k in factorize(n).factors} == factor_oracle(n)
    assert factorize(n).sign == sign


def test_factorize_three_prime_cofactors_leave_the_trial_walk_early():
    # three primes near 10**6: the walk to the trial bound took about
    # 140 ms for each; rho takes over past 2**10
    for n in (1000003**2 * 1000033, 1000003 * 1000033 * 1000037):
        t0 = time.perf_counter()
        assert factorize(n).value() == n
        assert time.perf_counter() - t0 < 0.01


def test_factorize_rho_splits_10007_from_a_cofactor_above_the_witness_bound():
    # the cofactor 10007 * (2**31 - 1) * (10**12 + 39), about 2.1 * 10**25, is
    # above psi_13, where is_prime only proves compositeness, and its least
    # prime 10007 is past 2**10: rho splits it off
    n = 3**40 * 10007 * (2**31 - 1) * (10**12 + 39)
    assert factorize(n).factors == ((3, 40), (10007, 1), (2**31 - 1, 1), (10**12 + 39, 1))


@pytest.mark.parametrize("n", [1000003 * (2**61 - 1) ** 3, 1009 * 1000003 * (2**61 - 1) ** 2],
                         ids=["r*P^3", "r*s*P^2"])
def test_factorize_settles_a_square_or_cube_that_rho_splits_off(n):
    # rho splits off 1000003, then P^3 or P^2 (P = 2**61 - 1) is settled
    # through its root: rho itself cannot split P^k within its budget
    t0 = time.perf_counter()
    assert {p: k for p, k in factorize(n).factors} == factor_oracle(n)
    assert time.perf_counter() - t0 < 0.1


# the first prime after 10**26, far above psi_13
PAST_PSI13 = 100000000000000000000000067


@pytest.mark.parametrize("n", [PAST_PSI13, 2 * PAST_PSI13, 15 * PAST_PSI13, PAST_PSI13**2],
                         ids=["P", "2P", "15P", "P^2"])
def test_factorize_refuses_a_prime_past_the_witness_bound_at_once(n):
    # trial division stops at 2**10, and the first primality test on
    # what is left refuses P
    t0 = time.perf_counter()
    with pytest.raises(ArithError, match=f"^{PAST_PSI13} passes every witness"):
        factorize(n)
    assert time.perf_counter() - t0 < 0.01


def test_divisors_small():
    assert divisors_oracle(12) == [1, 2, 3, 4, 6, 12]
    assert divisors_oracle(-12) == [1, 2, 3, 4, 6, 12]
    assert divisors_oracle(1) == [1]


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


@pytest.mark.parametrize("rep", [2.5, 3.0, True, False, Fraction(3)])
def test_square_class_refuses_a_rep_that_is_not_an_int(rep):
    # SquareClass(2.5) once built, and SquareClass(True) * SquareClass(3)
    # equalled SquareClass(3)
    with pytest.raises(ArithError, match="need an integer rep"):
        SquareClass(rep)


@pytest.mark.parametrize("other", [3, 3.0, Fraction(3), None])
def test_square_class_times_a_non_square_class_is_a_type_error(other):
    # SquareClass(5) * 3 once raised AttributeError on 3's missing rep
    with pytest.raises(TypeError):
        SquareClass(5) * other
    with pytest.raises(TypeError):
        other * SquareClass(5)


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
    # above the witness bound a witness still proves compositeness, and
    # a number that passes every base is refused
    assert not is_prime(1000000000039 * 10000000000037)
    with pytest.raises(ArithError):
        is_prime(4000000000000000000000027)


def test_is_prime_refusal_names_n():
    n = sympy.nextprime(10**26)
    with pytest.raises(ArithError, match=f"^{n} passes every witness but is too large"):
        is_prime(n)


def test_sieve_matches_is_prime():
    assert sieve_primes(50) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# psi_k: the least strong pseudoprime to the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_is_prime_rejects_each_least_strong_pseudoprime():
    for psi in PSI[:12]:
        assert not sympy.isprime(psi) and not is_prime(psi)
    # psi_13 fools the witnesses 2..41: the test refuses it rather than answer
    assert not sympy.isprime(PSI[12])
    with pytest.raises(ArithError):
        is_prime(PSI[12])
    assert factorize(PSI[11]).factors == ((399165290221, 1), (798330580441, 1))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PSI), st.integers(-10**5, 10**5))
def test_is_prime_agrees_with_sympy_around_each_pseudoprime(psi, offset):
    n = psi + offset | 1
    assume(n < PSI[12])
    assert is_prime(n) == sympy.isprime(n)
