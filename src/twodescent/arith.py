"""Exact integer number theory for the descent engine.

Valuations, deterministic factorization, square classes, residue symbols
and the two-squares decomposition of primes p = 1 (mod 4).  Everything
here is exact integer arithmetic; nothing rounds and nothing overflows.

Factoring policy: trial division through 10**6, stopping early when the
cofactor is a prime, square or cube, then Pollard rho with a
deterministic Miller-Rabin primality test (witness set valid below
3.3 * 10**24).  When the budget runs out the code raises instead of
guessing, because descent correctness depends on complete
factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ArithError",
    "UnfactoredCofactor",
    "Factorization",
    "SquareClass",
    "ONE",
    "val",
    "is_prime",
    "sieve_primes",
    "factorize",
    "divisors",
    "squarefree_part",
    "legendre",
    "is_padic_square",
    "quartic_residue_exp",
    "two_squares",
    "quartic_residue_gauss",
]


class ArithError(ValueError):
    """Invalid input to a number-theory routine."""


class UnfactoredCofactor(ArithError):
    """The factoring budget ran out; refusing to guess."""


_TRIAL_BOUND = 10**6
# Deterministic Miller-Rabin witnesses, valid for all n < 3.317 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_VALID_BELOW = 3317044064679887385961981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def val(n: int, p: int) -> int:
    """Largest k with p**k dividing n.  n must be nonzero, p >= 2."""
    if n == 0:
        raise ArithError("valuation of zero is infinite")
    if p < 2:
        raise ArithError("valuation base must be at least 2")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_VALID_BELOW:
        raise ArithError("number too large for the deterministic witness set")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray((limit - i * i) // i + 1)
    return [i for i, f in enumerate(flags) if f]


@dataclass(frozen=True)
class Factorization:
    """sign * product(p**e) with primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _rho_split(n: int, budget: list[int]) -> int:
    """Find a nontrivial factor of odd composite n (Brent's cycle walk).

    Deterministic: polynomial offsets c = 1, 2, ... in order.  Decrements
    the shared iteration budget and raises when it runs out.
    """
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(128, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= m
                if budget[0] <= 0:
                    raise UnfactoredCofactor(f"unfactored cofactor {n}")
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget[0] -= 1
                if budget[0] <= 0:
                    raise UnfactoredCofactor(f"unfactored cofactor {n}")
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise UnfactoredCofactor(f"unfactored cofactor {n}")


def factorize(n: int) -> Factorization:
    """Exact signed factorization of n != 0.

    Raises UnfactoredCofactor rather than returning a wrong or partial
    answer when a cofactor resists the rho splitter.
    """
    if n == 0:
        raise ArithError("cannot factor zero")
    found: dict[int, int] = {}
    _factor_into(abs(n), 1, found)
    return Factorization(1 if n > 0 else -1, tuple(sorted(found.items())))


# Below this, finishing by trial division is cheaper than a primality test.
_SETTLE_FROM = 10**6
# 2, 3, 5, 7, then the steps between candidates coprime to 30 (from index 3)
_STEPS = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)


def _settle(m: int, e: int, found: dict[int, int]) -> bool:
    """True for m = 1, or m >= _SETTLE_FROM that is prime (recorded) or
    a square or cube (factored through its root); False otherwise."""
    if m < _SETTLE_FROM:
        return m == 1
    if m < _MR_VALID_BELOW and is_prime(m):
        found[m] = found.get(m, 0) + e
        return True
    for k, r in ((2, math.isqrt(m)), (3, _cube_root_exact(m))):
        if r is not None and r**k == m:
            _factor_into(r, k * e, found)
            return True
    return False


def _factor_into(m: int, e: int, found: dict[int, int]) -> None:
    """Add the primes of m >= 1 to found, each exponent times e.

    The cofactor is settled at the start and after each prime removed,
    so a large prime, square or cube cofactor ends trial division early.
    Otherwise trial division goes on to 10**6, then Pollard rho.
    """
    if _settle(m, e, found):
        return
    d, w = 2, 0
    while d <= _TRIAL_BOUND and d * d <= m:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            found[d] = found.get(d, 0) + k * e
            if _settle(m, e, found):
                return
        d += _STEPS[w]
        w = w + 1 if w < 10 else 3
    if d * d > m:
        found[m] = found.get(m, 0) + e
        return
    budget = [2 * 10**6]
    stack = [m]
    while stack:
        c = stack.pop()
        if is_prime(c):
            found[c] = found.get(c, 0) + e
        else:
            g = _rho_split(c, budget)  # 1 < g < c
            stack += [g, c // g]


def _cube_root_exact(n: int):
    """The integer c with c^3 = n, or None; Newton's method from above."""
    m = abs(n)
    c = 1 << -(-m.bit_length() // 3)
    while c > 0:
        d = (2 * c + m // (c * c)) // 3
        if d >= c:
            break
        c = d
    if c**3 != m:
        return None
    return c if n >= 0 else -c


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n != 0."""
    fac = factorize(abs(n))
    out = [1]
    for p, e in fac.factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@dataclass(frozen=True, order=True)
class SquareClass:
    """An element of Q*/(Q*)^2 as a signed squarefree integer.

    Ordering sorts by absolute value, negatives before positives within
    the same magnitude, so {-1, 1, -2, 2} prints in that order.
    """

    sort_index: tuple[int, int]
    rep: int

    def __init__(self, rep: int):
        if rep == 0:
            raise ArithError("square class of zero is undefined")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "sort_index", (abs(rep), rep))

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        # reps are squarefree, so shared primes appear squared in the product
        g = math.gcd(self.rep, other.rep)
        return SquareClass(self.rep * other.rep // (g * g))

    def __int__(self) -> int:
        return self.rep

    def __repr__(self) -> str:
        return f"SquareClass({self.rep})"


ONE = SquareClass(1)


def squarefree_part(n: int) -> SquareClass:
    """The square class of n: sign(n) times the primes of odd valuation."""
    if n == 0:
        raise ArithError("square class of zero is undefined")
    fac = factorize(n)
    rep = fac.sign
    for p, e in fac.factors:
        if e % 2 == 1:
            rep *= p
    return SquareClass(rep)


def _euler(a: int, p: int) -> int:
    """(a/p) by Euler's criterion, for an odd prime p the caller has proved."""
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ArithError("legendre symbol needs an odd prime modulus")
    return _euler(a, p)


def is_padic_square(n: int, p: int) -> bool:
    """Whether n != 0 is a square in the field of p-adic numbers.

    Even valuation, and the unit part a residue: a quadratic residue mod
    p for odd p, congruent to 1 mod 8 for p = 2.
    """
    if n == 0:
        raise ArithError("zero has no square class")
    if p != 2 and not is_prime(p):
        raise ArithError("need a prime p")
    k = val(n, p)
    if k % 2 == 1:
        return False
    u = n // p**k
    if p == 2:
        return u % 8 == 1
    return _euler(u, p) == 1


def quartic_residue_exp(a: int, p: int) -> bool:
    """Whether x**4 = a (mod p) is solvable, for p = 1 (mod 4).

    Quadratic-residue precheck, then the exponent test a**((p-1)/4) = 1.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ArithError("need a prime p = 1 (mod 4)")
    if a % p == 0:
        raise ArithError("a must be coprime to p")
    if _euler(a, p) != 1:
        return False
    return pow(a % p, (p - 1) // 4, p) == 1


def two_squares(p: int) -> tuple[int, int]:
    """Write a prime p = 1 (mod 4) as A^2 + B^2 with A odd, B even, both > 0.

    A square root of -1 mod p is found by exponentiating a non-residue;
    the Euclidean remainder cascade below sqrt(p) then yields the unique
    decomposition.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ArithError("need a prime p = 1 (mod 4)")
    c = 2
    while _euler(c, p) != -1:
        c += 1
    x = pow(c, (p - 1) // 4, p)
    r0, r1 = p, x
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    a = r1
    b = math.isqrt(p - a * a)
    if a * a + b * b != p:
        raise ArithError(f"two-squares descent failed for {p}")
    if a % 2 == 0:
        a, b = b, a
    return a, b


def quartic_residue_gauss(p: int) -> bool:
    """Whether 2 is a quartic residue mod p = 1 (mod 8), by the A*B test.

    With p = A^2 + B^2, A odd, B even: 2 is a fourth power mod p exactly
    when A*B = 0 (mod 8).
    """
    if p % 8 != 1:
        raise ArithError("need a prime p = 1 (mod 8)")
    a, b = two_squares(p)
    return a * b % 8 == 0
