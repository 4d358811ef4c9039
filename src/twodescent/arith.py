"""Exact integer number theory for the descent engine.

Valuations, deterministic factorization, square classes, residue symbols
and the two-squares decomposition of primes p = 1 (mod 4).  Everything
here is exact integer arithmetic; nothing rounds and nothing overflows.

Factoring policy: trial division by divisors up to 2**10; what is left
past them is settled as a prime, or as a square or cube factored through
its root, or else split by Pollard rho, and every piece rho splits off
is settled or split the same way.  Primality is a deterministic
Miller-Rabin test on the prime bases 2..41, proven exact below
3.317 * 10**24; above it a witness still proves compositeness and a
number passing every base is refused.  When the rho budget runs out the
code raises instead of guessing, because descent correctness depends on
complete factorizations.
"""

from __future__ import annotations

import math
from functools import total_ordering
from itertools import compress

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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Miller-Rabin with the witnesses 2..41 is exact below psi_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017).
_MR_VALID_BELOW = 3317044064679887385961981


def _check_int(*ns) -> None:
    """Refuse anything but an int: a float or a bool once answered as the int it equals."""
    for n in ns:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ArithError(f"need an integer, not {n!r}")


def val(n: int, p: int) -> int:
    """Largest k with p**k dividing n.  n must be nonzero, p >= 2."""
    _check_int(n, p)
    return _val(n, p)


def _val(n: int, p: int) -> int:
    """val for ints n and p the caller has checked."""
    if n == 0:
        raise ArithError("valuation of zero is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1
    if p < 2:
        raise ArithError("valuation base must be at least 2")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses a non-integer n, and an n >= 3.317e24 passing every base."""
    _check_int(n)
    return _is_prime(n)


def _is_prime(n: int) -> bool:
    """is_prime for an int n."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = _val(n - 1, 2)
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_VALID_BELOW:
        raise ArithError(f"{n} passes every witness but is too large for the deterministic witness set")
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    _check_int(limit)
    flags = _sieve_flags(limit)
    return [2, *compress(range(3, len(flags), 2), flags[3::2])] if limit >= 2 else []


def _sieve_flags(limit: int) -> bytearray:
    """Byte n is 1 exactly when n is prime, for 0 <= n <= max(limit, 1)."""
    flags = bytearray(b"\x01") * (max(limit, 1) + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(max(limit, 0)) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray((limit - i * i) // i + 1)
    return flags


class Record:
    """Base of the frozen value records: what @dataclass(frozen=True) gives,
    without the import cost of dataclasses.

    A subclass declares annotated fields, trailing ones with defaults, and
    gets __init__ (which ends by calling self.__post_init__() if the class
    has one), and __eq__ and __hash__ on the tuple of fields within one
    class.  They are compiled once per class, and __init__ sets each field
    with object.__setattr__, as _of does; a method the class defines itself
    is kept.  Fields cannot be assigned.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        args = ", ".join(f"{n}=_d.{n}" if n in cls.__dict__ else n for n in names)
        mine, theirs = (f"({''.join(f'{a}.{n}, ' for n in names)})" for a in ("self", "other"))
        src = [f"def __init__(self, {args}):", *(f" _set(self, {n!r}, {n})" for n in names),
               " self.__post_init__()" if hasattr(cls, "__post_init__") else " pass",
               f"def __hash__(self): return hash({mine})",
               "def __eq__(self, other):",
               f" return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented"]
        ns = {"_d": cls, "_set": object.__setattr__}
        exec("\n".join(src), ns)
        for name in ("__init__", "__hash__", "__eq__"):
            if name not in cls.__dict__:
                setattr(cls, name, ns[name])

    @classmethod
    def _of(cls, *values):
        """An instance of fields the engine built right, unchecked; set one by one, they build no __dict__."""
        out = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(out, name, value)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Factorization(Record):
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
    _check_int(n)
    if n == 0:
        raise ArithError("cannot factor zero")
    found: dict[int, int] = {}
    _factor_into(abs(n), 1, found)
    return Factorization(1 if n > 0 else -1, tuple(sorted(found.items())))


# Trial division stops past this divisor, and rho splits what is left
# (on products of three primes above 5000, 2**10 beat 2**12 by a fifth).
_RHO_FROM = 2**10
# 2, 3, 5, 7, then the steps between candidates coprime to 30 (from index 3)
_STEPS = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)


def _settle(m: int, e: int, found: dict[int, int]) -> bool:
    """True when m is prime (recorded) or a square or cube (factored
    through its root); False otherwise.  A prime too large for is_prime
    is refused there."""
    if _is_prime(m):
        found[m] = found.get(m, 0) + e
        return True
    for k, r in ((2, math.isqrt(m)), (3, _cube_root_exact(m))):
        if r is not None and r**k == m:
            _factor_into(r, k * e, found)
            return True
    return False


def _factor_into(m: int, e: int, found: dict[int, int]) -> None:
    """Add the primes of m >= 1 to found, each exponent times e.

    Trial division while d^2 <= m and d <= _RHO_FROM.  A cofactor below
    d^2 is 1 or prime; any other goes on a stack where each entry is
    settled as a prime, square or cube, or else split by Pollard rho.
    """
    d, w = 2, 0
    while d * d <= m and d <= _RHO_FROM:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            found[d] = found.get(d, 0) + k * e
        d += _STEPS[w]
        w = w + 1 if w < 10 else 3
    if d * d > m:
        if m > 1:
            found[m] = found.get(m, 0) + e
        return
    budget = [2 * 10**6]
    stack = [m]
    while stack:
        c = stack.pop()
        if not _settle(c, e, found):
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


@total_ordering
class SquareClass(Record):
    """An element of Q*/(Q*)^2 as a signed squarefree integer.

    Ordering sorts by absolute value, negatives before positives within
    the same magnitude, so {-1, 1, -2, 2} prints in that order.
    """

    rep: int

    def __init__(self, rep: int):
        if type(rep) is not int:
            raise ArithError(f"need an integer rep, not {rep!r}")
        if rep == 0:
            raise ArithError("square class of zero is undefined")
        object.__setattr__(self, "rep", rep)

    def __lt__(self, other: "SquareClass") -> bool:
        if other.__class__ is not SquareClass:
            return NotImplemented
        return (abs(self.rep), self.rep) < (abs(other.rep), other.rep)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if other.__class__ is not SquareClass:
            return NotImplemented
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


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a residue a modulo an odd prime p the caller has
    proved, by Tonelli-Shanks (Cohen, Algorithm 1.5.1)."""
    a %= p
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = 2
    while _euler(z, p) != -1:
        z += 1
    y, x, b = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b not in (0, 1):
        m, b2 = 1, b * b % p
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % p
        t = pow(y, 1 << (e - m - 1), p)
        y = t * t % p
        x, b, e = x * t % p, b * y % p, m
    return x


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    _check_int(a, p)
    if p == 2 or not _is_prime(p):
        raise ArithError("legendre symbol needs an odd prime modulus")
    return _euler(a, p)


def is_padic_square(n: int, p: int) -> bool:
    """Whether n != 0 is a square in the field of p-adic numbers.

    Even valuation, and the unit part a residue: a quadratic residue mod
    p for odd p, congruent to 1 mod 8 for p = 2.
    """
    _check_int(n, p)
    if n == 0:
        raise ArithError("zero has no square class")
    if p != 2 and not _is_prime(p):
        raise ArithError("need a prime p")
    k = _val(n, p)
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
    _check_int(a, p)
    if p % 4 != 1 or not _is_prime(p):
        raise ArithError("need a prime p = 1 (mod 4)")
    if a % p == 0:
        raise ArithError("a must be coprime to p")
    if _euler(a, p) != 1:
        return False
    return pow(a % p, (p - 1) // 4, p) == 1


def two_squares(p: int) -> tuple[int, int]:
    """Write a prime p = 1 (mod 4) as A^2 + B^2 with A odd, B even, both > 0.

    Cornacchia's descent from a square root of -1 mod p yields the
    unique decomposition.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ArithError("need a prime p = 1 (mod 4)")
    return _two_squares(p)


def _two_squares(p: int) -> tuple[int, int]:
    """two_squares for a prime p = 1 (mod 4) the caller has proved."""
    a, b = _cornacchia(p, 1, _sqrt_mod(-1, p))
    return (b, a) if a % 2 == 0 else (a, b)


def _cornacchia(q: int, c: int, root: int) -> tuple[int, int]:
    """(u, v), both >= 0, with u^2 + c*v^2 = q, or -q for c < 0, from a
    square root of -c mod a prime q: the Euclidean remainders of q and
    root stop at the first u below sqrt(q) (Cohen, Algorithm 1.5.2)."""
    r0, u = q, root
    while u * u > q:
        r0, u = u, r0 % u
    n = q if c > 0 else -q  # for c = -2, u < sqrt(q) leaves u^2 - 2v^2 = -q
    v = math.isqrt((n - u * u) // c)
    if u * u + c * v * v != n:
        raise ArithError(f"{q} is not represented by x^2 + {c}y^2")
    return u, v


def quartic_residue_gauss(p: int) -> bool:
    """Whether 2 is a quartic residue mod p = 1 (mod 8), by the A*B test.

    With p = A^2 + B^2, A odd, B even: 2 is a fourth power mod p exactly
    when A*B = 0 (mod 8).
    """
    if p % 8 != 1:
        raise ArithError("need a prime p = 1 (mod 8)")
    a, b = two_squares(p)
    return a * b % 8 == 0
