"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration, textbook
formulas, or sympy.  Nothing imports from twodescent, so a bug in the
package cannot hide in its own oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy


def factor_oracle(n: int) -> dict[int, int]:
    return {int(p): int(e) for p, e in sympy.factorint(abs(n)).items()}


@lru_cache(maxsize=None)
def qr_set(p: int) -> frozenset[int]:
    """Nonzero quadratic residues mod an odd prime p, by squaring everything."""
    return frozenset(x * x % p for x in range(1, p))


@lru_cache(maxsize=None)
def quartic_set(p: int) -> frozenset[int]:
    return frozenset(pow(x, 4, p) for x in range(1, p))


def two_squares_brute(p: int) -> tuple[int, int]:
    for a in range(1, p):
        if a * a > p:
            break
        rest = p - a * a
        b = sympy.integer_nthroot(rest, 2)[0]
        if b * b == rest and a % 2 == 1 and b % 2 == 0:
            return a, b
    raise ValueError(f"no odd/even two-squares split of {p}")


def squarefree_brute(n: int) -> int:
    """Largest squarefree divisor of |n|, with the sign of n."""
    out = 1 if n > 0 else -1
    for p, e in factor_oracle(n).items():
        if e % 2 == 1:
            out *= p
    return out


# ---------------------------------------------------------------------------
# Weierstrass arithmetic from scratch (Fractions, affine formulas only).
# Points are None (infinity) or (x, y) tuples.


def o_rhs(coeffs: tuple[int, int, int], x: Fraction) -> Fraction:
    a2, a4, a6 = coeffs
    return ((x + a2) * x + a4) * x + a6


def o_on_curve(coeffs, P) -> bool:
    if P is None:
        return True
    x, y = P
    return y * y == o_rhs(coeffs, x)


def o_neg(P):
    if P is None:
        return None
    return (P[0], -P[1])


def o_add(coeffs, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    a2 = coeffs[0]
    if x1 == x2 and y1 == -y2:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + coeffs[1]) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def o_mul(coeffs, m: int, P):
    acc = None
    for _ in range(m):
        acc = o_add(coeffs, acc, P)
    return acc


def o_order(coeffs, P, cap: int = 16) -> int | None:
    """Order of P if at most cap, else None."""
    acc = None
    for k in range(1, cap + 1):
        acc = o_add(coeffs, acc, P)
        if acc is None:
            return k
    return None


def count_points_brute(coeffs: tuple[int, int, int], q: int) -> int:
    a2, a4, a6 = coeffs
    squares: dict[int, int] = {}
    for y in range(q):
        squares[y * y % q] = squares.get(y * y % q, 0) + 1
    total = 1
    for x in range(q):
        v = (((x + a2) * x + a4) * x + a6) % q
        total += squares.get(v, 0)
    return total


def torsion_invariants_brute(coeffs: tuple[int, int, int]) -> list[int]:
    """Abelian invariants of the torsion subgroup, via the integral-point
    criterion: finite order forces y = 0 or y^2 | disc.
    """
    a2, a4, a6 = coeffs
    disc = int(sympy.Poly([1, a2, a4, a6], sympy.Symbol("x")).discriminant()) * 16
    if disc == 0:
        raise ValueError("singular model")
    pts = []
    for y in [0] + [y for y in range(1, sympy.integer_nthroot(abs(disc), 2)[0] + 1)
                    if disc % (y * y) == 0]:
        target = y * y
        poly = sympy.Poly([1, a2, a4, a6 - target], sympy.Symbol("x"))
        for r in poly.ground_roots():
            if r.is_integer:
                x = int(r)
                for yy in ({0} if y == 0 else {y, -y}):
                    P = (Fraction(x), Fraction(yy))
                    if o_order(coeffs, P) is not None:
                        pts.append(P)
    pts = sorted(set(pts))
    n = len(pts) + 1
    if n == 1:
        return []
    two = sum(1 for P in pts if P[1] == 0)
    if two <= 1:
        return [n]
    return [2, n // 2]


def quartic_disc_oracle(c: tuple[int, int, int, int, int]) -> int:
    z = sympy.Symbol("z")
    return int(sympy.Poly(list(c), z).discriminant())


def real_soluble_oracle(c: tuple[int, int, int, int, int]) -> bool:
    """Whether f(z) >= 0 somewhere on the real line."""
    z = sympy.Symbol("z")
    f = sympy.Poly(list(c), z)
    lead = next(v for v in c if v != 0)
    if lead > 0:
        return True
    return len(f.real_roots()) > 0


# ---------------------------------------------------------------------------
# Residue search with early exit; cheap enough for depth-6 oracle sweeps.


@lru_cache(maxsize=None)
def _square_residues(p: int, k: int) -> frozenset[int]:
    m = p**k
    return frozenset(w * w % m for w in range(m // 2 + 1))


def first_square_value(c: tuple[int, ...], p: int, k: int) -> int | None:
    """Smallest z mod p^k with f(z) a square mod p^k, or None."""
    m = p**k
    sq = _square_residues(p, k)
    cs = [v % m for v in c]
    for z in range(m):
        acc = 0
        for v in cs:
            acc = (acc * z + v) % m
        if acc in sq:
            return z
    return None


def survivors(c: tuple[int, ...], p: int, k: int) -> list[int]:
    """All z mod p^k with f(z) a square mod p^k."""
    m = p**k
    sq = _square_residues(p, k)
    cs = [v % m for v in c]
    out = []
    for z in range(m):
        acc = 0
        for v in cs:
            acc = (acc * z + v) % m
        if acc in sq:
            out.append(z)
    return out


def val_oracle(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# p-adic solubility of y^2 = f(z), z in Z_p, by the plain residue-class
# worklist: a class z = r (mod p^k) is settled by an exact root, by a
# Hensel root (val f(r) > 2 val f'(r)), or, once k - val f(r) reaches 1
# (3 at p = 2), by the square class of f(r); otherwise it splits.


def brute_mod_oracle(c: tuple[int, ...], p: int, k: int) -> set[int]:
    """Residues r mod p^k with f(r) congruent to a square mod p^k.

    Exhaustive; the modulus is capped at 10**7.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    pk = p**k
    if pk > 10**7:
        raise ValueError("modulus too large for the brute oracle")
    squares = bytearray(pk)
    for w in range(pk // 2 + 1):
        squares[w * w % pk] = 1
    cs = [v % pk for v in c]
    out = set()
    for r in range(pk):
        acc = 0
        for v in cs:
            acc = (acc * r + v) % pk
        if squares[acc]:
            out.add(r)
    return out


def padic_square_oracle(n: int, p: int) -> bool:
    k = val_oracle(n, p)
    u = n // p**k
    if k % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def zp_soluble_oracle(c: tuple[int, ...], p: int) -> bool:
    """Whether y^2 = f(z) has z in Z_p; f has nonzero discriminant."""
    n = len(c) - 1

    def f(z: int) -> int:
        acc = 0
        for v in c:
            acc = acc * z + v
        return acc

    def df(z: int) -> int:
        acc = 0
        for i, v in enumerate(c[:-1]):
            acc = acc * z + (n - i) * v
        return acc

    m = min(val_oracle(v, p) for v in c if v != 0)
    c = tuple(v // p ** (2 * (m // 2)) for v in c)
    th = 3 if p == 2 else 1
    work = [(r, 1) for r in range(p)]
    while work:
        r, k = work.pop()
        v = f(r)
        if v == 0:
            return True
        e = val_oracle(v, p)
        d = df(r)
        if d != 0 and e > 2 * val_oracle(d, p):
            return True
        if k - e >= th:
            if padic_square_oracle(v, p):
                return True
            continue
        work.extend((r + j * p**k, k + 1) for j in range(p))
    return False
