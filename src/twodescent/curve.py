"""Integral Weierstrass models y^2 = x^3 + a2*x^2 + a4*x + a6.

Exact rational group law, point counting over small prime fields, and
torsion computation: a torsion point of such a model is integral; halving
gives the points of 2-power order, the integer roots of f_3, f_5, f_7 and
thirds of a point of order 3 the odd ones, and sums all the others.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math

from .arith import Record, is_prime, sieve_primes

__all__ = [
    "CurveError",
    "SingularModel",
    "Curve",
    "Pt",
    "INFINITY",
    "pt",
    "discriminant",
    "j_invariant",
    "on_curve",
    "add",
    "neg",
    "count_points_mod",
    "TorsionGroup",
    "torsion_subgroup",
    "from_cubic_const",
]

# Orders of the rational torsion groups that can occur: cyclic of order
# 1..10 or 12, and Z/2 x Z/2M for M = 1..4.
_ALLOWED_CYCLIC = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}
_ALLOWED_SPLIT = {4, 8, 12, 16}
_MAX_TORSION_ORDER = 12


class CurveError(ValueError):
    pass


class SingularModel(CurveError):
    pass


class Curve(Record):
    a2: int
    a4: int
    a6: int

    def __post_init__(self):
        for c in (self.a2, self.a4, self.a6):
            if not isinstance(c, int) or isinstance(c, bool):
                raise CurveError("coefficients must be integers")
        if discriminant(self) == 0:
            raise SingularModel(f"singular model ({self.a2}, {self.a4}, {self.a6})")

    def rhs(self, x: Fraction) -> Fraction:
        return ((x + self.a2) * x + self.a4) * x + self.a6


class Pt(Record):
    """A rational point: affine (x, y), or the point at infinity (None, None)."""

    x: Fraction | None
    y: Fraction | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Pt(None, None)


def pt(x, y) -> Pt:
    return Pt(Fraction(x), Fraction(y))


def discriminant(E: Curve) -> int:
    b2 = 4 * E.a2
    b4 = 2 * E.a4
    b6 = 4 * E.a6
    b8 = 4 * E.a2 * E.a6 - E.a4 * E.a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def j_invariant(E: Curve) -> Fraction:
    """j = c4^3 / disc, with c4 = b2^2 - 24 b4 = 16 (a2^2 - 3 a4)."""
    return Fraction((16 * (E.a2 * E.a2 - 3 * E.a4)) ** 3, discriminant(E))


def on_curve(E: Curve, P: Pt) -> bool:
    if not (isinstance(E, Curve) and isinstance(P, Pt)):
        raise CurveError(f"need a Curve and a Pt, not {E!r} and {P!r}")
    return P.is_infinity or P.y * P.y == E.rhs(P.x)


def _require_on_curve(E: Curve, P: Pt) -> None:
    if not on_curve(E, P):
        raise CurveError(f"point {P} is not on the curve")


def neg(E: Curve, P: Pt) -> Pt:
    _require_on_curve(E, P)
    if P.is_infinity:
        return P
    return Pt(P.x, -P.y)


def add(E: Curve, P: Pt, Q: Pt) -> Pt:
    """Chord-tangent sum with the point at infinity as identity."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent line at P = Q
        lam = (3 * P.x * P.x + 2 * E.a2 * P.x + E.a4) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - E.a2 - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return Pt(x3, y3)


def count_points_mod(E: Curve, q: int) -> int:
    """Exact order of the reduction mod an odd prime q of good reduction.

    q + 1 + sum over x of the quadratic character of x^3+a2*x^2+a4*x+a6.
    """
    if not isinstance(E, Curve):
        raise CurveError(f"need a Curve, not {E!r}")
    if q == 2 or not is_prime(q):
        raise CurveError("need an odd prime")
    if q > 10**6:
        raise CurveError("need q <= 10^6: count_points_mod sums over all of F_q")
    if discriminant(E) % q == 0:
        raise CurveError(f"bad reduction at {q}")
    return _count_points(q, E.a2 % q, E.a4 % q, E.a6 % q)


@lru_cache(maxsize=64)
def _character(q: int) -> tuple[int, ...]:
    """The quadratic character mod the odd prime q, as a table."""
    squares = {w * w % q for w in range(1, q)}
    return tuple(0 if x == 0 else 1 if x in squares else -1 for x in range(q))


@lru_cache(maxsize=4096)
def _count_points(q: int, a2: int, a4: int, a6: int) -> int:
    """count_points_mod from the coefficients mod q, which it depends on only."""
    # torsion and the E_p filters read q < 100; a larger q keeps no q-entry table
    chi = _character(q) if q < 2**12 else _character.__wrapped__(q)
    return q + 1 + sum(chi[(((x + a2) * x + a4) * x + a6) % q] for x in range(q))


@lru_cache(maxsize=8)
def _odd_primes(limit: int) -> tuple[int, ...]:
    return tuple(sieve_primes(limit)[1:])


def _good_odd_primes(E: Curve, k: int) -> list[int]:
    """The first k odd primes not dividing the discriminant."""
    disc, limit = discriminant(E), 64
    while len(out := [q for q in _odd_primes(limit) if disc % q]) < k:
        limit *= 4
    return out[:k]


def _pmul(f: list[int], g: list[int]) -> list[int]:
    """Product of polynomials given by coefficients from the constant up."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _psub(f: list[int], g: list[int]) -> list[int]:
    """f - g for polynomials of the same formal degree."""
    return [a - b for a, b in zip(f, g, strict=True)]


def _odd_poly(E: Curve, m: int, x0: int | None = None) -> list[int]:
    """The x of the points P with mP = O != P are the roots of f_m = psi_m, m = 3, 5, 7; given
    the x0 of a point Q of order m = 3, the x of the P with 3P = +-Q are those of the monic nonic
    (x - x0) f_3^2 - F f_4, the numerator of x(3P) - x0 = x - psi_2 psi_4 / psi_3^2 - x0.  From
    F = psi_2^2, f_3 and f_4 = psi_4 / psi_2 (AEC, Ex. 3.7): f_5 = F^2 f_4 - f_3^3 and
    f_7 = f_5 f_3^3 - F^2 f_4^3."""
    b2, b4, b6, b8 = 4 * E.a2, 2 * E.a4, 4 * E.a6, 4 * E.a2 * E.a6 - E.a4 * E.a4
    F, f3 = [b6, 2 * b4, b2, 4], [b8, 3 * b6, 3 * b4, b2, 3]
    f4 = [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]
    if m == 3:
        return f3 if x0 is None else _psub(_pmul([-x0, 1], _pmul(f3, f3)), _pmul(F, f4))
    F2, f3_3 = _pmul(F, F), _pmul(f3, _pmul(f3, f3))
    f5 = _psub(_pmul(F2, f4), f3_3)
    return f5 if m == 5 else _psub(_pmul(f5, f3_3), _pmul(F2, _pmul(f4, _pmul(f4, f4))))


def _horner(f: list[int], x: int, n: int) -> tuple[int, int]:
    """f(x) and f'(x) mod n, in one pass."""
    v = d = 0
    for c in reversed(f):
        d = (d * x + v) % n
        v = (v * x + c) % n
    return v, d


def _integer_roots(f: list[int], q: int) -> list[int]:
    """Integer roots of f, ascending, for f squarefree mod the odd prime q
    with a leading coefficient prime to q.  Every root has |x| < 2^(k+1),
    k the largest ceil(bits(c_(d-i)) / i) (Fujiwara).  Newton lifts each
    simple root mod q past 2^(k+2); the symmetric residue is the only
    integer it can be, and is tested exactly."""
    k = max(-(-abs(c).bit_length() // i) for i, c in enumerate(reversed(f[:-1]), 1))
    roots, fq = [], [c % q for c in f]
    for r in range(q):
        if _horner(fq, r, q)[0]:
            continue
        n = q
        while n.bit_length() <= k + 2:
            n *= n
            v, d = _horner(f, r, n)
            r = (r - v * pow(d, -1, n)) % n
        if 2 * r > n:
            r -= n
        if sum(c * r**i for i, c in enumerate(f)) == 0:
            roots.append(r)
    return sorted(roots)


def _points_at(E: Curve, xs) -> list[tuple[int, int]]:
    """The integral points (x, +-y) over the integers xs."""
    out = []
    for x in xs:
        y = math.isqrt(max(v := E.rhs(x), 0))
        if y * y == v:
            out += [(x, y), (x, -y)] if y else [(x, 0)]
    return out


def _sum(E: Curve, P: tuple[int, int], Q: tuple[int, int]) -> tuple[int, int]:
    """P + Q for torsion points of coprime orders: integral (Nagell-Lutz), so the slope is an integer."""
    (x1, y1), (x2, y2) = P, Q
    lam = (y2 - y1) // (x2 - x1)
    return (x3 := lam * lam - E.a2 - x1 - x2), lam * (x1 - x3) - y1


def _multiples(E: Curve, x1: int, y1: int, cap: int) -> list[tuple[int, int]] | None:
    """P, 2P, ..., (o - 1)P if the integral point P = (x1, y1) has order o <= cap, else None.

    A non-integral multiple proves infinite order for an integral model,
    so the scan stops early on one, in integers: a chord or tangent slope
    that is not an integer makes the next x non-integral.
    """
    out = [(x1, y1)]
    while len(out) < cap:
        x, y = out[-1]
        if x == x1 and y == -y1:
            return out
        num, den = (3 * x * x + 2 * E.a2 * x + E.a4, 2 * y) if x == x1 else (y - y1, x - x1)
        if num % den:
            return None
        lam = num // den
        x3 = lam * lam - E.a2 - x - x1
        out.append((x3, lam * (x - x3) - y))
    return None


class TorsionGroup(Record):
    structure: str  # "trivial", "Z{n}", or "Z2xZ{2m}"
    generators: tuple[Pt, ...]
    points: tuple[Pt, ...]  # every torsion point, infinity included

    @property
    def order(self) -> int:
        return len(self.points)

    def invariants(self) -> list[int]:
        """Abelian invariants, ascending; [] for the trivial group."""
        if self.structure == "trivial":
            return []
        if self.structure.startswith("Z2xZ"):
            return [2, int(self.structure[4:])]
        return [int(self.structure[1:])]


def torsion_subgroup(E: Curve) -> TorsionGroup:
    """Exact rational torsion with verified generators.  Its order divides the gcd of the
    counts mod six good primes; each partial gcd is a multiple of |E(Q)_tors|, itself one of
    |E[2](Q)|, so one equal to |E[2](Q)| is final.  Else halving gives the 2-power points,
    roots of f_3, f_5, f_7 and thirds of a point of order 3 the odd ones, and sums all the others."""
    if not isinstance(E, Curve):
        raise CurveError(f"need a Curve, not {E!r}")
    a2, a4, a6 = E.a2, E.a4, E.a6
    # E[2](Q) - O if a6 = 0: x(x^2 + a2 x + a4) is 0 at 0, and at (-a2 +- s)/2 if a2^2 - 4 a4 = s^2
    s = math.isqrt(max(disc := a2 * a2 - 4 * a4, 0))
    two = [] if a6 else [(x, 0) for x in sorted((0, (s - a2) // 2, (-s - a2) // 2))] if s * s == disc else [(0, 0)]
    primes, bound = _good_odd_primes(E, 6), 0
    for q in primes:
        bound = math.gcd(bound, _count_points(q, a2 % q, a4 % q, a6 % q))
        if bound == len(two) + 1:
            return _torsion_group(E, two, bound)
    two = _points_at(E, _integer_roots([a6, a4, a2, 1], primes[0])) if a6 and bound % 2 == 0 else two
    part2, odd = list(two), []  # the 2-part: T = (e, 0) halves to x = e +- r, r^2 = f'(e)
    for e, _ in two if bound % 4 == 0 else ():
        r = math.isqrt(max(d := (3 * e + 2 * a2) * e + a4, 0))
        part2 += _points_at(E, (e - r, e + r)) if r * r == d else []
    # Q = (x0, y0) of order 4 halves to x(2P) = x0 (AEC III.2.3(d)): 4 roots, distinct mod q
    for x0 in sorted({x for x, y in part2 if y}) if bound % 8 == 0 else ():  # no order 16
        g = [a4 * a4 - 4 * a6 * (a2 + x0), -4 * (2 * a6 + a4 * x0), -2 * (a4 + 2 * a2 * x0), -4 * x0, 1]
        part2 += _points_at(E, _integer_roots(g, primes[0]))
    for m in (3, 5, 7):  # the odd part: q is good and prime to m, so f_m is squarefree mod q
        if bound % m == 0:
            q = next(q for q in primes if m % q)
            odd += (pts := _points_at(E, _integer_roots(_odd_poly(E, m), q)))
            # a point of order 9 is a third of one of order 3, by a monic nonic squarefree mod q != 3
            for x0 in sorted({x for x, _ in pts}) if m == 3 and bound % 9 == 0 else ():
                odd += _points_at(E, _integer_roots(_odd_poly(E, 3, x0), q))
    cands = part2 + odd + [_sum(E, P, Q) for P in part2 for Q in odd]
    return _torsion_group(E, cands, bound)


def _torsion_group(E: Curve, cands: list[tuple[int, int]], bound: int) -> TorsionGroup:
    """The group of the finite-order points among the integer pairs cands."""
    # order computation revisits small multiples; cheap at this scale
    multiples = {P: ms for P in cands if (ms := _multiples(E, *P, _MAX_TORSION_ORDER)) is not None}
    n = len(multiples) + 1
    if bound % n != 0:
        raise CurveError("torsion enumeration disagrees with the reduction bound")
    if n == 1:
        return TorsionGroup("trivial", (), (INFINITY,))
    pts = {P: pt(*P) for P in sorted(multiples, key=lambda P: (abs(P[0]), P[0], abs(P[1]), -P[1]))}
    points = (INFINITY, *pts.values())
    orders = {P: len(multiples[P]) + 1 for P in pts}
    max_order = max(orders.values())
    gen = next(P for P, o in orders.items() if o == max_order)
    two_torsion = [P for P, o in orders.items() if o == 2]
    if len(two_torsion) <= 1:
        if max_order != n or n not in _ALLOWED_CYCLIC:
            raise CurveError(f"unexpected torsion shape of order {n}")
        return TorsionGroup(f"Z{n}", (pts[gen],), points)
    if len(two_torsion) != 3 or n not in _ALLOWED_SPLIT or 2 * max_order != n:
        raise CurveError(f"unexpected torsion shape of order {n}")
    half = multiples[gen][max_order // 2 - 1]  # the order-2 point inside <gen>
    second = next(P for P in two_torsion if P != half)
    return TorsionGroup(f"Z2xZ{max_order}", (pts[gen], pts[second]), points)


def from_cubic_const(c: int) -> Curve:
    """The shift of y^2 = x^3 + c^3 into descent shape.

    Substituting x -> x - c turns y^2 = x^3 + c^3 into
    y^2 = x^3 - 3c*x^2 + 3c^2*x, which has (0, 0) as a 2-torsion point.
    Points map back by (x, y) -> (x - c, y).
    """
    if not isinstance(c, int) or isinstance(c, bool) or c == 0:
        raise CurveError(f"need a nonzero integer c, not {c!r}")
    return Curve(-3 * c, 3 * c * c, 0)

