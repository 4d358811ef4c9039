"""Integral Weierstrass models y^2 = x^3 + a2*x^2 + a4*x + a6.

Exact rational group law, point counting over small prime fields, and
torsion computation by the integral-point criterion (a torsion point of
such a model has integer coordinates with y = 0 or y^2 dividing the
discriminant), confirmed by order checks and the good-reduction bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .arith import divisors, is_prime

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
    "mul",
    "count_points_mod",
    "torsion_order_bound",
    "TorsionGroup",
    "torsion_subgroup",
    "from_cubic_const",
    "shift_x",
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


@dataclass(frozen=True)
class Curve:
    a2: int
    a4: int
    a6: int

    def __post_init__(self):
        for c in (self.a2, self.a4, self.a6):
            if not isinstance(c, int):
                raise CurveError("coefficients must be integers")
        if discriminant(self) == 0:
            raise SingularModel(f"singular model ({self.a2}, {self.a4}, {self.a6})")

    def rhs(self, x: Fraction) -> Fraction:
        return ((x + self.a2) * x + self.a4) * x + self.a6


@dataclass(frozen=True)
class Pt:
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
    """j-invariant for the shape y^2 = x^3 + A*x + B (a2 must be zero)."""
    if E.a2 != 0:
        raise CurveError("j_invariant supports a2 = 0 models only")
    return Fraction(-1728 * (4 * E.a4) ** 3, discriminant(E))


def on_curve(E: Curve, P: Pt) -> bool:
    if P.is_infinity:
        return True
    return P.y * P.y == E.rhs(P.x)


def _require_on_curve(E: Curve, P: Pt) -> None:
    if not on_curve(E, P):
        raise CurveError(f"point {P} is not on the curve")


def neg(E: Curve, P: Pt) -> Pt:
    _require_on_curve(E, P)
    if P.is_infinity:
        return P
    return Pt(P.x, -P.y)


def _add_raw(E: Curve, P: Pt, Q: Pt) -> Pt:
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


def add(E: Curve, P: Pt, Q: Pt) -> Pt:
    """Chord-tangent sum with the point at infinity as identity."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    return _add_raw(E, P, Q)


def mul(E: Curve, m: int, P: Pt) -> Pt:
    """m-fold sum by double and add; negative m through negation."""
    _require_on_curve(E, P)
    if m < 0:
        m, P = -m, Pt(P.x, -P.y) if not P.is_infinity else P
    R = INFINITY
    B = P
    while m:
        if m & 1:
            R = _add_raw(E, R, B)
        B = _add_raw(E, B, B)
        m >>= 1
    return R


def count_points_mod(E: Curve, q: int) -> int:
    """Exact order of the reduction mod an odd prime q of good reduction.

    q + 1 + sum over x of the quadratic character of x^3+a2*x^2+a4*x+a6.
    """
    if q == 2 or not is_prime(q):
        raise CurveError("need an odd prime")
    if discriminant(E) % q == 0:
        raise CurveError(f"bad reduction at {q}")
    sq = bytearray(q)
    for w in range(q // 2 + 1):
        sq[w * w % q] = 1
    a2, a4, a6 = E.a2 % q, E.a4 % q, E.a6 % q
    n = q + 1
    for x in range(q):
        fx = (((x + a2) * x + a4) * x + a6) % q
        if fx == 0:
            continue  # one point, matching the q+1 baseline
        n += 1 if sq[fx] else -1
    return n


def _good_odd_primes(E: Curve, k: int) -> list[int]:
    disc = discriminant(E)
    out: list[int] = []
    q = 3
    while len(out) < k:
        if is_prime(q) and disc % q != 0:
            out.append(q)
        q += 2
    return out


def torsion_order_bound(E: Curve, k: int) -> int:
    """gcd of group orders mod the first k good odd primes.

    Reduction mod a good odd prime is injective on torsion, so the
    result is a multiple of the rational torsion order.
    """
    if k < 1:
        raise CurveError("need k >= 1")
    g = 0
    for q in _good_odd_primes(E, k):
        g = math.gcd(g, count_points_mod(E, q))
        if g == 1:
            break
    return g


def _integer_roots_monic_cubic(c2: int, c1: int, c0: int) -> list[int]:
    """Integer roots of f = x^3 + c2*x^2 + c1*x + c0, ascending.

    f is monotone between its critical points (-c2 -+ sqrt(c2^2 - 3*c1))/3,
    which lie strictly between k - 1 and k + 1 for k = (-c2 -+ isqrt)//3.
    Those k are tested directly; each monotone piece in between, inside
    the Cauchy bound |x| < 1 + max |c_i|, by integer bisection.
    """

    def f(x: int) -> int:
        return ((x + c2) * x + c1) * x + c0

    B = 1 + max(abs(c2), abs(c1), abs(c0))
    disc = c2 * c2 - 3 * c1
    roots = set()
    pieces = [(-B, B, 1)]
    if disc > 0:
        s = math.isqrt(disc)
        k1, k2 = (-c2 - s) // 3, (-c2 + s) // 3
        roots = {k for k in (k1, k2) if f(k) == 0}
        pieces = [(-B, k1 - 1, 1), (k1 + 1, k2 - 1, -1), (k2 + 1, B, 1)]
    for lo, hi, sign in pieces:
        # sign * f increases on [lo, hi]: find its least x with value >= 0
        if lo > hi or sign * f(lo) > 0 or sign * f(hi) < 0:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if f(lo) == 0:
            roots.add(lo)
    return sorted(roots)


def _torsion_candidates(E: Curve) -> list[Pt]:
    """Superset of the nonzero torsion points, by the integral criterion."""
    cands: list[Pt] = []
    for x in _integer_roots_monic_cubic(E.a2, E.a4, E.a6):
        cands.append(pt(x, 0))
    disc = discriminant(E)
    ys = [y for y in divisors(disc) if disc % (y * y) == 0]
    for y in ys:
        for x in _integer_roots_monic_cubic(E.a2, E.a4, E.a6 - y * y):
            cands.append(pt(x, y))
            cands.append(pt(x, -y))
    return cands


def _order_up_to(E: Curve, P: Pt, cap: int) -> int | None:
    """Order of the affine point P if at most cap, else None.

    A non-integral multiple proves infinite order for an integral model,
    so the scan stops early on one.  Invariant: R = m*P at loop top.
    """
    R = P
    m = 1
    while m <= cap:
        if R.is_infinity:
            return m
        if R.x.denominator != 1 or R.y.denominator != 1:
            return None
        R = _add_raw(E, R, P)
        m += 1
    return None


@dataclass(frozen=True)
class TorsionGroup:
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


def _point_sort_key(P: Pt):
    return (abs(P.x), P.x, abs(P.y), -P.y)


def torsion_subgroup(E: Curve) -> TorsionGroup:
    """Exact rational torsion with verified generators."""
    orders: dict[Pt, int] = {}
    for P in _torsion_candidates(E):
        # order computation revisits small multiples; cheap at this scale
        o = _order_up_to(E, P, _MAX_TORSION_ORDER)
        if o is not None:
            orders[P] = o
    n = len(orders) + 1
    bound = torsion_order_bound(E, 6)
    if bound % n != 0:
        raise CurveError("torsion enumeration disagrees with the reduction bound")
    two_torsion = sum(1 for o in orders.values() if o == 2)
    if n == 1:
        return TorsionGroup("trivial", (), (INFINITY,))
    points = (INFINITY,) + tuple(sorted(orders, key=_point_sort_key))
    max_order = max(orders.values())
    by_order = sorted(orders, key=_point_sort_key)
    if two_torsion <= 1:
        if max_order != n or n not in _ALLOWED_CYCLIC:
            raise CurveError(f"unexpected torsion shape of order {n}")
        gen = next(P for P in by_order if orders[P] == max_order)
        return TorsionGroup(f"Z{n}", (gen,), points)
    if two_torsion != 3 or n not in _ALLOWED_SPLIT or 2 * max_order != n:
        raise CurveError(f"unexpected torsion shape of order {n}")
    gen = next(P for P in by_order if orders[P] == max_order)
    half = mul(E, max_order // 2, gen)  # the order-2 point inside <gen>
    second = next(P for P in by_order if orders[P] == 2 and P != half)
    return TorsionGroup(f"Z2xZ{max_order}", (gen, second), points)


def from_cubic_const(c: int) -> Curve:
    """The shift of y^2 = x^3 + c^3 into descent shape.

    Substituting x -> x - c turns y^2 = x^3 + c^3 into
    y^2 = x^3 - 3c*x^2 + 3c^2*x, which has (0, 0) as a 2-torsion point.
    Points map back by (x, y) -> (x - c, y).
    """
    if c == 0:
        raise CurveError("need c != 0")
    return Curve(-3 * c, 3 * c * c, 0)


def shift_x(P: Pt, delta) -> Pt:
    """Translate the x-coordinate: (x, y) -> (x + delta, y)."""
    if P.is_infinity:
        return P
    return Pt(P.x + Fraction(delta), P.y)
