"""Solvability of y^2 = f(z) for integer quartics f, over R and over Q_p.

The p-adic decision is a depth-first search over residue classes
z = r (mod p^k), the recursion of Birch and Swinnerton-Dyer's Lemmas 6
and 7.  With lam = val(f(r)), mu = val(f'(r)) (infinite if f'(r) = 0)
and u = f(r) / p^lam, a class is settled by the first rule that fires:

  (i)   f(r) = 0 or f(r) a square in Q_p: soluble at z = r.
  (ii)  k > mu: f maps the class onto f(r) + p^(k+mu) Z_p.  Soluble if
        lam >= k + mu (a Hensel root), or at p = 2 if lam = k + mu - 1
        (then mu = k - 1 and lam is even); insoluble otherwise.
  (iii) k <= mu: f = f(r) (mod p^(2k)) on the class.  Split into the p
        children mod p^(k+1) if lam >= 2k, or at p = 2 if lam = 2k - 2
        and u = 1 (mod 4); insoluble otherwise.

A split needs lam >= 2k - 2 and mu >= k, and Res(f, f') lies in the
ideal (f, f') of Z[z], so for k >= 2 a split needs
k <= val(Res(f, f')) = val(lead f) + val(disc f).  That bounds the
depth; reaching it raises PrecisionExhausted, which nonzero
discriminant rules out.  Points with z outside Z_p are caught by the
reversed quartic t^4 * f(1/t), searched on t = 0 (mod p) alone since a
unit t is 1/z for a unit z already searched; its t = 0 classes are the
points at infinity.

The search runs on bare coefficient tuples and returns None or the
fields of its witness.  The descent calls it that way, unchecked;
zp_soluble and qp_soluble check the form and the prime, and only they
build a LocalVerdict and its Witness.

Real solvability is decided in integers: a positive leading coefficient
or odd degree, else a real root, read off the signs of the discriminant
and two invariants of the classical real-root classification.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import Record, _val, is_prime

__all__ = [
    "LocalSolveError",
    "PrecisionExhausted",
    "QuarticForm",
    "Witness",
    "LocalVerdict",
    "poly_disc",
    "zp_soluble",
    "qp_soluble",
    "r_soluble",
]


class LocalSolveError(ValueError):
    pass


class PrecisionExhausted(LocalSolveError):
    """Depth cap hit; must not happen for nonzero discriminant."""


def poly_disc(coeffs: tuple[int, ...]) -> int:
    """Discriminant of a polynomial of degree <= 4, coefficients descending."""
    cs = list(coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
    if len(cs) <= 1:
        raise LocalSolveError("discriminant needs degree >= 1")
    if len(cs) == 2:
        return 1
    if len(cs) == 3:
        a, b, c = cs
        return b * b - 4 * a * c
    if len(cs) == 4:
        a, b, c, d = cs
        return (
            18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
        )
    # the invariants I, J of the quartic give 27 disc = 4 I^3 - J^2
    a, b, c, d, e = cs
    I = 12 * a * e - 3 * b * d + c * c
    J = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return (4 * I**3 - J * J) // 27


class QuarticForm(Record):
    """f(z) = c[0]*z^4 + c[1]*z^3 + c[2]*z^2 + c[3]*z + c[4], integer c."""

    c: tuple[int, int, int, int, int]

    def __post_init__(self):
        if type(self.c) is not tuple or len(self.c) != 5 or not all(type(v) is int for v in self.c):
            raise LocalSolveError(f"need five integer coefficients in a tuple, not {self.c!r}")
        if all(v == 0 for v in self.c):
            raise LocalSolveError("the zero form has no model")

    @property
    def degree(self) -> int:
        return 4 - next(i for i, v in enumerate(self.c) if v)

    def __call__(self, z):
        r = 0
        for v in self.c:
            r = r * z + v
        return r


class Witness(Record):
    kind: str  # "exact-root", "square-value", "hensel", "infinity", "real"
    z: Fraction | None
    note: str


class LocalVerdict(Record):
    soluble: bool
    witness: Witness | None

    def __bool__(self) -> bool:
        return self.soluble


_INSOLUBLE = LocalVerdict(False, None)


def _setup(c: tuple[int, ...], p: int) -> tuple[tuple[int, ...], bool, int]:
    """c less the square part of its content p^m (square scaling keeps
    every verdict), whether m is odd, and val(disc c, p).  An even
    quartic A z^4 + B z^2 + C has disc 16 A C (B^2 - 4AC)^2."""
    m = _val(gcd(*c), p)
    if m > 1:
        t = p ** (m - m % 2)
        c = tuple(v // t for v in c)
    c4, c3, c2, c1, c0 = c
    if c3 or c1 or not c4:
        if disc := poly_disc(c):
            return c, m % 2 == 1, _val(disc, p)
    elif c0 and (e := c2 * c2 - 4 * c4 * c0):
        return c, m % 2 == 1, 4 * (p == 2) + _val(c4, p) + _val(c0, p) + 2 * _val(e, p)
    raise LocalSolveError("zero discriminant")


def _zp_search(c: tuple[int, ...], content: bool, disc_val: int, p: int,
               start: tuple[int, int] | None = None) -> tuple[str, int, int] | None:
    """The search of _setup's c over Z_p, or over the one class start = (r, k):
    None, or the witness found on r mod p^k as (kind, r, k), kind "exact-root",
    "square-value" or, for a Hensel lift, "a root" or "a square value"."""
    lead = next(v for v in c if v != 0)
    cap = max(1, _val(lead, p) + disc_val)
    half = (p - 1) // 2
    if start is not None:
        stack = [start]
    elif p == 2:
        stack = [(1, 1), (0, 1)]
    else:
        # Depth-1 classes mod an odd p in machine arithmetic: a nonzero
        # residue decides by its quadratic character (Euler's criterion,
        # so no table of p entries), only roots go deep.  When p divides
        # every coefficient, f/p is scanned instead: off its roots
        # val f(r) = 1, so only those classes can hold a point.
        c4, c3, c2, c1, c0 = (v // p % p if content else v % p for v in c)
        stack = []
        for r in range(p):
            acc = ((((c4 * r + c3) * r + c2) * r + c1) * r + c0) % p
            if acc == 0:
                stack.append((r, 1))
            elif not content and pow(acc, half, p) == 1:
                return "square-value", r, 1
        stack.reverse()

    c4, c3, c2, c1, c0 = c
    while stack:
        r, k = stack.pop()
        v = (((c4 * r + c3) * r + c2) * r + c1) * r + c0
        if v == 0:
            return "exact-root", r, k
        lam = _val(v, p)
        u = v // p**lam
        if lam % 2 == 0 and (u % 8 == 1 if p == 2 else pow(u, half, p) == 1):
            return "square-value", r, k
        d = ((4 * c4 * r + 3 * c3) * r + 2 * c2) * r + c1
        mu = _val(d, p) if d else None
        if mu is not None and k > mu:
            # f maps the class onto f(r) + p^(k + mu) Z_p.  A class at
            # k >= 2 comes from a split at k - 1 <= mu(parent), and
            # f'(r) = f'(parent) mod p^(k - 1), so mu = k - 1 (at k = 1,
            # mu = 0 too).  So lam = n - 1 = 2k - 2 is even, and
            # lam = n - 2 = 2k - 3 is odd, never a square value.
            n = k + mu
            if lam >= n or (p == 2 and lam == n - 1):
                return "a root" if lam >= n else "a square value", r, k
        elif lam >= 2 * k or (p == 2 and lam == 2 * k - 2 and u % 4 == 1):
            # f = f(r) mod p^(2k) on the class: undecided, split it
            if k > cap:
                raise PrecisionExhausted(f"class {r} mod {p}^{k} splits beyond the resultant bound {cap}")
            step = p**k
            stack.extend((r + j * step, k + 1) for j in range(p - 1, -1, -1))


def _qp_soluble(c: tuple[int, ...], p: int) -> tuple[str, int, int, bool] | None:
    """qp_soluble of c at a proved prime p, unchecked: None, or _zp_search's fields
    and whether the reversed quartic gave them.  It searches t = 1/z in pZ_p with
    c's setup: reversal keeps the content; val(disc c) is its own, or looser if c(0) = 0."""
    c, content, disc_val = _setup(c, p)
    if found := _zp_search(c, content, disc_val, p):
        return (*found, False)
    found = _zp_search(c[::-1], content, disc_val, p, (0, 1))
    return found and (*found, True)


def _verdict(found: tuple[str, int, int, bool] | None, p: int) -> LocalVerdict:
    """The LocalVerdict of search fields; a reversed t = r is z = 1/r, infinity if r = 0."""
    if found is None:
        return _INSOLUBLE
    kind, r, k, rev = found
    pre = "reversed form: " if rev else ""
    if kind not in ("exact-root", "square-value"):
        return LocalVerdict(True, Witness("hensel", None, f"{pre}f has {kind} on {r} mod {p}^{k}"))
    if rev and r == 0:
        return LocalVerdict(True, Witness("infinity", None, f"leading coefficient is a square in Q_{p}"))
    note = f"f({r}) = 0" if kind == "exact-root" else f"f({r}) is a square in Q_{p}"
    return LocalVerdict(True, Witness(kind, Fraction(1, r) if rev else Fraction(r), pre + note))


def _check(f: QuarticForm, p: int | None = None) -> None:
    if not isinstance(f, QuarticForm):
        raise LocalSolveError(f"need a QuarticForm, not {f!r}")
    if p is not None and (not isinstance(p, int) or isinstance(p, bool) or not is_prime(p)):
        raise LocalSolveError(f"need a prime p, not {p!r}")


def zp_soluble(f: QuarticForm, p: int) -> LocalVerdict:
    """Whether y^2 = f(z) has z in Z_p, y in Q_p, for a prime p."""
    _check(f, p)
    if f.degree < 2:
        raise LocalSolveError("need degree >= 2")
    found = _zp_search(*_setup(f.c, p), p)
    return _verdict(found and (*found, False), p)


def qp_soluble(f: QuarticForm, p: int) -> LocalVerdict:
    """Whether the smooth projective model of y^2 = f(z) has a Q_p point, for a prime p."""
    _check(f, p)
    if f.degree != 4:
        raise LocalSolveError("need an honest quartic")
    return _verdict(_qp_soluble(f.c, p), p)


# ---------------------------------------------------------------------------
# Real place: the sign data of the roots, in integers.


def r_soluble(f: QuarticForm) -> LocalVerdict:
    """Whether f takes a nonnegative real value.

    With a negative leading coefficient and even degree that means a
    real root.  A quadratic has one iff b^2 - 4ac >= 0.  A quartic is
    classified by its discriminant and P = 8ac - 3b^2,
    D = 64a^3e - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4 and
    R = b^3 + 8a^2d - 4abc (Rees 1922; Lazard 1988): disc < 0 means two
    real and two complex roots; disc > 0 four real roots iff P < 0 and
    D < 0, else none; disc = 0 a repeated root, real unless f is a times
    the square of a quadratic with complex roots (D = 0, P > 0, R = 0).
    """
    _check(f)
    deg = f.degree
    if deg < 1:
        raise LocalSolveError("need degree >= 1")
    a = f.c[4 - deg]
    if a > 0:
        return LocalVerdict(True, Witness("real", None, "positive leading coefficient"))
    if deg % 2:
        return LocalVerdict(True, Witness("real", None, "odd degree"))
    disc = poly_disc(f.c)
    if deg == 2:
        rooted = disc >= 0
    elif disc < 0:
        rooted = True
    else:
        _, b, c, d, e = f.c
        P = 8 * a * c - 3 * b * b
        D = 64 * a**3 * e - 16 * a * a * c * c + 16 * a * b * b * c - 16 * a * a * b * d - 3 * b**4
        if disc > 0:
            rooted = P < 0 and D < 0
        else:
            rooted = not (D == 0 and P > 0 and b**3 + 8 * a * a * d - 4 * a * b * c == 0)
    if rooted:
        return LocalVerdict(True, Witness("real", None, "real root"))
    return _INSOLUBLE
