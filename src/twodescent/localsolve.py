"""Solvability of y^2 = f(z) for integer quartics f, over R and over Q_p.

The p-adic decision is a depth-first search over residue classes
z = r (mod p^k), the recursion of Birch and Swinnerton-Dyer's Lemmas 6
and 7.  With lam = val(f(r)), mu = val(f'(r)) (infinite if f'(r) = 0)
and u = f(r) / p^lam, a class is settled by the first rule that fires:

  (i)   f(r) = 0 or f(r) a square in Q_p: soluble at z = r.
  (ii)  k > mu: f maps the class onto f(r) + p^(k+mu) Z_p.  Soluble if
        lam >= k + mu (a Hensel root), or at p = 2 if lam is even and
        lam = k + mu - 1, or lam = k + mu - 2 and u = 1 (mod 4);
        insoluble otherwise.
  (iii) k <= mu: f = f(r) (mod p^(2k)) on the class.  Split into the p
        children mod p^(k+1) if lam >= 2k, or at p = 2 if lam = 2k - 2
        and u = 1 (mod 4); insoluble otherwise.

A split needs lam >= 2k - 2 and mu >= k, and Res(f, f') lies in the
ideal (f, f') of Z[z], so for k >= 2 a split needs
k <= val(Res(f, f')) = val(lead f) + val(disc f).  That bounds the
depth; reaching it raises PrecisionExhausted, which nonzero
discriminant rules out.  Points with z outside Z_p are caught by
running the reversed quartic t^4 * f(1/t), whose t = 0 classes are the
points at infinity.

Real solvability is decided exactly: positive leading coefficient, or a
real root detected by a Sturm chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import val

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
    a, b, c, d, e = cs
    return (
        256 * a**3 * e**3
        - 192 * a * a * b * d * e * e
        - 128 * a * a * c * c * e * e
        + 144 * a * a * c * d * d * e
        - 27 * a * a * d**4
        + 144 * a * b * b * c * e * e
        - 6 * a * b * b * d * d * e
        - 80 * a * b * c * c * d * e
        + 18 * a * b * c * d**3
        + 16 * a * c**4 * e
        - 4 * a * c**3 * d * d
        - 27 * b**4 * e * e
        + 18 * b**3 * c * d * e
        - 4 * b**3 * d**3
        - 4 * b * b * c**3 * e
        + b * b * c * c * d * d
    )


@dataclass(frozen=True)
class QuarticForm:
    """f(z) = c[0]*z^4 + c[1]*z^3 + c[2]*z^2 + c[3]*z + c[4], integer c."""

    c: tuple[int, int, int, int, int]

    def __post_init__(self):
        if len(self.c) != 5:
            raise LocalSolveError("need exactly five coefficients")
        if all(v == 0 for v in self.c):
            raise LocalSolveError("the zero form has no model")

    @property
    def degree(self) -> int:
        for i, v in enumerate(self.c):
            if v != 0:
                return 4 - i
        raise LocalSolveError("zero form")

    def __call__(self, z):
        r = 0
        for v in self.c:
            r = r * z + v
        return r

    def deriv(self, z):
        c4, c3, c2, c1, _ = self.c
        return ((4 * c4 * z + 3 * c3) * z + 2 * c2) * z + c1

    def reverse(self) -> "QuarticForm":
        """t^4 * f(1/t): swaps z = 0 with the points at infinity."""
        return QuarticForm(tuple(reversed(self.c)))

    def disc(self) -> int:
        return poly_disc(self.c)

    def strip_square_content(self, p: int) -> "QuarticForm":
        """Divide out p^(2m); square scaling never changes a verdict."""
        m = min(val(v, p) for v in self.c if v != 0)
        t = p ** (2 * (m // 2))
        if t == 1:
            return self
        return QuarticForm(tuple(v // t for v in self.c))


@dataclass(frozen=True)
class Witness:
    kind: str  # "exact-root", "square-value", "hensel", "infinity", "real"
    z: Fraction | None
    note: str


@dataclass(frozen=True)
class LocalVerdict:
    soluble: bool
    witness: Witness | None

    def __bool__(self) -> bool:
        return self.soluble


_INSOLUBLE = LocalVerdict(False, None)


def zp_soluble(f: QuarticForm, p: int) -> LocalVerdict:
    """Whether y^2 = f(z) has z in Z_p, y in Q_p."""
    if f.degree < 2:
        raise LocalSolveError("need degree >= 2")
    f = f.strip_square_content(p)
    disc = f.disc()
    if disc == 0:
        raise LocalSolveError("zero discriminant")
    lead = next(v for v in f.c if v != 0)
    cap = max(1, val(lead, p) + val(disc, p))

    half = (p - 1) // 2
    if p == 2:
        stack = [(1, 1), (0, 1)]
    else:
        # Depth-1 classes mod an odd p in machine arithmetic: a nonzero
        # residue decides by its quadratic character (Euler's criterion,
        # so no table of p entries), only roots go deep.  When p divides
        # every coefficient, f/p is scanned instead: off its roots
        # val f(r) = 1, so only those classes can hold a point.
        content = not any(v % p for v in f.c)
        c4, c3, c2, c1, c0 = (v // p % p if content else v % p for v in f.c)
        stack = []
        for r in range(p):
            acc = ((((c4 * r + c3) * r + c2) * r + c1) * r + c0) % p
            if acc == 0:
                stack.append((r, 1))
            elif not content and pow(acc, half, p) == 1:
                return LocalVerdict(
                    True,
                    Witness("square-value", Fraction(r), f"f({r}) is a square in Q_{p}"),
                )
        stack.reverse()

    while stack:
        r, k = stack.pop()
        v = f(r)
        if v == 0:
            return LocalVerdict(True, Witness("exact-root", Fraction(r), f"f({r}) = 0"))
        lam = val(v, p)
        u = v // p**lam
        if lam % 2 == 0 and (u % 8 == 1 if p == 2 else pow(u, half, p) == 1):
            return LocalVerdict(
                True, Witness("square-value", Fraction(r), f"f({r}) is a square in Q_{p}")
            )
        d = f.deriv(r)
        mu = val(d, p) if d else None
        if mu is not None and k > mu:
            # f maps the class onto f(r) + p^(k + mu) Z_p
            n = k + mu
            if lam >= n or (
                p == 2 and lam % 2 == 0 and (lam == n - 1 or (lam == n - 2 and u % 4 == 1))
            ):
                what = "a root" if lam >= n else "a square value"
                return LocalVerdict(
                    True, Witness("hensel", None, f"f has {what} on {r} mod {p}^{k}")
                )
        elif lam >= 2 * k or (p == 2 and lam == 2 * k - 2 and u % 4 == 1):
            # f = f(r) mod p^(2k) on the class: undecided, split it
            if k > cap:
                raise PrecisionExhausted(
                    f"class {r} mod {p}^{k} splits beyond the resultant bound {cap}"
                )
            step = p**k
            stack.extend((r + j * step, k + 1) for j in range(p - 1, -1, -1))
    return _INSOLUBLE


def qp_soluble(f: QuarticForm, p: int) -> LocalVerdict:
    """Whether the smooth projective model of y^2 = f(z) has a Q_p point.

    z in Z_p via f itself, the rest via the reversed quartic; a reversed
    witness at t = 0 is one of the two points at infinity.
    """
    if f.degree != 4:
        raise LocalSolveError("need an honest quartic")
    v = zp_soluble(f, p)
    if v.soluble:
        return v
    w = zp_soluble(f.reverse(), p)
    if not w.soluble:
        return _INSOLUBLE
    wit = w.witness
    if wit.z is None:
        return LocalVerdict(True, Witness("hensel", None, "reversed form: " + wit.note))
    if wit.z == 0:
        return LocalVerdict(
            True,
            Witness("infinity", None, f"leading coefficient is a square in Q_{p}"),
        )
    return LocalVerdict(
        True, Witness(wit.kind, 1 / wit.z, "reversed form: " + wit.note)
    )


# ---------------------------------------------------------------------------
# Real place: exact sign analysis via Sturm chains.


def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(cs) and cs[i] == 0:
        i += 1
    return cs[i:]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    q: list[Fraction] = []
    while len(num) >= len(den):
        coef = num[0] / den[0]
        q.append(coef)
        for i in range(len(den)):
            num[i] -= coef * den[i]
        num.pop(0)
    return q, _poly_trim(num)


def _poly_deriv(cs: list[Fraction]) -> list[Fraction]:
    n = len(cs) - 1
    return [c * (n - i) for i, c in enumerate(cs[:-1])]


def _sturm_distinct_real_roots(cs: list[Fraction]) -> int:
    """Number of distinct real roots, squarefree or not.

    The chain ends at gcd(f, f'); dividing it out flips no sign
    difference away from the roots, so the count at +-infinity holds.
    """
    chain = [cs, _poly_trim(_poly_deriv(cs))]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def changes(at_plus_inf: bool) -> int:
        signs = []
        for poly in chain:
            if not poly:
                continue
            s = 1 if poly[0] > 0 else -1
            if not at_plus_inf and (len(poly) - 1) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes(False) - changes(True)


def r_soluble(f: QuarticForm) -> LocalVerdict:
    """Whether f takes a nonnegative real value."""
    if f.degree < 1:
        raise LocalSolveError("need degree >= 1")
    cs = _poly_trim([Fraction(v) for v in f.c])
    if cs[0] > 0:
        return LocalVerdict(
            True, Witness("real", None, "positive leading coefficient")
        )
    if (len(cs) - 1) % 2 == 1:
        return LocalVerdict(True, Witness("real", None, "odd degree"))
    # negative leading coefficient, even degree: need a real root
    if _sturm_distinct_real_roots(cs) > 0:
        return LocalVerdict(True, Witness("real", None, "real root"))
    return _INSOLUBLE
