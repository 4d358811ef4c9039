"""Descent by 2-isogeny for y^2 = x^3 + a*x^2 + b*x.

The curve carries the rational 2-torsion point (0, 0), the kernel of a
degree-2 isogeny phi to E' given by a' = -2a, b' = a^2 - 4b.  Each
square class d cuts out the homogeneous space

    C_d : d*w^2 = d^2 - 2*a*d*z^2 + b'*z^4,

and d lies in the phi-Selmer set exactly when C_d has points over R and
over Q_p for every p in the bad set S = {2} u {p | b} u {p | b'}.  A
rational point of C_d lifts to E'(Q) by psi(z, w) = (d/z^2, -d*w/z^3)
and certifies d as a genuine image class.  Running the same machinery
on E' (whose own isogenous curve is E back again, up to scaling by
(x, y) -> (x/4, y/8)) bounds the rank from both sides:

    rank_upper = s + s' - 2,   rank_lower = max(0, g + g' - 2),

with s, s' the 2-dimensions of the two Selmer sets and g, g' of the
certified image subgroups.  The difference in each direction bounds the
2-dimension of the corresponding piece of Sha.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import ONE, SquareClass, _euler, factorize, squarefree_part
from .curve import (
    INFINITY,
    Curve,
    Pt,
    TorsionGroup,
    add,
    neg,
    on_curve,
    torsion_subgroup,
)
from .localsolve import QuarticForm, qp_soluble, r_soluble

__all__ = [
    "DescentError",
    "TorsionImageError",
    "IsogenyPair",
    "BadSet",
    "SelmerSet",
    "DescentReport",
    "isogenous_curve",
    "phi_map",
    "delta_class",
    "bad_set",
    "qs2",
    "hom_space",
    "selmer",
    "search_point",
    "lift_point",
    "descent_report",
]


class DescentError(ValueError):
    pass


class TorsionImageError(DescentError):
    """Lift requested at z = 0 or infinity; those map to O or (0, 0)."""


def _check_descent_model(E: Curve) -> tuple[int, int]:
    if E.a6 != 0:
        raise DescentError("need a6 = 0, with the 2-torsion point at (0, 0)")
    a, b = E.a2, E.a4
    if b == 0 or a * a - 4 * b == 0:
        raise DescentError("singular curve in the isogeny pair")
    return a, b


@dataclass(frozen=True)
class IsogenyPair:
    E: Curve
    Eprime: Curve

    @property
    def a(self) -> int:
        return self.E.a2

    @property
    def b(self) -> int:
        return self.E.a4

    @property
    def b_prime(self) -> int:
        return self.Eprime.a4


def isogenous_curve(E: Curve) -> IsogenyPair:
    a, b = _check_descent_model(E)
    return IsogenyPair(E, Curve(-2 * a, a * a - 4 * b, 0))


def phi_map(pair: IsogenyPair, P: Pt) -> Pt:
    """(x, y) -> (y^2/x^2, y(b - x^2)/x^2); kernel {O, (0, 0)} to O."""
    if not on_curve(pair.E, P):
        raise DescentError("point is not on the source curve")
    if P.is_infinity or (P.x == 0 and P.y == 0):
        return INFINITY
    x, y = P.x, P.y
    img = Pt(y * y / (x * x), y * (pair.b - x * x) / (x * x))
    assert on_curve(pair.Eprime, img)
    return img


def delta_class(C: Curve, P: Pt) -> SquareClass:
    """Connecting homomorphism to Q*/(Q*)^2 for a curve with a6 = 0."""
    if C.a6 != 0:
        raise DescentError("need a6 = 0")
    if not on_curve(C, P):
        raise DescentError("point is not on the curve")
    if P.is_infinity:
        return ONE
    if P.x == 0:
        return squarefree_part(C.a4)
    return squarefree_part(P.x.numerator * P.x.denominator)


@dataclass(frozen=True)
class BadSet:
    primes: tuple[int, ...]
    includes_infinity: bool = True

    def __post_init__(self):
        if 2 not in self.primes:
            raise DescentError("the bad set always contains 2")
        if tuple(sorted(set(self.primes))) != self.primes:
            raise DescentError("primes must be sorted and distinct")


def bad_set(E: Curve) -> BadSet:
    a, b = _check_descent_model(E)
    ps = {2}
    ps.update(factorize(b).primes())
    ps.update(factorize(a * a - 4 * b).primes())
    return BadSet(tuple(sorted(ps)))


def qs2(S: BadSet) -> tuple[SquareClass, ...]:
    """Classes unramified outside S: products of -1 and the primes of S."""
    out = []
    for sign in (1, -1):
        for r in range(len(S.primes) + 1):
            for combo in itertools.combinations(S.primes, r):
                rep = sign
                for p in combo:
                    rep *= p
                out.append(SquareClass(rep))
    return tuple(sorted(out))


@dataclass(frozen=True)
class SelmerSet:
    classes: tuple[SquareClass, ...]

    def __post_init__(self):
        cs = set(self.classes)
        if tuple(sorted(cs)) != self.classes:
            raise DescentError("classes must be sorted and distinct")
        if ONE not in cs:
            raise DescentError("a Selmer set contains the trivial class")
        # basis insertion, stopping as soon as the span leaves the set
        span = {ONE}
        for c in self.classes:
            if c not in span:
                span |= {c * s for s in span}
                if not span <= cs:
                    raise DescentError("Selmer set is not closed under multiplication")

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def dim2(self) -> int:
        return self.size.bit_length() - 1

    def __contains__(self, d) -> bool:
        return d in self.classes

    def __iter__(self):
        return iter(self.classes)


def hom_space(E: Curve, d) -> QuarticForm:
    """Cleared model Y^2 = d*b'*z^4 - 2*a*d^2*z^2 + d^3 of C_d, Y = d*w."""
    a, b = _check_descent_model(E)
    dd = int(d)
    if dd == 0:
        raise DescentError("d must be a nonzero class")
    bp = a * a - 4 * b
    return QuarticForm((dd * bp, 0, -2 * a * dd * dd, 0, dd**3))


def _local_class(d: int, v: int) -> tuple:
    """Class of squarefree d in Q_v*/Q_v*^2; v = 0 stands for R."""
    if v == 0:
        return (0, d > 0)
    u = d // v if d % v == 0 else d
    return (v, u != d, u % 8 if v == 2 else _euler(u, v))


def selmer(E: Curve) -> SelmerSet:
    """Classes whose space C_d has points over R and every Q_p, p in S.

    Solubility of C_d over Q_v depends only on the class of d in
    Q_v*/Q_v*^2, so each verdict is decided once per local class, on the
    first d of qs2(S) that reaches it: at most 2 real tests, 8 at 2 and
    4 at each odd p.  The real place comes first, then S in order.
    """
    S = bad_set(E)
    verdicts: dict = {}
    kept = []
    for d in qs2(S):
        f = None
        for v in (0,) + S.primes:
            key = _local_class(int(d), v)
            ok = verdicts.get(key)
            if ok is None:
                if f is None:
                    f = hom_space(E, d)
                ok = verdicts[key] = qp_soluble(f, v) if v else r_soluble(f)
            if not ok:
                break
        else:
            kept.append(d)
    return SelmerSet(tuple(sorted(kept)))


# Sieve moduli for the point search.  A square N(m, n) is a square mod
# every q, so for each n only the m mod q where N(m, n) is a square mod q
# need the exact test.
_SIEVE = tuple((q, sum(1 << s for s in {w * w % q for w in range(q)}))
               for q in (16, 9, 5, 7, 11, 13))


def _first_square(c4: int, c2: int, c0: int, H: int):
    """First (m, n, r) with r^2 = c4*m^4 + c2*m^2*n^2 + c0*n^4, or None.

    The coprime pairs (m, n), n >= 1, of height max(|m|, n) <= H come in
    the order (height, n, |m|, m < 0).  Heights are swept in doubling
    bands (lo, hi].  Per n, the m in [-hi, hi] are a Python-int bitmask,
    bit m + hi: a range mask that drops |m| <= lo when n <= lo, AND the
    tiled residue mask of each sieve modulus.  Only the surviving bits
    get the gcd, the sign and the isqrt test, and the least surviving
    hit of the first band that has one is the first hit overall.
    """
    tables: dict[tuple[int, int], int] = {}

    def residues(q: int, squares: int, nr: int) -> int:
        """Bit i set when N(i, nr) is a square mod q; built on first use."""
        key = (q, nr)
        t = tables.get(key)
        if t is None:
            n2 = nr * nr
            a, b, c = c4 % q, c2 * n2 % q, c0 * n2 * n2 % q
            t = 0
            for i in range(q):
                i2 = i * i
                if squares >> ((a * i2 * i2 + b * i2 + c) % q) & 1:
                    t |= 1 << i
            tables[key] = t
        return t

    lo, hi = 0, min(4, H)
    while lo < H:
        width = 2 * hi + 1
        full = (1 << width) - 1
        outer = full ^ (((1 << (2 * lo + 1)) - 1) << (hi - lo))
        tiled: dict[tuple[int, int], int] = {}
        best = None
        for n in range(1, hi + 1):
            if best is not None and n > best[0][0]:
                break
            mask = outer if n <= lo else full
            for q, squares in _SIEVE:
                key = (q, n % q)
                t = tiled.get(key)
                if t is None:
                    # rotate so that bit i means m = i - hi, then repeat
                    w = residues(q, squares, key[1])
                    s = hi % q
                    w = ((w << s) | (w >> (q - s))) & ((1 << q) - 1)
                    reps = -(-width // q)
                    t = w * (((1 << (q * reps)) - 1) // ((1 << q) - 1)) & full
                    tiled[key] = t
                mask &= t
            n2 = n * n
            while mask:
                low = mask & -mask
                mask ^= low
                m = low.bit_length() - 1 - hi
                if gcd(m, n) != 1:
                    continue
                m2 = m * m
                N = c4 * m2 * m2 + c2 * m2 * n2 + c0 * n2 * n2
                if N < 0:
                    continue
                r = isqrt(N)
                if r * r == N:
                    found = ((max(abs(m), n), n, abs(m), m < 0), (m, n, r))
                    best = found if best is None else min(best, found)
        if best is not None:
            return best[1]
        lo, hi = hi, min(2 * hi, H)
    return None


def search_point(E: Curve, d, H: int):
    """A rational point (z, w) of C_d with height(z) <= H, if one shows up.

    Returns a pair of Fractions for the first affine point in the order
    of _first_square, "infinity" when no affine point was found but the
    two points at infinity are rational (d * b' a square), None on a
    miss.
    """
    if H < 1:
        raise DescentError("need H >= 1")
    a, b = _check_descent_model(E)
    dd = int(d)
    c4, _, c2, _, c0 = hom_space(E, d).c
    hit = _first_square(c4, c2, c0, H)
    if hit is not None:
        m, n, r = hit
        return Fraction(m, n), Fraction(r, n * n * abs(dd))
    lead = dd * (a * a - 4 * b)
    if lead > 0 and isqrt(lead) ** 2 == lead:
        return "infinity"
    return None


def lift_point(pair: IsogenyPair, d, zw) -> Pt:
    """psi(z, w) = (d/z^2, -d*w/z^3), a point of E' with class d."""
    if zw == "infinity":
        raise TorsionImageError("torsion image")
    z, w = Fraction(zw[0]), Fraction(zw[1])
    if z == 0:
        raise TorsionImageError("torsion image")
    dd = int(d)
    X = Fraction(dd) / (z * z)
    Y = -Fraction(dd) * w / (z * z * z)
    P = Pt(X, Y)
    if not on_curve(pair.Eprime, P):
        raise DescentError("(z, w) does not lie on C_d")
    assert delta_class(pair.Eprime, P) == squarefree_part(dd)
    return P


@dataclass(frozen=True)
class DescentReport:
    pair: IsogenyPair
    selmer_phi: SelmerSet
    selmer_phi_hat: SelmerSet
    image_phi: SelmerSet
    image_phi_hat: SelmerSet
    rank_lower: int
    rank_upper: int
    rank_exact: bool
    sha_phi_dim_upper: int
    sha_phi_hat_dim_upper: int
    torsion: TorsionGroup
    generators: tuple[Pt, ...]
    search_height: int
    notes: tuple[str, ...]

    @property
    def curve(self) -> Curve:
        return self.pair.E

    @property
    def isogenous(self) -> Curve:
        return self.pair.Eprime


def _span(classes: set[SquareClass]) -> set[SquareClass]:
    """The subgroup generated by classes: each class not yet in the span doubles it."""
    out = {ONE}
    for c in classes:
        if c not in out:
            out |= {c * s for s in out}
    return out


def _dual_to_base(pair: IsogenyPair, P_on_Eprime: Pt) -> Pt:
    """phi-hat down to E'' = (4a, 16b), then (x, y) -> (x/4, y/8) onto E."""
    pair2 = isogenous_curve(pair.Eprime)
    Q = phi_map(pair2, P_on_Eprime)
    if Q.is_infinity:
        return INFINITY
    R = Pt(Q.x / 4, Q.y / 8)
    assert on_curve(pair.E, R)
    return R


def _canonical_generator(E: Curve, tors: TorsionGroup, Q: Pt) -> Pt:
    from .curve import _point_sort_key

    cands = []
    for base in (Q, neg(E, Q)):
        for T in tors.points:
            cands.append(add(E, base, T))
    return min(cands, key=_point_sort_key)


def _certify_direction(source: Curve, lift_pair: IsogenyPair, sel: SelmerSet,
                       seed: SquareClass, H: int):
    """Search the spaces of one direction; returns (span, lifted points).

    The image of delta is a subgroup, so any class inside the span of
    already-certified ones needs no search of its own.
    """
    span = _span({seed})
    lifted: list[Pt] = []
    for d in sel:
        if d in span:
            continue
        found = search_point(source, d, H)
        if found is None:
            continue
        # a rational torsion image certifies d with no new generator
        if found != "infinity" and found[0] != 0:
            lifted.append(lift_point(lift_pair, d, found))
        span = _span(span | {d})
    return span, lifted


def descent_report(E: Curve, H: int) -> DescentReport:
    pair = isogenous_curve(E)
    sel_phi = selmer(E)
    sel_hat = selmer(pair.Eprime)
    tors = torsion_subgroup(E)
    notes: list[str] = []

    # Certified images start from the 2-torsion of the codomain curve:
    # delta(O) = 1 and delta((0,0)) = the codomain's own a4 class.
    seed_phi = squarefree_part(pair.b_prime)
    seed_hat = squarefree_part(pair.b)
    span_phi, lifts_prime = _certify_direction(E, pair, sel_phi, seed_phi, H)
    pair_back = isogenous_curve(pair.Eprime)
    span_hat, lifts_second = _certify_direction(pair.Eprime, pair_back, sel_hat, seed_hat, H)

    if not span_phi <= set(sel_phi):
        raise DescentError("certified a class outside the phi-Selmer set")
    if not span_hat <= set(sel_hat):
        raise DescentError("certified a class outside the dual Selmer set")

    # Move every lifted point onto E: phi-direction lifts live on E' and
    # descend by the dual isogeny; dual-direction lifts live on E'' and
    # rescale by (x/4, y/8).
    on_base = [_dual_to_base(pair, P) for P in lifts_prime]
    for P in lifts_second:
        Q = Pt(P.x / 4, P.y / 8)
        assert on_curve(E, Q)
        on_base.append(Q)

    torsion_pts = set(tors.points)
    gens: list[Pt] = []
    for Q in on_base:
        if Q.is_infinity or Q in torsion_pts:
            continue
        C = _canonical_generator(E, tors, Q)
        if C not in gens:
            gens.append(C)

    s, sp = sel_phi.dim2, sel_hat.dim2
    g = len(span_phi).bit_length() - 1
    gp = len(span_hat).bit_length() - 1
    rank_upper = s + sp - 2
    rank_lower = max(0, g + gp - 2)
    # rank = dim_2 E/2E - dim_2 E[2](Q).  Splicing the two descent
    # directions gives dim_2 E/2E = s + s' - dim_2 E'(Q)[phi-hat]
    # - dim_2 phi(E(Q)[2]); whether E[2](Q) has order 2 or 4, the three
    # correction terms add up to -2, hence the single formula below.
    assert rank_lower <= rank_upper
    sha_phi = s - g
    sha_hat = sp - gp
    rank_exact = rank_upper == rank_lower
    if sha_phi % 2 == 1 or sha_hat % 2 == 1:
        notes.append(
            "odd Selmer-minus-image residual: point search height too small "
            "or nontrivial Sha"
        )

    return DescentReport(
        pair=pair,
        selmer_phi=sel_phi,
        selmer_phi_hat=sel_hat,
        image_phi=SelmerSet(tuple(sorted(span_phi))),
        image_phi_hat=SelmerSet(tuple(sorted(span_hat))),
        rank_lower=rank_lower,
        rank_upper=rank_upper,
        rank_exact=rank_exact,
        sha_phi_dim_upper=sha_phi,
        sha_phi_hat_dim_upper=sha_hat,
        torsion=tors,
        generators=tuple(gens),
        search_height=H,
        notes=tuple(notes),
    )
