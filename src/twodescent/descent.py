"""Descent by 2-isogeny for y^2 = x^3 + a*x^2 + b*x.

The curve carries the rational 2-torsion point (0, 0), the kernel of a
degree-2 isogeny phi to E' given by a' = -2a, b' = a^2 - 4b.  Each
square class d cuts out the homogeneous space

    C_d : d*w^2 = d^2 - 2*a*d*z^2 + b'*z^4,

and d lies in the phi-Selmer set exactly when C_d has points over R and
over Q_p for every p in the bad set S = {2} u {p | b} u {p | b'}.  The
classes soluble at a place v form the local image W_v, and those of E'
form its annihilator under the Hilbert symbol, so local tests on E alone
give both Selmer groups, the preimages of both images under one F_2 map
on Q(S, 2).  A rational point of C_d lifts to E'(Q) by psi(z, w) =
(d/z^2, -d*w/z^3) and certifies d as a genuine image class.  The same
search on E' (whose own isogenous curve is E back again, up to scaling by
(x, y) -> (x/4, y/8)) bounds the rank from both sides:

    rank_upper = s + s' - 2,   rank_lower = max(0, g + g' - 2),

with s, s' the 2-dimensions of the two Selmer sets and g, g' of the
certified image subgroups.  The difference in each direction bounds the
2-dimension of the corresponding piece of Sha.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import lt, ne

from .arith import ONE, Record, SquareClass, _euler, _is_prime, _sqrt_mod, _val, factorize
from .curve import Curve, Pt, TorsionGroup, torsion_subgroup
from .localsolve import _qp_soluble

__all__ = [
    "DescentError",
    "IsogenyPair",
    "BadSet",
    "SelmerSet",
    "DescentReport",
    "isogenous_curve",
    "bad_set",
    "qs2",
    "selmer",
    "descent_report",
]


class DescentError(ValueError):
    pass


def _check_descent_model(E: Curve) -> tuple[int, int]:
    if not isinstance(E, Curve):
        raise DescentError(f"need a Curve, not {E!r}")
    if E.a6 != 0:
        raise DescentError("need a6 = 0, with the 2-torsion point at (0, 0)")
    a, b = E.a2, E.a4
    if b == 0 or a * a - 4 * b == 0:
        raise DescentError("singular curve in the isogeny pair")
    return a, b


class IsogenyPair(Record):
    E: Curve
    Eprime: Curve

    @property
    def b(self) -> int:
        return self.E.a4

    @property
    def b_prime(self) -> int:
        return self.Eprime.a4


def isogenous_curve(E: Curve) -> IsogenyPair:
    a, b = _check_descent_model(E)
    return IsogenyPair(E, Curve(-2 * a, a * a - 4 * b, 0))


class BadSet(Record):
    primes: tuple[int, ...]

    def __post_init__(self):
        ps = self.primes
        if type(ps) is not tuple or not all(type(p) is int and _is_prime(p) for p in ps):
            raise DescentError(f"need a tuple of prime ints, not {ps!r}")
        if 2 not in ps:
            raise DescentError("the bad set always contains 2")
        if tuple(sorted(set(ps))) != ps:
            raise DescentError("primes must be sorted and distinct")


def bad_set(E: Curve) -> BadSet:
    """2 and the primes of the odd parts of b and b', each factored once and proved prime."""
    a, b = _check_descent_model(E)
    odd_parts = {abs(n) >> _val(n, 2) for n in (b, a * a - 4 * b)}
    return BadSet._of(tuple(sorted({2}.union(*(factorize(m).primes() for m in odd_parts)))))


def qs2(S: BadSet) -> tuple[SquareClass, ...]:
    """Classes unramified outside S: products of -1 and the primes of S."""
    if not isinstance(S, BadSet):
        raise DescentError(f"need a BadSet, not {S!r}")
    gens = (-1,) + S.primes
    return tuple(SquareClass(d) for _, d, _ in _span([1 << j for j in range(len(gens))], gens))


class SelmerSet(Record):
    classes: tuple[SquareClass, ...]

    def __post_init__(self):
        if type(cs := self.classes) is not tuple or not all(type(c) is SquareClass for c in cs):
            raise DescentError(f"need a tuple of SquareClass, not {cs!r}")
        if tuple(sorted(set(cs))) != cs:
            raise DescentError("classes must be sorted and distinct")
        if ONE not in cs:
            raise DescentError("a Selmer set contains the trivial class")
        # basis insertion, stopping as soon as the span leaves the set
        span = {ONE}
        for c in cs:
            if c not in span:
                span |= {c * s for s in span}
                if not span.issubset(cs):
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


def _space(a: int, bp: int, d: int) -> tuple[int, int, int, int, int]:
    """Coefficients of the cleared model Y^2 = d*b'*z^4 - 2*a*d^2*z^2 + d^3 of
    C_d, Y = d*w, for a checked model with b' = bp and an integer d != 0."""
    return d * bp, 0, -2 * a * d * d, 0, d**3


def _minus_one_real(a: int, b: int) -> bool:
    """Whether C_-1: -w^2 = 1 + 2a*z^2 + b'*z^4 has a real point: at infinity
    when b' < 0; for b' > 0, 1 + 2a*t + b'*t^2 <= 0 at some t >= 0 needs the
    vertex t = -a/b' > 0 and its value 1 - a^2/b' = -4b/b' <= 0."""
    return a * a - 4 * b < 0 or a < 0 < b


# At a prime v, keyed by v % 4: per local class x (bits 2, -1, 5 at 2, v and a
# non-residue at odd v) the bits x pairs with to -1 under the Hilbert symbol.
# Local tests at 2 visit the x in _ORDER, least |_CLASSES2[x]| first, on the
# integer _CLASSES2[x] of x.  _ODD[f] has bit y set when y & f is odd.
_PAIRS = {2: (0, 4, 2, 6, 1, 5, 3, 7), 1: (0, 2, 1, 3), 3: (0, 3, 1, 2)}
_ORDER = (0, 2, 1, 3, 4, 6, 5, 7)
_CLASSES2 = (1, 2, -1, -2, 5, 10, -5, -10)
_ODD = tuple(sum(((y & f).bit_count() & 1) << y for y in range(8)) for f in range(8))
_RULE = ((), (2,), (1, 2))  # by dimension, the basis of W_v at a good or multiplicative odd v
_BASIS = tuple(ys[:2] + ys[3:4] for ys in (tuple(y for y in range(8) if m >> y & 1) for m in range(256)))
# W_2 of y^2 = x^3 + bx keyed by e = v_2(b) < 4 and u = b/2^e, at 8e + (u % 16) // 2:
# bit x set for each class x != 0 of W_2, so that _BASIS reads a basis
_DX2 = (254, 152, 84, 16, 254, 16, 84, 50, 8, 32, 128, 2, 8, 32, 128, 2,
        4, 16, 84, 0, 84, 16, 64, 0, 14, 104, 164, 194, 14, 104, 164, 194)


def _span(rows, gens: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(|d|, d, mask) over the span of the independent rows, in class order, d the
    product of the mask's generators: each row's r doubles it by d * r / gcd(d, r)^2."""
    out = [(1, 1, 0)]
    for u in rows:
        r = prod(g for j, g in enumerate(gens) if u >> j & 1)
        out += [(abs(e), e, m ^ u) for _, d, m in out for e in (d * r // gcd(d, r) ** 2,)]
    return sorted(out)


def _preimage(rows: list[int], image: list[int]) -> list[int]:
    """A basis of the masks u with the XOR of the rows j in u inside the span of
    image: one elimination over image, then the rows, row j tagged at bit
    width + j; each row that clears below width leaves its tag, a mask u."""
    width = max(rows + image, default=0).bit_length()
    low, pivots, out = (1 << width) - 1, [0] * (width + 1), []  # pivots by top bit
    for r in image + [r | 1 << width + j for j, r in enumerate(rows)]:
        while top := (r & low).bit_length():
            if not pivots[top]:
                pivots[top] = r
                break
            r ^= pivots[top]
        else:
            if r:
                out.append(r >> width)
    return out


def selmer(E: Curve) -> SelmerSet:
    """Classes whose space C_d has points over R and every Q_p, p in S.

    The classes soluble at v form a subgroup W_v, the image of the local
    connecting map, so Sel is the preimage of their sum under an F_2 map; see _selmer."""
    return SelmerSet._of(tuple(SquareClass(d) for _, d, _ in _selmer(E, bad_set(E))[0]))


def _local_images(a: int, b: int, S: BadSet) -> tuple[int, int, list[tuple]]:
    """The masks of b' and b over (-1,) + S (bit 0 the sign, bit j odd v_pj), and per
    place v, R then S, a record (v, xs, W, W', tested): the generators' classes at v,
    bases of W_v and W'_v, the classes tested in order, None where no class is tested.

    At a place v, the classes d whose C_d has a point over Q_v form W_v,
    and those of E' form the annihilator W'_v of W_v under the Hilbert
    symbol (Cassels, Lectures on Elliptic Curves, LMS Student Texts 24).
    W_R holds -1 by _minus_one_real.  W_v at a prime is that of the reduced
    model (a/t^2, b/t^4), whose C_d is E's under z -> t z (Silverman, AEC
    X.4), and which is minimal at odd v, as is its E'.  Only 2 is tested.
    At an odd v prime to a/t^2 or to b b', |W_v| = 2 c_v(E')/c_v(E) (Schaefer,
    J. Number Theory 56 (1996), Lemma 3.8; phi'(0) is a unit at v): v is
    good, or E is I_2n and E' I_n at n = v(b/t^4) > 0, the reverse at
    n = v(b'/t^4) > 0, split iff a, resp. -2a, is a square mod v, and c(I_n)
    is n split, else 2 or 1 as n is even or odd (Silverman, Advanced Topics
    IV.9).  So dim W_v is 0 at v | b and 2 at v | b' when split or n is odd,
    else 1, and then W_v is the unit classes: they are unramified at good v;
    at v | b, a non-split v, a point of E' off the identity component has
    x = a mod v, a non-residue; at v | b', the non-residue x with x - 2a a
    nonzero square mod v lift to E'; the basis is _RULE[dim].
    At an odd v dividing a/t^2 and b, E' is additive, so E'_0(Q_v) is pro-v and
    W_v, the classes of x on E'(Q_v), is those on E'(Q_v)[2^oo], which injects
    into at most 4 components.  With e = v(b), f = v(b'), w = b/v^e, u = a/v, that
    is (0, 0), of class b', with (a + 2 sqrt(b), 0) when e is even and (w/v) = 1,
    of class v(u + 2r) for r = sqrt(w) mod v signed so that v does not divide
    u + 2r at e = 2, and r = 0 at e >= 4, where v(a) = 1; or with a half P of
    (0, 0), x(P)^2 = b', which valuations allow only at f = 2 < e, e odd, where
    x(P) = a sqrt(1 - 4b/a^2), of class a, and y^2 = 2b'(x - a) is a square iff
    (-uw/v) = 1.  At 2, y^2 = x^3 + bx depends only on the class of b in
    Q_2*/Q_2*^4, as (x, y) -> (u^2 x, u^3 y) takes b to u^4 b and keeps the class
    of x, and W_2 is the entry of _DX2 at (e, w mod 16).
    At 2 otherwise one pass over _ORDER tests each class x not yet known in or out of
    W_2: 0 and L_2(b') lie in W_2 (C_1 has the point (0, 1), C_b' a rational point
    at infinity), a class pairing to -1 with L_2(b), in the image of E', does not;
    a soluble x joins the basis and both known sets grow by their sums with it, an
    insoluble x puts its coset of the known soluble classes out.  W'_v is the y != 0
    pairing to 1 with every basis class, odd in no _ODD[pairs[x]]; _BASIS keeps the
    1st, 2nd and 4th, a basis: two distinct y are independent, and seven are 1 to 7."""
    bp = a * a - 4 * b
    gens = (-1,) + S.primes
    t, seed, dual, vals = 1, int(bp < 0), int(b < 0), []
    for j, q in enumerate(S.primes, 1):
        e, f = _val(b, q), _val(bp, q)
        k = e // 4 if a == 0 else min(_val(a, q) // 2, e // 4)
        t, seed, dual = t * q**k, seed | (f & 1) << j, dual | (e & 1) << j
        vals.append((e - 4 * k, f - 4 * k))  # v(b), v(b') of the reduced model
    places = [(0, [int(g < 0) for g in gens], *(((1,), ()) if _minus_one_real(a, b) else ((), (1,))), None)]
    a, b, bp = a // t**2, b // t**4, bp // t**4  # the reduced model of the local tests
    for v, (vb, vbp) in zip(S.primes, vals):
        if v == 2:
            xs = [(g == 2) | (g % 4 == 3) << 1 | (g % 8 in (3, 5)) << 2 for g in gens]
        else:
            xs = [(g == v) | (pow(g, v >> 1, v) == v - 1) << 1 for g in gens]
        pairs, s, b_image = _PAIRS[v % 4], 0, 0  # s = L_v(b'), b_image = L_v(b)
        for j, x in enumerate(xs):
            s ^= x * (seed >> j & 1)
            b_image ^= x * (dual >> j & 1)
        basis, tested, w = [s] if s else [], None, b // v**vb
        if v == 2 and a == 0:
            basis = _BASIS[_DX2[vb << 3 | w % 16 >> 1]]
        elif v == 2:
            known, bad, tested = {0, s}, set(), ()
            for x in _ORDER:
                if x in known or x in bad or (x & pairs[b_image]).bit_count() & 1:
                    continue
                tested += (x,)
                if _qp_soluble(_space(a, bp, _CLASSES2[x]), v):
                    basis.append(x)
                    known |= {x ^ k for k in known}
                    bad = {y ^ k for y in bad for k in known}
                else:
                    bad |= {x ^ k for k in known}
        elif a % v or not vb:  # good or multiplicative reduction
            dim = 1  # v divides at most one of b and b'
            if vb or vbp:
                dim += (-1 if vb else 1) * ((vb | vbp) & 1 or _euler(-2 * a if vbp else a, v) > 0)
            basis = _RULE[dim]
        else:  # additive reduction: (0, 0), with (a + 2 sqrt(b), 0) or a half of (0, 0)
            u = a // v
            if vb % 2 == 0 and _euler(w, v) > 0 or vb & 1 and vbp == 2 and _euler(-u * w, v) > 0:
                r = _sqrt_mod(w, v) if vb == 2 else 0
                x = 1 | (_euler(u + 2 * r if (u + 2 * r) % v else u - 2 * r, v) < 0) << 1
                if x != s:  # at e = 2, a - 2 sqrt(b) may be a square
                    basis.append(x)
        odd = 0
        for x in basis:
            odd |= _ODD[pairs[x]]
        places.append((v, xs, tuple(basis), _BASIS[(1 << len(pairs)) - 2 & ~odd], tested))
    return seed, dual, places


def _selmer(E: Curve, S: BadSet) -> tuple[list, list, int, int]:
    """Sel of E and of E' as _span lists (|d|, d, mask), then the masks of b' and b:
    the _preimage of the W_v and of the W'_v of _local_images, and each generator's
    row its classes there in turn, 1 bit at R, 3 at 2 and 2 at odd v."""
    seed, dual, places = _local_images(E.a2, E.a4, S)
    rows, images, off = [0] * (len(S.primes) + 1), ([], []), 0
    for v, xs, W, W_hat, _ in places:
        rows = [r | x << off for r, x in zip(rows, xs)]
        images[0].extend([x << off for x in W])
        images[1].extend([y << off for y in W_hat])
        off += 1 if v == 0 else 3 if v == 2 else 2
    sel, sel_hat = (_span(_preimage(rows, image), (-1,) + S.primes) for image in images)
    return sel, sel_hat, seed, dual


# Sieve moduli of the point search.  Per modulus q: the squares mod q, and
# per residue c, the unit square that makes c times it least mod q.
_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_SQUARES = {q: {i * i % q for i in range(q)} for q in _MODULI}
_SCALE = {q: tuple(min((s * c % q, s) for s in _SQUARES[q] if gcd(s, q) == 1)[1] for c in range(q))
          for q in _MODULI}
_BAND_BITS = 1 << 14  # a band holds as many rows of the height box as fit
_MAX_HEIGHT = 50_000  # a miss sieves all H^2 pairs: about 1.5 s at the bound on a 2-vCPU VM


def _check_height(H: int) -> None:
    if not isinstance(H, int) or isinstance(H, bool):
        raise DescentError(f"need an integer H, not {H!r}")
    if H < 1:
        raise DescentError("need H >= 1")
    if H > _MAX_HEIGHT:
        raise DescentError(f"need H <= {_MAX_HEIGHT}: the point search sieves an H x H box, in time that grows as H^2")


def _every(q: int, H: int, x: int = 1) -> int:
    """Copies of x at bits 0, q, 2q, ..., cut to bits 0 to H."""
    span = q
    while span <= H:
        x |= x << span
        span <<= 1
    return x & ((1 << (H + 1)) - 1)


@lru_cache(maxsize=len(_MODULI))
def _orbit_masks(q: int, W: int) -> tuple[tuple[int, int, int, int], ...]:
    """The pairs (k, m) mod q with gcd(k, m, q) = 1 in orbits under
    (k, m) -> (u*k, v*m), u and v units with u^2 = v^2 mod q, which keep
    gcd(k, m, q) and multiply a*m^4 + b*m^2*k^2 + c*k^4 by the unit square
    u^4.  Per orbit: m^4, m^2*k^2 and k^4 mod q at its first pair, and the
    mask of bits k*W + m, k < q and m < W, with (k, m) in the orbit mod q."""
    units = [u for u in range(1, q) if gcd(u, q) == 1]
    ones = [w for w in units if w * w % q == 1]  # u^2 = v^2 exactly when v = u*w
    cols = [_every(q, W - 1, 1 << m) for m in range(q)]  # the m' < W with m' = m mod q
    seen, out = set(), []  # pairs coded k*q + m
    for k, m in itertools.product(range(q), repeat=2):
        if k * q + m not in seen and gcd(k, m, q) == 1:
            seen |= (orbit := {u * k % q * q + u * w * m % q for u in units for w in ones})
            out.append((m**4 % q, m * m * k * k % q, k**4 % q, sum(cols[x % q] << x // q * W for x in orbit)))
    return tuple(out)


# The bands of one search share each form's period, so the LRU, one entry
# per modulus of a search, builds it once per search, not once per band.
# A search to H <= 127 is one band and never hits it (perfbench searches
# to 20 and 100); descent_report(Curve(0, 17, 0), H) hits it 827 times at
# H = 1000 and 895 times at H = 10000.
@lru_cache(maxsize=len(_MODULI))
def _period(q: int, a: int, b: int, c: int, W: int) -> int:
    """The _band_mask of the q rows from r = 0: the sum of the passing _orbit_masks."""
    return sum(mask for x, y, z, mask in _orbit_masks(q, W) if (a * x + b * y + c * z) % q in _SQUARES[q])


@lru_cache(maxsize=2048)
def _band_mask(q: int, a: int, b: int, c: int, W: int, r: int, R: int) -> int:
    """Bit k*W + m, k < R and m < W, set when gcd(m, n, q) = 1 and a*m^4 +
    b*m^2*n^2 + c*n^4 is a square mod q, n = r + k (mod q): the _period
    tiled to r + R rows, from which the first r are cut."""
    return _every(q * W, (r + R) * W - 1, _period(q, a, b, c, W)) >> r * W


def _first_square(c4: int, c2: int, c0: int, H: int):
    """First (m, n, r) with r^2 = c4*m^4 + c2*m^2*n^2 + c0*n^4, or None.

    The coprime pairs (m, n), n >= 1, of height max(|m|, n) <= H come in
    the order (height, n, |m|, m < 0).  N(m, n) depends on m^2 only, so
    -m is a hit exactly when m is, later in the order: only m >= 0 is
    tried.  The pairs with m in [0, H] are laid out row-major, bit
    (n - n0)*(H + 1) + m, in bands of as many rows n0, n0 + 1, ... as fit
    in _BAND_BITS (the whole box at H = 100, one row from H = 2^14).  A
    band is the AND of the _band_mask of its first B.bit_length() - 2 moduli
    q (at least one), B its bits: each keeps about half, leaving about four
    survivors, and an AND of 0 ends the band.  A mask's key scales the
    coefficients mod q by the unit square that makes the first nonzero one least.
    Survivors get the exact test low bit first, in the order (n, m).  A
    hit of height h is beaten only below h, so a later survivor with
    m >= h is passed over and one with n >= h ends the scan (h starts at
    H + 1): each later hit is lower, and the last is the first in the
    search order.  That hit is coprime with no coprimality test: a pair
    (g*m, g*n), g > 1, has N = g^4 N(m, n), so (m, n) is a hit of lower
    height, in an earlier row.  The moduli drop the pairs with a common
    prime factor up to 43 only to spare their exact tests.
    """
    W = H + 1
    R = min(H, max(1, _BAND_BITS // W))
    forms = []
    for q in _MODULI[:max(1, (R * W).bit_length() - 2)]:
        a, b, c = c4 % q, c2 % q, c0 % q
        s = _SCALE[q][a or b or c]
        forms.append((q, s * a % q, s * b % q, s * c % q))
    hit, h = None, H + 1
    for n0 in range(1, H + 1, R):
        if n0 >= h:
            break
        mask = -1
        for q, a, b, c in forms:
            mask &= _band_mask(q, a, b, c, W, n0 % q, R)
            if not mask:
                break
        while mask:
            low = mask & -mask
            mask ^= low
            k, m = divmod(low.bit_length() - 1, W)
            n = n0 + k
            if n >= h:  # so are the rest
                break
            if m >= h:
                continue
            m2, n2 = m * m, n * n
            N = c4 * m2 * m2 + c2 * m2 * n2 + c0 * n2 * n2
            if N >= 0:
                r = isqrt(N)
                if r * r == N:
                    hit, h = (m, n, r), max(m, n)
    return hit


class DescentReport(Record):
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


def _on_curve_xyz(E: Curve, P: tuple[int, int, int]) -> bool:
    """Whether x = X/Z^2, y = Y/Z^3 of P = (X, Y, Z) lie on E, a model with a6 = 0."""
    X, Y, Z = P
    return Y * Y == X * (X * X + E.a2 * X * Z * Z + E.a4 * Z**4)


def _keys(P, Q):
    """(|x|, x, |y|) of P and of Q, each (X, |Y|, Z > 0), times (Z_P Z_Q)^2, ^2 and ^3."""
    (X1, Y1, Z1), (X2, Y2, Z2) = P, Q
    u, v = X1 * Z2 * Z2, X2 * Z1 * Z1
    return (abs(u), u, Y1 * Z2**3), (abs(v), v, Y2 * Z1**3)


def _generators(a: int, tors: TorsionGroup, points: list[tuple[int, int, int]]) -> tuple[Pt, ...]:
    """Per point Q of infinite order among points, the least of the points +-(Q + T),
    T torsion, in the order (|x|, x, |y|), once each.  Torsion points are integral
    (Nagell-Lutz), so only a Q with Z^2 | X and Z^3 | Y can be one.  Q + T for
    T = (x, y) is a mixed Jacobian sum (Cohen, Miyaji & Ono, ASIACRYPT 1998), with
    x(Q) != x(T) as Q is not torsion.  A Pt is built only for each one kept."""
    pairs = [(T.x.numerator, T.y.numerator) for T in tors.points[1:]]
    kept: list[tuple[int, int, int]] = []
    for X1, Y1, Z1 in points:
        z2 = Z1 * Z1
        if X1 % z2 == 0 and Y1 % (z2 * Z1) == 0 and (X1 // z2, Y1 // (z2 * Z1)) in pairs:
            continue
        best = (X1, abs(Y1), abs(Z1))
        for x, y in pairs:
            h, r = x * z2 - X1, y * z2 * Z1 - Y1
            Z3, hh = Z1 * h, h * h
            X3 = r * r - a * Z3 * Z3 - hh * (X1 + x * z2)
            P = (X3, abs(r * (X1 * hh - X3) - Y1 * hh * h), abs(Z3))
            if lt(*_keys(P, best)):
                best = P
        if all(ne(*_keys(best, K)) for K in kept):
            kept.append(best)
    return tuple(Pt(Fraction(X, Z * Z), Fraction(Y, Z**3)) for X, Y, Z in kept)


def _certify_direction(a: int, bp: int, sel: list[tuple[int, int, int]], seed: int, H: int):
    """Search the spaces _space(a, bp, d) of the classes of one direction's
    Selmer list sel; returns (the positions in sel of the certified classes,
    hits), each hit (d, m, n, r) the point z = m/n, Y = r/n^2 of C_d.

    The image of delta is a subgroup, so any class inside the span of
    already-certified masks needs no search of its own.  The span starts
    at the torsion images 1 and the seed, the only classes whose space
    has a point at z = 0 or infinity, so every hit has m != 0.
    """
    span = {0, seed}
    hits = []
    for _, d, mask in sel:
        if mask not in span and (hit := _first_square(*_space(a, bp, d)[::2], H)) is not None:
            hits.append((d, *hit))
            span |= {mask ^ s for s in span}
    image = [i for i, (_, _, mask) in enumerate(sel) if mask in span]
    if len(image) < len(span):
        raise DescentError("certified a class outside the Selmer set")
    return image, hits


def descent_report(E: Curve, H: int) -> DescentReport:
    _check_height(H)
    pair = isogenous_curve(E)
    # E' has the bad set of E, since b'' = 16b
    S = bad_set(E)
    # The codomain's 2-torsion gives delta(O) = 1 and delta((0, 0)) = the
    # class of its own a4: Selmer and the certified images start there.
    sel_phi, sel_hat, seed_phi, seed_hat = _selmer(E, S)
    tors = torsion_subgroup(E)
    notes: list[str] = []
    a, b, bp = E.a2, E.a4, pair.b_prime
    image_phi, hits_phi = _certify_direction(a, bp, sel_phi, seed_phi, H)
    image_hat, hits_hat = _certify_direction(-2 * a, 16 * b, sel_hat, seed_hat, H)
    # A hit of C_d on (a, b') lifts by psi(z, w) = (d/z^2, -d*w/z^3) to E',
    # descends by phi-hat (x, y) -> (y^2/x^2, y(b' - x^2)/x^2) to
    # E'' = (4a, 16b) and rescales by (x/4, y/8) to E; a hit on (-2a, 16b)
    # lifts to E'' and rescales.  Both x = d/z^2 are nonzero.  A point is
    # (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
    points = [(r * r, d * r * (d * d * n**4 - bp * m**4), 2 * d * m * n) for d, m, n, r in hits_phi]
    points += [(d * n * n, -r * n, 2 * m) for d, m, n, r in hits_hat]
    if not all(P[2] and _on_curve_xyz(E, P) for P in points):
        raise DescentError("a lifted point did not descend onto the curve")

    phi, hat = (tuple(SquareClass(d) for _, d, _ in sel) for sel in (sel_phi, sel_hat))
    s, sp, g, gp = (len(c).bit_length() - 1 for c in (phi, hat, image_phi, image_hat))
    rank_upper = s + sp - 2
    rank_lower = max(0, g + gp - 2)
    # rank = dim_2 E/2E - dim_2 E[2](Q).  Splicing the two descent
    # directions gives dim_2 E/2E = s + s' - dim_2 E'(Q)[phi-hat]
    # - dim_2 phi(E(Q)[2]); whether E[2](Q) has order 2 or 4, the three
    # correction terms add up to -2, hence the single formula below.
    if rank_lower > rank_upper:
        raise DescentError("certified images exceed the Selmer groups")
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
        selmer_phi=SelmerSet._of(phi),
        selmer_phi_hat=SelmerSet._of(hat),
        image_phi=SelmerSet._of(tuple(phi[i] for i in image_phi)),
        image_phi_hat=SelmerSet._of(tuple(hat[i] for i in image_hat)),
        rank_lower=rank_lower,
        rank_upper=rank_upper,
        rank_exact=rank_exact,
        sha_phi_dim_upper=sha_phi,
        sha_phi_hat_dim_upper=sha_hat,
        torsion=tors,
        generators=_generators(a, tors, points),
        search_height=H,
        notes=tuple(notes),
    )
