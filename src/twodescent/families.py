"""Closed forms for the families y^2 = x^3 + p*x, x^3 + D*x, x^3 + D.

For E_p : y^2 = x^3 + px (p an odd prime) the two Selmer sets depend
only on p mod 16, and rank + dim_2 Sha[2] is pinned to 0, 1 or 2 by the
same residue.  The only undecided case is p = 1 (mod 8) with 2 a
quartic residue mod p: there the rank is 0 or 2, and a point search on
the three spaces C_{-1}, C_2, C_{-2} settles 2 while 0 stays a
conjecture at any finite height.

Everything here is a theorem-shaped shortcut around the generic engine;
the equivalence of the two is part of the test suite, and the torsion
tables re-verify themselves against the generic computation on the fly.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd, isqrt

from .arith import (
    SquareClass,
    _cube_root_exact,
    factorize,
    is_prime,
    quartic_residue_gauss,
    sieve_primes,
    two_squares,
)
from .curve import Curve, TorsionGroup, from_cubic_const, torsion_subgroup
from .descent import SelmerSet, _span

__all__ = [
    "FamilyError",
    "RankResult",
    "EpRow",
    "ep_selmer",
    "ep_rank_sha_dim",
    "ep_rank",
    "edx_torsion",
    "edx_rank_upper",
    "edconst_torsion",
    "ep_table",
]

_EP_TABLE_BUDGET = 10**6


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class RankResult:
    kind: str  # "exact" | "exact_conditional_on_finite_sha" | "interval"
    lo: int
    hi: int
    note: str = ""

    def __post_init__(self):
        if self.kind in ("exact", "exact_conditional_on_finite_sha"):
            if self.lo != self.hi:
                raise FamilyError("exact results need lo = hi")
        elif self.kind == "interval":
            if self.lo >= self.hi:
                raise FamilyError("interval results need lo < hi")
        else:
            raise FamilyError(f"unknown kind {self.kind!r}")


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise FamilyError("need an odd prime")


def _selmer_of(vals) -> SelmerSet:
    return SelmerSet(tuple(sorted(SquareClass(v) for v in vals)))


def ep_selmer(p: int):
    """(Sel^phi, Sel^phi-hat) of y^2 = x^3 + px, by p mod 16."""
    _check_odd_prime(p)
    return _ep_selmer(p)


def _ep_selmer(p: int):
    r = p % 16
    if r in (7, 11):
        phi = (1, -p)
    elif r == 3:
        phi = (1, -p, -2, 2 * p)
    elif r == 15:
        phi = (1, -p, 2, -2 * p)
    elif r in (5, 13):
        phi = (1, -1, p, -p)
    else:  # r in (1, 9)
        phi = (1, -1, 2, -2, p, -p, 2 * p, -2 * p)
    return _selmer_of(phi), _selmer_of((1, p))


def ep_rank_sha_dim(p: int) -> int:
    """rank + dim_2 Sha[2] for y^2 = x^3 + px: 0, 1 or 2 by p mod 16."""
    _check_odd_prime(p)
    return _ep_rank_sha_dim(p)


def _ep_rank_sha_dim(p: int) -> int:
    r = p % 16
    if r in (7, 11):
        return 0
    if r in (3, 5, 13, 15):
        return 1
    return 2


# ---------------------------------------------------------------------------
# Structured point searches for the E_p spaces.
#
# With a = 0, b = p, b' = -4p and z = m/n the six spaces away from the
# seed class reduce to norm equations in rings of class number 1:
#
#   C_{-1}:  W^2 + (n^2)^2 = 4 p m^4        Z[i],         per numerator
#   C_{-2}:  (n^2)^2 + 2 s^2 = p m^4        Z[sqrt(-2)],  per numerator
#   C_2:     (n^2)^2 - 2 s^2 = p m^4        Z[sqrt(2)],   per numerator
#   C_p:     W^2 + (2 m^2)^2 = p n^4        Z[i],         per denominator
#   C_2p:    (m^2)^2 + 2 s^2 = p n^4        Z[sqrt(-2)],  per denominator
#   C_-2p:   (m^2)^2 - 2 s^2 = p n^4        Z[sqrt(2)],   per denominator
#
# Bounding one side k of z, the other side comes out of the prime
# splittings: a finite product for the two imaginary forms, finite up
# to the unit 3 + 2*sqrt(2) for the real one, where a bounded orbit
# walk stands in for the unit power.  Either way the free side of z is
# reached at any size, far beyond a naive height schedule, and the six
# searches pair up into the three cosets of the seed subgroup {1, -p},
# any two of which certify rank 2.
#
# Only primitive representations can give a point.  Every hit needs
# gcd(k, free side) = 1.  Take a prime q of k.  If q does not split in
# the ring (q inert, or q = 2, which ramifies and leaves 4^e of norm
# 2^(4e) as a scalar), or if a product takes pi_q in one factor and
# pi-bar_q in another, then q divides both components of every element
# of norm p k^4 (4 p k^4 for C_{-1}) that the product yields, and every
# unit multiple of it.  So q divides the candidate square, hence the
# free side, and the gcd test fails.  Each split q therefore contributes
# pi_q^(4e) or pi-bar_q^(4e) and nothing else, a k with a non-split
# prime leaves nothing to find, and only split-smooth odd k are walked.
# p itself contributes pi_p alone, as it always did for the real form:
# conjugating a whole product keeps its |components|, so the pi-bar_p
# products add nothing to the imaginary forms.  Where p divides k the
# product pi_p * pi-bar_p^(4e) is not primitive and simply never hits.
# A norm p k^4 thus has at most 2^omega(k) candidates, not prod(4e + 1).


def _pair_mul(x, y, c):
    """(x0 + x1 t)(y0 + y1 t) with t^2 = -c."""
    return (x[0] * y[0] - c * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_pow(x, e, c):
    out = (1, 0)
    while e:
        if e & 1:
            out = _pair_mul(out, x, c)
        x = _pair_mul(x, x, c)
        e >>= 1
    return out


# primes q that split in Z[sqrt(-c)]: q mod modulus in residues
_SPLIT = {1: (4, (1,)), 2: (8, (1, 3)), -2: (8, (1, 7))}


@cache
def _prime_root(q: int, c: int):
    """(u, v) with u^2 + c*v^2 = q for a prime q split in Z[sqrt(-c)], else None.

    c is 1, 2 or -2.  For c = 1 this is two_squares(q); the scans for
    c = 2 and c = -2 return the first root in a fixed order, so the
    orbit walk for the real form always starts from the same element.
    """
    modulus, residues = _SPLIT[c]
    if q % modulus not in residues:
        return None
    if c == 1:
        return two_squares(q)
    if c == 2:
        for v in range(1, isqrt(q // 2) + 1):
            u2 = q - 2 * v * v
            u = isqrt(u2)
            if u * u == u2:
                return u, v
    else:
        for b in range(isqrt(q) + 2):
            t = q + 2 * b * b
            a = isqrt(t)
            if a * a == t:
                return a, b
            t = 2 * b * b - q
            if t >= 0:
                a = isqrt(t)
                if a * a == t:
                    # norm -q; the unit 1 + sqrt(2) flips the sign
                    return a + 2 * b, a + b
    raise FamilyError(f"{q} is not represented by x^2 + {c}y^2")


def _primitive_products(p: int, factors, c: int) -> list:
    """pi_p times pi-bar_q^(4e) or pi_q^(4e) for each q^e in factors.

    factors is the factorization of k into primes split in Z[sqrt(-c)].
    The result holds every primitive element of norm p*k^4 up to units
    and conjugation, in a fixed order: the last prime varies fastest,
    its conjugate power first.  Empty when p does not split.
    """
    pi = _prime_root(p, c)
    if pi is None:
        return []
    zs = [pi]
    for q, e in factors:
        a = _pair_pow(_prime_root(q, c), 4 * e, c)
        zs = [_pair_mul(z, f, c) for z in zs for f in ((a[0], -a[1]), a)]
    return zs


@cache
def _split_smooth(cap: int, modulus: int, residues: tuple):
    """Odd k <= cap whose prime factors all lie in residues mod modulus,
    as (k, factorization) pairs in increasing order."""
    spf = list(range(cap + 1))
    for i in range(2, isqrt(cap) + 1):
        if spf[i] == i:
            for j in range(i * i, cap + 1, i):
                if spf[j] == j:
                    spf[j] = i
    out = []
    for k in range(1, cap + 1, 2):
        kk = k
        fac = []
        while kk > 1:
            q = spf[kk]
            if q % modulus not in residues:
                fac = None
                break
            e = 0
            while kk % q == 0:
                kk //= q
                e += 1
            fac.append((q, e))
        if fac is not None:
            out.append((k, tuple(fac)))
    return out


def _orbit_square_x(z0, m, step_cap=64):
    """Scan the unit orbit of z0 in Z[sqrt(2)] for |x| a square prime to m."""
    for t in (1, -1):
        # z0, then z0 * (3 - 2 sqrt 2); each step multiplies by 3 + 2t sqrt 2
        x, s = z0 if t == 1 else (3 * z0[0] - 4 * z0[1], 3 * z0[1] - 2 * z0[0])
        for _ in range(step_cap):
            n = isqrt(abs(x))
            if s and n * n == abs(x) and gcd(m, n) == 1:
                return n, abs(s)
            x, s = 3 * x + 4 * t * s, 3 * s + 2 * t * x
    return None


def _ep_space_point(p: int, d: int, H: int):
    """Point (z, w) on C_d for y^2 = x^3 + px with the bounded side <= H.

    d is one of -1, -2, 2 (numerator bounded) or p, 2p, -2p
    (denominator bounded).  The bounded side k runs over the odd k <= H
    whose primes all split in the ring of d, in increasing order; any
    other k has no primitive representation (see above), and parity
    rules out even k.  Since the free side comes out at any size, a
    large H reaches certificates far beyond a height search: ep_rank
    rescans C_{-1} and C_{-2} this way with H in the tens of thousands.
    """
    c = {-1: 1, p: 1, -2: 2, 2 * p: 2, 2: -2, -2 * p: -2}.get(d)
    if c is None:
        raise FamilyError(f"no structured search for class {d}")
    for k, fac in _split_smooth(H, *_SPLIT[c]):
        for z in _primitive_products(p, fac, c):
            # (candidate square of the free side, numerator of w)
            if c == -2:
                hit = _orbit_square_x(z, k)
                cands = [] if hit is None else [(hit[0] ** 2, 2 * hit[1])]
            elif c == 2:
                cands = [(abs(z[0]), 2 * abs(z[1]))]
            elif d == -1:
                # twice a rep of p k^4 is a rep W^2 + (n^2)^2 of 4 p k^4
                u, v = 2 * abs(z[0]), 2 * abs(z[1])
                cands = [(u, v), (v, u)]
            else:
                # C_p: (2 m^2)^2 + W^2 = p k^4
                u, v = abs(z[0]), abs(z[1])
                cands = [(a // 2, b) for a, b in ((u, v), (v, u)) if a % 2 == 0]
            for f2, other in cands:
                f = isqrt(f2)
                if f and f * f == f2 and gcd(k, f) == 1:
                    if d in (-1, -2, 2):
                        return Fraction(k, f), Fraction(other, f * f)
                    return Fraction(f, k), Fraction(other, k * k)
    return None


_DEEP_FACTOR = 1000


def ep_rank(p: int, H: int = 20) -> RankResult:
    """Rank of y^2 = x^3 + px, exactly where a theorem reaches.

    p = 7, 11 (mod 16): 0 unconditionally.  p = 3, 5, 13, 15: 1, given
    finiteness of Sha.  p = 1, 9: rank is 0 or 2; 0 is certain when 2
    is not a quartic residue mod p, and 2 is certified by points found
    on the homogeneous spaces; otherwise the interval stands.
    """
    _check_odd_prime(p)
    if H < 1:
        raise FamilyError("need H >= 1")
    r = p % 16
    if r in (7, 11):
        return RankResult("exact", 0, 0, "both Selmer sets are the minimal subgroup")
    if r in (3, 5, 13, 15):
        return RankResult(
            "exact_conditional_on_finite_sha", 1, 1,
            "Selmer residual of dimension 1 falls on the rank side when Sha is finite",
        )
    if not quartic_residue_gauss(p):
        return RankResult(
            "exact", 0, 0,
            f"2 is not a quartic residue mod {p}; the full Selmer residual is Sha",
        )
    # 2 is a quartic residue: rank is 0 or 2.  Certify 2 by searching
    # one space from each coset of the seed subgroup {1, -p}; any two
    # distinct cosets generate a span of dimension 3.  The dual side is
    # already saturated by its 2-torsion, so g + 1 - 2 is the certified
    # lower bound.
    span = _span({SquareClass(-p)})
    for coset in ((-2, 2 * p), (-1, p), (2, -2 * p)):
        for d in coset:
            if _ep_space_point(p, d, H) is not None:
                span = _span(span | {SquareClass(d)})
                break
        if len(span) == 8:
            break
    if len(span) == 4:
        # one coset certified, so the curve carries a nontrivial point;
        # if the rank is 2 the missing certificate exists too but its
        # numerator can be enormous, so rescan the two imaginary spaces
        # over the split semigroup with a much larger cap
        for d in (-1, -2):
            if SquareClass(d) not in span and \
                    _ep_space_point(p, d, _DEEP_FACTOR * H) is not None:
                span = _span(span | {SquareClass(d)})
                break
    g = len(span).bit_length() - 1
    if g + 1 - 2 == 2:
        return RankResult("exact", 2, 2, f"two independent points of height <= {H}")
    if g >= 2:
        return RankResult(
            "interval", 0, 2,
            f"one space certified up to {H}; the matching second certificate "
            "was not found",
        )
    return RankResult("interval", 0, 2, f"conjecturally 0; no points up to {H}")


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _check_power_free(D: int, e: int) -> None:
    if D == 0:
        raise FamilyError("D must be nonzero")
    if any(m >= e for _, m in factorize(D).factors):
        raise FamilyError(f"D must be {e}th-power-free; reduce it first")


def edx_torsion(D: int) -> TorsionGroup:
    """Torsion of y^2 = x^3 + Dx: Z4 for D = 4, Z2xZ2 for -D square, else Z2."""
    _check_power_free(D, 4)
    if D == 4:
        expected = [4]
    elif _is_square(-D):
        expected = [2, 2]
    else:
        expected = [2]
    T = torsion_subgroup(Curve(0, D, 0))
    if T.invariants() != expected:
        raise FamilyError(
            f"torsion table and generic computation disagree at D = {D}"
        )
    return T


def edx_rank_upper(D: int) -> int:
    """rank of y^2 = x^3 + Dx is at most 2*nu(2D) - 1, nu = #prime divisors."""
    if D == 0:
        raise FamilyError("D must be nonzero")
    return 2 * len(factorize(2 * D).primes()) - 1


def edconst_torsion(D: int) -> TorsionGroup:
    """Torsion of y^2 = x^3 + D: Z6 at D = 1, Z3 for squares and -432,
    Z2 for cubes, trivial otherwise."""
    _check_power_free(D, 6)
    c = _cube_root_exact(D)
    if D == 1:
        expected = [6]
    elif (D != 1 and _is_square(D)) or D == -432:
        expected = [3]
    elif c is not None:
        expected = [2]
    else:
        expected = []
    T = torsion_subgroup(Curve(0, 0, D))
    if T.invariants() != expected:
        raise FamilyError(
            f"torsion table and generic computation disagree at D = {D}"
        )
    if c is not None:
        # the shifted model puts the 2-torsion point at the origin; the
        # two computations must agree on the group shape
        T2 = torsion_subgroup(from_cubic_const(c))
        if T2.invariants() != T.invariants():
            raise FamilyError(
                f"shifted-model torsion disagrees at D = {D}"
            )
    return T


@dataclass(frozen=True)
class EpRow:
    p: int
    selmer_dim_phi: int
    selmer_dim_phi_hat: int
    rank_sha_dim: int
    rank: RankResult


def _ep_row(p: int, height: int) -> EpRow:
    # p comes from the sieve; ep_rank alone re-checks it, once per row
    phi, phi_hat = _ep_selmer(p)
    return EpRow(
        p=p,
        selmer_dim_phi=phi.dim2,
        selmer_dim_phi_hat=phi_hat.dim2,
        rank_sha_dim=_ep_rank_sha_dim(p),
        rank=ep_rank(p, height),
    )


def ep_table(
    p_max: int,
    *,
    mod8: int | None = None,
    quartic_only: bool = False,
    height: int = 20,
    jobs: int | None = None,
) -> list[EpRow]:
    """One row per odd prime p <= p_max, with optional residue filters.

    quartic_only keeps p with 2 a fourth power mod p (forces p = 1 mod 8).
    Rows come back sorted by p regardless of worker scheduling.
    """
    if p_max > _EP_TABLE_BUDGET:
        raise FamilyError(f"p_max beyond the {_EP_TABLE_BUDGET} budget")
    ps = [p for p in sieve_primes(max(p_max, 2)) if p > 2]
    if mod8 is not None:
        ps = [p for p in ps if p % 8 == mod8]
    if quartic_only:
        ps = [p for p in ps if p % 8 == 1 and quartic_residue_gauss(p)]
    worker = partial(_ep_row, height=height)
    if jobs is not None and jobs > 1 and len(ps) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(worker, ps, chunksize=16))
    else:
        rows = [worker(p) for p in ps]
    return sorted(rows, key=lambda r: r.p)
