"""Closed forms for the families y^2 = x^3 + p*x, x^3 + D*x, x^3 + D.

For E_p : y^2 = x^3 + px (p an odd prime) the two Selmer sets depend
only on p mod 16, and rank + dim_2 Sha[2] is pinned to 0, 1 or 2 by the
same residue.  The only undecided case is p = 1 (mod 8) with 2 a
quartic residue mod p: there the rank is 0 or 2, and a point search on
the three spaces C_{-1}, C_2, C_{-2} settles 2 while 0 stays a
conjecture at any finite height.

Everything here is a theorem-shaped shortcut around the generic engine;
the equivalence of the two is part of the test suite and of
`twodescent family ... --check`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import accumulate, chain, groupby, repeat
from math import gcd, isqrt, prod
from operator import itemgetter, sub

from .arith import (
    Record,
    SquareClass,
    _cornacchia,
    _root_exact,
    _sieve_flags,
    _sqrt_mod,
    _two_squares,
    factorize,
    is_prime,
    sieve_primes,
)
from .curve import INFINITY, TorsionGroup, _character, pt
from .descent import SelmerSet, _SQUARES, _every

__all__ = ["FamilyError", "RankResult", "EpRow", "ep_selmer", "ep_rank_sha_dim", "ep_rank", "edx_torsion",
           "edx_rank_upper", "edconst_torsion", "ep_table"]

_EP_TABLE_BUDGET = 10**6


class FamilyError(ValueError):
    pass


class RankResult(Record):
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


def ep_selmer(p: int):
    """(Sel^phi, Sel^phi-hat) of y^2 = x^3 + px, by p mod 16."""
    _check_odd_prime(p)
    return tuple(SelmerSet(tuple(sorted(SquareClass(v) for v in vals)))
                 for vals in _ep_selmer(p))


def _ep_selmer(p: int):
    """The two Selmer sets as tuples of distinct representatives."""
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
    return phi, (1, p)


def ep_rank_sha_dim(p: int) -> int:
    """rank + dim_2 Sha[2] for y^2 = x^3 + px: s + s' - 2, so 0, 1 or 2 by p mod 16."""
    _check_odd_prime(p)
    return sum(_ep_dims(p % 16)) - 2


def _ep_dims(r: int):
    """The two Selmer dimensions of E_p for p = r (mod 16)."""
    return tuple(len(reps).bit_length() - 1 for reps in _ep_selmer(r))


# ---------------------------------------------------------------------------
# Structured point searches for the E_p spaces.
#
# With a = 0, b = p, b' = -4p and z = m/n one space of each coset of
# the seed subgroup {1, -p} reduces to a norm equation in a ring of
# class number 1:
#
#   C_{-1}:  W^2 + (n^2)^2 = 4 p m^4        Z[i]
#   C_{-2}:  (n^2)^2 + 2 s^2 = p m^4        Z[sqrt(-2)]
#   C_2:     (n^2)^2 - 2 s^2 = p m^4        Z[sqrt(2)]
#
# Bounding the numerator k of z, the free side comes out of the prime
# splittings: a finite product for the two imaginary forms, finite up
# to the unit 3 + 2*sqrt(2) for the real one, where a bounded orbit
# walk stands in for the unit power.  Either way the free side of z is
# reached at any size, far beyond a naive height schedule, and any two
# cosets certify rank 2.  The other space of a coset needs no search of
# its own: translation by the 2-torsion point (0, 0) of E' maps C_d onto
# C_{-pd} by z -> d/(2z), which makes k the denominator and keeps the
# norm equation and its rows, so with k <= H one has a point exactly
# when the other has.
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
# p contributes pi_p alone: conjugating a whole product keeps its
# |components|, and where p divides k, pi_p * pi-bar_p^(4e) is not
# primitive.  So a norm p k^4 has at most 2^omega(k) candidates, each
# pi_p times a row of the product table for (H, c), shared by every p.
# Its rows run over the split-smooth k <= H in increasing order.  Most of
# the sweep's deep rescans hit (70 of its 90 at height 20: C_{-1} 49 of 63,
# C_{-2} 21 of 27), but the other 20 read their tables to the end, so a
# table is built whole on the first scan that asks for it, prime by prime:
# each split q takes every m <= H / q^e of smaller primes to k = m q^e, one
# block of rows per k, and the blocks, sorted by k, are joined as slices.
# A k's block depends on k alone, so the table for H / 32 is the prefix of
# the table for H up to k = H / 32: above the sweep's cap a rescan reads
# that prefix first and builds the table for H only if it finds no hit.
# Row m-1-t of the m rows of a k > 1 is the conjugate (X, -Y)
# of row t, by induction on the rows of k / q^e times pi-bar_q^(4e) and
# pi_q^(4e): the table stores the first half of each k, which a scan reads
# forward, then mirrored backward.  In Z[i] each row is a product of fourth
# powers of u + v i, u odd, v even, so X is odd, 8 | Y, and with
# pi_p = a + b i, a odd, b even, 2 (a X - b Y) = 2 (mod 4) is no square:
# C_{-1} hits only on twice y, the x of -i pi_p times the row.
# The elements pi_q come from one pass over each norm form as far as the
# sieve reaches; an isolated prime beyond it still takes Cornacchia's descent.
# ep_rank takes H <= 1000, so the rescan cap is 10^6, |X|, |Y| <= k^2 <=
# 10^12 for c = 1, 2, and the real form, searched only up to H, takes
# 29 bits: every table entry fits in 64 bits.
# Residue filters choose the rows a scan tests exactly.  With t = X/Y
# the components of pi_p (X + Y sqrt(-c)), pi_p = a + b sqrt(-c), are
# Y (a t - c b) and Y (b t + a), so modulo a prime l = 1 (mod 4) a
# candidate's character is chi_l(Y) times a shifted chi_l(t).  One byte
# per stored row and l, (t, chi_l(Y)) or chi_l(X) when l | Y, codes this
# for every p, and a call turns the codes into pass or fail through a
# 256-byte table cut from two periods of chi_l.  As -1 is a square mod
# l, the sign that |x| drops does not matter, and a mirror's t is
# negated with chi_l(Y) kept: the table of the negated shift reads its
# verdict off its stored row's code, into bit 1 beside the row's bit 0.
# Mod l = 3 (mod 4) signs would matter, and such l filter nothing.
# Nothing is tested mod 16: ep_rank scans only p with 2 a fourth power
# mod p, and for such p the rows, products of fourth powers, leave every
# candidate a possible square mod 16.  A bytes.translate per code and an
# AND of the results as ints leave the surviving rows of a chunk of
# _CHUNK stored rows, run on to the end of a k, and sorting restores the
# scan order; a chunk is coded when a filtered scan first reaches it.
# Along a unit orbit x mod q has a period dividing 24 for each q of
# _ORBIT_MODULI, so per-modulus masks indexed by (x0, 2 s0) mod q mark
# the steps where x, or -x, can be a square, packed in one int, and only
# those steps get their exact element.


# primes q that split in Z[sqrt(-c)]: q mod modulus in residues
_SPLIT = {1: (4, (1,)), 2: (8, (1, 3)), -2: (8, (1, 7))}
_RING = {-1: 1, -2: 2, 2: -2}  # per searched space C_d: the c of its ring Z[sqrt(-c)]
_ROOTS = {c: (0, array("q"), array("q"), array("q")) for c in _SPLIT}  # per c: bound, columns q, u, v


def _fill_roots(bound: int, c: int):
    """Columns q, u, v of the split primes q = u^2 + c v^2 <= bound, q increasing
    and (u, v) = _prime_root(q, c), from one walk over a fundamental domain of
    the form that keeps each value the sieve flags as prime; a larger bound refills."""
    if bound > _ROOTS[c][0]:
        # q = x^2 + c y^2, x odd and y > 0: y even for c = 1 (as two_squares has it),
        # x > 2y for c = -2 (x = 2v - u, y = v - u, as _prime_root turns Cornacchia's)
        prime, r, step = _sieve_flags(bound), isqrt(bound), 2 if c == 1 else 1
        found = [(q, x, y) for y in range(step, r + 1, step) for cyy in [c * y * y]
                 for x in range(2 * y + 1 if c < 0 else 1, isqrt(max(bound - cyy, 0)) + 1, 2)
                 if prime[q := x * x + cyy]]
        found.sort(key=itemgetter(0))
        _ROOTS[c] = bound, *(array("q", map(itemgetter(i), found)) for i in range(3))
    return _ROOTS[c][1:]


def _prime_root(q: int, c: int):
    """(u, v) with u^2 + c*v^2 = q for a prime q split in Z[sqrt(-c)], else None.

    c is 1, 2 or -2.  For c = 1 this is two_squares(q), u odd and v even,
    without proving q prime again.  Read off the root table of c where it
    reaches q; beyond it, Cornacchia's descent from a square root of -c mod
    q (Cohen, Algorithm 1.5.2) gives u, v >= 0, for c = -2 then turned to
    norm q by a unit, so the real form's orbit walk always starts there.
    """
    bound, qs, us, vs = _ROOTS[c]
    if q <= bound:
        i = bisect_left(qs, q)
        return (us[i], vs[i]) if i < len(qs) and qs[i] == q else None
    modulus, residues = _SPLIT[c]
    if q % modulus not in residues:
        return None
    if c == 1:
        return _two_squares(q)
    u, v = _cornacchia(q, c, _sqrt_mod(-c, q))
    if c == 2:
        return u, v
    # u^2 - 2v^2 = -q with 0 <= u < v < sqrt(q), so u + v sqrt(2) already
    # has the least v on its unit orbit and its conjugate's; the unit
    # 1 + sqrt(2) turns -u + v sqrt(2) to norm q, (2v - u) + (v - u) sqrt(2)
    return 2 * v - u, v - u


class _ProductTable:
    """Columns ks, xs, ys of the first half of each k's products of
    pi-bar_q^(4e) or pi_q^(4e) over q^e || k, for the split-smooth k <= H in
    increasing order.  The last prime varies fastest, its conjugate power
    first: the stored rows of k extend those of k / q^e.  codes holds the
    residue codes of each chunk by its first row, filled as filtered scans
    reach it."""

    def __init__(self, H: int, c: int):
        qs, us, vs = _fill_roots(H, c)
        n = bisect_right(qs, H)
        tail = bisect_right(qs, H // qs[0], 0, n) if n else 0  # past it, no m > 1 takes q
        xs, ys = array("q", [1]), array("q", [0])  # the stored rows, block by block as made
        ks, firsts = array("q", [1]), array("q", [0])  # per block: its k, its first row
        grow = [(1, 0, 1)]  # (k, first row, end) of the k that a larger prime may still extend, by k
        for q, u, v in zip(qs[:tail], us, vs):  # q increasing: m q^e for each m of primes < q
            del grow[bisect_right(grow, H // q, key=itemgetter(0)):]
            u, v = (u * u - c * v * v) ** 2 - 4 * c * (u * v) ** 2, 4 * u * v * (u * u - c * v * v)  # pi_q^4
            qe, u4, v4, new = q, u, v, []
            while qe <= H:
                cv4 = c * v4
                for m, lo, hi in grow:
                    k = m * qe
                    if k > H:
                        break
                    ks.append(k)
                    firsts.append(len(xs))
                    if m == 1:  # pi-bar_q^(4e) alone: pi_q^(4e) is its mirror
                        xs.append(u4)
                        ys.append(-v4)
                    else:
                        for X, Y in zip(xs[lo:hi], ys[lo:hi]):  # times pi-bar_q^(4e), pi_q^(4e)
                            Xu, cvY, Yu, Xv = X * u4, cv4 * Y, Y * u4, X * v4
                            xs.extend((Xu + cvY, Xu - cvY))
                            ys.extend((Yu - Xv, Yu + Xv))
                    if k * q <= H:
                        new.append((k, firsts[-1], len(xs)))
                qe, u4, v4 = qe * q, u4 * u - c * v4 * v, u4 * v + v4 * u  # pi_q^(4e + 4)
            grow = sorted(grow + new) if new else grow
        ks.extend(qs[tail:n])  # k = q alone, its one stored row pi-bar_q^4
        firsts.extend(range(len(xs), len(xs) + n - tail))
        xs.extend((u * u - c * v * v) ** 2 - 4 * c * (u * v) ** 2 for u, v in zip(us[tail:n], vs[tail:n]))
        ys.extend(-4 * u * v * (u * u - c * v * v) for u, v in zip(us[tail:n], vs[tail:n]))
        ends = firsts[1:] + array("q", [len(xs)])
        order = sorted(range(len(ks)), key=ks.__getitem__)  # the blocks by k
        self.xs, self.ys = array("q"), array("q")
        for i in order:
            lo, hi = firsts[i], ends[i]
            self.xs += xs[lo:hi]
            self.ys += ys[lo:hi]
        sizes = array("q", map(sub, ends, firsts))
        self.ks = array("q", chain.from_iterable(map(repeat, map(ks.__getitem__, order),
                                                     map(sizes.__getitem__, order))))
        self.codes: dict[int, list[bytes]] = {}

    @cached_property
    def rows(self) -> list[tuple[int, int, int]]:
        """Every (k, X, Y) in scan order: per k the stored rows, then their mirrors backward."""
        out = []
        for k, block in groupby(zip(self.ks, self.xs, self.ys), itemgetter(0)):
            block = list(block)
            out += block + [(k, X, -Y) for k, X, Y in reversed(block) if k > 1]
        return out


_product_table = lru_cache(maxsize=8)(_ProductTable)


_FILTER_ROWS = 50  # tables of fewer stored rows are walked whole, which is cheaper
_CHUNK = 256  # stored rows coded at a time, as a scan reaches them, to the end of a k
_CODE_PRIMES = (5, 13, 17, 29, 37, 41)  # l = 1 (mod 4)
_CODE_MODULUS = prod(_CODE_PRIMES)  # under 2^26: rows reduced by it once are small ints for each l


@cache
def _residue_tables(l: int):
    """For a prime l = 1 (mod 4): chi_l as a tuple; two periods of
    chi_l(t) != -1 and of chi_l(t) != 1 as bytes, keyed by 1 and -1; and
    the row code of (X mod l, Y mod l) at index X*l + Y, which is
    t + l*[chi_l(Y) = -1] with t = X/Y mod l, or 2l + (0, 1, 2)[chi_l(X)]
    when l | Y."""
    chi = _character(l)
    runs = {s: bytes(s * x != -1 for x in chi) * 2 for s in (1, -1)}
    index = bytearray(l * l)
    index[::l] = bytes(2 * l + (0, 1, 2)[x] for x in chi)
    ts = {1: bytes(range(l)), -1: bytes(range(l, 2 * l))}  # t + l*[chi_l(Y) = -1] for t = 0, ..., l - 1
    for y in range(1, l):  # x / y = x w for x = 0, 1, ...: every w-th entry of w periods of t
        w = pow(y, -1, l)
        index[y::l] = (ts[chi[y]] * w)[::w]
    return chi, runs, bytes(index)


def _pass_table(l: int, alpha: int, beta: int, scale: int) -> bytes:
    """Row codes of l translated to 1 where the candidate Y (alpha t + beta)
    * scale, t = X/Y (alpha X * scale when l | Y), is not a non-residue
    mod l, else to 0."""
    chi, runs, _ = _residue_tables(l)
    g = chi[scale % l]
    s = chi[alpha % l] * g
    if s:  # alpha t + beta = alpha (t + beta/alpha)
        h = beta * pow(alpha, -1, l) % l
        pos, neg = runs[s][h:h + l], runs[-s][h:h + l]
    else:
        s0 = chi[beta % l] * g
        pos, neg = bytes([s0 != -1]) * l, bytes([s0 != 1]) * l
    return (pos + neg + bytes((1, s != -1, s != 1))).ljust(256, b"\0")


_PASSES: dict[tuple[int, int, int], bytes] = {}  # by (l, s, h), see _passes


def _passes(l: int, alpha: int, beta: int, scale: int) -> bytes:
    """Row codes of l translated to bit 0 by _pass_table(l, alpha, beta, scale)
    and to bit 1 by _pass_table(l, alpha, -beta, scale), a row and its mirror,
    by what both depend on: s = chi_l(alpha * scale) and h = beta / alpha mod l,
    or s = 0 and h = chi_l(beta * scale) when l | alpha."""
    chi = _residue_tables(l)[0]
    s = chi[alpha * scale % l]
    key = l, s, beta * pow(alpha, -1, l) % l if s else chi[beta * scale % l]
    if key not in _PASSES:
        _PASSES[key] = (int.from_bytes(_pass_table(l, alpha, beta, scale), "little")
                        | int.from_bytes(_pass_table(l, alpha, -beta, scale), "little") << 1).to_bytes(256, "little")
    return _PASSES[key]


def _chunk_codes(xs, ys) -> list[bytes]:
    """The row codes of each l of _CODE_PRIMES."""
    xs, ys = [x % _CODE_MODULUS for x in xs], [y % _CODE_MODULUS for y in ys]
    return [bytes([index[x % l * l + y % l] for x, y in zip(xs, ys)])
            for l in _CODE_PRIMES for index in [_residue_tables(l)[2]]]


def _candidate(c: int, a: int, b: int):
    """(a', b', scale): the unit multiple of pi_p whose rows' candidates are scale * |a' X - c b' Y|."""
    return (b, -a, 2) if c == 1 else (a, b, 1)


def _survivors(table: _ProductTable, c: int, a: int, b: int):
    """The rows (k, X, Y) of table, stored and mirrored, in scan order, whose
    candidate square passes the residue filters for pi_p = (a, b): every row,
    table.rows itself, of a table under _FILTER_ROWS stored rows and of the
    real form, c = -2."""
    return table.rows if c == -2 or len(table.xs) < _FILTER_ROWS else _filtered(table, c, a, b)


def _filtered(table: _ProductTable, c: int, a: int, b: int, start: int = 0):
    """_survivors of a filtered scan, from the stored row start on, the first of its k."""
    a, b, scale = _candidate(c, a, b)
    # per l, code to 1 where a stored row passes, plus 2 where its mirror, alpha X - beta Y, does,
    # for the candidate alpha X + beta Y = Y (alpha t + beta), t = X/Y
    passes = [_passes(l, a, -c * b, scale) for l in _CODE_PRIMES]
    ks, xs, ys, codes = table.ks, table.xs, table.ys, table.codes
    while start < len(xs):
        chunk = codes.get(start)
        if chunk is None:  # to the end of the k of row start + _CHUNK - 1
            end = bisect_right(ks, ks[min(start + _CHUNK, len(ks)) - 1], start)
            chunk = codes[start] = _chunk_codes(xs[start:end], ys[start:end])
        bits = -1 if start else -3  # k = 1 is its own mirror
        for row, passing in zip(chunk, passes):
            bits &= int.from_bytes(row.translate(passing), "little")
        hits = []  # bit 8i of a chunk is row start + i, bit 8i + 1 its mirror
        while bits:
            low = bits & -bits
            bits ^= low
            i, side = divmod(low.bit_length() - 1, 8)
            hits.append((ks[start + i], side, -i if side else i))
        for k, side, i in sorted(hits):  # per k, the stored rows and then their mirrors backward
            yield (k, xs[start - i], -ys[start - i]) if side else (k, xs[start + i], ys[start + i])
        start += len(chunk[0])


# (3 + 2 sqrt 2)^j for j <= 64: (x + s sqrt 2)(3 + 2 sqrt 2) = (3x + 4s) + (2x + 3s) sqrt 2
_UNITS = list(accumulate(range(64), lambda z, _: (3 * z[0] + 4 * z[1], 2 * z[0] + 3 * z[1]), initial=(1, 0)))
_ORBIT_MODULI = (16, 9, 5, 7, 11, 17)  # 3 + 2 sqrt 2 has order dividing 24 mod each
_ORBIT_SPREAD, _ORBIT_STEPS = _every(24, 64), (1 << 64) - 1  # spread a 24-bit step mask to steps 0..63


@cache
def _packed_orbit_masks():
    """(q, masks) per q of _ORBIT_MODULI, at x0 * q + s (x0 mod q, s = 2 s0 mod q): bit j
    set where x of (x0 + s0 sqrt 2)(3 + 2 sqrt 2)^j is a square mod q, bit 24 + j where -x is."""
    out = []
    for q in _ORBIT_MODULI:
        pos, neg = (bytes(48 + (s * x % q in _SQUARES[q]) for x in range(256)) for s in (1, -1))
        # per x0 and per s, the 24 terms x0 ux and s us mod q, step 23 first, as the bytes of an
        # int: the bytes of a sum, each below 2q, are the steps' x up to the reduction in the marks
        terms = [[int.from_bytes(bytes(w * u[i] % q for u in _UNITS[23::-1]), "big") for w in range(q)]
                 for i in (0, 1)]
        out.append((q, [int(steps.translate(pos), 2) | int(steps.translate(neg), 2) << 24
                        for a in terms[0] for b in terms[1] for steps in [(a + b).to_bytes(24, "big")]]))
    return out


def _deep_scan(H: int, c: int, a: int, b: int):
    """_survivors of the table for (H, c), c = 1, 2, read first from the table
    for H // 32, which holds the same rows in the same order: the table for H
    is built only if the scan goes past them, and goes on from its first row
    of a k > H // 32."""
    head = _product_table(H // 32, c)
    yield from _survivors(head, c, a, b)
    yield from _filtered(_product_table(H, c), c, a, b, len(head.xs))


def _orbit_square_x(z0, m):
    """Scan the unit orbit of z0 in Z[sqrt(2)] for |x| a square prime to m.

    Step j < 64 of the first walk is z0 (3 + 2 sqrt 2)^j, of the second
    z0 (3 - 2 sqrt 2)^(j+1); the first hit wins.
    """
    x0, s0 = z0
    bits, s = -1, 2 * s0
    for q, masks in _packed_orbit_masks():
        bits &= masks[x0 % q * q + s % q]
    fwd = (bits | bits >> 24) & 0xFFFFFF  # bit j: step j (mod 24) can hold x or -x square
    if not fwd:  # no step can hold a square: most walks end here
        return None
    back = int(f"{fwd:024b}"[::-1], 2)  # bit j: step -(j+1) = 23 - j
    for bits, second in ((fwd, 0), (back, 1)):
        bits = bits * _ORBIT_SPREAD & _ORBIT_STEPS
        while bits:
            j = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            ux, us = _UNITS[j + second]
            us = -us if second else us
            x, s = x0 * ux + 2 * s0 * us, x0 * us + s0 * ux  # z0 (ux + us sqrt 2)
            n = isqrt(abs(x))
            if s and n * n == abs(x) and gcd(m, n) == 1:
                return n, abs(s)
    return None


def _ep_space_point(p: int, d: int, H: int):
    """Point (z, w) on C_d for y^2 = x^3 + px with numerator <= H.

    d is one of -1, -2, 2, one space of each coset of {1, -p}; the other
    space C_{-pd} has a point with denominator <= H exactly when C_d has
    one (see above).  The numerator k runs over the odd k <= H whose
    primes all split in the ring of d, in increasing order; any other k
    has no primitive representation, and parity rules out even k.  Each
    candidate is pi_p times a row of the table for (H, c) that _survivors
    passes.  Since the free side comes out at any size, a large H
    reaches certificates far beyond a height search: ep_rank rescans
    C_{-1} and C_{-2} this way with H up to 10^6, and above the sweep's cap
    reads a prefix of the table first (_deep_scan).
    """
    c = _RING[d]
    pi = _prime_root(p, c)
    if pi is None:
        return None
    a, b, scale = _candidate(c, *pi)
    rows = _survivors(_product_table(H, c), c, *pi) if H <= _SWEEP_CAP or c == -2 else _deep_scan(H, c, *pi)
    for k, X, Y in rows:
        x, y = a * X - c * b * Y, a * Y + b * X  # pi_p (X + Y sqrt(-c)), turned by a unit
        if c == -2:
            hit = _orbit_square_x((x, y), k)
            if hit is None:
                continue
            x, y = hit[0] ** 2, hit[1]
        f2 = scale * abs(x)  # candidate square of the free side
        f = isqrt(f2)
        if f and f * f == f2 and gcd(k, f) == 1:
            return Fraction(k, f), Fraction(2 * abs(y), f * f)
    return None


_DEEP_FACTOR = 1000
_MAX_HEIGHT = _EP_TABLE_BUDGET // _DEEP_FACTOR  # rescans stay within the budget
_SWEEP_CAP = _DEEP_FACTOR * 20  # the deep rescan cap of ep_table's default height


def _check_height(H: int) -> None:
    if not isinstance(H, int) or isinstance(H, bool) or not 1 <= H <= _MAX_HEIGHT:
        raise FamilyError(f"need an integer 1 <= H <= {_MAX_HEIGHT}: ep_rank rescans to {_DEEP_FACTOR} * H")


def _two_is_quartic(p: int) -> bool:
    """Euler's criterion: 2 is a fourth power mod a proved prime p = 1 (mod 8) iff 2^((p-1)/4) = 1."""
    return pow(2, (p - 1) // 4, p) == 1


def ep_rank(p: int, H: int = 20) -> RankResult:
    """Rank of y^2 = x^3 + px, exactly where a theorem reaches.

    p = 7, 11 (mod 16): 0 unconditionally.  p = 3, 5, 13, 15: 1, given
    finiteness of Sha.  p = 1, 9: rank is 0 or 2; 0 is certain when 2
    is not a quartic residue mod p, and 2 is certified by points found
    on the homogeneous spaces; otherwise the interval stands.  H is at
    most 1000: the deep rescans search numerators up to 1000 * H.
    """
    _check_odd_prime(p)
    _check_height(H)
    return _ep_rank(p, H)


_RANK_0 = RankResult("exact", 0, 0, "both Selmer sets are the minimal subgroup")
_RANK_1 = RankResult("exact_conditional_on_finite_sha", 1, 1,
                     "Selmer residual of dimension 1 falls on the rank side when Sha is finite")
# by p mod 16, for p != 1 (mod 8)
_RANK_BY_RESIDUE = {7: _RANK_0, 11: _RANK_0, 3: _RANK_1, 5: _RANK_1, 13: _RANK_1, 15: _RANK_1}


def _ep_rank(p: int, H: int) -> RankResult:
    """ep_rank for an odd prime p and a height H that the caller has checked."""
    rank = _RANK_BY_RESIDUE.get(p % 16)
    if rank is not None:
        return rank
    if not _two_is_quartic(p):
        return RankResult("exact", 0, 0, f"2 is not a quartic residue mod {p}; the full Selmer residual is Sha")
    # 2 is a quartic residue: rank is 0 or 2.  Certify 2 by searching
    # one space from each coset of the seed subgroup {1, -p}; any two
    # distinct cosets generate a span of dimension 3.  The dual side is
    # already saturated by its 2-torsion, so g + 1 - 2 is the certified
    # lower bound, g = 1 + the number of certified cosets.
    certified = set()  # the searched space of each certified coset
    for d in (-2, -1, 2):
        if len(certified) < 2 and _ep_space_point(p, d, H) is not None:
            certified.add(d)
    if len(certified) == 1:
        # one coset certified, so the curve carries a nontrivial point;
        # if the rank is 2 the missing certificate exists too but its
        # numerator can be enormous, so rescan the two imaginary spaces
        # over the split semigroup with a much larger cap
        for d in (-1, -2):
            if d not in certified and _ep_space_point(p, d, _DEEP_FACTOR * H) is not None:
                certified.add(d)
                break
    g = 1 + len(certified)
    if g + 1 - 2 == 2:
        return RankResult("exact", 2, 2, f"two independent points of height <= {H}")
    if g >= 2:
        return RankResult("interval", 0, 2,
                          f"one space certified up to {H}; the matching second certificate was not found")
    return RankResult("interval", 0, 2, f"conjecturally 0; no points up to {H}")


def _check_power_free(D: int, e: int) -> None:
    if D == 0:
        raise FamilyError("D must be nonzero")
    if any(m >= e for _, m in factorize(D).factors):
        raise FamilyError(f"D must be {e}th-power-free; reduce it first")


def _group(structure: str, gens, *points) -> TorsionGroup:
    """The group of the integer points given, in the order torsion_subgroup
    lists them, with infinity first."""
    return TorsionGroup(structure, tuple(pt(*P) for P in gens), (INFINITY,) + tuple(pt(*P) for P in points))


def edx_torsion(D: int) -> TorsionGroup:
    """Torsion of y^2 = x^3 + Dx: Z4 = <(2, 4)> for D = 4, Z2xZ2 =
    <(0, 0), (-s, 0)> for -D = s^2, else Z2 = <(0, 0)>."""
    _check_power_free(D, 4)
    s = isqrt(max(-D, 0))
    if D == 4:
        return _group("Z4", [(2, 4)], (0, 0), (2, 4), (2, -4))
    if s * s == -D:
        return _group("Z2xZ2", [(0, 0), (-s, 0)], (0, 0), (-s, 0), (s, 0))
    return _group("Z2", [(0, 0)], (0, 0))


def edx_rank_upper(D: int) -> int:
    """rank of y^2 = x^3 + Dx is at most 2*nu(2D) - 1, nu = #prime divisors."""
    if D == 0:
        raise FamilyError("D must be nonzero")
    return 2 * len({2, *factorize(D).primes()}) - 1


def edconst_torsion(D: int) -> TorsionGroup:
    """Torsion of y^2 = x^3 + D: Z6 = <(2, 3)> at D = 1, Z3 = <(0, t)> for
    D = t^2 and <(12, 36)> at D = -432, Z2 = <(-c, 0)> for D = c^3, trivial
    otherwise."""
    _check_power_free(D, 6)
    c, t = _root_exact(D, 3), _root_exact(D, 2)
    if D == 1:
        return _group("Z6", [(2, 3)], (0, 1), (0, -1), (-1, 0), (2, 3), (2, -3))
    if t is not None:
        return _group("Z3", [(0, t)], (0, t), (0, -t))
    if D == -432:
        return _group("Z3", [(12, 36)], (12, 36), (12, -36))
    if c is not None:
        return _group("Z2", [(-c, 0)], (-c, 0))
    return _group("trivial", [])


class EpRow(Record):
    p: int
    selmer_dim_phi: int
    selmer_dim_phi_hat: int
    rank_sha_dim: int
    rank: RankResult


def ep_table(p_max: int, *, mod8: int | None = None, quartic_only: bool = False, height: int = 20) -> list[EpRow]:
    """One row per odd prime p <= p_max, sorted by p, with optional residue filters.

    mod8, one of 1, 3, 5, 7, keeps p = mod8 (mod 8); quartic_only keeps p
    with 2 a fourth power mod p (forces p = 1 mod 8).
    """
    if not isinstance(p_max, int) or isinstance(p_max, bool):
        raise FamilyError(f"need an integer p_max, not {p_max!r}")
    if p_max > _EP_TABLE_BUDGET:
        raise FamilyError(f"p_max beyond the {_EP_TABLE_BUDGET} budget")
    _check_height(height)
    if not (mod8 is None or type(mod8) is int and mod8 in (1, 3, 5, 7)):
        raise FamilyError(f"mod8 must be 1, 3, 5 or 7, not {mod8!r}")
    if type(quartic_only) is not bool:
        raise FamilyError(f"quartic_only must be a bool, not {quartic_only!r}")
    ps = sieve_primes(p_max)[1:]  # past 2
    if mod8 is not None:
        ps = [p for p in ps if p % 8 == mod8]
    if quartic_only:
        ps = [p for p in ps if p % 8 == 1 and _two_is_quartic(p)]
    top = max((p for p in ps if p % 8 == 1), default=0)
    for c in _SPLIT:  # the prime elements of every p that may search, from the sieve
        _fill_roots(top, c)
    # the sieve proved each p and the height is checked above, so each row takes
    # ep_rank's rank without its checks
    dims = {r: (s, s_hat, s + s_hat - 2) for r in range(1, 16, 2) for s, s_hat in [_ep_dims(r)]}
    return [EpRow(p, *dims[p % 16], _ep_rank(p, height)) for p in ps]
