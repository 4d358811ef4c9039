"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration, textbook
formulas, or sympy.  Nothing imports from twodescent, so a bug in the
package cannot hide in its own oracle.  Three exceptions import it
lazily: qp_soluble_two_pass_oracle checks only how qp_soluble covers the
projective line, over the package's own (separately checked) zp_soluble,
and selmer_walk_oracle and selmer_pivot_oracle check only how selmer
combines the package's own (separately checked) local tests.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

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


def psi_oracle(d: int, zw):
    """psi(z, w) = (d/z^2, -d*w/z^3): a point (z, w) of C_d, z != 0, to E'."""
    z, w = zw
    return Fraction(d) / (z * z), -d * w / (z * z * z)


def phi_hat_oracle(b: int, P):
    """(x, y) -> (y^2/x^2, y(b - x^2)/x^2), x != 0: the 2-isogeny with kernel
    {O, (0, 0)} of y^2 = x^3 + a*x^2 + b*x, phi on E and phi-hat on E'."""
    x, y = P
    return y * y / (x * x), y * (b - x * x) / (x * x)


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


def canonical_generator_oracle(coeffs, torsion, Q):
    """descent's choice of generator for the point Q of infinite order, as
    first written with the Fraction group law: the least of the points
    +-(Q + T) over the torsion points T (None for infinity), in the order
    (|x|, x, |y|), as (x, |y|)."""
    sums = [o_add(coeffs, Q, T) for T in torsion]
    return min(((x, abs(y)) for x, y in sums), key=lambda P: (abs(P[0]), P[0], P[1]))


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


def divisors_oracle(n: int) -> list[int]:
    """Sorted positive divisors of n != 0, from sympy's factorization."""
    out = [1]
    for p, e in factor_oracle(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def torsion_candidates_oracle(coeffs: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Superset of the nonzero torsion points by the integral-point
    criterion: (x, 0) for each integer root of the cubic, and (x, +-y) for
    each integer root of cubic - y^2, y a divisor of disc with y^2 | disc.
    """
    a2, a4, a6 = coeffs
    x = sympy.Symbol("x")
    disc = int(sympy.Poly([1, a2, a4, a6], x).discriminant()) * 16
    out = []
    for y in [0] + [y for y in divisors_oracle(disc) if disc % (y * y) == 0]:
        for r in sympy.Poly([1, a2, a4, a6 - y * y], x).ground_roots():
            if r.is_integer:
                out += [(int(r), y), (int(r), -y)] if y else [(int(r), 0)]
    return out


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def division_poly_oracle(coeffs: tuple[int, int, int], m: int) -> list[int]:
    """f_m for m > 2, coefficients from the constant up: psi_m for odd m and
    psi_m / psi_2 for even m, by the psi recurrences in F = psi_2^2 from f_3
    and f_4 (Silverman, AEC, Ex. 3.7), through both parity branches."""
    a2, a4, a6 = coeffs
    b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
    F2 = _poly_mul([b6, 2 * b4, b2, 4], [b6, 2 * b4, b2, 4])
    f = {1: [1], 2: [1], 3: [b8, 3 * b6, 3 * b4, b2, 3],
         4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]}

    def get(n: int) -> list[int]:
        if n not in f:
            k = n // 2
            if n % 2:
                u = _poly_mul(get(k + 2), _poly_mul(get(k), _poly_mul(get(k), get(k))))
                v = _poly_mul(get(k - 1), _poly_mul(get(k + 1), _poly_mul(get(k + 1), get(k + 1))))
                u, v = (_poly_mul(F2, u), v) if k % 2 == 0 else (u, _poly_mul(F2, v))
            else:
                u = _poly_mul(get(k + 2), _poly_mul(get(k - 1), get(k - 1)))
                v = _poly_mul(get(k - 2), _poly_mul(get(k + 1), get(k + 1)))
            # u and v have the same length, the formal degree of the difference
            diff = [a - b for a, b in zip(u, v, strict=True)]
            f[n] = diff if n % 2 else _poly_mul(get(k), diff)
        return f[n]

    return get(m)


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


def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(cs) and cs[i] == 0:
        i += 1
    return cs[i:]


def _poly_rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = num[:]
    while len(num) >= len(den):
        coef = num[0] / den[0]
        for i in range(len(den)):
            num[i] -= coef * den[i]
        num.pop(0)
    return _poly_trim(num)


def _sturm_distinct_real_roots(cs: list[Fraction]) -> int:
    """Number of distinct real roots, squarefree or not.

    The chain ends at gcd(f, f'); dividing it out flips no sign
    difference away from the roots, so the count at +-infinity holds.
    """
    n = len(cs) - 1
    chain = [cs, _poly_trim([c * (n - i) for i, c in enumerate(cs[:-1])])]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
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


def r_soluble_oracle(c: tuple[int, ...]) -> bool:
    """Whether f(z) >= 0 somewhere on the real line, by a Sturm chain in Fractions."""
    cs = _poly_trim([Fraction(v) for v in c])
    if cs[0] > 0 or (len(cs) - 1) % 2 == 1:
        return True
    return _sturm_distinct_real_roots(cs) > 0


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


def class_on_oracle(n: int, primes) -> int:
    """The class of n != 0, whose primes all lie in primes, as its mask over
    (-1,) + primes: bit 0 for the sign, bit j + 1 for odd valuation at primes[j]."""
    return (n < 0) | sum(2 << j for j, q in enumerate(primes) if val_oracle(n, q) % 2)


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


def space_oracle(a: int, b: int, d: int) -> tuple[int, ...]:
    """Coefficients of C_d of y^2 = x^3 + a*x^2 + b*x cleared by Y = d*w:
    Y^2 = d*b'*z^4 - 2*a*d^2*z^2 + d^3 with b' = a^2 - 4b."""
    return d * (a * a - 4 * b), 0, -2 * a * d * d, 0, d**3


def reversed_form(f):
    """t^4 * f(1/t) of a QuarticForm f: swaps z = 0 with the points at infinity."""
    return type(f)(f.c[::-1])


def qp_soluble_two_pass_oracle(f, p: int):
    """qp_soluble as two whole searches: zp_soluble on f, then on all of
    reversed_form(f), whose witness maps back by z = 1/t (t = 0 is infinity)."""
    from twodescent.localsolve import LocalSolveError, LocalVerdict, Witness, zp_soluble

    if f.degree != 4:
        raise LocalSolveError("need an honest quartic")
    v = zp_soluble(f, p)
    if v.soluble:
        return v
    w = zp_soluble(reversed_form(f), p)
    if not w.soluble:
        return LocalVerdict(False, None)
    wit = w.witness
    if wit.z is None:
        return LocalVerdict(True, Witness("hensel", None, "reversed form: " + wit.note))
    if wit.z == 0:
        return LocalVerdict(
            True, Witness("infinity", None, f"leading coefficient is a square in Q_{p}"))
    return LocalVerdict(True, Witness(wit.kind, 1 / wit.z, "reversed form: " + wit.note))


def selmer_walk_oracle(E):
    """The phi-Selmer set of E as a walk over all of Q(S, 2), with the
    number of local tests made at each place (0 stands for R).

    Each d of qs2(S), in its sorted order, is checked at R and then at the
    primes of S ascending, stopping at the first failure.  A verdict is
    memoized by the class of d in Q_v*/Q_v*^2 (the sign at R; v_2 parity
    and unit mod 8 at 2; v_p parity and unit residue symbol at odd p), so
    only the first d to reach a local class is tested there.
    """
    from twodescent.descent import bad_set, qs2
    from twodescent.localsolve import QuarticForm, qp_soluble, r_soluble

    def local_class(d: int, v: int):
        if v == 0:
            return d > 0
        u = d // v if d % v == 0 else d
        return u != d, u % 8 if v == 2 else pow(u, (v - 1) // 2, v)

    S = bad_set(E)
    verdicts: dict = {}
    tests: dict[int, int] = {}
    kept = []
    for d in map(int, qs2(S)):
        for v in (0,) + S.primes:
            key = (v, local_class(d, v))
            if key not in verdicts:
                f = QuarticForm(space_oracle(E.a2, E.a4, d))
                verdicts[key] = bool(qp_soluble(f, v) if v else r_soluble(f))
                tests[v] = tests.get(v, 0) + 1
            if not verdicts[key]:
                break
        else:
            kept.append(d)
    return tuple(kept), tests


def selmer_pivot_oracle(E):
    """The phi-Selmer set of E as {class: generator mask}, in class order,
    by restricting a basis of Q(S, 2) one place at a time (R, then S
    ascending).  A mask has bit j for the j-th generator of (-1,) + S.

    At each place v, elimination splits the basis into a kernel of the
    local class map L_v and pivots; a row is L_v(u) << n | u, so one XOR
    updates image and class.  In the pivot images' span, 0 and L_v(b')
    are soluble, the span K of soluble images is soluble and x + K is
    insoluble for an insoluble x; the rest are tested on their preimages
    in the pivots' span, least |d| first.  The kernel and the preimages of
    a basis of the soluble images make the next basis.
    """
    from twodescent.arith import SquareClass
    from twodescent.descent import bad_set
    from twodescent.localsolve import QuarticForm, qp_soluble, r_soluble

    S = bad_set(E)
    gens = (-1,) + S.primes
    n = len(gens)
    low = (1 << n) - 1

    def rep(m: int) -> int:
        out = 1
        for j, g in enumerate(gens):
            if m >> j & 1:
                out *= g
        return out

    def columns(i: int, v: int) -> list[int]:
        # per bit of Q_v*/Q_v*^2 (the sign; v_2 parity, (u-1)/2, (u^2-1)/8;
        # v_p parity, the Euler bit), the generators whose class has it
        if v == 0:
            return [1]
        if v == 2:
            return [2, sum(1 << j for j, g in enumerate(gens) if g % 4 == 3),
                    sum(1 << j for j, g in enumerate(gens) if g % 8 in (3, 5))]
        return [1 << i, sum(1 << j for j, g in enumerate(gens)
                            if g != v and pow(g % v, (v - 1) // 2, v) == v - 1)]

    def image(cols: list[int], m: int) -> int:
        return sum(((m & c).bit_count() & 1) << j for j, c in enumerate(cols))

    def span(rows) -> list[int]:
        out = [0]
        for r in rows:
            if r not in out:
                out += [x ^ r for x in out]
        return out

    b_prime = E.a2 * E.a2 - 4 * E.a4
    seed = sum(1 << j for j, g in enumerate(gens)
               if (b_prime < 0 if g == -1 else val_oracle(b_prime, g) % 2))
    basis = [1 << j for j in range(n)]
    for i, v in enumerate((0,) + S.primes):
        cols = columns(i, v)
        seed_image = image(cols, seed)
        images = [image(cols, u) for u in basis]
        if all(x in (0, seed_image) for x in images):
            continue
        pivots: dict[int, int] = {}
        kernel = []
        for u, x in zip(basis, images):
            row = x << n | u
            while row > low and row.bit_length() in pivots:
                row ^= pivots[row.bit_length()]
            if row > low:
                pivots[row.bit_length()] = row
            else:
                kernel.append(row)
        pre = {row >> n: row & low for row in span(pivots.values())}
        good = {0, seed_image}
        w_basis = [seed_image] if seed_image else []
        bad: set[int] = set()
        for x, d in sorted(((x, rep(u)) for x, u in pre.items()), key=lambda xd: abs(xd[1])):
            if x in good or x in bad:
                continue
            f = QuarticForm(space_oracle(E.a2, E.a4, d))
            if qp_soluble(f, v) if v else r_soluble(f):
                w_basis.append(x)
                good |= {x ^ k for k in good}
                bad = {y ^ k for y in bad for k in good}
            else:
                bad |= {x ^ k for k in good}
        basis = sorted(kernel + [pre[x] for x in w_basis])
    return dict(sorted((SquareClass(rep(m)), m) for m in span(basis)))


def hilbert_brute(a: int, b: int, v: int) -> bool:
    """Whether (a, b)_v = 1, for a, b of v-adic valuation 0 or 1: whether
    a*x^2 + b*y^2 = z^2 has a nonzero real solution (v = 0), or one mod 16
    (v = 2) or mod v^2 (odd v) with x, y, z not all divisible by v.  Mod 8
    is not enough at 2: 2 + 10 = 12 = 2^2 there, yet (2, 10)_2 = -1."""
    if v == 0:
        return a > 0 or b > 0
    m = 16 if v == 2 else v * v
    squares = {z * z % m for z in range(m)}
    unit_squares = {z * z % m for z in range(m) if z % v}
    return any((a * x * x + b * y * y) % m in (squares if x % v or y % v else unit_squares)
               for x in range(m) for y in range(m))


# ---------------------------------------------------------------------------
# Point search on C_d: y^2 = c4*m^4 + c2*m^2*n^2 + c0*n^4, the naive scan.


def unit_orbit_masks_oracle(q: int, W: int):
    """descent._orbit_masks as first written: every unit pair (u, v) with
    u^2 = v^2 mod q from a scan of all q^2 pairs, and each orbit of
    (k, m) -> (u*k, v*m) as a set of (k, m) tuples, in the order of its
    first pair, but only the orbits of the pairs with gcd(k, m, q) = 1,
    as unit scaling keeps that gcd.  Per orbit: m^4, m^2*k^2 and k^4 mod q
    at that pair, and the mask of bits k*W + m', k < q and m' < W, with
    (k, m' mod q) in the orbit, set one bit at a time."""
    units = [(u, v) for u in range(1, q) if gcd(u, q) == 1 for v in range(1, q) if (u * u - v * v) % q == 0]
    seen: set[tuple[int, int]] = set()
    out = []
    for k, m in itertools.product(range(q), repeat=2):
        if (k, m) not in seen and gcd(gcd(k, m), q) == 1:
            orbit = {(u * k % q, v * m % q) for u, v in units}
            seen |= orbit
            block = sum(1 << k1 * W + m2 for k1, m1 in orbit for m2 in range(m1, W, q))
            out.append((m**4 % q, m * m * k * k % q, k**4 % q, block))
    return tuple(out)


def search_point_oracle(c4: int, c2: int, c0: int, d: int, lead: int, H: int):
    """First point of the space in the order (height, n, |m|, + before -).

    Every coprime pair (m, n), n >= 1, of height max(|m|, n) <= H is
    tried in that order; a hit (m, n, r) becomes (m/n, r/(n^2 |d|)).
    Without a hit: "infinity" when lead is a positive square, else None.
    """
    for h in range(1, H + 1):
        for n in range(1, h + 1):
            ms = range(-h, h + 1) if n == h else (h, -h)
            for m in sorted(ms, key=lambda v: (abs(v), v < 0)):
                if gcd(m, n) != 1:
                    continue
                N = c4 * m**4 + c2 * m * m * n * n + c0 * n**4
                if N >= 0 and isqrt(N) ** 2 == N:
                    return Fraction(m, n), Fraction(isqrt(N), n * n * abs(d))
    if lead > 0 and isqrt(lead) ** 2 == lead:
        return "infinity"
    return None


# ---------------------------------------------------------------------------
# E_p norm-form searches by full enumeration: every exponent split
# pi^j * pi-bar^(e-j) of every prime, inert primes as scalars, the same
# 64-step unit-orbit walk for the real form.  Roots come from brute scans
# in O(sqrt q); the package finds them by Cornacchia's descent and must
# return the same element, since for x^2 - 2y^2 the orbit walk's window
# depends on it: the least b, norm q before norm -q.  Where p itself does
# not split, a form has no solution and the searches return None.


def _ep_mul(x, y, c):
    return (x[0] * y[0] - c * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ep_pow(x, e, c):
    out = (1, 0)
    for _ in range(e):
        out = _ep_mul(out, x, c)
    return out


@lru_cache(maxsize=None)
def prime_root_scan_oracle(q: int, c: int):
    """(u, v) with u^2 + c*v^2 = q for a prime q, or None when there is none.

    For c = 2 the least v >= 1; for c = -2 the first b = 0, 1, ... with
    q + 2b^2 or else 2b^2 - q a square a^2, the latter (norm -q) turned
    into (a + 2b) + (a + b) sqrt 2 by the unit 1 + sqrt 2.
    """
    if c == 1:
        return two_squares_brute(q) if q % 4 == 1 else None
    if c == 2:
        for v in range(1, isqrt(q // 2) + 1):
            u = isqrt(q - 2 * v * v)
            if u * u == q - 2 * v * v:
                return u, v
        return None
    for b in range(isqrt(q) + 2):
        a = isqrt(q + 2 * b * b)
        if a * a == q + 2 * b * b:
            return a, b
        t = 2 * b * b - q
        if t >= 0 and isqrt(t) ** 2 == t:
            return isqrt(t) + 2 * b, isqrt(t) + b
    return None


# The one-shot kernels that the E_p scans' caches were first filled with:
# every cell of a residue table computed on its own, and each product
# table built whole, from the sorted split-smooth k, before its first row
# is read.


def two_adic_oracle(a: int, b: int, c: int, num: int, den: int):
    """Per component x, y of (a + b sqrt(-c))(X + Y sqrt(-c)), the codes
    X * 16 + Y (X, Y mod 16) mapped to 1 where |component| * num/den can be
    a square, known mod 16 * num/den, else to 0; for c = 1 only the even
    component is a candidate."""
    m = 16 * num // den
    squares = {w * w % m for w in range(m)}

    def ok(z):
        return (c != 1 or z % 2 == 0) and any(v * num // den % m in squares for v in (z % 16, -z % 16))

    cells = [(X, Y) for X in range(16) for Y in range(16)]
    return (bytes(ok(a * X - c * b * Y) for X, Y in cells),
            bytes(ok(a * Y + b * X) for X, Y in cells))


def orbit_masks_oracle(q: int):
    """Per x0 * q + s (x0 mod q, s = 2 s0 mod q), the 24-bit masks of the
    steps j where x of (x0 + s0 sqrt 2)(3 + 2 sqrt 2)^j is a square mod q,
    and where -x is."""
    units = [_ep_pow((3, 2), j, -2) for j in range(24)]
    squares = {w * w % q for w in range(q)}
    out = []
    for x0 in range(q):
        for s in range(q):
            xs = [(x0 * ux + s * us) % q for ux, us in units]
            out.append((sum((x in squares) << j for j, x in enumerate(xs)),
                        sum((-x % q in squares) << j for j, x in enumerate(xs))))
    return out


_EP_SPLIT = {1: (4, (1,)), 2: (8, (1, 3)), -2: (8, (1, 7))}


def split_smooth_oracle(cap: int, modulus: int, residues: tuple):
    """Odd k <= cap whose prime factors all lie in residues mod modulus,
    as (k, factorization) pairs in increasing order, 1 first."""
    primes = [q for q in sympy.primerange(3, cap + 1) if q % modulus in residues]
    out = [(1, ())]
    for k, fac in out:  # extend each k by the primes above its largest one
        lo = bisect_right(primes, fac[-1][0]) if fac else 0
        for q in primes[lo:bisect_right(primes, cap // k)]:
            kq, e = k * q, 1
            while kq <= cap:
                out.append((kq, fac + ((q, e),)))
                kq, e = kq * q, e + 1
    return sorted(out)


@lru_cache(maxsize=8)
def product_table_oracle(H: int, c: int):
    """Columns k, X, Y of each product of pi-bar_q^(4e) or pi_q^(4e) over
    q^e || k, for the split-smooth k <= H in increasing order, built whole:
    the last prime varies fastest, its conjugate power first."""
    ks, xs, ys = [1], [1], [0]
    rows = {1: range(1)}
    for k, fac in split_smooth_oracle(H, *_EP_SPLIT[c])[1:]:
        (q, e), start = fac[-1], len(ks)
        u, v = _ep_pow(prime_root_scan_oracle(q, c), 4 * e, c)
        for i in rows[k // q**e]:
            X, Y = xs[i], ys[i]
            xs += [X * u + c * Y * v, X * u - c * Y * v]
            ys += [Y * u - X * v, Y * u + X * v]
        ks.extend((k,) * (len(xs) - start))
        rows[k] = range(start, len(ks))
    return ks, xs, ys


def _ep_split(q: int, c: int) -> bool:
    return q % 4 == 1 if c == 1 else q % 8 in ((1, 3) if c == 2 else (1, 7))


def _ep_products(factors, c):
    """(base, scalar, branch lists) of the full product; None if empty."""
    base, scalar, branches = (1, 0), 1, []
    for q, e in factors:
        if q == 2 and c > 0:
            base = _ep_mul(base, _ep_pow((1, 1) if c == 1 else (0, 1), e, c), c)
        elif _ep_split(q, c):
            pi = prime_root_scan_oracle(q, c)
            bar = (pi[0], -pi[1])
            branches.append([_ep_mul(_ep_pow(pi, j, c), _ep_pow(bar, e - j, c), c)
                             for j in range(e + 1)])
        elif e % 2 and c > 0:
            return None
        else:
            scalar *= q ** (e // 2)
    return base, scalar, branches


def norm_form_reps_oracle(M: int, c: int) -> set:
    """All (|u|, |v|) with u^2 + c*v^2 = M, c = 1 or 2, by the full product."""
    got = _ep_products(sorted(factor_oracle(M).items()), c)
    if got is None:
        return set()
    base, scalar, branches = got
    reps = set()
    for combo in itertools.product(*branches):
        z = base
        for f in combo:
            z = _ep_mul(z, f, c)
        reps.add((abs(z[0] * scalar), abs(z[1] * scalar)))
    return reps


def primitive_products_oracle(p: int, factors, c: int) -> list:
    """pi_p times pi-bar_q^(4e) or pi_q^(4e) per prime power q^e of factors,
    each power recomputed by repeated multiplication: the last prime
    varies fastest, its conjugate power first.  Empty when p does not split."""
    pi = prime_root_scan_oracle(p, c)
    if pi is None:
        return []
    zs = [pi]
    for q, e in factors:
        a = _ep_pow(prime_root_scan_oracle(q, c), 4 * e, c)
        zs = [_ep_mul(z, f, c) for z in zs for f in ((a[0], -a[1]), a)]
    return zs


def ep_space_point_walk_oracle(p: int, d: int, H: int):
    """First point of C_d, d in (-1, -2, 2), in the structured search's
    order, every candidate tried.

    The numerator k runs over the odd k <= H whose primes all split in
    the ring of d, each k through primitive_products_oracle; both
    components of a product are tried as the square side for C_{-1}, and
    the real form walks each product's unit orbit.
    """
    c = {-1: 1, -2: 2, 2: -2}[d]
    for k in range(1, H + 1, 2):
        fac = sorted(factor_oracle(k).items())
        if not all(_ep_split(q, c) for q, _ in fac):
            continue
        for z in primitive_products_oracle(p, fac, c):
            u, v = abs(z[0]), abs(z[1])
            if c == -2:
                hit = orbit_square_x_oracle(z, k)
                cands = [] if hit is None else [(hit[0] ** 2, 2 * hit[1])]
            elif c == 2:
                cands = [(u, 2 * v)]
            else:  # W^2 + (n^2)^2 = 4 p k^4 from (2u, 2v)
                cands = [(2 * u, 2 * v), (2 * v, 2 * u)]
            for f2, other in cands:
                f = isqrt(f2)
                if f and f * f == f2 and gcd(k, f) == 1:
                    return Fraction(k, f), Fraction(other, f * f)
    return None


def orbit_square_x_oracle(z0, m, step_cap=64):
    """(n, |s|) at the first z = x + s sqrt 2 with |x| = n^2, gcd(m, n) = 1, s != 0.

    An isqrt per step: the first walk multiplies z0 by 3 + 2 sqrt 2 step
    by step, the second starts at z0 (3 - 2 sqrt 2) and multiplies by
    3 - 2 sqrt 2; each takes step_cap steps.  None when neither hits.
    """
    for start, unit in ((z0, (3, 2)), (_ep_mul(z0, (3, -2), -2), (3, -2))):
        z = start
        for _ in range(step_cap):
            x, s = abs(z[0]), abs(z[1])
            n = isqrt(x)
            if s and n * n == x and gcd(m, n) == 1:
                return n, s
            z = _ep_mul(z, unit, -2)
    return None


def real_form_square_x_oracle(p: int, k: int):
    """(r, s) with (r^2)^2 - 2 s^2 = p k^4 and gcd(r, k) = 1, or None."""
    pi_p = prime_root_scan_oracle(p, -2)
    if pi_p is None:
        return None
    factors = [(q, 4 * e) for q, e in sorted(factor_oracle(k).items())]
    _, scalar, branches = _ep_products(factors, -2)
    for combo in itertools.product(*branches):
        z0 = pi_p
        for f in combo:
            z0 = _ep_mul(z0, f, -2)
        hit = orbit_square_x_oracle((z0[0] * scalar, z0[1] * scalar), k)
        if hit is not None:
            return hit
    return None


def ep_space_point_oracle(p: int, d: int, H: int):
    """Point search on C_d of y^2 = x^3 + px, bounded side <= H, every m or n tried."""
    if d == -1:
        for m in range(1, H + 1):
            for u, v in norm_form_reps_oracle(4 * p * m**4, 1):
                for cand, other in ((u, v), (v, u)):
                    n = isqrt(cand)
                    if n and n * n == cand and gcd(m, n) == 1:
                        return Fraction(m, n), Fraction(other, n * n)
    elif d in (-2, 2):
        for m in range(1, H + 1, 2):
            if d == 2:
                hit = real_form_square_x_oracle(p, m)
                reps = [] if hit is None else [(hit[0] ** 2, hit[1])]
            else:
                reps = norm_form_reps_oracle(p * m**4, 2)
            for u, v in reps:
                n = isqrt(u)
                if n and n * n == u and gcd(m, n) == 1:
                    return Fraction(m, n), Fraction(2 * v, n * n)
    elif d == p:
        for n in range(1, H + 1, 2):
            for u, v in norm_form_reps_oracle(p * n**4, 1):
                for cand, other in ((u, v), (v, u)):
                    m = isqrt(cand // 2)
                    if cand % 2 == 0 and m and 2 * m * m == cand and gcd(m, n) == 1:
                        return Fraction(m, n), Fraction(other, n * n)
    elif d in (2 * p, -2 * p):
        for n in range(1, H + 1, 2):
            if d == -2 * p:
                hit = real_form_square_x_oracle(p, n)
                reps = [] if hit is None else [(hit[0] ** 2, hit[1])]
            else:
                reps = norm_form_reps_oracle(p * n**4, 2)
            for u, v in reps:
                m = isqrt(u)
                if m and m * m == u and gcd(m, n) == 1:
                    return Fraction(m, n), Fraction(2 * v, n * n)
    else:
        raise ValueError(f"no structured search for class {d}")
    return None


def deep_space_point_oracle(p: int, d: int, cap: int):
    """Rescan of C_{-1} (d = -1) or C_{-2} over numerators <= cap.

    Only odd numerators all of whose primes split are tried, each through
    the full product over the factorization of p * m^4.
    """
    c = 1 if d == -1 else 2
    for m in range(1, cap + 1, 2):
        fac = factor_oracle(m)
        if not all(_ep_split(q, c) for q in fac):
            continue
        for u, v in norm_form_reps_oracle(p * m**4, c):
            if d == -1:
                for cand, other in ((u, v), (v, u)):
                    n0 = isqrt(cand // 2)
                    if cand % 2 == 0 and n0 and 2 * n0 * n0 == cand and gcd(m, n0) == 1:
                        return Fraction(m, 2 * n0), Fraction(other, 2 * n0 * n0)
            else:
                n = isqrt(u)
                if n and n * n == u and gcd(m, n) == 1:
                    return Fraction(m, n), Fraction(2 * v, n * n)
    return None


def span_oracle(reps) -> set[int]:
    """Closure of signed squarefree integers under a*b/gcd(a, b)^2, by fixed point."""
    out = {1} | set(reps)
    grew = True
    while grew:
        grew = False
        for u, v in list(itertools.product(out, repeat=2)):
            w = u * v // gcd(u, v) ** 2
            if w not in out:
                out.add(w)
                grew = True
    return out


def certify_oracle(a: int, b: int, sel, seed: int, H: int):
    """The certified image of one descent direction, from y^2 = x^3 + a*x^2
    + b*x, walked on classes as signed squarefree integers: (span, lifts),
    a lift (d, psi(z, w)) per point (z, w) found.

    sel lists the Selmer classes in the package's class order, seed is the
    class of the codomain's a4.  A class already in the span is skipped;
    each other one is searched to height H, and a hit closes the span over
    it by products.  A hit at infinity or at z = 0 certifies the class
    without a lift.
    """
    span, lifts = span_oracle({seed}), []
    for d in sel:
        if d in span:
            continue
        c4, _, c2, _, c0 = space_oracle(a, b, d)
        found = search_point_oracle(c4, c2, c0, d, c4, H)
        if found is None:
            continue
        if found != "infinity" and found[0] != 0:
            lifts.append((d, psi_oracle(d, found)))
        span = span_oracle(span | {d})
    return span, lifts


def ep_certified_dim_oracle(p: int, H: int, space_point, deep_factor: int) -> int:
    """The 2-dimension g of the certified phi-image of y^2 = x^3 + px, p = 1
    (mod 8) with 2 a quartic residue, closing classes by products.

    The span starts at {1, -p}.  The cosets (-2, 2p), (-1, p), (2, -2p)
    are searched to H in that order until the span is everything: first
    the numerator-bounded space through space_point, and after a miss the
    denominator-bounded one through ep_space_point_oracle.  If exactly
    one coset is certified, C_{-1} and then C_{-2}, each unless already
    in the span, are rescanned through space_point to deep_factor * H,
    stopping at the first hit.
    """
    span = span_oracle({-p})
    for d in (-2, -1, 2):
        if space_point(p, d, H) is not None or ep_space_point_oracle(p, -p * d, H) is not None:
            span = span_oracle(span | {d})
        if len(span) == 8:
            break
    if len(span) == 4:
        for d in (-1, -2):
            if d not in span and space_point(p, d, deep_factor * H) is not None:
                span = span_oracle(span | {d})
                break
    return len(span).bit_length() - 1


# ---------------------------------------------------------------------------
# Documents


def serialize_document_oracle(doc) -> str:
    """cli.serialize_document as first written: the standard library's
    encoder at indent 2 with sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True)
