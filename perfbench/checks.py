"""Correctness checks on workload outputs, run after the timed loop.

The checks use the test suite's independent oracles (tests/oracles.py,
which never imports twodescent) and a reference of the seed commit's
outputs under data/.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from tests.oracles import (
    factor_oracle,
    o_on_curve,
    o_order,
    squarefree_brute,
    torsion_invariants_brute,
)


def outcome_of(rep) -> dict:
    """The parts of a DescentReport that the reference records."""
    return {
        "sel_phi": [int(d) for d in rep.selmer_phi],
        "sel_hat": [int(d) for d in rep.selmer_phi_hat],
        "torsion": rep.torsion.invariants(),
        "rank_upper": rep.rank_upper,
        "rank_lower": rep.rank_lower,
    }


def error_name(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _mul(u: int, v: int) -> int:
    """Product of two squarefree classes, reduced to squarefree."""
    g = gcd(u, v)
    return (u // g) * (v // g)


def _is_subgroup(classes: set[int]) -> bool:
    return 1 in classes and all(_mul(u, v) in classes for u in classes for v in classes)


def _supported_on(d: int, n: int) -> bool:
    """Every prime of d divides n."""
    d = abs(d)
    while (g := gcd(d, n)) > 1:
        d //= g
    return d == 1


def _dim2(n: int) -> int | None:
    return n.bit_length() - 1 if n > 0 and n & (n - 1) == 0 else None


def dx_torsion(D: int) -> list[int]:
    """Torsion of y^2 = x^3 + Dx by the classical table.

    With D reduced mod fourth powers: Z/4 for D = 4, Z/2 x Z/2 when -D
    is a square, Z/2 otherwise.
    """
    red = -1 if D < 0 else 1
    for p, e in factor_oracle(D).items():
        red *= p ** (e % 4)
    if red == 4:
        return [4]
    m = -D
    if m > 0 and isqrt(m) ** 2 == m:
        return [2, 2]
    return [2]


def box_torsion(a: int, b: int) -> list[int]:
    return torsion_invariants_brute((a, b, 0))


def check_descent(rep, a: int, b: int, torsion: list[int], ref: dict) -> list[str]:
    """Structure, generators, torsion and agreement with the seed reference."""
    bp = a * a - 4 * b
    errs = []
    sel_phi = {int(d) for d in rep.selmer_phi}
    sel_hat = {int(d) for d in rep.selmer_phi_hat}
    img_phi = {int(d) for d in rep.image_phi}
    img_hat = {int(d) for d in rep.image_phi_hat}
    for name, sel, img, seed in (
        ("phi", sel_phi, img_phi, bp),
        ("phi_hat", sel_hat, img_hat, b),
    ):
        if not _is_subgroup(sel):
            errs.append(f"Selmer set {name} is not a subgroup")
        if squarefree_brute(seed) not in sel:
            errs.append(f"Selmer set {name} misses the 2-torsion class {squarefree_brute(seed)}")
        for d in sel:
            if squarefree_brute(d) != d or not _supported_on(d, 2 * b * bp):
                errs.append(f"class {d} of {name} is not in Q(S, 2)")
        if not _is_subgroup(img) or not img <= sel:
            errs.append(f"image {name} is not a subgroup of the Selmer set")
    s, sp = _dim2(len(sel_phi)), _dim2(len(sel_hat))
    g, gp = _dim2(len(img_phi)), _dim2(len(img_hat))
    if None in (s, sp, g, gp):
        errs.append("a Selmer set or image has no 2-power order")
        return errs
    if rep.rank_upper != s + sp - 2:
        errs.append(f"rank_upper {rep.rank_upper} != s + s' - 2 = {s + sp - 2}")
    if rep.rank_lower != max(0, g + gp - 2) or rep.rank_lower > rep.rank_upper:
        errs.append(f"rank interval [{rep.rank_lower}, {rep.rank_upper}] disagrees with the images")
    if (rep.sha_phi_dim_upper, rep.sha_phi_hat_dim_upper) != (s - g, sp - gp):
        errs.append("Sha bounds disagree with Selmer and image dimensions")
    if rep.rank_exact != (rep.rank_lower == rep.rank_upper):
        errs.append("rank_exact disagrees with the interval")
    coeffs = (a, b, 0)
    for P in rep.generators:
        Q = (Fraction(P.x), Fraction(P.y))
        if not o_on_curve(coeffs, Q):
            errs.append(f"generator {Q} is not on the curve")
        elif o_order(coeffs, Q) is not None:
            errs.append(f"generator {Q} has finite order")
    if rep.torsion.invariants() != torsion:
        errs.append(f"torsion {rep.torsion.invariants()} != oracle {torsion}")
    errs.extend(compare_reference(outcome_of(rep), ref))
    return errs


def compare_reference(out: dict, ref: dict) -> list[str]:
    """Exact outputs must match the seed; rank_lower must not drop.

    A curve the seed commit refused has no reference outputs, so a run
    that now succeeds is held to the structural checks alone.
    """
    if ref["outcome"] != "ok":
        return []
    errs = [
        f"{key} {out[key]} != seed {ref[key]}"
        for key in ("sel_phi", "sel_hat", "torsion", "rank_upper")
        if out[key] != ref[key]
    ]
    if out["rank_lower"] < ref["rank_lower"]:
        errs.append(f"rank_lower {out['rank_lower']} fell below seed {ref['rank_lower']}")
    return errs


def check_document(text: str, rep, a: int, b: int, parse_document) -> list[str]:
    """The serialized report parses back to the report's own values."""
    doc = parse_document(text)
    want = {
        "curve": [a, b, 0],
        "discriminant": 16 * b * b * (a * a - 4 * b),
        "selmer_phi": [int(d) for d in rep.selmer_phi],
        "selmer_phi_hat": [int(d) for d in rep.selmer_phi_hat],
        "image_phi": [int(d) for d in rep.image_phi],
        "image_phi_hat": [int(d) for d in rep.image_phi_hat],
        "rank_lower": rep.rank_lower,
        "rank_upper": rep.rank_upper,
        "generators": [
            [P.x.numerator, P.x.denominator, P.y.numerator, P.y.denominator]
            for P in rep.generators
        ],
    }
    errs = [f"JSON field {k} does not round-trip" for k, v in want.items() if doc.get(k) != v]
    if doc["torsion"]["structure"] != rep.torsion.structure:
        errs.append("JSON torsion structure does not round-trip")
    return errs


def ep_row_summary(row) -> list:
    r = row.rank
    return [row.p, row.selmer_dim_phi, row.selmer_dim_phi_hat, row.rank_sha_dim, r.kind, r.lo, r.hi]


def check_ep_rows(rows, p_max: int, ref_rows: dict, rank2_primes) -> list[str]:
    """Row set, internal consistency, acceptance primes and the seed reference."""
    import sympy

    errs = []
    ps = [row.p for row in rows]
    if ps != list(sympy.primerange(3, p_max + 1)):
        errs.append(f"rows are not the {sympy.primepi(p_max) - 1} odd primes <= {p_max}")
    rank2 = set(rank2_primes)
    for row in rows:
        p, s, sp, rsd, kind, lo, hi = ep_row_summary(row)
        if rsd != s + sp - 2 or not 0 <= lo <= hi <= rsd:
            errs.append(f"p = {p}: inconsistent dimensions {s}, {sp}, {rsd}, [{lo}, {hi}]")
        if p <= 10000 and (kind, lo, hi) == ("exact", 2, 2) and p not in rank2:
            errs.append(f"p = {p}: certified rank 2 but not an acceptance rank-2 prime")
        ref = ref_rows.get(str(p))
        if ref is None:
            errs.append(f"p = {p}: no reference row")
            continue
        if [s, sp, rsd, hi] != [ref[1], ref[2], ref[3], ref[6]] or lo < ref[5]:
            errs.append(f"p = {p}: row {[s, sp, rsd, kind, lo, hi]} disagrees with seed {ref[1:]}")
    return errs
