"""Command-line front end.

Subcommands: descent (one curve, full report), family (closed forms),
table (prime sweeps), verify-cremona (allgens-format checking).

Exit codes: 0 success, 1 internal error, 2 invalid input, 3 mismatch.

JSON documents carry schema_version 1 and encode any integer beyond
2^53 as a decimal string, so exactness survives consumers that read
numbers as doubles.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize
from .curve import (
    Curve,
    CurveError,
    Pt,
    discriminant,
    on_curve,
    torsion_subgroup,
)
from .descent import DescentReport, descent_report, selmer
from .families import (
    FamilyError,
    RankResult,
    edconst_torsion,
    edx_rank_upper,
    edx_torsion,
    ep_rank,
    ep_rank_sha_dim,
    ep_selmer,
    ep_table,
)

__all__ = [
    "main",
    "cmd_descent",
    "cmd_family",
    "cmd_table",
    "cmd_verify_cremona",
    "CremonaLine",
    "report_document",
    "serialize_document",
    "parse_document",
]

SCHEMA_VERSION = 1
_BIG = 2**53


# ---------------------------------------------------------------------------
# ReportDocument encoding


def _enc_int(n: int):
    return str(n) if abs(n) > _BIG else n


def _enc_point(P: Pt):
    return [
        _enc_int(P.x.numerator),
        _enc_int(P.x.denominator),
        _enc_int(P.y.numerator),
        _enc_int(P.y.denominator),
    ]


def report_document(rep: DescentReport, timings_ms: dict | None = None) -> dict:
    E, Ep = rep.curve, rep.isogenous
    return {
        "schema_version": SCHEMA_VERSION,
        "curve": [E.a2, E.a4, E.a6],
        "isogenous_curve": [Ep.a2, Ep.a4, Ep.a6],
        "discriminant": _enc_int(discriminant(E)),
        "selmer_phi": [int(d) for d in rep.selmer_phi],
        "selmer_phi_hat": [int(d) for d in rep.selmer_phi_hat],
        "image_phi": [int(d) for d in rep.image_phi],
        "image_phi_hat": [int(d) for d in rep.image_phi_hat],
        "rank_lower": rep.rank_lower,
        "rank_upper": rep.rank_upper,
        "rank_exactness": "exact" if rep.rank_exact else "interval",
        "sha_dims": {
            "phi": rep.sha_phi_dim_upper,
            "phi_hat": rep.sha_phi_hat_dim_upper,
        },
        "torsion": _torsion_json(rep.torsion),
        "generators": [_enc_point(P) for P in rep.generators],
        "search_height": rep.search_height,
        "notes": list(rep.notes),
        "timings_ms": timings_ms or {},
    }


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_document(text: str) -> dict:
    """Inverse of serialize_document; restores decimal-string integers."""
    doc = json.loads(text)
    out = dict(doc)
    for key in ("curve", "isogenous_curve", "selmer_phi", "selmer_phi_hat",
                "image_phi", "image_phi_hat"):
        out[key] = [int(v) for v in doc[key]]
    out["discriminant"] = int(doc["discriminant"])
    out["torsion"] = {
        "structure": doc["torsion"]["structure"],
        "generators": [[int(v) for v in q] for q in doc["torsion"]["generators"]],
    }
    out["generators"] = [[int(v) for v in q] for q in doc["generators"]]
    return out


# ---------------------------------------------------------------------------
# descent


def _fmt_curve(E: Curve) -> str:
    s = f"y^2 = x^3 + ({E.a2})x^2 + ({E.a4})x"
    if E.a6 != 0:
        s += f" + ({E.a6})"
    return s


def _fmt_classes(sel) -> str:
    return "{" + ", ".join(str(int(d)) for d in sel) + "}"


def _fmt_point(P: Pt) -> str:
    return f"({P.x}, {P.y})"


def _print_report(rep: DescentReport) -> None:
    print(f"curve:            {_fmt_curve(rep.curve)}")
    print(f"isogenous curve:  {_fmt_curve(rep.isogenous)}")
    print(f"discriminant:     {discriminant(rep.curve)}")
    print("Results:")
    print(f"  #Sel^phi(E/Q)   = {rep.selmer_phi.size}"
          f"    classes {_fmt_classes(rep.selmer_phi)}")
    print(f"  #Sel^phi'(E'/Q) = {rep.selmer_phi_hat.size}"
          f"    classes {_fmt_classes(rep.selmer_phi_hat)}")
    print(f"  certified image classes: {_fmt_classes(rep.image_phi)} and "
          f"{_fmt_classes(rep.image_phi_hat)}")
    marker = "  (exact)" if rep.rank_exact else ""
    print(f"  {rep.rank_lower} <= rank E(Q) <= {rep.rank_upper}{marker}")
    print(f"  dim_2 Sha(E/Q)[phi]    <= {rep.sha_phi_dim_upper}")
    print(f"  dim_2 Sha(E'/Q)[phi']  <= {rep.sha_phi_hat_dim_upper}")
    pts = " ".join(_fmt_point(P) for P in rep.torsion.points if not P.is_infinity)
    print(f"  torsion subgroup = {rep.torsion.structure}"
          + (f"    affine points {pts}" if pts else ""))
    if rep.generators:
        print("  independent points of infinite order: "
              + " ".join(_fmt_point(P) for P in rep.generators))
    else:
        print(f"  no points of infinite order found up to height {rep.search_height}")
    for note in rep.notes:
        print(f"  note: {note}")


def cmd_descent(args) -> int:
    if args.a6 != 0:
        print(
            "error: a6 must be 0 (2-torsion at the origin); for "
            "y^2 = x^3 + c^3 use the shifted model from from_cubic_const",
            file=sys.stderr,
        )
        return 2
    E = Curve(args.a2, args.a4, 0)
    t0 = time.perf_counter()
    rep = descent_report(E, args.height)
    ms = round((time.perf_counter() - t0) * 1000, 3)
    if args.json:
        print(serialize_document(report_document(rep, {"total": ms})))
    else:
        _print_report(rep)
    return 0


# ---------------------------------------------------------------------------
# family


def _reduce_power_free(D: int, e: int) -> int:
    out = 1 if D > 0 else -1
    for p, m in factorize(D).factors:
        out *= p ** (m % e)
    return out


def _rank_result_json(r: RankResult) -> dict:
    return {"kind": r.kind, "lo": r.lo, "hi": r.hi, "note": r.note}


def _fmt_rank_result(r: RankResult) -> str:
    if r.kind == "exact":
        return f"rank = {r.lo}  ({r.note})"
    if r.kind == "exact_conditional_on_finite_sha":
        return f"rank = {r.lo} assuming Sha is finite  ({r.note})"
    return f"rank in [{r.lo}, {r.hi}]  ({r.note})"


def _torsion_json(T) -> dict:
    return {
        "structure": T.structure,
        "generators": [_enc_point(P) for P in T.generators],
    }


def cmd_family(args) -> int:
    if args.kind == "ep":
        p = args.value
        phi, phi_hat = ep_selmer(p)
        rank = ep_rank(p, args.height)
        if args.json:
            print(serialize_document({
                "schema_version": SCHEMA_VERSION,
                "family": "ep",
                "p": p,
                "selmer_dims": [phi.dim2, phi_hat.dim2],
                "selmer_phi": [int(d) for d in phi],
                "selmer_phi_hat": [int(d) for d in phi_hat],
                "rank_plus_sha2_dim": ep_rank_sha_dim(p),
                "rank": _rank_result_json(rank),
            }))
        else:
            print(f"family E_p : y^2 = x^3 + {p}x")
            print(f"  Sel^phi   = {_fmt_classes(phi)}   (dim {phi.dim2})")
            print(f"  Sel^phi'  = {_fmt_classes(phi_hat)}   (dim {phi_hat.dim2})")
            print(f"  rank + dim_2 Sha[2] = {ep_rank_sha_dim(p)}")
            print(f"  {_fmt_rank_result(rank)}")
        if args.check:
            eng_phi = selmer(Curve(0, p, 0))
            eng_hat = selmer(Curve(0, -4 * p, 0))
            if eng_phi.classes != phi.classes or eng_hat.classes != phi_hat.classes:
                print("engine cross-check FAILED", file=sys.stderr)
                return 3
            print("engine cross-check: ok")
        return 0
    D = args.value
    reduce_exp = 4 if args.kind == "edx" else 6
    reduced = _reduce_power_free(D, reduce_exp)
    if reduced != D:
        if not args.reduce:
            print(
                f"error: D = {D} is not {reduce_exp}th-power-free; "
                f"pass --reduce to work with D = {reduced}",
                file=sys.stderr,
            )
            return 2
        print(f"note: reduced D = {D} to {reduced}")
        D = reduced
    if args.kind == "edx":
        T = edx_torsion(D)
        bound = edx_rank_upper(D)
        if args.json:
            print(serialize_document({
                "schema_version": SCHEMA_VERSION,
                "family": "edx",
                "D": _enc_int(D),
                "torsion": _torsion_json(T),
                "rank_upper": bound,
            }))
        else:
            print(f"family E_D : y^2 = x^3 + {D}x")
            print(f"  torsion subgroup = {T.structure}")
            print(f"  rank <= {bound}")
    else:
        T = edconst_torsion(D)
        if args.json:
            print(serialize_document({
                "schema_version": SCHEMA_VERSION,
                "family": "edconst",
                "D": _enc_int(D),
                "torsion": _torsion_json(T),
            }))
        else:
            print(f"family E_D : y^2 = x^3 + {D}")
            print(f"  torsion subgroup = {T.structure}")
    return 0


# ---------------------------------------------------------------------------
# table


def _parse_filter(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "mod8":
            out["mod8"] = int(value)
        elif key == "quartic2":
            if value not in ("true", "false"):
                raise FamilyError("quartic2 takes true or false")
            out["quartic_only"] = value == "true"
        else:
            raise FamilyError(f"unknown filter key {key!r}")
    return out


def _row_json(row) -> dict:
    return {
        "p": row.p,
        "selmer_dim_phi": row.selmer_dim_phi,
        "selmer_dim_phi_hat": row.selmer_dim_phi_hat,
        "rank_plus_sha2_dim": row.rank_sha_dim,
        "rank": _rank_result_json(row.rank),
    }


def cmd_table(args) -> int:
    filters = _parse_filter(args.filter)
    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("TWODESCENT_JOBS")
        jobs = int(env) if env else None
    rows = ep_table(args.max, height=args.height, jobs=jobs, **filters)
    for row in rows:
        print(
            f"p={row.p}  selmer_dims=({row.selmer_dim_phi},{row.selmer_dim_phi_hat})"
            f"  rank+sha2={row.rank_sha_dim}  {_fmt_rank_result(row.rank)}"
        )
    print(f"{len(rows)} rows")
    if args.out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "p_max": args.max,
            "rows": [_row_json(r) for r in rows],
        }
        with open(args.out, "w") as fh:
            fh.write(serialize_document(doc) + "\n")
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify-cremona


@dataclass(frozen=True)
class CremonaLine:
    conductor: int
    class_label: str
    number: int
    ainv: tuple[int, int, int, int, int]
    rank: int
    torsion_invariants: tuple[int, ...]
    generators: tuple[tuple[int, int, int], ...]


_LINE_RE = re.compile(
    r"^\s*(\d+)\s+([a-z]+)\s+(\d+)\s+"
    r"\[([^\]]*)\]\s+(-?\d+)\s+\[([^\]]*)\]\s*(.*)$"
)
_GEN_RE = re.compile(r"\[(-?\d+):(-?\d+):(-?\d+)\]")


def parse_cremona_line(line: str) -> CremonaLine:
    m = _LINE_RE.match(line)
    if not m:
        raise ValueError("not an allgens-format line")
    ainv = tuple(int(v) for v in m.group(4).split(","))
    if len(ainv) != 5:
        raise ValueError("need five a-invariants")
    tors = tuple(int(v) for v in m.group(6).split(",")) if m.group(6).strip() else ()
    rest = m.group(7)
    gens = tuple(
        (int(g[0]), int(g[1]), int(g[2])) for g in _GEN_RE.findall(rest)
    )
    return CremonaLine(
        conductor=int(m.group(1)),
        class_label=m.group(2),
        number=int(m.group(3)),
        ainv=ainv,
        rank=int(m.group(5)),
        torsion_invariants=tors,
        generators=gens,
    )


def _projective_on_curve(E: Curve, triple) -> bool:
    x, y, z = triple
    if z == 0:
        return x == 0 and y != 0  # only [0:1:0] lies on a Weierstrass curve
    return on_curve(E, Pt(Fraction(x, z), Fraction(y, z)))


def _two_torsion_shift(ainv) -> Curve | None:
    """Integral model with a rational 2-torsion point moved to (0, 0)."""
    from .curve import _integer_roots_monic_cubic

    _, a2, _, a4, a6 = ainv
    for r in sorted(_integer_roots_monic_cubic(a2, a4, a6)):
        A = a2 + 3 * r
        B = 3 * r * r + 2 * a2 * r + a4
        if B != 0 and A * A - 4 * B != 0:
            return Curve(A, B, 0)
    return None


def _verify_line(cl: CremonaLine, height: int):
    """Returns (status, detail); status in {"ok", "mismatch", "skipped"}."""
    a1, a2, a3, a4, a6 = cl.ainv
    if a1 != 0 or a3 != 0:
        return "skipped", "unsupported shape (a1 or a3 nonzero)"
    E = Curve(a2, a4, a6)
    for g in cl.generators:
        if not _projective_on_curve(E, g):
            return "mismatch", f"generator [{g[0]}:{g[1]}:{g[2]}] is not on the curve"
    stated = tuple(t for t in cl.torsion_invariants if t != 1)
    computed = tuple(torsion_subgroup(E).invariants())
    if stated != computed:
        return "mismatch", f"torsion {list(stated)} stated, {list(computed)} computed"
    shifted = _two_torsion_shift(cl.ainv)
    if shifted is None:
        return "ok", "torsion and generators verified; rank unchecked (no rational 2-torsion)"
    rep = descent_report(shifted, height)
    if not rep.rank_lower <= cl.rank <= rep.rank_upper:
        return "mismatch", (
            f"stated rank {cl.rank} outside [{rep.rank_lower}, {rep.rank_upper}]"
        )
    return "ok", (
        f"torsion and generators verified; rank {cl.rank} within "
        f"[{rep.rank_lower}, {rep.rank_upper}]"
    )


def cmd_verify_cremona(args) -> int:
    try:
        with open(args.file) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    counts = {"ok": 0, "mismatch": 0, "skipped": 0, "parse_error": 0}
    total = 0
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        total += 1
        try:
            cl = parse_cremona_line(line)
        except ValueError as e:
            counts["parse_error"] += 1
            print(f"line {i}: parse error: {e}")
            continue
        try:
            status, detail = _verify_line(cl, args.height)
        except ValueError as e:
            counts["mismatch"] += 1
            print(f"line {i}: verification error: {e}")
            continue
        counts[status] += 1
        label = f"{cl.conductor}{cl.class_label}{cl.number}"
        print(f"line {i} ({label}): {status}: {detail}")
    print(
        f"{total} lines: {counts['ok']} verified, {counts['skipped']} skipped, "
        f"{counts['mismatch']} mismatches, {counts['parse_error']} parse errors"
    )
    return 3 if counts["mismatch"] else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodescent",
        description="Selmer groups, rank bounds and torsion for rational "
        "elliptic curves with a rational 2-torsion point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("descent", help="full report for one curve")
    p_desc.add_argument("--a2", type=int, required=True)
    p_desc.add_argument("--a4", type=int, required=True)
    p_desc.add_argument("--a6", type=int, default=0)
    p_desc.add_argument("--height", type=int, default=20)
    p_desc.add_argument("--json", action="store_true")
    p_desc.set_defaults(func=cmd_descent)

    p_fam = sub.add_parser("family", help="closed-form family results")
    p_fam.add_argument("kind", choices=["ep", "edx", "edconst"])
    p_fam.add_argument("value", type=int)
    p_fam.add_argument("--height", type=int, default=20)
    p_fam.add_argument("--reduce", action="store_true",
                       help="reduce D to the family's power-free normal form")
    p_fam.add_argument("--check", action="store_true",
                       help="cross-check closed forms against the engine")
    p_fam.add_argument("--json", action="store_true")
    p_fam.set_defaults(func=cmd_family)

    p_tab = sub.add_parser("table", help="sweep the E_p family")
    p_tab.add_argument("family", choices=["ep"])
    p_tab.add_argument("--max", type=int, required=True)
    p_tab.add_argument("--filter", default="",
                       help="comma list: mod8=<r>, quartic2=<true|false>")
    p_tab.add_argument("--jobs", type=int, default=None)
    p_tab.add_argument("--height", type=int, default=20)
    p_tab.add_argument("--out", default=None, help="also write a JSON file")
    p_tab.set_defaults(func=cmd_table)

    p_ver = sub.add_parser("verify-cremona", help="check allgens-format lines")
    p_ver.add_argument("file")
    p_ver.add_argument("--height", type=int, default=20)
    p_ver.set_defaults(func=cmd_verify_cremona)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
