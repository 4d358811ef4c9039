"""Command-line front end.

Subcommands: descent (one curve, full report), family (closed forms),
table (prime sweeps), verify-cremona (allgens-format checking).

Exit codes: 0 success, 1 internal error, 2 invalid input, 3 mismatch, and,
silently, 141 (128 + SIGPIPE) when the reader closes stdout early (`| head`).

JSON documents carry schema_version 1 and encode any integer beyond
2^53 as a decimal string, so exactness survives consumers that read
numbers as doubles.
"""

from __future__ import annotations

import argparse
import json
from json.encoder import encode_basestring_ascii as _quote
import os
import re
import sys
import time
from contextlib import nullcontext

from .arith import Record, _root_exact, factorize
from .curve import (
    Curve,
    CurveError,
    Pt,
    SingularModel,
    discriminant,
    from_cubic_const,
    torsion_subgroup,
)
from .descent import DescentReport, _check_height, descent_report, selmer
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
    return [_enc_int(P.x.numerator), _enc_int(P.x.denominator), _enc_int(P.y.numerator), _enc_int(P.y.denominator)]


def _enc_classes(sel) -> list:
    return [_enc_int(d.rep) for d in sel]


def report_document(rep: DescentReport, timings_ms: dict | None = None) -> dict:
    E, Ep = rep.curve, rep.isogenous
    return {
        "schema_version": SCHEMA_VERSION,
        "curve": [_enc_int(E.a2), _enc_int(E.a4), _enc_int(E.a6)],
        "isogenous_curve": [_enc_int(Ep.a2), _enc_int(Ep.a4), _enc_int(Ep.a6)],
        "discriminant": _enc_int(discriminant(E)),
        "selmer_phi": _enc_classes(rep.selmer_phi),
        "selmer_phi_hat": _enc_classes(rep.selmer_phi_hat),
        "image_phi": _enc_classes(rep.image_phi),
        "image_phi_hat": _enc_classes(rep.image_phi_hat),
        "rank_lower": rep.rank_lower,
        "rank_upper": rep.rank_upper,
        "rank_exactness": "exact" if rep.rank_exact else "interval",
        "sha_dims": {"phi": rep.sha_phi_dim_upper, "phi_hat": rep.sha_phi_hat_dim_upper},
        "torsion": _torsion_json(rep.torsion),
        "generators": [_enc_point(P) for P in rep.generators],
        "search_height": rep.search_height,
        "notes": list(rep.notes),
        "timings_ms": timings_ms or {},
    }


def serialize_document(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), written directly."""
    return _write(doc, "\n")


def _write(v, nl: str) -> str:
    """v on a line broken by nl: ints, strs and empty lists and dicts at once, filled containers by recursion."""
    if type(v) is int:
        return str(v)
    if type(v) is str:
        return _quote(v)
    inner = nl + "  "
    if isinstance(v, dict) and v:
        return "{" + inner + ("," + inner).join([f"{_quote(k)}: {_write(v[k], inner)}" for k in sorted(v)]) + nl + "}"
    if isinstance(v, (list, tuple)) and v:
        return "[" + inner + ("," + inner).join([_write(x, inner) for x in v]) + nl + "]"
    return "{}" if type(v) is dict else "[]" if type(v) in (list, tuple) else json.dumps(v)


# Where a descent document holds integers, ints or decimal strings past 2^53:
# 0 an integer, n > 0 a list of shape n - 1, a dict an object with those keys
# (and any others), None anything.
_SHAPE = {"curve": 1, "isogenous_curve": 1, "discriminant": 0, "selmer_phi": 1, "selmer_phi_hat": 1,
          "image_phi": 1, "image_phi_hat": 1, "torsion": {"structure": None, "generators": 2}, "generators": 2}


def parse_document(text: str) -> dict:
    """Inverse of serialize_document; restores decimal-string integers.  A
    document of another _SHAPE is refused with a ValueError naming the key."""
    return _read(json.loads(text), _SHAPE, "the document")


def _read(v, shape, key: str):
    if type(shape) is dict and type(v) is dict:
        if missing := [k for k in shape if k not in v]:
            raise ValueError(f"{key}: no key {missing[0]!r}")
        return {**v, **{k: _read(v[k], s, k) for k, s in shape.items()}}
    if type(shape) is int and shape and type(v) is list:
        return [_read(x, shape - 1, key) for x in v]
    if shape is None or shape == 0 and (type(v) is int or type(v) is str and v.removeprefix("-").isdecimal()):
        return v if shape is None else int(v)
    need = "a JSON object" if type(shape) is dict else "a list" if shape else "an integer"
    raise ValueError(f"{key}: not {need}, {v!r}")


# ---------------------------------------------------------------------------
# descent


def _fmt_curve(E: Curve) -> str:
    return f"y^2 = x^3 + ({E.a2})x^2 + ({E.a4})x"


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
    return {"structure": T.structure, "generators": [_enc_point(P) for P in T.generators]}


def _cross_check(args, agrees) -> int:
    """With --check, exit 3 unless agrees(), the closed form against the engine."""
    if not args.check:
        return 0
    if not agrees():
        print("engine cross-check FAILED", file=sys.stderr)
        return 3
    print("engine cross-check: ok")
    return 0


def cmd_family(args) -> int:
    D = args.value
    if args.kind != "ep":
        reduce_exp = 4 if args.kind == "edx" else 6
        reduced = _reduce_power_free(D, reduce_exp) if D else D  # 0 is the family's to refuse
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
    if args.kind == "ep":
        p = args.value
        phi, phi_hat = ep_selmer(p)
        rank, dim = ep_rank(p, args.height), ep_rank_sha_dim(p)
        doc = {"p": _enc_int(p), "selmer_dims": [phi.dim2, phi_hat.dim2], "selmer_phi": _enc_classes(phi),
               "selmer_phi_hat": _enc_classes(phi_hat), "rank_plus_sha2_dim": dim, "rank": _rank_result_json(rank)}
        lines = [f"family E_p : y^2 = x^3 + {p}x", f"  Sel^phi   = {_fmt_classes(phi)}   (dim {phi.dim2})",
                 f"  Sel^phi'  = {_fmt_classes(phi_hat)}   (dim {phi_hat.dim2})",
                 f"  rank + dim_2 Sha[2] = {dim}", f"  {_fmt_rank_result(rank)}"]

        def agrees():
            return (selmer(Curve(0, p, 0)), selmer(Curve(0, -4 * p, 0))) == (phi, phi_hat)
    elif args.kind == "edx":
        T, bound = edx_torsion(D), edx_rank_upper(D)
        doc = {"D": _enc_int(D), "torsion": _torsion_json(T), "rank_upper": bound}
        lines = [f"family E_D : y^2 = x^3 + {D}x", f"  torsion subgroup = {T.structure}", f"  rank <= {bound}"]

        def agrees():
            return torsion_subgroup(Curve(0, D, 0)) == T
    else:
        T = edconst_torsion(D)
        doc = {"D": _enc_int(D), "torsion": _torsion_json(T)}
        lines = [f"family E_D : y^2 = x^3 + {D}", f"  torsion subgroup = {T.structure}"]
        c = _root_exact(D, 3)  # a cube D also has the shifted model, with 2-torsion at the origin

        def agrees():
            return torsion_subgroup(Curve(0, 0, D)) == T and (
                c is None or torsion_subgroup(from_cubic_const(c)).structure == T.structure)
    if args.json:
        print(serialize_document({"schema_version": SCHEMA_VERSION, "family": args.kind, **doc}))
    else:
        print("\n".join(lines))
    return _cross_check(args, agrees)


# ---------------------------------------------------------------------------
# table


def _parse_filter(text: str) -> dict:
    out = {}
    if not text:
        return out
    seen = set()
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise FamilyError(f"filter key {key!r} given twice")
        seen.add(key)
        if key == "mod8":
            if value not in ("1", "3", "5", "7"):
                raise FamilyError("mod8 takes 1, 3, 5 or 7")
            out["mod8"] = int(value)
        elif key == "quartic2":
            if value not in ("true", "false"):
                raise FamilyError("quartic2 takes true or false")
            out["quartic_only"] = value == "true"
        else:
            raise FamilyError(f"unknown filter key {key!r}")
    return out


def _row_json(row) -> dict:
    return {"p": row.p, "selmer_dim_phi": row.selmer_dim_phi, "selmer_dim_phi_hat": row.selmer_dim_phi_hat,
            "rank_plus_sha2_dim": row.rank_sha_dim, "rank": _rank_result_json(row.rank)}


def cmd_table(args) -> int:
    filters = _parse_filter(args.filter)
    with open(args.out, "w") if args.out else nullcontext() as fh:  # an unusable path is refused before the sweep
        rows = ep_table(args.max, height=args.height, **filters)
        for row in rows:
            print(
                f"p={row.p}  selmer_dims=({row.selmer_dim_phi},{row.selmer_dim_phi_hat})"
                f"  rank+sha2={row.rank_sha_dim}  {_fmt_rank_result(row.rank)}"
            )
        print(f"{len(rows)} rows")
        if fh:
            doc = {"schema_version": SCHEMA_VERSION, "p_max": args.max, "rows": [_row_json(r) for r in rows]}
            fh.write(serialize_document(doc) + "\n")
            print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify-cremona


class CremonaLine(Record):
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
    a1, a2, a3, a4, a6 = ainv
    try:  # (4(2y + a1x + a3))^2 = X^3 + b2X^2 + 8b4X + 16b6 at X = 4x
        Curve(a1 * a1 + 4 * a2, 8 * (2 * a4 + a1 * a3), 16 * (a3 * a3 + 4 * a6))
    except SingularModel:
        raise ValueError(f"singular model {list(ainv)}") from None
    tors = tuple(int(v) for v in m.group(6).split(",")) if m.group(6).strip() else ()
    gens = []
    for token in m.group(7).split():
        if not (g := _GEN_RE.fullmatch(token)):
            raise ValueError(f"generator {token!r} is not [x:y:z] of three integers")
        gens.append(tuple(map(int, g.groups())))
    return CremonaLine(conductor=int(m.group(1)), class_label=m.group(2), number=int(m.group(3)), ainv=ainv,
                       rank=int(m.group(5)), torsion_invariants=tors, generators=tuple(gens))


def _projective_on_curve(E: Curve, triple) -> bool:
    """Whether [x:y:z] != [0:0:0] solves y^2 z = x^3 + a2 x^2 z + a4 x z^2 + a6 z^3."""
    x, y, z = triple
    return any(triple) and y * y * z == ((x + E.a2 * z) * x + E.a4 * z * z) * x + E.a6 * z**3


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
    tors = torsion_subgroup(E)
    computed = tuple(tors.invariants())
    if stated != computed:
        return "mismatch", f"torsion {list(stated)} stated, {list(computed)} computed"
    xs = [P.x for P in tors.points if P.y == 0]
    if not xs:
        return "ok", "torsion and generators verified; rank unchecked (no rational 2-torsion)"
    # move (r, 0) to the origin: b = f'(r) != 0 and a^2 - 4b = (s - t)^2 != 0
    r = int(min(xs))
    rep = descent_report(Curve(E.a2 + 3 * r, 3 * r * r + 2 * E.a2 * r + E.a4, 0), height)
    if not rep.rank_lower <= cl.rank <= rep.rank_upper:
        return "mismatch", (
            f"stated rank {cl.rank} outside [{rep.rank_lower}, {rep.rank_upper}]"
        )
    return "ok", (
        f"torsion and generators verified; rank {cl.rank} within "
        f"[{rep.rank_lower}, {rep.rank_upper}]"
    )


def cmd_verify_cremona(args) -> int:
    _check_height(args.height)
    with open(args.file) as fh:
        lines = fh.read().splitlines()
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
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # later writes, the interpreter's last flush among them, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as e:  # an unusable file is invalid input too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
