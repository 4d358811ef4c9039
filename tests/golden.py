"""Golden output digests: one short hash per input of the engine's outputs.

The north star is that the outputs never change.  This module lists a
fixed set of inputs, computes one 16-hex-digit SHA-256 digest of each
input's output, and compares them with tests/golden_digests.txt, which
was written once from the engine's outputs and is not regenerated: an
output change is a bug, not a new golden file.

Inputs:
- the 594 nonsingular curves y^2 = x^3 + ax^2 + bx with |a|, |b| <= 12
  at height 20, and the 2400 D of the descent-dx pool at height 100:
  repr(descent_report) and the serialized report_document (timings_ms
  left out, so it is {});
- every row of ep_table(30000, height=20) and of
  ep_table(30000, quartic_only=True);
- ep_rank(p, 1000) for primes whose certificate needs the deep rescan;
- the witness _ep_space_point finds, or None, on C_{-1}, C_{-2} and C_2
  for every quartic prime at height 20, and on C_{-1} and C_{-2} at cap
  10^6 for the deep primes whose rescans hit early (12841 misses both,
  and a miss scans whole tables for about 5 s);
- edx_torsion, edconst_torsion and torsion_subgroup of y^2 = x^3 + Dx
  and y^2 = x^3 + D over a range of D.

A refused input digests the type and text of its ValueError.

    PYTHONPATH=src python -m tests.golden          # compare, name the first difference
    PYTHONPATH=src python -m tests.golden --write  # write the file (once, never again)
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

from twodescent.cli import report_document, serialize_document
from twodescent.curve import Curve, torsion_subgroup
from twodescent.descent import descent_report
from twodescent.families import _ep_space_point, edconst_torsion, edx_torsion, ep_rank, ep_table

GOLDEN = Path(__file__).resolve().parent / "golden_digests.txt"

# The descent-dx pool of perfbench/workloads.py, frozen here.
DX_POOL_SIZE, DX_POOL_SEED, DX_MAX = 2400, 181210415, 10**6
DEEP_PRIMES = (3217, 9337, 9377, 10457, 12841, 14737)
DEEP_WITNESS_PRIMES = (3217, 9337, 9377, 10457, 14737)
TORSION_D = range(-400, 401)


def box_curves() -> list[tuple[int, int]]:
    return [(a, b) for a in range(-12, 13) for b in range(-12, 13) if b != 0 and a * a - 4 * b != 0]


def dx_pool() -> list[int]:
    rng = random.Random(DX_POOL_SEED)
    seen: set[int] = set()
    out = []
    while len(out) < DX_POOL_SIZE:
        D = rng.randint(1, DX_MAX) * rng.choice((1, -1))
        if D not in seen:
            seen.add(D)
            out.append(D)
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _output(f: Callable[[], str]) -> str:
    try:
        return f()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _report(a: int, b: int, H: int) -> str:
    rep = descent_report(Curve(a, b, 0), H)
    return repr(rep) + "\n" + serialize_document(report_document(rep))


def outputs() -> Iterator[tuple[str, str]]:
    """(input name, output text) for every golden input, in file order."""
    for a, b in box_curves():
        yield f"box {a} {b}", _output(lambda: _report(a, b, 20))
    for D in dx_pool():
        yield f"dx {D}", _output(lambda: _report(0, D, 100))
    for row in ep_table(30000, height=20):
        yield f"ep_table {row.p}", repr(row)
    for row in ep_table(30000, quartic_only=True):
        yield f"ep_table_quartic {row.p}", repr(row)
        for d in (-1, -2, 2):
            yield f"ep_space_point {row.p} {d} 20", repr(_ep_space_point(row.p, d, 20))
    for p in DEEP_PRIMES:
        yield f"ep_rank {p} 1000", repr(ep_rank(p, 1000))
    for p in DEEP_WITNESS_PRIMES:
        for d in (-1, -2):
            yield f"ep_space_point {p} {d} 1000000", repr(_ep_space_point(p, d, 10**6))
    for D in TORSION_D:
        if D:
            yield f"edx_torsion {D}", _output(lambda: repr(edx_torsion(D)))
            yield f"edconst_torsion {D}", _output(lambda: repr(edconst_torsion(D)))
            yield f"torsion x^3+Dx {D}", _output(lambda: repr(torsion_subgroup(Curve(0, D, 0))))
            yield f"torsion x^3+D {D}", _output(lambda: repr(torsion_subgroup(Curve(0, 0, D))))


def digests() -> Iterator[str]:
    for name, text in outputs():
        yield f"{name}: {_digest(text)}"


def first_difference() -> str | None:
    """The first line of the golden file that the engine no longer reproduces, or None."""
    want = GOLDEN.read_text().splitlines()
    got = list(digests())
    for w, g in zip(want, got):
        if w != g:
            return f"golden {w!r}, now {g!r}"
    if len(want) != len(got):
        return f"golden file has {len(want)} lines, the engine gives {len(got)}"
    return None


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("".join(line + "\n" for line in digests()))
    else:
        diff = first_difference()
        print(diff or "all golden digests match")
        sys.exit(1 if diff else 0)
