"""Record the seed commit's outputs and per-input costs under data/.

Usage: python3 perfbench/make_reference.py {box,dx,ep} ...
       python3 perfbench/make_reference.py costs {box,dx} ...
       python3 perfbench/make_reference.py rss {box,dx} ...

Run it only on the commit whose outputs later runs are held to.  Each
output is checked with the same structural checks the benchmark uses
before it is written, so a reference never records a wrong answer.  The
cost column only orders inputs for stratified sampling.  The "costs"
form keeps the recorded outputs and rewrites only the cost column: the
mean over COST_PASSES passes of each input's time in seconds at the
reference CPU speed (see speed.py), timed exactly as a benchmark run
times it.  The "rss" form likewise rewrites only the rss_mb column:
how far each input alone raises the peak resident set of a process
that has run nothing else, measured in a forked child per input.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from checkout import use_checkout
from worker import ADDRESS_SPACE_CAP, _timed_loop, descent_call, descent_items
import workloads as wl


def _write(name: str, payload: dict) -> None:
    with open(wl.DATA / f"{name}_reference.json", "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def _descent_entry(a: int, b: int, height: int, torsion, with_document: bool) -> dict:
    from twodescent.cli import parse_document, report_document, serialize_document
    from twodescent.curve import Curve
    from twodescent.descent import descent_report
    from checks import check_descent, check_document, error_name, outcome_of

    t0 = time.perf_counter()
    try:
        rep = descent_report(Curve(a, b, 0), height)
        text = serialize_document(report_document(rep)) if with_document else None
    except Exception as exc:  # recorded as the seed's refusal for this input
        return {"cost_s": time.perf_counter() - t0, "outcome": error_name(exc)}
    cost = time.perf_counter() - t0
    errs = check_descent(rep, a, b, torsion, {"outcome": "unrecorded"})
    if text is not None:
        errs += check_document(text, rep, a, b, parse_document)
    if errs:
        raise SystemExit(f"seed output for ({a}, {b}) fails its checks: {errs}")
    return {"cost_s": cost, "outcome": "ok", **outcome_of(rep)}


def make_box() -> None:
    from checks import box_torsion

    curves = []
    for a, b in wl.box_curves():
        entry = _descent_entry(a, b, wl.BOX_HEIGHT, box_torsion(a, b), False)
        curves.append({"a": a, "b": b, "one_sided": wl.one_sided_prime(a, b), **entry})
        print(a, b, entry["outcome"], round(entry["cost_s"], 3), flush=True)
    _write("box", {"bound": wl.BOX_BOUND, "height": wl.BOX_HEIGHT, "curves": curves})


def make_dx() -> None:
    from checks import dx_torsion

    curves = []
    for D in wl.dx_pool():
        entry = _descent_entry(0, D, wl.DX_HEIGHT, dx_torsion(D), True)
        curves.append({"D": D, **entry})
        print(D, entry["outcome"], round(entry["cost_s"], 3), flush=True)
    _write("dx", {"pool_seed": wl.DX_POOL_SEED, "height": wl.DX_HEIGHT, "curves": curves})


def make_ep() -> None:
    from twodescent.families import ep_table
    from tests.test_acceptance import RANK2_PRIMES
    from checks import check_ep_rows, ep_row_summary

    rows = ep_table(wl.EP_PMAX, height=wl.EP_HEIGHT)
    table = {str(row.p): ep_row_summary(row) for row in rows}
    errs = check_ep_rows(rows, wl.EP_PMAX, table, RANK2_PRIMES)
    if errs:
        raise SystemExit(f"seed sweep fails its checks: {errs[:5]}")
    _write("ep", {"p_max": wl.EP_PMAX, "height": wl.EP_HEIGHT, "rows": table})


COST_PASSES = 2


def retime(name: str) -> None:
    workload = {"box": "descent-box", "dx": "descent-dx"}[name]
    ref = wl.load_reference(workload)
    items = descent_items(workload, ref["curves"])
    call = descent_call(workload)
    totals = [0.0] * len(items)
    for _ in range(COST_PASSES):
        _, timing = _timed_loop(items, call, "scaled", None)
        totals = [t + lat for t, lat in zip(totals, timing["latencies"])]
    for entry, total in zip(ref["curves"], totals):
        entry["cost_s"] = total / COST_PASSES
    _write(name, ref)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child_rss_rise(call, item) -> float:
    """Peak RSS a forked child adds while it runs call(item)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        base = _rss_mb()
        try:
            call(item)
        except Exception:  # noqa: BLE001 - a refusal still took its memory
            pass
        os.write(write_end, repr(_rss_mb() - base).encode())
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        rise = float(fh.read())
    os.waitpid(pid, 0)
    return rise


def measure_rss(name: str) -> None:
    workload = {"box": "descent-box", "dx": "descent-dx"}[name]
    ref = wl.load_reference(workload)
    call = descent_call(workload)
    call(descent_items(workload, ref["curves"][:1])[0])  # imports and caches, once
    for entry, item in zip(ref["curves"], descent_items(workload, ref["curves"])):
        entry["rss_mb"] = _child_rss_rise(call, item)
    _write(name, ref)


def main(argv: list[str]) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    use_checkout()
    makers = {"box": make_box, "dx": make_dx, "ep": make_ep}
    modes = {"costs": retime, "rss": measure_rss}
    if argv[:1] and argv[0] in modes and argv[1:] and set(argv[1:]) <= {"box", "dx"}:
        for name in argv[1:]:
            modes[argv[0]](name)
        return 0
    if not argv or any(name not in makers for name in argv):
        print(__doc__, file=sys.stderr)
        return 2
    for name in argv:
        makers[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
