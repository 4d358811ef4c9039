"""One workload run in its own process: the timed loop, then checks.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [SPANS_PATH]

MODE is scaled (times at the reference CPU speed, see speed.py), raw
(wall times) or traced (wall times, with every layer call recorded).

The process caps its own address space first, so a runaway p-adic
worklist ends in MemoryError here and never pressures the machine.
While the loop runs it prints one line per input,

    P <index> <status> <wall seconds>

with status ok or raised, so a parent that sees the process die knows
which inputs finished.  After the loop, outside the timed region, it
checks every output, sorts each raise into a refusal (the exception the
seed commit raised on that input) or a failure, and prints one line
"R <json>".
"""

from __future__ import annotations

import json
import resource
import sys

from checkout import use_checkout
from speed import Speedometer, clock
import workloads as wl

ADDRESS_SPACE_CAP = 2 << 30


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _timed_loop(items, call, mode: str, tracer) -> tuple[list, dict]:
    """Each item's return value or exception, and the loop's timings.

    In mode "scaled" a Speedometer probes the CPU speed while the loop
    runs and every latency and the wall time are in seconds at the
    reference speed; in modes "raw" and "traced" they are wall seconds.
    """
    results, stamps = [], []
    meter = Speedometer() if mode == "scaled" else None
    if tracer is not None:
        tracer.install()
    if meter is not None:
        meter.start()
    start = clock()
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            t0 = clock()
            try:
                result, status = call(item), "ok"
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                # Without its traceback the exception no longer holds the
                # frames, and with them the p-adic worklist, alive.
                result, status = exc.with_traceback(None), "raised"
            t1 = clock()
            results.append(result)
            stamps.append((t0, t1))
            _emit(f"P {i} {status} {t1 - t0!r}")
        end = clock()
    finally:
        if meter is not None:
            meter.stop()
        if tracer is not None:
            tracer.uninstall()
    timing = {"raw_wall_s": end - start, "peak_rss_mb": _peak_rss_mb()}
    ref = meter.reference_time if meter is not None else (lambda t: t)
    timing["wall_s"] = ref(end) - ref(start)
    timing["latencies"] = [ref(t1) - ref(t0) for t0, t1 in stamps]
    timing["probe_share"] = meter.probe_share() if meter is not None else 0.0
    return results, timing


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def descent_call(workload: str):
    """The timed call of a descent workload, on an item (a, b, reference entry)."""
    from twodescent import cli, curve, descent

    height, with_doc = {"descent-box": (wl.BOX_HEIGHT, False),
                        "descent-dx": (wl.DX_HEIGHT, True)}[workload]

    def call(item):
        # Attribute lookups at call time, so a traced run sees the wrappers.
        rep = descent.descent_report(curve.Curve(item[0], item[1], 0), height)
        text = cli.serialize_document(cli.report_document(rep)) if with_doc else None
        return rep, text

    return call


def descent_items(workload: str, curves: list[dict]) -> list[tuple]:
    if workload == "descent-box":
        return [(c["a"], c["b"], c) for c in curves]
    return [(0, c["D"], c) for c in curves]


def run_descent(workload: str, seed: int, seconds: float, mode: str, tracer) -> dict:
    from twodescent import cli
    from checks import box_torsion, check_descent, check_document, dx_torsion, error_name

    ref = wl.load_reference(workload)
    sample = wl.box_sample if workload == "descent-box" else wl.dx_sample
    items = descent_items(workload, sample(ref, seed, seconds))
    results, timing = _timed_loop(items, descent_call(workload), mode, tracer)
    problems, ok, refused, failed = [], 0, 0, 0
    for (a, b, entry), result in zip(items, results):
        if isinstance(result, Exception):
            errs = [] if error_name(result) == entry["outcome"] else [
                f"raised {error_name(result)}; seed: {entry['outcome']}"]
        else:
            rep, text = result
            torsion = box_torsion(a, b) if workload == "descent-box" else dx_torsion(b)
            errs = check_descent(rep, a, b, torsion, entry)
            if text is not None:
                errs += check_document(text, rep, a, b, cli.parse_document)
        problems.extend(f"({a}, {b}): {e}" for e in errs)
        if errs:
            failed += 1
        elif isinstance(result, Exception):
            refused += 1
        else:
            ok += 1
    return {"attempted": len(items), "ok_units": ok, "refused": refused, "failed": failed,
            "problems": problems, **timing}


def run_ep(seed: int, seconds: float, mode: str, tracer) -> dict:
    """Whole sweeps; the sweep has no random input, so the seed is unused."""
    from twodescent import families
    from checks import check_ep_rows, ep_row_summary
    from tests.test_acceptance import RANK2_PRIMES

    p_max, sweeps = wl.ep_plan(seconds)
    results, timing = _timed_loop(
        range(sweeps), lambda _: families.ep_table(p_max, height=wl.EP_HEIGHT), mode, tracer
    )
    problems = [f"sweep raised {r!r}" for r in results if isinstance(r, Exception)]
    if not problems:
        problems = check_ep_rows(results[0], p_max, wl.load_reference("ep-sweep")["rows"],
                                 RANK2_PRIMES)
        first = [ep_row_summary(r) for r in results[0]]
        if any([ep_row_summary(r) for r in rows] != first for rows in results[1:]):
            problems.append("a repeated sweep gave different rows")
    rows = 0 if problems else sum(len(r) for r in results)
    return {"attempted": sweeps, "ok_units": rows, "refused": 0,
            "failed": sweeps if problems else 0, "problems": problems, **timing}


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    use_checkout()
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
    if workload == "ep-sweep":
        out = run_ep(seed, seconds, mode, tracer)
    else:
        out = run_descent(workload, seed, seconds, mode, tracer)
    if tracer is not None:
        out["trace"] = tracer.summary()
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    _emit("R " + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
