"""The repository benchmark: one workload per invocation.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: descent-box, descent-dx, ep-sweep (see perfbench/README.md).
The workload runs in a child process with a capped address space.  With
--trace 0 the result line carries the end-to-end metrics, with every
time in seconds at the reference CPU speed (see speed.py); with
--trace 1 the same inputs run twice at half size, untraced and then
traced, and the result line carries the per-layer metrics and the
tracing overhead, in wall seconds.
Human-readable lines come first; the last line of standard output is
one JSON object.  The exit code is 1 when any output fails a check and
2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, SRC, CheckoutError, use_checkout
from speed import clock, speed_now
import workloads as wl

HERE = Path(__file__).resolve().parent
RUN_DEADLINE_S = 170
SETUP_REPEATS = 9

END_TO_END = {
    "curves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Counts and times are totals over the traced half-size run; ratios are
# derived in per_layer_metrics.
PER_LAYER = {
    "localsolve.zp_soluble.calls": "count",
    "localsolve.zp_soluble.self_s": "s",
    "localsolve.r_soluble.calls": "count",
    "localsolve.r_soluble.self_s": "s",
    "localsolve.qp_soluble.calls": "count",
    "localsolve.qp_soluble.soluble_ratio": "ratio",
    "localsolve.errors": "count",
    "descent.selmer.calls": "count",
    "descent.selmer.self_s": "s",
    "descent.selmer.kept_ratio": "ratio",
    "descent.descent_report.total_s": "s",
    "descent.search_point.calls": "count",
    "descent.search_point.self_s": "s",
    "descent.search_point.hit_ratio": "ratio",
    "arith.factorize.calls": "count",
    "arith.factorize.self_s": "s",
    "arith.factorize.distinct_ratio": "ratio",
    "arith.squarefree_part.calls": "count",
    "arith.is_prime.calls": "count",
    "arith.is_prime.self_s": "s",
    "arith.two_squares.calls": "count",
    "arith.two_squares.self_s": "s",
    "families.ep_table.total_s": "s",
    "families.ep_rank.calls": "count",
    "families.ep_rank.self_s": "s",
    "families.ep_selmer.self_s": "s",
    "curve.torsion_subgroup.calls": "count",
    "curve.torsion_subgroup.self_s": "s",
    "curve.count_points_mod.calls": "count",
    "cli.report_document.self_s": "s",
    "cli.serialize_document.self_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q quantile.

    A weighted mean of all order statistics, with weights from the
    beta(q(n+1), (1-q)(n+1)) distribution, so the estimate leans on the
    dozen or so samples around rank qn rather than on one of them, and
    one input's timing noise moves it less than it moves the
    nearest-rank percentile.
    """
    from scipy.stats import beta

    ordered = sorted(values)
    n = len(ordered)
    cdf = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1 - q) * (n + 1))
    return float(sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered)))


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter that imports twodescent.

    Returns it in seconds at the reference CPU speed, each start scaled
    by the speed probed just before and just after it, and in wall
    seconds.  One untimed import first writes the bytecode cache, which
    users also have after their first call.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import twodescent"]
    subprocess.run(cmd, check=True, cwd=ROOT, env=env)
    scaled, raw = [], []
    after = speed_now()
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = clock()
        subprocess.run(cmd, check=True, cwd=ROOT, env=env)
        raw.append(clock() - t0)
        after = speed_now()
        scaled.append(raw[-1] * (before + after) / 2)
    return statistics.median(scaled), statistics.median(raw)


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float,
              spans_path: Path | None = None) -> dict:
    """Run one worker process and collect its per-input latencies and summary.

    A worker that dies or overruns the deadline has every input it had
    not finished counted as failed, and its outputs count as unchecked.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        stderr, code = f"worker overran the {RUN_DEADLINE_S} s deadline", None
    latencies, raised, summary = [], 0, None
    for line in stdout.splitlines():
        if line.startswith("P "):
            _, _, status, lat = line.split()
            latencies.append(float(lat))
            raised += status == "raised"
        elif line.startswith("R "):
            summary = json.loads(line[2:])
    if summary is None or code != 0:
        attempted = _attempted(workload, seed, seconds)
        summary = {
            "attempted": attempted,
            "ok_units": 0,
            "refused": 0,
            "failed": raised + attempted - len(latencies),
            "wall_s": sum(latencies) or 1.0,
            "raw_wall_s": sum(latencies) or 1.0,
            "latencies": latencies,
            "probe_share": 0.0,
            "peak_rss_mb": 0.0,
            "problems": [f"worker exited with {code}: {stderr.strip()[-2000:]}"],
        }
    return summary


def _attempted(workload: str, seed: int, seconds: float) -> int:
    if workload == "ep-sweep":
        return wl.ep_plan(seconds)[1]
    ref = wl.load_reference(workload)
    sample = wl.box_sample if workload == "descent-box" else wl.dx_sample
    return len(sample(ref, seed, seconds))


def end_to_end_metrics(res: dict, setup_s: float) -> dict:
    lat = res["latencies"] or [0.0]
    return {
        "curves_per_s": res["ok_units"] / res["wall_s"],
        "latency_p50_ms": 1000 * percentile(lat, 0.5),
        "latency_p90_ms": 1000 * percentile(lat, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup_s,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    t = traced.get("trace") or {"calls": {}, "self_s": {}, "total_s": {}, "errors": {}}
    calls = t["calls"]
    out = {}
    for name in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "total_s"):
            out[name] = t[field].get(fn, 0)
    out["localsolve.errors"] = t["errors"].get("localsolve", 0)
    out["localsolve.qp_soluble.soluble_ratio"] = _ratio(
        t.get("soluble", 0), calls.get("localsolve.qp_soluble", 0))
    out["descent.selmer.kept_ratio"] = _ratio(t.get("selmer_kept", 0), t.get("selmer_tested", 0))
    out["descent.search_point.hit_ratio"] = _ratio(
        t.get("search_hits", 0), calls.get("descent.search_point", 0))
    out["arith.factorize.distinct_ratio"] = _ratio(
        t.get("factorize_distinct", 0), calls.get("arith.factorize", 0))
    out["failed_frac"] = _ratio(traced["refused"] + traced["failed"], traced["attempted"])
    out["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    return {name: out[name] for name in PER_LAYER}


def _report(workload: str, results: list[dict], metrics: dict, units: dict) -> None:
    res = results[-1]
    for name, value in metrics.items():
        print(f"{workload:<12} {name:<38} {value:<24.10g} {units[name]}")
    attempted = res["attempted"]
    if "failed_frac" not in metrics:
        print(f"{workload:<12} {'failed_frac':<38} "
              f"{_ratio(res['refused'] + res['failed'], attempted):<24.10g} ratio")
    n = len(res["latencies"])
    beyond = sum(1 for v in res["latencies"] if v > percentile(res["latencies"] or [0.0], 0.9))
    print(f"# {attempted} attempted, {res['refused']} refused as at seed, {res['failed']} failed; "
          f"{n} latency samples, {beyond} beyond p90")
    for r in results:
        for problem in r["problems"][:20]:
            print(f"# check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        use_checkout()
    except (CheckoutError, ImportError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        half = args.seconds / 2
        spans_dir = HERE / "out"
        spans_dir.mkdir(exist_ok=True)
        untraced = run_child(args.workload, args.seed, half, "raw", deadline)
        traced = run_child(args.workload, args.seed, half, "traced", deadline,
                           spans_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        results = [untraced, traced]
        metrics, units = per_layer_metrics(traced, untraced), PER_LAYER
    else:
        setup_s, raw_setup_s = measure_setup()
        results = [run_child(args.workload, args.seed, args.seconds, "scaled", deadline)]
        metrics, units = end_to_end_metrics(results[0], setup_s), END_TO_END
        res = results[0]
        print(f"# wall time: loop {res['raw_wall_s']:.3f} s ({res['probe_share']:.1%} in speed "
              f"probes), at reference speed {res['wall_s']:.3f} s; setup {raw_setup_s:.4f} s")

    _report(args.workload, results, metrics, units)
    correct = all(not r["problems"] and r["failed"] == 0 for r in results)
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
