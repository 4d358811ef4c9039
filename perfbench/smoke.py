"""Fast self-test of the benchmark.

Usage: python3 perfbench/smoke.py

Runs every workload at a tiny size in both modes and checks that each
metric named in BENCHMARK.json is printed, by name and with its unit,
both in the human-readable lines and in the final JSON line.  Then runs
the benchmark from a copy that holds only BENCHMARK.json and perfbench/
and checks that it refuses without printing a result.  Exits non-zero
on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_SECONDS = "1"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", TINY_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        errs.append(f"{workload} trace={trace}: bad result line {lines[-1][:200]}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errs.append(f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
    printed = {tuple(line.split()[1:4:2]) for line in lines[:-1] if line.startswith(workload)}
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errs.append(f"{workload}: {m['name']} has {got} in the JSON line")
        if (m["name"], m["unit"]) not in printed:
            errs.append(f"{workload}: {m['name']} [{m['unit']}] not printed")
    return errs


def check_stripped() -> list[str]:
    """Without the sources the benchmark must fail and print no result."""
    copy = HERE / "out" / "stripped"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    try:
        proc = _run(copy, "descent-box", 0)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"stripped copy: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs += check_workload(spec, w["name"], trace)
    errs += check_stripped()
    for e in errs:
        print(f"FAIL {e}")
    print("smoke: ok" if not errs else f"smoke: {len(errs)} problems")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
