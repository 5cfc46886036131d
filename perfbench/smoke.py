"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/smoke.py

For every workload: an untraced run prints exactly the end-to-end metrics
of BENCHMARK.json, each with its unit, and every verdict is right; two traced
runs with the same seed print exactly the per-layer metrics, and their
counts (calls, steps, firings, failures) and artifact digests are identical.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT_UNITS = {"count", "ratio", "calls/decl"}


def run(workload: str, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--scale", "0.1"]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    require(child.returncode == 0, f"{workload} trace={trace} exited {child.returncode}:\n{child.stderr}")
    lines = child.stdout.splitlines()
    digests = [line for line in lines if line.startswith("artifact digest")]
    return json.loads(lines[-1]), digests[0]


def require(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def same_metrics(result: dict, declared: list[dict], what: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    printed = result["metrics"]
    require(set(printed) == set(units), f"{what}: printed {sorted(set(printed) ^ set(units))} differ from BENCHMARK.json")
    for name, entry in printed.items():
        require(entry["unit"] == units[name], f"{what}: {name} has unit {entry['unit']!r}, declared {units[name]!r}")
        require(isinstance(entry["value"], (int, float)), f"{what}: {name} is not a number")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        plain, digest = run(workload, 0)
        same_metrics(plain, bench["end_to_end"], f"{workload} untraced")
        require(plain["correct"] and plain["failed"] == 0, f"{workload}: wrong verdicts")
        require(plain["metrics"]["verdict_ok_ratio"]["value"] == 1.0, f"{workload}: verdict_ok_ratio below 1")

        first, digest1 = run(workload, 1)
        second, digest2 = run(workload, 1)
        for result in (first, second):
            same_metrics(result, bench["per_layer"], f"{workload} traced")
            require(result["correct"], f"{workload} traced: wrong verdicts")
        require(digest == digest1 == digest2, f"{workload}: artifact digests differ between runs")
        for name, entry in first["metrics"].items():
            if entry["unit"] in EXACT_UNITS:
                again = second["metrics"][name]["value"]
                require(entry["value"] == again, f"{workload}: {name} {entry['value']} then {again}")
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end, {len(first['metrics'])} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
