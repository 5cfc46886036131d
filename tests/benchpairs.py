"""Alternating parent/change benchmark pairs, summed up as a BENCH_*.json.

    python tests/benchpairs.py PARENT_DIR CHANGE_DIR -o BENCH_name.json
        [--pairs 10] [--seed 42] [--description TEXT]

Runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` in each
checkout, one process at a time, for every workload that `BENCHMARK.json`
(read from the change) declares, with T its `run_seconds`: pair i runs the
parent first when i is odd and the change first when i is even, and every
pair of one workload runs before the next workload starts. For each
end-to-end metric that `BENCHMARK.json` declares, the summary gives the
median per side, their relative difference (positive: the change is
higher), the parent's interquartile range, the pairs the change wins (a
tie counts for neither), and whether the change's median is worse than the
parent's by more than the metric's bound. It also keeps every run's
metrics, the artifact digest each run printed and the runs whose inputs
failed. The file is written after each pair, so an interrupted run leaves
the pairs it finished. Nothing under `perfbench/` is written to, apart
from the scratch files `run.py` itself makes in each checkout. pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST_LINE = "artifact digest over the first "


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py` process in checkout: its metric values, digest and
    failure count."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py failed on {workload}:\n{child.stderr}")
    lines = child.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next((line.rsplit(" ", 1)[1] for line in lines if line.startswith(DIGEST_LINE)), None)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": values, "digest": digest, "attempted": result["attempted"], "failed": result["failed"]}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q3 - q1


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per metric: both medians, the relative difference, the parent's IQR,
    the change's wins and whether the change is past the metric's bound."""
    out = {}
    for spec in declared:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        relative = (c_med - p_med) / p_med if p_med else 0.0
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        loss = -relative if higher else relative
        out[name] = {
            "parent_median": round(p_med, 6),
            "change_median": round(c_med, 6),
            "relative": round(relative, 4),
            "parent_iqr": round(iqr(parent), 6),
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "worse_than_bound": loss > spec["bound"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.parent, capture_output=True, text=True).stdout
    report = {
        "description": args.description,
        "parent_commit": commit.strip() or None,
        "host": f"{platform.python_implementation()} {platform.python_version()}; times at reference speed "
        "(perfbench/calibrate.py); quartiles by statistics.quantiles(method='exclusive')",
        "claim": None,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0, "
        f"{args.pairs} pairs per workload, {' then '.join(workloads)}; odd pairs run the parent first, "
        "even pairs the change first",
        "summary": {},
        "pairs": {w: [] for w in workloads},
        "artifact_digests": {},
        "failed_runs": [],
    }
    sides = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        pairs = report["pairs"][workload]
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, args.seed, seconds)
                if pair[side]["failed"]:
                    report["failed_runs"].append({"workload": workload, "pair": i, "side": side})
            pairs.append(pair)
            report["summary"][workload] = summarize(pairs, declared["end_to_end"])
            report["artifact_digests"][workload] = {
                side: sorted({p[side]["digest"] for p in pairs}) for side in sides
            }
            args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print(f"{workload} pair {i}/{args.pairs} done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
