"""Where `translate`'s time goes, stage by stage, and the calls of its checks.

    python tests/stages.py [--checkout DIR] [--repeat 5] [--inputs 40] [--seed 42]

Runs the stages of `pcert translate` in process on the known-good
`translate` inputs of `perfbench/gen.py` (the first `--inputs` of each
workload whose expected exit code is 0): parse, pcert check, translate,
print, reparse and the lf re-check, as `cli.cmd_translate` chains them
with the default budget. Prints one row per workload with each stage's
time in ms, the best of `--repeat` passes over all its inputs, and the
Python-level calls (`sys.setprofile` "call" events) per declaration of the
pcert check and of the lf re-check. DIR (default: the checkout this file
is in) supplies `src/` and `perfbench/`, so two checkouts give comparable
rows. A script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

STAGES = ("parse", "pcert check", "translate", "print", "reparse", "lf re-check")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--inputs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from gen import WORKLOADS

    from pcert.checker import check_file
    from pcert.cli import _translate_decls
    from pcert.syntax import ParsedFile, parse_file, print_file

    count = [0, 0]  # the calls of the pcert check and of the lf re-check

    def profile(frame, event, arg):
        if event == "call":
            count[which] += 1

    def run(text: str, times: list[float], counted: bool = False) -> None:
        """One input through every stage, each stage's seconds added to
        times; counted: the two checks' calls added to `count` instead."""
        nonlocal which
        marks = [perf_counter()]
        parsed = parse_file(text, "input")
        marks.append(perf_counter())
        which = 0
        sys.setprofile(profile if counted else None)
        checked = check_file(parsed, None)
        sys.setprofile(None)
        marks.append(perf_counter())
        translated = ParsedFile("lf", tuple(_translate_decls(checked)), "input")
        marks.append(perf_counter())
        out = print_file(translated)
        marks.append(perf_counter())
        reparsed = parse_file(out, "input:translated")
        marks.append(perf_counter())
        which = 1
        sys.setprofile(profile if counted else None)
        check_file(reparsed, None)
        sys.setprofile(None)
        marks.append(perf_counter())
        for i in range(len(STAGES)):
            times[i] += marks[i + 1] - marks[i]

    which = 0

    print(f"{'workload':<14} {'files':>5} " + " ".join(f"{s:>11}" for s in STAGES) + "  pcert/decl  lf/decl")
    for workload, make in WORKLOADS.items():
        inputs = [make(args.seed, "translate", i) for i in range(args.inputs)]
        texts = [inp.text for inp in inputs if inp.expect == 0 and not inp.extra_args]
        decls = sum(inp.decls for inp in inputs if inp.expect == 0 and not inp.extra_args)
        count[:] = [0, 0]
        for text in texts:  # also warms module constants up
            run(text, [0.0] * len(STAGES), counted=True)
        best = [float("inf")] * len(STAGES)
        for _ in range(args.repeat):
            times = [0.0] * len(STAGES)
            for text in texts:
                run(text, times)
            best = [min(b, t) for b, t in zip(best, times)]
        row = " ".join(f"{1000 * t:>11.1f}" for t in best)
        print(f"{workload:<14} {len(texts):>5} {row}  {count[0] / decls:>10.1f}  {count[1] / decls:>7.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
