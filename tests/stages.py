"""Where `translate`'s, `roundtrip`'s or `export`'s time goes, stage by stage, and the calls of its checks.

    python tests/stages.py [--command translate] [--checkout DIR] [--repeat 5] [--inputs 40] [--seed 42]

Runs `pcert.cli.main` in process, at the default budget, on the inputs of
`perfbench/gen.py` that `known_good` picks, and times the stages it runs:
in the `cli` module it wraps the functions `STAGES` names, so each stage is
the CLI's own call, made with the collector paused as `cli.main` pauses it.
`rest` is what the stages leave of `cli.main`'s time: argument parsing,
file I/O and `roundtrip`'s comparison of normal forms. Prints one row per
workload: each column's ms, the best of `--repeat` passes over its inputs,
and the Python-level calls (`sys.setprofile` "call" events) per declaration
of the pcert check and, for `translate`, of the lf re-check, counted on a
first pass that also warms caches up. DIR (default: this checkout)
supplies `src/` and `perfbench/`, so two checkouts give comparable rows. A
script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path
from time import perf_counter

import harness

# Per command, its stages in the order `cli` runs them, each with the `cli`
# function whose calls it times. The calls of a function named for k stages
# take turns over them: `translate`'s second `parse_file` is the reparse, and
# `roundtrip` normalizes each definition's inverse, then its source.
STAGES = {
    "translate": {"parse": "parse_file", "pcert check": "check_file", "translate": "_translate_decls",
                  "print": "print_file", "reparse": "parse_file", "lf re-check": "check_file"},
    "roundtrip": {"parse": "parse_file", "pcert check": "check_file", "translate": "translate_term",
                  "inverse": "inverse_term", "normalize 1": "normalize", "normalize 2": "normalize"},
    "export": {"parse": "parse_file", "pcert check": "check_file", "translate": "_translate_decls",
               "Lambdapi print": "export_lambdapi"},
}
# The stages whose calls are counted, and their columns.
COUNTED = {"pcert check": "pcert/decl", "lf re-check": "lf/decl"}


def known_good(make, command: str, seed: int, count: int) -> list:
    """Of the first count inputs that `gen` workload make gives for command,
    the pcert ones that must exit 0 and set no arguments of their own."""
    inputs = [make(seed, command, i) for i in range(count)]
    return [inp for inp in inputs if inp.expect == 0 and not inp.extra_args and inp.stem.endswith(".pcert")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", choices=sorted(STAGES), default="translate")
    parser.add_argument("--checkout", type=Path, default=harness.ROOT)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--inputs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    harness.load(args.checkout)
    os.environ.pop("PCERT_FUEL", None)  # the default budget
    from gen import WORKLOADS

    from pcert import cli

    # a column per stage, then `cli.main`'s, whose time less the stages' is the rest
    names, functions = [*STAGES[args.command], "rest"], [*STAGES[args.command].values(), "main"]
    counted = [slot for slot, name in enumerate(names) if name in COUNTED]
    spent = [0.0] * len(names)  # seconds per column over a pass
    counters: dict[int, harness.Calls] = {}  # per counted column, on the counting pass only

    def timed(fn, slots: list[int]):
        turns = itertools.cycle(slots)

        def stage(*args, **kwargs):
            slot = next(turns)
            counter = counters.get(slot)
            start = perf_counter()
            result = fn(*args, **kwargs) if counter is None else counter.count(fn, *args, **kwargs)
            spent[slot] += perf_counter() - start
            return result

        return stage

    def run(argvs: list[list[str]]) -> None:
        for argv in argvs:
            code, _, err = harness.run_cli(argv)
            if code != 0:
                raise SystemExit(f"{argv[1]}: a known-good input exited {code}: {err}")

    originals = {fn: getattr(cli, fn) for fn in functions}
    for fn, original in originals.items():
        setattr(cli, fn, timed(original, [slot for slot, f in enumerate(functions) if f == fn]))
    widths = [max(11, len(name)) for name in names]
    print(f"{'workload':<14} {'files':>5} " + " ".join(f"{n:>{w}}" for n, w in zip(names, widths))
          + "".join(f"  {COUNTED[names[slot]]}" for slot in counted))
    try:
        with harness.scratch_dir():
            for workload, make in WORKLOADS.items():
                good = known_good(make, args.command, args.seed, args.inputs)
                argvs = [harness.place(args.command, inp) for inp in good]
                counters = calls = {slot: harness.Calls() for slot in counted}
                run(argvs)
                counters = {}
                best = [float("inf")] * len(names)
                for _ in range(args.repeat):
                    spent[:] = [0.0] * len(names)
                    run(argvs)
                    spent[-1] -= sum(spent[:-1])
                    best = [min(b, t) for b, t in zip(best, spent)]
                decls = sum(inp.decls for inp in good)
                row = " ".join(f"{1000 * t:>{w}.1f}" for t, w in zip(best, widths))
                per_decl = "".join(f"  {calls[slot].n / decls:>{len(COUNTED[names[slot]])}.1f}" for slot in counted)
                print(f"{workload:<14} {len(argvs):>5} {row}{per_decl}", flush=True)
    finally:
        for fn, original in originals.items():
            setattr(cli, fn, original)
    return 0


if __name__ == "__main__":
    sys.exit(main())
