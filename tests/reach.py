"""The functions of the package that no command reaches.

    python tests/reach.py [--per 40] [--seeds 7 42]

Sets a `sys.setprofile` hook before `pcert` is imported, so the functions
the package calls as it is imported count, then runs `pcert.cli.main`, in
this process:
- over the bundled corpus, each file with each of the four commands;
- `export --signature`;
- over the inputs of `perfbench/gen.py`: every workload, every command,
  every seed, and the first PER inputs of each (index 0 to PER - 1), with
  the arguments each input asks for.

Prints the tally of exit codes, then each function of `src/pcert` (nested
ones and lambdas included, comprehensions left out) whose code no call
entered, with its executable lines (the distinct lines of its code, the `def`
line included), and the number of both. Being unreached is not the
same as being dead: a function the commands never call may be library API,
a guard, or a path the generated inputs do not take. Writes the inputs to a
temporary directory and reads them from there; writes no bytecode, so
nothing under `src/`, `tests/` or `perfbench/`. Takes about half a minute. A
script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
from types import CodeType

sys.dont_write_bytecode = True  # set before harness is imported
import harness  # noqa: E402


def run_all(per: int, seeds: list[int], codes: collections.Counter) -> None:
    """Every command of the module docstring, each exit code tallied in codes."""
    from gen import COMMANDS, WORKLOADS

    def run(argv: list[str]) -> None:
        codes[harness.run_cli(argv)[0]] += 1

    with harness.scratch_dir():
        for source in sorted(str(p) for p in (harness.PACKAGE / "corpus").iterdir()):
            for command in COMMANDS:
                run([command, source, *(["-o", "out"] if command in ("translate", "export") else [])])
        run(["export", "--signature", "-o", "out"])
        for make in WORKLOADS.values():
            for command in COMMANDS:
                for seed in seeds:
                    for index in range(per):
                        run(harness.place(command, make(seed, command, index)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per", type=int, default=40, help="inputs per workload, command and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 42])
    args = parser.parse_args(argv)
    harness.load()
    os.environ.pop("PCERT_FUEL", None)  # every input runs at its own budget

    entered: set[CodeType] = set()
    codes: collections.Counter = collections.Counter()
    harness.Calls(lambda frame: entered.add(frame.f_code)).count(run_all, args.per, args.seeds, codes)

    print("exit codes: " + ", ".join(f"{n} x {code}" for code, n in codes.most_common()))
    entered_real = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    count = lines = 0
    for path in sorted(harness.PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        missed = [c for c in harness.functions(path) if (c.co_name == "<lambda>" or not c.co_name.startswith("<"))
                  and (real, c.co_firstlineno, c.co_name) not in entered_real]  # comprehensions left out
        for code in sorted(missed, key=lambda c: c.co_firstlineno):
            n = len(harness.lines(code))
            count, lines = count + 1, lines + n
            print(f"{path.relative_to(harness.ROOT)}:{code.co_firstlineno}  {code.co_qualname}  ({n} lines)")
    print(f"{count} functions, {lines} executable lines, that no call reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
