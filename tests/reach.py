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
import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcert"
COMMANDS = ("check", "translate", "roundtrip", "export")


def functions(path: Path) -> list[CodeType]:
    """The code objects of the functions in path, nested ones included and
    comprehensions (whose names start with '<' but for a lambda's) left out."""
    found: list[CodeType] = []
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS and (code.co_name == "<lambda>" or not code.co_name.startswith("<")):
            found.append(code)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return found


def executable_lines(code: CodeType) -> int:
    """The distinct lines of code's own instructions."""
    return len({line for _, _, line in code.co_lines() if line is not None})


def run(argv: list[str], codes: collections.Counter) -> None:
    from pcert import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[cli.main(argv)] += 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per", type=int, default=40, help="inputs per workload, command and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 42])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.environ.pop("PCERT_FUEL", None)  # every input runs at its own budget

    entered: set[tuple[str, int, str]] = set()  # (file, first line, name) of each code entered

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    threading.setprofile(profile)
    codes: collections.Counter = collections.Counter()
    try:
        from gen import WORKLOADS

        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for source in sorted(str(p) for p in (PACKAGE / "corpus").iterdir()):
                for command in COMMANDS:
                    run([command, source, *(["-o", "out"] if command in ("translate", "export") else [])], codes)
            run(["export", "--signature", "-o", "out"], codes)
            for make in WORKLOADS.values():
                for command in COMMANDS:
                    for seed in args.seeds:
                        for index in range(args.per):
                            inp = make(seed, command, index)
                            Path(inp.stem).write_text(inp.text, encoding="utf-8")
                            out = ["-o", "out"] if command in ("translate", "export") else []
                            run([command, inp.stem, *inp.extra_args, *out], codes)
                            Path(inp.stem).unlink()
            os.chdir(ROOT)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    print("exit codes: " + ", ".join(f"{n} x {code}" for code, n in codes.most_common()))
    entered_real = {(os.path.realpath(f), line, name) for f, line, name in entered}
    count = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        missed = [c for c in functions(path) if (real, c.co_firstlineno, c.co_name) not in entered_real]
        for code in sorted(missed, key=lambda c: c.co_firstlineno):
            n = executable_lines(code)
            count, lines = count + 1, lines + n
            print(f"{path.relative_to(ROOT)}:{code.co_firstlineno}  {code.co_qualname}  ({n} lines)")
    print(f"{count} functions, {lines} executable lines, that no call reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
