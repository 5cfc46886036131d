"""The lines of the package that no tier-1 test runs.

    python tests/uncovered.py [PYTEST_ARGS...]

Runs tier-1 in this process (`pytest.main`; PYTEST_ARGS, if given, take
the place of the `tests` directory) under a plugin that sets a
`sys.settrace` line tracer for the files under `src/pcert/` as the session
starts, so the functions the package calls as it is imported count, and
again before each test's setup and call, so a tracer switched off in one
test (see Limits) is back for the next. A module's executable lines are
read off its code objects (`co_lines`, nested code included), leaving out
the module's and its classes' top level, which runs whenever the module
is imported. Prints each executable line that no test ran, with its text,
per module, and their number. Writes no bytecode and no pytest cache, so
nothing under `src/` or `tests/`. Takes about six times as long as
tier-1. A script, not a test module: pytest does not collect it.

Limits. CPython switches a trace function off when a call of it raises, so
after a `RecursionError` a test's remaining lines go unrecorded, and a line
that runs only after one (the handler in `cli.main`) can be listed although
a test reaches it. Lines that run only in a child process are listed too,
and a line that only some of hypothesis' random examples reach (such as a
parse error in `syntax`) can be listed on one run and not the next.
A trace function that is a closure over itself is a reference cycle, which
only the cyclic collector frees; made at every call, it would leave
garbage after each command and fail
`test_a_command_leaves_no_cyclic_garbage`, which counts what the collector
finds. So each file's line tracer is made once and kept for the run.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcert"
OPTIONS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The lines of the functions in path's code, nested ones included."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


class LineTracer:
    """A pytest plugin recording the lines run in the package's files."""

    def __init__(self, package: Path):
        self.package = str(package) + os.sep
        self.ran: dict[str, set[int]] = {}
        # co_filename -> the line tracer of its file if in the package, made
        # once per file (see Limits)
        self.local: dict[str, Callable | None] = {}

    def _line_tracer(self, name: str) -> Callable | None:
        real = os.path.realpath(name)
        if not real.startswith(self.package):
            return None
        lines = self.ran.setdefault(real, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.local:
            self.local[name] = self._line_tracer(name)
        local = self.local[name]
        if local is not None:
            local(frame, "line", arg)  # the line of the call itself
        return local

    def _install(self) -> None:
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    def pytest_sessionstart(self, session):
        self._install()  # the functions the package calls as it is imported

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self._install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self._install()

    @pytest.hookimpl(trylast=True)
    def pytest_runtest_teardown(self, item):
        sys.settrace(None)
        threading.settrace(None)


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    tracer = LineTracer(PACKAGE)
    status = pytest.main(OPTIONS + (argv or [str(ROOT / "tests")]), plugins=[tracer])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = tracer.ran.get(os.path.realpath(path), set())
        missed = sorted(executable_lines(path) - ran)
        if not missed:
            continue
        total += len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines")
        for n in missed:
            print(f"{n:>6}  {text[n - 1].strip()}")
    print(f"\n{total} lines no test runs (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
