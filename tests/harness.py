"""What the measuring scripts of `tests/` share: putting a checkout on
`sys.path`, running `pcert.cli.main` in process, counting calls, writing
the inputs of `perfbench/gen.py` and listing a module's functions and
executable lines. A module, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcert"


def load(checkout: Path = ROOT) -> None:
    """Put checkout's `src/` and `perfbench/` first on `sys.path`, before
    anything imports `pcert` or `gen`."""
    sys.path[:0] = [str(checkout.resolve() / "src"), str(checkout.resolve() / "perfbench")]


class Calls:
    """Counts into `n` the Python-level calls (`sys.setprofile` "call"
    events) made while `count` runs a function, its own call included, and
    hands the frame of each to `on_call`, if given."""

    def __init__(self, on_call=None):
        self.n = 0
        self.on_call = on_call

    def _profile(self, frame, event, arg):
        if event == "call":
            self.n += 1
            if self.on_call is not None:
                self.on_call(frame)

    def count(self, fn, *args, **kwargs):
        sys.setprofile(self._profile)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(None)


def run_cli(argv: list[str], calls: Calls | None = None) -> tuple[int, str, str]:
    """`pcert.cli.main(argv)` in this process: its exit code, stdout and
    stderr. With `calls`, the calls of `cli.main`, and no others, count."""
    from pcert import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv) if calls is None else calls.count(cli.main, argv)
    return code, stdout.getvalue(), stderr.getvalue()


@contextlib.contextmanager
def scratch_dir():
    """A temporary working directory for the block, so that inputs are
    written and read under relative names and no output depends on where."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def place(command: str, inp, *options: str) -> list[str]:
    """Write `gen.Input` inp under its stem in the working directory; returns
    `cli.main`'s argv for command on it, with options, the input's own
    arguments and, for `translate` and `export`, `-o STEM.out`, removing
    what an earlier call wrote there."""
    Path(inp.stem).write_text(inp.text, encoding="utf-8")
    argv = [command, inp.stem, *options, *inp.extra_args]
    if command in ("translate", "export"):
        Path(inp.stem + ".out").unlink(missing_ok=True)
        argv += ["-o", inp.stem + ".out"]
    return argv


def functions(path: Path) -> list[CodeType]:
    """The code objects of the functions in the module at path, nested ones,
    lambdas and comprehensions (both named '<...>') included."""
    found: list[CodeType] = []
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            found.append(code)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return found


def lines(code: CodeType) -> set[int]:
    """The distinct lines of code's own instructions."""
    return {line for _, _, line in code.co_lines() if line is not None}
