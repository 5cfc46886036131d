"""The deepest inputs each command passes, as the rows of `DEPTH_FLOORS`.

    PYTHONPATH=src python tests/depthfloors.py

For the arrow and application spines of `tests/test_cli.py` (`_arrows(n)`
and `_applications(n)` after `DEEP_BASE`), bisects the largest n that each
of `check`, `translate`, `roundtrip` and `export` passes through
`pcert.cli.main` with exit 0 and nothing on stderr. It runs in this
process, outside pytest, at the interpreter's default recursion limit, and
prints one `DEPTH_FLOORS` row per spine: the depths found less
`DEPTH_MARGIN` per cent, the share that pytest's own frames take, and the
depths found in a comment. It measures the `pcert` that PYTHONPATH names.
A script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from pcert import cli
from test_cli import DEEP_BASE, DEPTH_MARGIN, _applications, _arrows

COMMANDS = ("check", "translate", "roundtrip", "export")
DEEPEST = 2000  # every stage spends at least a frame per level, so this fails


def passes(make, n: int, command: str, workdir: Path) -> bool:
    src = workdir / "deep.pcert"
    src.write_text(DEEP_BASE + make(n))
    out = ["-o", str(workdir / "deep.out")] if command in ("translate", "export") else []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, str(src), *out])
    return code == 0 and not err.getvalue()


def deepest(make, command: str, workdir: Path) -> int:
    """The largest n that passes, between 1 (which must pass) and DEEPEST
    (which must not)."""
    low, high = 1, DEEPEST
    if not passes(make, low, command, workdir) or passes(make, high, command, workdir):
        raise SystemExit(f"{command} on {make.__name__}: depth not bracketed by 1 and {DEEPEST}")
    while high - low > 1:
        mid = (low + high) // 2
        if passes(make, mid, command, workdir):
            low = mid
        else:
            high = mid
    return low


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for shape, make in (("arrows", _arrows), ("applications", _applications)):
            found = [deepest(make, command, Path(tmp)) for command in COMMANDS]
            floors = ", ".join(f'"{c}": {n * (100 - DEPTH_MARGIN) // 100}' for c, n in zip(COMMANDS, found))
            print(f'    "{shape}": ({make.__name__}, {{{floors}}}),  # {"/".join(map(str, found))}')


if __name__ == "__main__":
    main()
