"""The deepest inputs each command passes, as the rows of `DEPTH_FLOORS`.

    PYTHONPATH=src python tests/depthfloors.py

For the arrow, application and λ spines of `tests/test_cli.py`
(`_arrows(n)`, `_applications(n)` and `_lambdas(n)` after `DEEP_BASE`),
bisects the largest n that each of `check`, `translate`, `roundtrip` and
`export` passes through `pcert.cli.main` with exit 0 and nothing on
stderr. It runs in this
process, outside pytest, at the interpreter's default recursion limit, and
prints one `DEPTH_FLOORS` row per spine: the depths found less
`DEPTH_MARGIN` per cent, the share that pytest's own frames take, and the
depths found in a comment. It measures the `pcert` that PYTHONPATH names.
A script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

from pathlib import Path

from harness import run_cli, scratch_dir
from test_cli import DEEP_BASE, DEPTH_MARGIN, _applications, _arrows, _lambdas

COMMANDS = ("check", "translate", "roundtrip", "export")
DEEPEST = 2000  # every stage spends at least a frame per level, so this fails


def passed(result: tuple[int, str, str]) -> bool:
    code, _, err = result
    return code == 0 and not err


def deepest(make, command: str) -> int:
    """The largest n that passes, between 1 (which must pass) and DEEPEST
    (which must not). It calls `run_cli` itself: a frame more between here
    and `cli.main` would lower some depths found by one."""

    def argv(n: int) -> list[str]:
        Path("deep.pcert").write_text(DEEP_BASE + make(n))
        return [command, "deep.pcert", *(["-o", "deep.out"] if command in ("translate", "export") else [])]

    low, high = 1, DEEPEST
    if not passed(run_cli(argv(low))) or passed(run_cli(argv(high))):
        raise SystemExit(f"{command} on {make.__name__}: depth not bracketed by 1 and {DEEPEST}")
    while high - low > 1:
        mid = (low + high) // 2
        if passed(run_cli(argv(mid))):
            low = mid
        else:
            high = mid
    return low


def main() -> None:
    with scratch_dir():
        for shape, make in (("arrows", _arrows), ("applications", _applications), ("lambdas", _lambdas)):
            found = [deepest(make, command) for command in COMMANDS]
            floors = ", ".join(f'"{c}": {n * (100 - DEPTH_MARGIN) // 100}' for c, n in zip(COMMANDS, found))
            print(f'    "{shape}": ({make.__name__}, {{{floors}}}),  # {"/".join(map(str, found))}')


if __name__ == "__main__":
    main()
