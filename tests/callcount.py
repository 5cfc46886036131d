"""Python-level calls and output digests of two checkouts, side by side.

    python tests/callcount.py PARENT_DIR CHANGE_DIR [--seed 42]

For each checkout, in a process of its own, runs the four commands through
`pcert.cli.main` on the inputs of `perfbench/run.py`'s fixed rounds at the
seed (`FIXED_ROUNDS`, `PER_ROUND`), for every workload of `perfbench/gen.py`,
and counts the Python-level calls (`sys.setprofile` "call" events) each
workload×command makes. Each checkout reads its own `perfbench` for the
inputs. Prints one row per workload×command: both counts, their difference,
and whether one digest of exit code, stdout, stderr and artifact over its
calls is equal on both sides. Exits 1 if a count rose or a digest differs.
The inputs are written to a temporary directory and read from it under
relative names, so no output depends on where it lies; nothing under
`perfbench/` is written to. A script, not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Run in a child: argv[1] is the checkout, argv[2] the seed. Prints
# {"workload/command": [calls, digest]} as one JSON line.
CHILD = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
from pathlib import Path
root, seed = Path(sys.argv[1]).resolve(), int(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from gen import COMMANDS, WORKLOADS
from run import FIXED_ROUNDS, PER_ROUND
from pcert import cli

calls = [0]

def count(frame, event, arg):
    if event == "call":
        calls[0] += 1

out = {}
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    for workload, make in WORKLOADS.items():
        taken = dict.fromkeys(COMMANDS, 0)
        totals = {c: [0, hashlib.sha256()] for c in COMMANDS}
        for _ in range(FIXED_ROUNDS[workload]):
            for command in [c for c in COMMANDS for _ in range(PER_ROUND[workload].get(c, 1))]:
                inp = make(seed, command, taken[command])
                taken[command] += 1
                Path(inp.stem).write_text(inp.text, encoding="utf-8")
                target = inp.stem + ".out"
                argv = [command, inp.stem, *inp.extra_args] + (["-o", target] if command in ("translate", "export") else [])
                stdout, stderr = io.StringIO(), io.StringIO()
                calls[0] = 0
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    sys.setprofile(count)
                    try:
                        code = cli.main(argv)
                    finally:
                        sys.setprofile(None)
                artifact = Path(target).read_bytes() if Path(target).exists() else b""
                totals[command][0] += calls[0]
                totals[command][1].update(f"{inp.stem} {code}\n{stdout.getvalue()}\0{stderr.getvalue()}\0".encode() + artifact + b"\0")
                for name in (inp.stem, target):
                    Path(name).unlink(missing_ok=True)
        for command, (n, digest) in totals.items():
            out[f"{workload}/{command}"] = [n, digest.hexdigest()]
print(json.dumps(out))
"""


def measure(checkout: Path, seed: int) -> dict[str, list]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PCERT_FUEL", None)  # the default budget applies, as in perfbench
    argv = [sys.executable, "-c", CHILD, str(checkout), str(seed)]
    child = subprocess.run(argv, capture_output=True, text=True, env=env)
    if child.returncode != 0:
        raise RuntimeError(f"{checkout}: {child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    parent, change = (measure(checkout, args.seed) for checkout in (args.parent, args.change))
    worse = False
    print(f"{'workload/command':<24} {'parent':>9} {'change':>9} {'diff':>7} {'change %':>8}  digests")
    for key, (p_calls, p_digest) in parent.items():
        c_calls, c_digest = change[key]
        same = p_digest == c_digest
        worse |= c_calls > p_calls or not same
        print(f"{key:<24} {p_calls:>9} {c_calls:>9} {c_calls - p_calls:>7} {100 * (c_calls - p_calls) / p_calls:>+7.1f}%"
              f"  {'equal' if same else 'DIFFER'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
