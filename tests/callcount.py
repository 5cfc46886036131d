"""Python-level calls and output digests of two checkouts, side by side.

    python tests/callcount.py PARENT_DIR CHANGE_DIR [--seeds 7 42] [--fuels 0 40 3000]

For each checkout, in a process of its own, runs the four commands through
`pcert.cli.main` on the inputs of `perfbench/run.py`'s fixed rounds
(`FIXED_ROUNDS`, `PER_ROUND`), for every workload of `perfbench/gen.py`,
every seed and every `--fuel` budget (0 is unlimited); an input that sets
its own budget keeps it. The defaults make 648 calls. It counts the
Python-level calls (`sys.setprofile` "call" events) each workload×command
makes over the whole matrix, and digests, per call, the exit code, stdout,
stderr, artifact, the `spent` of every `rewrite.Fuel` made during the call
(collected by the profile hook as `Fuel.__init__` is entered, so no wrapper
adds a call) and the fresh names the call draws (the counter's difference),
and per row those digests beside the counter's running total after each
call. Each checkout reads its own `perfbench` for the inputs. Prints one
row per workload×command: both counts, their difference, and whether the
digests are equal on both sides; under a row that differs, the first call
`(seed, budget, stem)` whose own digest differs and which of its parts
differ (`PARTS`: the exit code, the output, the `Fuel.spent` list or the
names drawn), then how many calls differ and in which parts; or that only
the running total does (an earlier row drew other names). Exits 1 if a
count rose or a digest differs. The inputs are written to a temporary
directory and read from it under relative names, so no output depends on
where it lies; nothing under `perfbench/` is written to. A script, not a
test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Run in a child: argv[1] is the checkout, argv[2] the seeds and argv[3] the
# budgets, comma-separated. Prints {"workload/command": [calls, digest,
# [["seed budget stem", call digest, part digests], ...]]} as one JSON line;
# the part digests are those of `PARTS`, in order.
CHILD = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1]).resolve()
seeds, budgets = ([int(x) for x in arg.split(",")] for arg in sys.argv[2:4])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from gen import COMMANDS, WORKLOADS
from run import FIXED_ROUNDS, PER_ROUND
from pcert import cli, terms
from pcert.rewrite import Fuel

calls = [0]
fuels = []
fuel_init = Fuel.__init__.__code__

def fresh_count():
    return int(repr(terms._fresh_counter)[len("count("):-1])  # the next name's number, not drawn

def count(frame, event, arg):
    if event == "call":
        calls[0] += 1
        if frame.f_code is fuel_init:
            fuels.append(frame.f_locals["self"])

out = {}
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    for workload, make in WORKLOADS.items():
        totals = {c: [0, hashlib.sha256(), []] for c in COMMANDS}
        for seed in seeds:
            for budget in budgets:
                taken = dict.fromkeys(COMMANDS, 0)
                for _ in range(FIXED_ROUNDS[workload]):
                    for command in [c for c in COMMANDS for _ in range(PER_ROUND[workload].get(c, 1))]:
                        inp = make(seed, command, taken[command])
                        taken[command] += 1
                        Path(inp.stem).write_text(inp.text, encoding="utf-8")
                        target = inp.stem + ".out"
                        argv = [command, inp.stem, "--fuel", str(budget), *inp.extra_args]
                        argv += ["-o", target] if command in ("translate", "export") else []
                        stdout, stderr = io.StringIO(), io.StringIO()
                        calls[0] = 0
                        fuels.clear()
                        before = fresh_count()
                        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                            sys.setprofile(count)
                            try:
                                code = cli.main(argv)
                            finally:
                                sys.setprofile(None)
                        artifact = Path(target).read_bytes() if Path(target).exists() else b""
                        spent = [fuel.spent for fuel in fuels]
                        after = fresh_count()
                        output = f"{stdout.getvalue()}\0{stderr.getvalue()}\0".encode() + artifact
                        parts = [hashlib.sha256(part).hexdigest()[:16] for part in
                                 (str(code).encode(), output, str(spent).encode(), str(after - before).encode())]
                        call = hashlib.sha256(" ".join(parts).encode()).hexdigest()[:16]
                        label = f"{seed} {budget} {inp.stem}"
                        totals[command][0] += calls[0]
                        totals[command][1].update(f"{label} {call} {after}\n".encode())
                        totals[command][2].append([label, call, parts])
                        for name in (inp.stem, target):
                            Path(name).unlink(missing_ok=True)
        for command, (n, digest, per_call) in totals.items():
            out[f"{workload}/{command}"] = [n, digest.hexdigest(), per_call]
print(json.dumps(out))
"""


# What a call's digest is made of, in the order the child lists the parts.
PARTS = ("exit code", "output (stdout, stderr, artifact)", "Fuel.spent list", "names drawn")


def measure(checkout: Path, seeds: list[int], budgets: list[int]) -> dict[str, list]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PCERT_FUEL", None)  # every call passes its budget
    argv = [sys.executable, "-c", CHILD, str(checkout), ",".join(map(str, seeds)), ",".join(map(str, budgets))]
    child = subprocess.run(argv, capture_output=True, text=True, env=env)
    if child.returncode != 0:
        raise RuntimeError(f"{checkout}: {child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 42])
    parser.add_argument("--fuels", type=int, nargs="+", default=[0, 40, 3000])
    args = parser.parse_args(argv)
    parent, change = (measure(checkout, args.seeds, args.fuels) for checkout in (args.parent, args.change))
    worse = False
    print(f"{'workload/command':<24} {'parent':>9} {'change':>9} {'diff':>7} {'change %':>8}  digests")
    for key, (p_calls, p_digest, p_per_call) in parent.items():
        c_calls, c_digest, c_per_call = change[key]
        same = p_digest == c_digest
        worse |= c_calls > p_calls or not same
        print(f"{key:<24} {p_calls:>9} {c_calls:>9} {c_calls - p_calls:>7} {100 * (c_calls - p_calls) / p_calls:>+7.1f}%"
              f"  {'equal' if same else 'DIFFER'}")
        if not same:
            differing = [(p, c) for p, c in zip(p_per_call, c_per_call) if p != c]
            if not differing:
                print("    no call differs: only the running fresh-name total does")
            else:
                def parts(pair):
                    return [name for name, p, c in zip(PARTS, pair[0][2], pair[1][2]) if p != c]

                seen = {name for pair in differing for name in parts(pair)}
                print(f"    first differing call: (seed budget stem) {differing[0][0][0]}; it differs in: "
                      f"{', '.join(parts(differing[0]))}")
                print(f"    {len(differing)} of {len(p_per_call)} calls differ, in: "
                      f"{', '.join(name for name in PARTS if name in seen)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
