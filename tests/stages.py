"""Where `translate`'s, `roundtrip`'s or `export`'s time goes, stage by stage, and the calls of its checks.

    python tests/stages.py [--command translate] [--checkout DIR] [--repeat 5] [--inputs 40] [--seed 42]

Runs the stages of `pcert translate`, `pcert roundtrip` or `pcert export`
(`--command`) in process on the known-good pcert inputs of
`perfbench/gen.py` for that command (the first `--inputs` of each workload
whose expected exit code is 0), as `cli.cmd_translate`, `cli.cmd_roundtrip`
and `cli.cmd_export` chain them with the default budget: parse, pcert
check, translate, print, reparse and the lf re-check for `translate`;
parse, pcert check, then per definition translate, inverse, the first
normalization (of the inverse) and the second (of the source) with the
comparison, for `roundtrip`; parse, pcert check, translate and the
Lambdapi print for `export`. A checkout whose `inverse_term` takes no
source is run without one, as its own `cmd_roundtrip` runs it. Prints one
row per workload with each stage's time in ms, the
best of `--repeat` passes over all its inputs, and the Python-level calls
(`sys.setprofile` "call" events) per declaration of the pcert check and,
for `translate`, of the lf re-check. DIR (default: the checkout this file
is in) supplies `src/` and `perfbench/`, so two checkouts give comparable
rows. A script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from time import perf_counter

STAGES = {
    "translate": ("parse", "pcert check", "translate", "print", "reparse", "lf re-check"),
    "roundtrip": ("parse", "pcert check", "translate", "inverse", "normalize 1", "normalize 2 + =="),
    "export": ("parse", "pcert check", "translate", "Lambdapi print"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", choices=sorted(STAGES), default="translate")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--inputs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from gen import WORKLOADS

    from pcert.checker import check_file
    from pcert.cli import BETA_ONLY, _translate_decls
    from pcert.export import export_lambdapi
    from pcert.inverse import inverse_term
    from pcert.rewrite import normalize
    from pcert.syntax import Definition, ParsedFile, parse_file, print_file
    from pcert.terms import Memo
    from pcert.translate import translate_term

    beside = "source" in inspect.signature(inverse_term).parameters

    count = [0, 0]  # the calls of the pcert check and of the lf re-check

    def profile(frame, event, arg):
        if event == "call":
            count[which] += 1

    stages = STAGES[args.command]

    def run(text: str, times: list[float], counted: bool = False) -> None:
        """One input through every stage, each stage's seconds added to
        times; counted: the checks' calls added to `count` instead."""
        nonlocal which
        marks = [perf_counter()]
        parsed = parse_file(text, "input")
        marks.append(perf_counter())
        which = 0
        sys.setprofile(profile if counted else None)
        checked = check_file(parsed, None)
        sys.setprofile(None)
        marks.append(perf_counter())
        if args.command == "roundtrip":
            roundtrip(checked, times)
            times[0] += marks[1] - marks[0]
            times[1] += marks[2] - marks[1]
            return
        decls = _translate_decls(checked)
        marks.append(perf_counter())
        if args.command == "export":
            export_lambdapi(decls, mode="development")
            marks.append(perf_counter())
        else:
            out = print_file(ParsedFile("lf", tuple(decls), "input"))
            marks.append(perf_counter())
            reparsed = parse_file(out, "input:translated")
            marks.append(perf_counter())
            which = 1
            sys.setprofile(profile if counted else None)
            check_file(reparsed, None)
            sys.setprofile(None)
            marks.append(perf_counter())
        for i in range(len(stages)):
            times[i] += marks[i + 1] - marks[i]

    def roundtrip(checked, times: list[float]) -> None:
        """`cli.cmd_roundtrip`'s loop over the definitions, each stage's
        seconds added to times[2:]."""
        translations, inverses, normal_forms = Memo(), Memo(), Memo()
        for record in checked.decls:
            decl = record.decl
            if type(decl) is not Definition:
                continue
            body = decl.body
            t0 = perf_counter()
            encoded = translate_term(checked.context, body, translations)
            t1 = perf_counter()
            back = inverse_term(encoded, inverses, body) if beside else inverse_term(encoded, inverses)
            t2 = perf_counter()
            first = normalize(BETA_ONLY, back, None, memo=normal_forms)
            t3 = perf_counter()
            if first != normalize(BETA_ONLY, body, None, memo=normal_forms):
                raise AssertionError(f"{decl.name}: a known-good input failed the round trip")
            t4 = perf_counter()
            times[2] += t1 - t0
            times[3] += t2 - t1
            times[4] += t3 - t2
            times[5] += t4 - t3

    which = 0

    calls = "  pcert/decl  lf/decl" if args.command == "translate" else "  pcert/decl"
    widths = [max(11, len(stage)) for stage in stages]
    print(f"{'workload':<14} {'files':>5} " + " ".join(f"{s:>{w}}" for s, w in zip(stages, widths)) + calls)
    for workload, make in WORKLOADS.items():
        inputs = [make(args.seed, args.command, i) for i in range(args.inputs)]
        good = [inp for inp in inputs if inp.expect == 0 and not inp.extra_args and inp.stem.endswith(".pcert")]
        texts = [inp.text for inp in good]
        decls = sum(inp.decls for inp in good)
        count[:] = [0, 0]
        for text in texts:  # also warms module constants up
            run(text, [0.0] * len(stages), counted=True)
        best = [float("inf")] * len(stages)
        for _ in range(args.repeat):
            times = [0.0] * len(stages)
            for text in texts:
                run(text, times)
            best = [min(b, t) for b, t in zip(best, times)]
        row = " ".join(f"{1000 * t:>{w}.1f}" for t, w in zip(best, widths))
        lf = f"  {count[1] / decls:>7.1f}" if args.command == "translate" else ""
        print(f"{workload:<14} {len(texts):>5} {row}  {count[0] / decls:>10.1f}{lf}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
