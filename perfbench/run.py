"""Benchmark of the pcert command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the four user-facing commands (check, translate, roundtrip, export)
in-process through `pcert.cli.main(argv)` on seeded inputs from one of the
workloads in `gen.py`, one process and one thread, in a closed loop: a round
gives each command fresh inputs of its own, and a fixed number of rounds per
workload, in proportion to S, runs. Right after each call and outside the
timed region, its verdict is checked against the exit code known from how
the input was built and its artifact against an output check (translate
output must pass `pcert check` in lf mode). Times are reported at reference
speed (see `calibrate.py`).

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds with probes installed (see `probes.py`) and prints the per-layer
metrics, including the tracing overhead against an untraced run of the same
rounds in a separate process. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it are a human
readable report. Scratch files go under `.perfbench/` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from calibrate import Meter, at_reference_speed  # noqa: E402
from gen import COMMANDS, WORKLOADS, Input  # noqa: E402

# Rounds at the start of every run, untraced or traced, whose artifacts form
# the digest; a traced run measures exactly these rounds.
FIXED_ROUNDS = {"termgen_dev": 16, "wide_context": 2, "shared_defs": 8}

# Inputs per command in a round, where not one. On wide_context a check or a
# roundtrip costs a tenth of a translate; two of each give the quick
# commands' rates more calls, while translate and export still make up a
# third of the samples, so that the tail percentile stays among them.
PER_ROUND = {"termgen_dev": {}, "wide_context": {"check": 2, "roundtrip": 2}, "shared_defs": {}}

# Every eighth input of a command is a known-bad one (see gen.py), so rounds
# come in whole periods of eight: each run has the same mix of inputs.
PERIOD = 8

# Rounds of an untraced run at --seconds 20; other values scale them, to whole
# periods. On a shared 2-vCPU VM with CPython 3.11 their timed calls took
# about 20 s at its usual speed. The count, not the clock, fixes a run's
# length, so two commits time the same inputs and the pooled percentiles
# fall at the same rank of the same sample count.
ROUNDS_AT_20_S = {"termgen_dev": 112, "wide_context": 8, "shared_defs": 32}

SETUP_INTERPRETERS = 15

END_TO_END = [
    ("check.decls_per_s", "decl/s"),
    ("translate.decls_per_s", "decl/s"),
    ("roundtrip.decls_per_s", "decl/s"),
    ("export.decls_per_s", "decl/s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("verdict_ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]

STAGES = ("parse", "check", "translate", "print", "reparse", "recheck", "inverse", "beta_compare", "export")
RULES = (
    "pcert.proj_pair",
    "lf.pair_compress",
    "lf.proj_pair",
    "lf.el_prop",
    "lf.prf_fa",
    "lf.el_arrd",
    "lf.prf_impd",
)
FAILURE_KINDS = (
    "ParseError",
    "ArityMismatch",
    "DuplicateName",
    "UnboundVariable",
    "UnknownSymbol",
    "SortKindHasNoType",
    "NotAFunction",
    "NotASort",
    "DomainMismatch",
    "TypeMismatch",
    "IllegalProduct",
    "FuelExhausted",
    "ProtectedSymbol",
    "NotTypable",
    "NotConvertible",
    "UncheckedInput",
    "WrongMode",
)

PER_LAYER = (
    [(f"stage.{s}_s", "s") for s in STAGES]
    + [
        ("syntax.parse.bytes_per_s", "B/s"),
        ("syntax.print.s", "s"),
        ("checker.self_s", "s"),
        ("kernel.infer.calls", "count"),
        ("kernel.infer.s", "s"),
        ("kernel.whnf.calls", "count"),
        ("pcert.convert.calls", "count"),
        ("pcert.convert.syntactic_ratio", "ratio"),
        ("pcert.convert.s", "s"),
        ("pcert.erase.calls", "count"),
        ("pcert.erase.s", "s"),
        ("lf.convert.calls", "count"),
        ("lf.convert.syntactic_ratio", "ratio"),
        ("lf.convert.s", "s"),
        ("lf.gate.s", "s"),
        ("rewrite.normalize.calls", "count"),
        ("rewrite.normalize.s", "s"),
        ("rewrite.whnf.s", "s"),
        ("rewrite.steps", "count"),
        ("rewrite.beta_steps", "count"),
    ]
    + [(f"rewrite.fired.{r}", "count") for r in RULES]
    + [
        ("rewrite.match.attempts", "count"),
        ("rewrite.match.hit_ratio", "ratio"),
        ("terms.lookup.calls", "count"),
        ("terms.lookup.s", "s"),
        ("terms.extend.s", "s"),
        ("terms.subst.calls", "count"),
        ("terms.subst.s", "s"),
        ("terms.instantiate.s", "s"),
        ("translate.s", "s"),
        ("translate.self_s", "s"),
        ("translate.infer_calls_per_decl", "calls/decl"),
        ("inverse.s", "s"),
        ("inverse.not_in_image", "count"),
        ("export.s", "s"),
    ]
    + [(f"failures.{k}", "count") for k in FAILURE_KINDS]
    + [("trace.overhead_s", "s")]
)


@dataclass
class Invocation:
    """What is kept of a call once it is checked: no input or output text,
    so that the loop's peak memory is pcert's own."""

    command: str
    round: int
    stem: str
    decls: int
    expect: int
    seconds: float = 0.0
    code: int = -1
    ok: bool = False
    # mean unit time of the meter in the gaps before and after the call
    gaps: tuple[float, float] = (0.0, 0.0)

    @property
    def scaled(self) -> float:
        """Seconds at reference speed."""
        return at_reference_speed(self.seconds, *self.gaps)


def _load_cli():
    """Import pcert.cli from the checkout's sources; exit 2 without them."""
    if not (SRC / "pcert" / "cli.py").is_file():
        print(f"perfbench: no pcert sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from pcert import cli

    return cli


def _call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Call:
    """A call just made, with everything its check needs."""

    inv: Invocation
    input: Input
    path: Path
    out: Path | None
    stdout: str
    stderr: str


def untraced_rounds(workload: str, seconds: float) -> int:
    periods = max(1, round(ROUNDS_AT_20_S[workload] * seconds / 20 / PERIOD))
    return max(periods * PERIOD, FIXED_ROUNDS[workload])


def run_rounds(cli, workload: str, seed: int, scale: float, run_dir: Path, rounds: int, meter: Meter, tracer=None):
    """Round after round, fresh inputs for every command (PER_ROUND of them);
    yields each Call right after it is made. Only the cli.main call is timed;
    the meter samples the machine's speed between calls, after the caller is
    done with the Call before."""
    make = WORKLOADS[workload]
    last: Invocation | None = None
    taken = dict.fromkeys(COMMANDS, 0)
    for r in range(rounds):
        for command in [c for c in COMMANDS for _ in range(PER_ROUND[workload].get(c, 1))]:
            inp = make(seed, command, taken[command], scale)
            taken[command] += 1
            path = run_dir / inp.stem
            path.write_text(inp.text, encoding="utf-8")
            out = path.with_name(path.name + ".out") if command in ("translate", "export") else None
            argv = [command, str(path), *inp.extra_args] + (["-o", str(out)] if out else [])
            inv = Invocation(command, r, inp.stem, inp.decls, inp.expect)
            gc.collect()  # garbage of earlier commands is not this command's cost
            gap = meter.pay()
            if last is not None:
                last.gaps = (last.gaps[0], gap)
            inv.gaps = (gap, gap)
            if tracer is not None:
                tracer.begin_invocation(command)
            try:
                inv.code, stdout, stderr, inv.seconds = _call(cli, argv)
            finally:
                if tracer is not None:
                    tracer.end_invocation()
            meter.measured(inv.seconds)
            last = inv
            yield Call(inv, inp, path, out, stdout, stderr)
    if last is not None:
        last.gaps = (last.gaps[0], meter.pay())


def verify(cli, call: Call) -> bool:
    """Exit code as built, and the output that goes with it."""
    inv, inp, out = call.inv, call.input, call.out
    if inv.code != inp.expect or call.stdout:
        return False
    if inp.expect != 0:
        return inp.kind in call.stderr and (out is None or not out.exists())
    if call.stderr:
        return False
    if inv.command == "translate":
        text = out.read_text(encoding="utf-8")
        if not text.startswith("#MODE lf\n") or text.count("\n") != inp.decls + 1:
            return False
        code, _, _, _ = _call(cli, ["check", str(out)])
        return code == 0
    if inv.command == "export":
        lines = out.read_text(encoding="utf-8").splitlines()
        body = lines[3:]
        return (
            lines[1] == "require open pcert.encoding;"
            and len(body) == inp.decls
            and all(line.startswith(("symbol ", "assert ")) for line in body)
        )
    return True


def settle(cli, call: Call, digest, digest_rounds: int) -> Invocation:
    """Check the call, add it to the digest if it is in the first
    `digest_rounds` rounds, and delete its files."""
    inv = call.inv
    inv.ok = verify(cli, call)
    if inv.round < digest_rounds:
        artifact = call.out.read_text(encoding="utf-8") if call.out and call.out.exists() else ""
        digest.update(f"{inv.stem} {inv.code}\n{call.stdout}{artifact}\0".encode())
    for path in (call.path, call.out):
        if path is not None:
            path.unlink(missing_ok=True)
    return inv


def measure_setup() -> float:
    """Median time from a fresh interpreter to pcert.cli imported, at the
    reference speed of the machine while the interpreters started."""
    meter = Meter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import pcert.cli; print('ready', flush=True)"
    times = []
    gap = meter.pay()
    for i in range(SETUP_INTERPRETERS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.wait(timeout=60)
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError("pcert.cli failed to import in a fresh interpreter")
        meter.measured(ready - start)
        before, gap = gap, meter.pay()
        if i:  # the first interpreter may compile bytecode
            times.append(at_reference_speed(ready - start, before, gap))
    return statistics.median(times)


def tail_percentile(n: int) -> int:
    """p90, or with fewer than 100 samples the highest percentile that still
    has at least ten samples beyond it (never below the median)."""
    if n >= 100:
        return 90
    return max(50, 100 * (n - 10) // n) if n > 10 else 50


def nearest_rank(ordered: list[float], q: int) -> float:
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(invocations: list[Invocation], setup: float) -> tuple[dict, list[str]]:
    values, report = {}, []
    for command in COMMANDS:
        mine = [i for i in invocations if i.command == command]
        decls = sum(i.decls for i in mine)
        raw = sum(i.seconds for i in mine)
        scaled = sum(i.scaled for i in mine)
        values[f"{command}.decls_per_s"] = decls / scaled
        report.append(
            f"{command:>9}: {len(mine)} invocations, {decls} decls in {raw:.3f} s, {scaled:.3f} s at reference speed"
        )
    ordered = sorted(i.scaled * 1000 for i in invocations)
    tail = tail_percentile(len(ordered))
    values["verdict_ms.p50"] = nearest_rank(ordered, 50)
    values["verdict_ms.p90"] = nearest_rank(ordered, tail)
    report.append(f"verdict_ms: {len(ordered)} samples; verdict_ms.p90 reports p{tail}")
    values["verdict_ok_ratio"] = sum(i.ok for i in invocations) / len(invocations)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = setup
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, report


def per_layer(tracer, overhead: float) -> tuple[dict, list[str]]:
    p, c = tracer.probes, tracer.counts

    def layer_self(layer: str) -> float:
        return sum(t for (_, l), t in tracer.self_time.items() if l == layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse = p["syntax.parse"]
    translate_infers = sum(tracer.stage_calls["translate", k] for k in ("kernel.infer", "kernel.sort_of"))
    values = {f"stage.{s}_s": tracer.stage_busy(s) for s in STAGES}
    values.update(
        {
            "syntax.parse.bytes_per_s": ratio(c["parse.bytes"], parse.busy),
            "syntax.print.s": p["syntax.print"].busy,
            "checker.self_s": layer_self("checker"),
            "kernel.infer.calls": p["kernel.infer"].calls,
            "kernel.infer.s": p["kernel.infer"].busy,
            "kernel.whnf.calls": p["kernel.whnf"].calls,
            "pcert.convert.calls": p["pcert.convert"].calls,
            "pcert.convert.syntactic_ratio": ratio(c["pcert.convert.syntactic"], p["pcert.convert"].calls),
            "pcert.convert.s": p["pcert.convert"].busy,
            "pcert.erase.calls": p["pcert.erase"].calls,
            "pcert.erase.s": p["pcert.erase"].busy,
            "lf.convert.calls": p["lf.convert"].calls,
            "lf.convert.syntactic_ratio": ratio(c["lf.convert.syntactic"], p["lf.convert"].calls),
            "lf.convert.s": p["lf.convert"].busy,
            "lf.gate.s": p["lf.gate"].busy,
            "rewrite.normalize.calls": p["rewrite.normalize"].calls,
            "rewrite.normalize.s": p["rewrite.normalize"].busy,
            "rewrite.whnf.s": p["rewrite.whnf"].busy,
            "rewrite.steps": c["steps"],
            "rewrite.beta_steps": c["beta_steps"],
            "rewrite.match.attempts": c["match.attempts"],
            "rewrite.match.hit_ratio": ratio(c["match.hits"], c["match.attempts"]),
            "terms.lookup.calls": p["terms.lookup"].calls,
            "terms.lookup.s": p["terms.lookup"].busy,
            "terms.extend.s": p["terms.extend"].busy,
            "terms.subst.calls": p["terms.subst"].calls,
            "terms.subst.s": p["terms.subst"].busy,
            "terms.instantiate.s": p["terms.instantiate"].busy,
            "translate.s": p["translate.term"].busy + p["translate.type"].busy,
            "translate.self_s": layer_self("translate"),
            "translate.infer_calls_per_decl": ratio(translate_infers, c["decls.translate"]),
            "inverse.s": p["inverse"].busy,
            "inverse.not_in_image": c["inverse.not_in_image"],
            "export.s": p["export"].busy,
            "trace.overhead_s": overhead,
        }
    )
    values.update({f"rewrite.fired.{r}": c[f"fired.{r}"] for r in RULES})
    values.update({f"failures.{k}": c[f"failures.{k}"] for k in FAILURE_KINDS})
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}

    report = ["self time by stage and layer (s):"]
    for stage in ("",) + STAGES:
        row = {l: t for (s, l), t in tracer.self_time.items() if s == stage and t > 0}
        if row:
            busy = tracer.stage_busy(stage) if stage else None
            head = f"  {stage or '(no stage)':>12}" + (f" [{busy:.3f} s]" if busy is not None else "")
            report.append(head + ": " + ", ".join(f"{l} {t:.3f}" for l, t in sorted(row.items(), key=lambda x: -x[1])))
    report.append("stage time by command (s):")
    commands = {s["id"]: s["name"] for s in tracer.spans if s["parent"] == -1}
    for command in COMMANDS:
        row: dict[str, float] = {}
        for s in tracer.spans:
            if commands.get(s["parent"]) == command:
                row[s["name"]] = row.get(s["name"], 0.0) + s["end"] - s["start"]
        report.append(f"  {command:>9}: " + ", ".join(f"{n} {t:.3f}" for n, t in row.items()))
    stage = tracer.stage_busy("translate")
    own = tracer.self_time["translate", "translate"]
    lookup = tracer.stage_time["translate", "terms.lookup"]
    report.append(
        f"translate stage: translate self {own:.3f} s + terms.lookup {lookup:.3f} s"
        f" = {ratio(own + lookup, stage):.0%} of {stage:.3f} s"
    )
    return metrics, report


def untraced_seconds(args: argparse.Namespace, rounds: int) -> float:
    """Timed seconds of the same rounds, untraced, in a separate process, at
    reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--scale", str(args.scale), "--rounds", str(rounds)]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if child.returncode != 0:
        raise RuntimeError(f"untraced comparison run failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])["metrics"]["timed_s"]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (the smoke test shrinks inputs)")
    parser.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.pop("PCERT_FUEL", None)  # the default budget applies, as for a user
    cli = _load_cli()
    fixed = FIXED_ROUNDS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    meter = Meter()
    tracer = None
    digest = hashlib.sha256()
    try:
        if args.trace and args.rounds is None:
            from probes import Tracer, install

            baseline = untraced_seconds(args, fixed)
            tracer = Tracer()
            install(tracer)
            try:
                # checked after the probes are gone, so that they count pcert's work only
                calls = list(run_rounds(cli, args.workload, args.seed, args.scale, run_dir, fixed, meter, tracer))
            finally:
                tracer.uninstall()
            invocations = [settle(cli, call, digest, fixed) for call in calls]
        else:
            if args.rounds is None:
                setup = measure_setup()
            rounds = args.rounds if args.rounds is not None else untraced_rounds(args.workload, args.seconds)
            calls = run_rounds(cli, args.workload, args.seed, args.scale, run_dir, rounds, meter)
            invocations = [settle(cli, call, digest, fixed) for call in calls]
        report = [f"workload {args.workload}, seed {args.seed}: {len(invocations)} invocations"]
        report.append(f"artifact digest over the first {fixed} rounds: {digest.hexdigest()}")
        timed = sum(i.scaled for i in invocations)
        if args.rounds is not None:
            metrics = {"timed_s": metric(timed, "s")}
        elif tracer is not None:
            metrics, lines = per_layer(tracer, timed - baseline)
            report += lines
            report.append(f"at reference speed: traced {timed:.3f} s, untraced {baseline:.3f} s, same {fixed} rounds")
            spans = WORK / f"spans-{args.workload}-{args.seed}.json"
            spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
            report.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, lines = end_to_end(invocations, setup)
            report += lines
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(not i.ok for i in invocations)
    for inv in invocations:
        if not inv.ok:
            report.append(f"WRONG {inv.command} {inv.stem}: exit {inv.code}, expected {inv.expect}")
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(invocations), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
