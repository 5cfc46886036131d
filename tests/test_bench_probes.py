"""The benchmark's tracer (perfbench/probes.py) still finds what it wraps.

The tracer binds to pcert's functions and methods by name, so a rename in
pcert would break a traced benchmark run without failing any other test.
This installs it in-process, runs every command, and checks that the probes
saw calls and that uninstalling restores every original.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from pcert import cli, corpus_path
from pcert.kernel import Kernel
from pcert.lf import LfKernel
from pcert.pcert import PcertKernel
from pcert.rewrite import Fuel
from pcert.terms import Context

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict[tuple[object, str], object]:
    """Every attribute of pcert's modules and of the classes the tracer patches."""
    out: dict[tuple[object, str], object] = {}
    for name, mod in list(sys.modules.items()):
        if name == "pcert" or name.startswith("pcert."):
            out.update(((mod, attr), value) for attr, value in vars(mod).items())
    for cls in (Context, Kernel, PcertKernel, LfKernel, Fuel):
        out.update(((cls, attr), getattr(cls, attr)) for attr in dir(cls))
    return out


def test_tracer_probes_every_layer_and_uninstalls_cleanly(tmp_path):
    probes = load_probes()
    before = bindings()
    tracer = probes.Tracer()
    probes.install(tracer)
    try:
        assert cli.check_file is not before[cli, "check_file"]
        stacks = str(corpus_path("stacks.pcert"))
        runs = (
            (["check", stacks], 0),
            (["translate", stacks, "-o", str(tmp_path / "stacks.lf")], 0),
            (["roundtrip", stacks], 0),
            (["export", stacks, "-o", str(tmp_path / "stacks.lp")], 0),
            (["check", str(corpus_path("even_pair_forged.lf"))], 4),
        )
        for argv, expected in runs:
            tracer.begin_invocation(argv[0])
            try:
                assert cli.main(argv) == expected, argv
            finally:
                tracer.end_invocation()
    finally:
        tracer.uninstall()
    for key in ("pcert.convert", "lf.convert", "lf.gate", "kernel.infer", "checker"):
        assert tracer.probes[key].calls > 0, key
    assert tracer.counts["failures.ProtectedSymbol"] == 1
    after = bindings()
    changed = [attr for (owner, attr), value in before.items() if after.get((owner, attr)) != value]
    assert not changed, changed
