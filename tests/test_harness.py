"""Smoke test of `tests/harness.py`: `tests/stages.py` on two inputs per
workload, whose calls per declaration must equal a direct count of the
same `check_file` calls, and `harness.run_cli` on a known-bad generated
input."""

from __future__ import annotations

import functools
import sys

import pytest

import harness
import stages
from genutil import calls_made
from pcert import cli
from pcert.checker import check_file
from pcert.rewrite import DEFAULT_FUEL
from pcert.syntax import ParsedFile, parse_file, print_file


@pytest.fixture
def workloads(monkeypatch):
    """`perfbench/gen.py`'s workloads; sys.path and PCERT_FUEL are put back
    after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("PCERT_FUEL", raising=False)
    harness.load()
    from gen import WORKLOADS

    return WORKLOADS


def check_calls(inp, command: str) -> list[int]:
    """The calls of the pcert check of inp and, for `translate`, of the lf
    re-check, each counted directly on the file `cli` hands `check_file`."""
    parsed = parse_file(inp.text, inp.stem)
    calls = [calls_made(functools.partial(check_file, parsed, DEFAULT_FUEL))]
    if command == "translate":
        translated = ParsedFile("lf", tuple(cli._translate_decls(check_file(parsed, DEFAULT_FUEL))), inp.stem)
        reparsed = parse_file(print_file(translated), f"{inp.stem}:translated")
        calls.append(calls_made(functools.partial(check_file, reparsed, DEFAULT_FUEL)))
    return calls


@pytest.mark.parametrize("command", sorted(stages.STAGES))
def test_stages_counts_the_calls_of_the_clis_own_checks(workloads, capsys, command):
    wrapped = {name: getattr(cli, name) for name in ("main", *stages.STAGES[command].values())}
    assert stages.main(["--command", command, "--inputs", "2", "--repeat", "1"]) == 0
    assert wrapped == {name: getattr(cli, name) for name in wrapped}  # the wrappers are gone
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == ("lf/decl" if command == "translate" else "pcert/decl")
    assert [row.split()[0] for row in rows] == list(workloads)
    for row, make in zip(rows, workloads.values()):
        good = stages.known_good(make, command, 42, 2)
        per_input = [check_calls(inp, command) for inp in good]
        decls = sum(inp.decls for inp in good)
        expected = [f"{sum(calls) / decls:.1f}" for calls in zip(*per_input)]
        fields = row.split()
        assert int(fields[1]) == len(good)
        assert fields[-len(expected):] == expected


def test_run_cli_reports_a_known_bad_input(workloads):
    inp = workloads["wide_context"](42, "translate", 1)
    assert (inp.expect, inp.kind) == (1, "UnboundVariable")
    with harness.scratch_dir():
        code, out, err = harness.run_cli(harness.place("translate", inp))
    assert (code, out) == (1, "")
    assert err.startswith(f"{inp.stem}:{inp.text.count(chr(10))}:1: UnboundVariable: ")
    assert err.count("\n") == 1
