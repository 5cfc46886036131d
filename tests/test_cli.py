"""Exit codes, streams and flags of the command-line driver."""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pcert
from pcert import cli, corpus_path
from pcert.cli import main
from pcert.lf import El
from pcert.terms import Var
from test_syntax import mutated_corpus

CORPUS_PCERT = ("prelude.pcert", "stacks.pcert", "bounded_lists.pcert", "even_numbers.pcert")
CORPUS_OK = CORPUS_PCERT + ("even_pair.lf",)


def corpus(name: str) -> str:
    return str(corpus_path(name))


def test_check_corpus_files_exit_zero():
    for name in CORPUS_OK:
        assert main(["check", corpus(name)]) == 0


def test_check_protected_symbol_exits_four(capsys):
    assert main(["check", corpus("even_pair_forged.lf")]) == 4
    captured = capsys.readouterr()
    assert "pair'" in captured.err
    assert captured.out == ""


def test_check_empty_file_exits_zero(tmp_path):
    empty = tmp_path / "empty.pcert"
    empty.write_text("")
    assert main(["check", str(empty)]) == 0


def test_check_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol x : fst(T);")
    assert main(["check", str(bad)]) == 2
    assert "ArityMismatch" in capsys.readouterr().err


# the two `convertible` cases are the other half of proof irrelevance:
# certificates never block conversion, but elements still do
TYPE_ERRORS = {
    "assert": (
        "bad.pcert",
        "symbol T : Type;\nsymbol x : T;\nassert x : Type;\n",
        "3:1: TypeMismatch: term has type T, expected Type",
    ),
    "convertible_pcert": (
        "conv.pcert",
        "symbol nat : Type;\nsymbol even : nat -> Prop;\nsymbol two : nat;\nsymbol four : nat;\n"
        "symbol h2 : even two;\nsymbol h4 : even four;\n"
        "convertible pair(nat, even, two, h2), pair(nat, even, four, h4);\n",
        "7:1: NotConvertible: terms are not convertible",
    ),
    "convertible_lf": (
        "conv.lf",
        "#MODE lf\nsymbol nat : Type;\nsymbol a : El nat;\nsymbol b : El nat;\nconvertible a, b;\n",
        "5:1: NotConvertible: terms are not convertible",
    ),
}


@pytest.mark.parametrize("case", sorted(TYPE_ERRORS))
def test_check_type_error_exits_one(tmp_path, capsys, case):
    name, text, line = TYPE_ERRORS[case]
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err == f"{bad}:{line}\n"


def test_translate_writes_checked_lf_file(tmp_path):
    out = tmp_path / "even.lf"
    assert main(["translate", corpus("even_numbers.pcert"), "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("#MODE lf")
    assert main(["check", str(out)]) == 0


def test_translate_rejects_lf_input(tmp_path, capsys):
    assert main(["translate", corpus("even_pair.lf"), "-o", str(tmp_path / "x.lf")]) == 2
    assert "WrongMode" in capsys.readouterr().err


def test_translate_ill_typed_exits_one(tmp_path):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\nsymbol x : T;\ndefinition y := x x;\n")
    assert main(["translate", str(bad), "-o", str(tmp_path / "out.lf")]) == 1


def test_roundtrip_corpus_files(capsys):
    for name in CORPUS_PCERT:
        assert main(["roundtrip", corpus(name)]) == 0


# A checked file cannot fail the round trip: the inverse is a left inverse
# of the translation up to beta. So each case breaks one of the two through
# the cli's own binding and pins the report: one line per definition, in
# file order, and nothing on stdout.
ROUNDTRIP_FAULTS = {
    "translate_term": (
        lambda ctx, t, memo: El(Var("x")),
        "not in the image of the translation at root: El(x)",
    ),
    "inverse_term": (lambda m, memo, source: Var("zero"), "beta-normal forms differ after the round trip"),
}


@pytest.mark.parametrize("binding", sorted(ROUNDTRIP_FAULTS))
def test_a_broken_round_trip_exits_five(monkeypatch, capsys, binding):
    fault, reason = ROUNDTRIP_FAULTS[binding]
    monkeypatch.setattr(cli, binding, fault)
    assert main(["roundtrip", corpus("even_numbers.pcert")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"roundtrip failure: {name}: {reason}\n" for name in ("two", "evens", "t", "t'"))


def test_roundtrip_vacuous_on_symbol_only_file(tmp_path):
    decls = tmp_path / "decls.pcert"
    decls.write_text("symbol T : Type;\nsymbol x : T;\n")
    assert main(["roundtrip", str(decls)]) == 0


def test_roundtrip_ill_typed_exits_one(tmp_path):
    bad = tmp_path / "bad.pcert"
    bad.write_text("definition y := ghost;\n")
    assert main(["roundtrip", str(bad)]) == 1


def test_export_signature(tmp_path):
    out = tmp_path / "encoding.lp"
    assert main(["export", corpus("even_numbers.pcert"), "-o", str(out), "--signature"]) == 0
    text = out.read_text()
    assert len([line for line in text.splitlines() if line.startswith("rule ")]) == 6
    assert "protected" in text


def test_export_development_goes_to_stdout(capsys):
    assert main(["export", corpus("stacks.pcert")]) == 0
    captured = capsys.readouterr()
    assert "require open pcert.encoding;" in captured.out
    assert captured.err == ""


def test_export_unchecked_input_exits_one(tmp_path):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\ndefinition y := T T;\n")
    assert main(["export", str(bad), "-o", str(tmp_path / "out.lp")]) == 1


# one beta step past a budget of 1
SLOW_SOURCE = (
        "symbol iota : Type;\n"
        "symbol a : iota;\n"
        "symbol f : iota -> iota;\n"
        "convertible (\\x: iota. f (f (f x))) ((\\x: iota. x) a), f (f (f a));\n"
)


def test_fuel_flag_exits_three(tmp_path, capsys):
    slow = tmp_path / "slow.pcert"
    slow.write_text(SLOW_SOURCE)
    assert main(["check", str(slow)]) == 0
    assert main(["check", str(slow), "--fuel", "1"]) == 3
    assert "FuelExhausted" in capsys.readouterr().err


def test_fuel_env_override(tmp_path, monkeypatch):
    slow = tmp_path / "slow.pcert"
    slow.write_text(SLOW_SOURCE)
    monkeypatch.setenv("PCERT_FUEL", "1")
    assert main(["check", str(slow)]) == 3
    monkeypatch.setenv("PCERT_FUEL", "0")  # unlimited
    assert main(["check", str(slow)]) == 0
    # the flag wins over the environment
    assert main(["check", str(slow), "--fuel", "1"]) == 3


def test_missing_file_exits_two(capsys):
    assert main(["check", "no/such/file.pcert"]) == 2


@pytest.mark.parametrize(
    ("text", "line"),
    [
        ("symbol T : Type;\ndefinition T := Prop;\n", "2:1: DuplicateName: 'T' declared twice"),
        ("symbol nat : Type;\nsymbol nat : Type;\n", "2:1: DuplicateName: 'nat' declared twice"),
    ],
    ids=["definition", "symbol"],
)
def test_duplicate_declaration_exits_one(tmp_path, capsys, text, line):
    dup = tmp_path / "dup.pcert"
    dup.write_text(text)
    assert main(["check", str(dup)]) == 1
    assert capsys.readouterr().err == f"{dup}:{line}\n"


def test_type_error_diagnostic_carries_the_declaration_span(tmp_path, capsys):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\nsymbol x : T;\nassert x : Type;\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:1" in err


def test_export_signature_needs_no_input_file(tmp_path):
    out = tmp_path / "encoding.lp"
    assert main(["export", "--signature", "-o", str(out)]) == 0
    assert "protected" in out.read_text()


def test_export_without_file_or_signature_exits_two(capsys):
    assert main(["export"]) == 2
    assert "input file" in capsys.readouterr().err


def test_translate_types_a_definition_by_its_inferred_type(tmp_path):
    # the annotation is a beta-redex of the inferred type; the emitted type
    # is the translation of the inferred one
    src = tmp_path / "annotated.pcert"
    src.write_text(
        "symbol nat : Type;\n"
        "symbol zero : nat;\n"
        "symbol suc : nat -> nat;\n"
        "symbol even : nat -> Prop;\n"
        "definition two := suc (suc zero);\n"
        "symbol h : even two;\n"
        "definition t : psub(nat, (\\q: nat -> Prop. q) even) := pair(nat, even, two, h);\n"
    )
    out = tmp_path / "annotated.lf"
    assert main(["translate", str(src), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "definition t : El(psub(nat, even)) := pair(nat, even, suc (suc zero), h);" in lines


def test_negative_fuel_exits_two(monkeypatch, capsys):
    assert main(["check", corpus("stacks.pcert"), "--fuel", "-1"]) == 2
    assert capsys.readouterr().err == "ParseError: --fuel must not be negative, got -1\n"
    monkeypatch.setenv("PCERT_FUEL", "-3")
    assert main(["check", corpus("stacks.pcert")]) == 2
    assert capsys.readouterr().err == "ParseError: PCERT_FUEL must not be negative, got -3\n"
    monkeypatch.setenv("PCERT_FUEL", "abc")
    assert main(["check", corpus("stacks.pcert")]) == 2
    assert capsys.readouterr().err == "ParseError: PCERT_FUEL must be an integer, got 'abc'\n"


def test_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.pcert"
    bad.write_bytes(b"symbol T : Type;\nsymbol x\xff : T;\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"ParseError: {bad}: not UTF-8 (byte 25)\n"


def test_annotated_definition_infers_its_body_once(tmp_path, capsys):
    # one beta step to apply the body, one to match the annotation: the body
    # is inferred once, by the check against its annotation
    src = tmp_path / "annotated.pcert"
    src.write_text(
        "symbol iota : Type; symbol a : iota; symbol f : iota -> iota;\n"
        "symbol P : iota -> Prop; symbol h : P (f a);\n"
        "definition t : P (f a) := (\\x: P ((\\y: iota. f y) a). x) h;\n"
    )
    assert main(["check", str(src), "--fuel", "2"]) == 0
    assert main(["check", str(src), "--fuel", "1"]) == 3
    assert f"{src}:3:1: FuelExhausted" in capsys.readouterr().err


def test_a_conversion_proven_once_costs_no_fuel_the_second_time(tmp_path, capsys):
    # h's type reaches P a in one beta step; F h h needs that conversion for
    # both arguments, and the second is a lookup that spends nothing
    twice = (
        "symbol iota : Type; symbol a : iota; symbol P : iota -> Prop;\n"
        "symbol F : P a -> P a -> P a;\n"
        "symbol h : P ((\\x: iota. x) a);\n"
        "assert F h h : P a;\n"
    )
    src = tmp_path / "twice.pcert"
    src.write_text(twice)
    assert main(["check", str(src), "--fuel", "1"]) == 0
    # a new pair still pays for its own steps: this one takes two
    src.write_text(twice + "symbol h2 : P ((\\x: iota. x) ((\\x: iota. x) a));\nassert F h2 h2 : P a;\n")
    assert main(["check", str(src), "--fuel", "1"]) == 3
    assert f"{src}:6:1: FuelExhausted" in capsys.readouterr().err
    assert main(["check", str(src), "--fuel", "2"]) == 0


def _unfolding(redexes: int, depth: int = 20) -> str:
    """A shallow definition whose beta-normal form is redexes * depth
    applications deep, so that normalizing and comparing it recurse."""
    h = "definition h := \\x: iota. " + "f (" * depth + "x" + ")" * depth + ";\n"
    return h + "definition d := " + "h (" * redexes + "a" + ")" * redexes + ";\n"


def _arrows(n: int) -> str:
    return "symbol s : " + " -> ".join(["iota"] * (n + 1)) + ";\n"


def _applications(n: int) -> str:
    return "assert " + "f (" * n + "a" + ")" * n + " : iota;\n"


DEEP_BASE = "symbol iota : Type;\nsymbol a : iota;\nsymbol f : iota -> iota;\n"
DEEP_INPUTS = {
    "arrows": _arrows(2000),
    "applications": _applications(2000),
    "normal_form": _unfolding(100),  # 2000 deep: roundtrip exits 3, the others 0
    "normal_form_in_limit": _unfolding(15),  # 300 deep: every command exits 0
}

# The deepest arrows and applications each command passes, as
# `tests/depthfloors.py` bisects them outside pytest on CPython 3.11.7 with
# the default recursion limit of 1000 (in the comments), less DEPTH_MARGIN
# per cent: pytest's own frames take about 4 % of the depth, and 2 % is
# slack. One more frame per level of a recursion would lower each by a
# fifth or more, so a frame lost in the parser, the kernel or the printer
# fails here.
DEPTH_MARGIN = 6
DEPTH_FLOORS = {
    "arrows": (_arrows, {"check": 464, "translate": 307, "roundtrip": 464, "export": 462}),  # 494/327/494/492
    "applications": (_applications, {"check": 924, "translate": 917, "roundtrip": 924, "export": 924}),  # 984/976/983/984
}


@pytest.mark.parametrize("command", ["check", "translate", "roundtrip", "export"])
@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
def test_deep_input_exits_zero_or_three_without_a_traceback(tmp_path, capsys, command, shape):
    src = tmp_path / "deep.pcert"
    src.write_text(DEEP_BASE + DEEP_INPUTS[shape])
    out = ["-o", str(tmp_path / "deep.out")] if command in ("translate", "export") else []
    argv = [command, str(src), *out]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("DepthExceeded: ") and err.count("\n") == 1
    if shape in DEPTH_FLOORS:
        make, floors = DEPTH_FLOORS[shape]
        src.write_text(DEEP_BASE + make(floors[command]))
        assert main(argv) == 0, f"{command} no longer passes {floors[command]} {shape}"
        assert capsys.readouterr().err == ""


def test_definition_disagreeing_with_its_annotation_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\nsymbol U : Type;\nsymbol x : T;\ndefinition y : U := x;\n")
    assert main(["check", str(bad)]) == 1
    assert f"{bad}:4:1: TypeMismatch" in capsys.readouterr().err


def test_a_diagnostic_cuts_a_shared_term_it_would_print_as_a_tree(tmp_path, capsys):
    # the expected type expands u24 to 2^24 leaves: printed whole, the line
    # doubles with each link
    lines = ["symbol iota : Type;", "symbol a : iota;", "symbol g : iota -> iota -> iota;", "symbol P : iota -> Prop;"]
    lines += ["definition u0 := a;"] + [f"definition u{i + 1} := g u{i} u{i};" for i in range(24)]
    bad = tmp_path / "bad.pcert"
    bad.write_text("\n".join(lines) + "\nsymbol h : P a;\nassert h : P u24;\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:31:1: TypeMismatch: term has type (P a), expected (P ((g ((g ")
    assert err.endswith("…\n") and len(err.encode()) < 2048


def test_definition_annotation_is_checked_before_its_body(tmp_path, capsys):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\nsymbol x : T;\ndefinition y : ghost := x x;\n")
    assert main(["check", str(bad)]) == 1
    assert f"{bad}:3:1: UnboundVariable" in capsys.readouterr().err


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main builds its argument parser once per process and reuses it
    source = corpus("even_numbers.pcert")
    calls = [
        lambda out: ["export", "--signature"],
        lambda out: ["check", source],
        lambda out: ["export", source, "-o", str(out)],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(pcert.__file__).parents[1])}
    for argv in calls:
        code = main(argv(tmp_path / "in_process.lp"))
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "pcert.cli", *argv(tmp_path / "fresh.lp")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert (tmp_path / "in_process.lp").read_bytes() == (tmp_path / "fresh.lp").read_bytes()


CHAIN_BASE = """symbol iota : Type;
symbol P : iota -> Prop;
symbol Q : Prop;
symbol a : iota;
symbol g : iota -> iota -> iota;
symbol k : iota -> iota -> iota;
symbol hP : !x: iota. P x;
symbol hP' : !x: iota. P x;
symbol hq : Q;
symbol hq' : Q;
definition Qp := \\x: iota. Q;
"""


def shared_chain_source(links: int) -> str:
    """A `shared_defs`-style development: u(i+1) := (\\x. G x x) u(i), a
    twin v(i+1) that reaches the same normal form through projections,
    and an assertion per link that the two are convertible, whose fuel
    doubles per link."""
    lines = ["definition u0 := a;", "definition v0 := fst(iota, Qp, pair(iota, Qp, a, hq));"]
    for i in range(links):
        G, H = ("g", "hq") if i % 2 == 0 else ("k", "hq'")
        body = (
            f"fst(iota, Qp, pair(iota, Qp, {G} y y, {H}))",
            f"{G} (fst(iota, Qp, pair(iota, Qp, y, {H}))) y",
            f"{G} y (fst(iota, Qp, pair(iota, Qp, y, {H})))",
        )[i % 3]
        lines.append(f"definition u{i + 1} := (\\x: iota. {G} x x) u{i};")
        lines.append(f"definition v{i + 1} := (\\y: iota. {body}) v{i};")
        lines.append(f"convertible u{i + 1}, v{i + 1};")
    lines.append(f"convertible pair(iota, P, u{links}, hP u{links}), pair(iota, P, v{links}, hP' v{links});")
    return CHAIN_BASE + "\n".join(lines) + "\n"


# Least --fuel under which each command accepts the 12-link chain, found by
# bisection with conversion redoing every sub-comparison. Replaying repeated
# sub-comparisons must charge the same steps: both budgets stay exact. Both
# run out on the last declaration; translate's lf re-check of it takes more,
# and reports the span of the source declaration it translates.
CHAIN12_FUEL = {"check": (16405, "50:1"), "translate": (24757, "50:1")}


@pytest.mark.parametrize("command", sorted(CHAIN12_FUEL))
def test_shared_chain_needs_the_same_fuel_as_redoing_every_comparison(command, tmp_path, capsys):
    src = tmp_path / "chain12.pcert"
    src.write_text(shared_chain_source(12))
    out = ["-o", str(tmp_path / "out.lf")] if command == "translate" else []
    fuel, where = CHAIN12_FUEL[command]
    assert main([command, str(src), *out, "--fuel", str(fuel)]) == 0
    assert capsys.readouterr().err == ""
    assert main([command, str(src), *out, "--fuel", str(fuel - 1)]) == 3
    diagnostic = "FuelExhausted: rewrite fuel exhausted before reaching a normal form"
    assert capsys.readouterr().err == f"{src}:{where}: {diagnostic}\n"


def test_a_recheck_failure_in_translate_points_at_the_source_declaration(tmp_path, capsys):
    # comments, blank lines and indentation move the last declaration in the
    # source away from its line and column in the printed translation
    lines = shared_chain_source(12).splitlines()
    lines.insert(1, "// the chain\n")
    lines[-1] = "   " + lines[-1]
    src = tmp_path / "chain12.pcert"
    src.write_text("\n".join(lines) + "\n")
    line = src.read_text().splitlines().index(lines[-1]) + 1
    fuel = CHAIN12_FUEL["translate"][0] - 1  # enough for check, not for the lf re-check
    assert main(["check", str(src), "--fuel", str(fuel)]) == 0
    assert main(["translate", str(src), "-o", str(tmp_path / "out.lf"), "--fuel", str(fuel)]) == 3
    err = capsys.readouterr().err
    assert err == f"{src}:{line}:4: FuelExhausted: rewrite fuel exhausted before reaching a normal form\n"
    assert line != 51 and not (tmp_path / "out.lf").exists()


def nested_redexes_source(redexes: int) -> str:
    """A definition of `redexes` nested (\\x: iota. g x x) redexes: its
    normal form has 2^redexes - 1 applications of g, while `check` needs no
    reduction at all."""
    body = "(\\x: iota. g x x) (" * redexes + "a" + ")" * redexes
    return f"symbol iota : Type;\nsymbol a : iota;\nsymbol g : iota -> iota -> iota;\ndefinition d := {body};\n"


# Least --fuel under which `roundtrip` accepts nested_redexes_source(n),
# found by bisection with normalization redoing every repeated subterm:
# 2^n - 1 beta steps per side. Replaying a repeated subterm must charge the
# same steps.
ROUNDTRIP_FUEL = {6: 63, 16: 65535}


@pytest.mark.parametrize("redexes", sorted(ROUNDTRIP_FUEL))
def test_roundtrip_needs_the_same_fuel_as_normalizing_every_occurrence(tmp_path, capsys, redexes):
    src = tmp_path / "redexes.pcert"
    src.write_text(nested_redexes_source(redexes))
    assert main(["check", str(src), "--fuel", "1"]) == 0  # normalization alone sets the bound
    fuel = ROUNDTRIP_FUEL[redexes]
    assert main(["roundtrip", str(src), "--fuel", str(fuel)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["roundtrip", str(src), "--fuel", str(fuel - 1)]) == 3
    diagnostic = "FuelExhausted: rewrite fuel exhausted before reaching a normal form"
    assert capsys.readouterr().err == f"{src}:4:1: {diagnostic}\n"


def test_roundtrip_fuel_failure_points_at_the_definition(tmp_path, capsys):
    src = tmp_path / "two.pcert"
    src.write_text(
        "symbol iota : Type;\nsymbol a : iota;\n"
        "definition one := (\\x: iota. x) a;\n"
        "symbol b : iota;\n"
        "definition two := (\\x: iota. x) ((\\x: iota. x) b);\n"
    )
    assert main(["check", str(src), "--fuel", "1"]) == 0
    assert main(["roundtrip", str(src), "--fuel", "1"]) == 3
    assert capsys.readouterr().err.startswith(f"{src}:5:1: FuelExhausted: ")
    assert main(["roundtrip", str(src), "--fuel", "2"]) == 0


# Emitted bytes, written by `pcert translate|export FILE -o OUT` on the
# bundled corpus and by `pcert export --signature -o OUT`, the one output
# with pattern variables and telescope types. Regenerate them only for a
# change meant to alter output.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [(cmd, name) for name in CORPUS_PCERT for cmd in ("translate", "export")]
GOLDEN_CASES += [("export", "even_pair.lf"), ("export", "signature")]


@pytest.mark.parametrize(("command", "name"), GOLDEN_CASES)
def test_output_matches_golden_bytes(command, name, tmp_path):
    suffix = {"translate": "translate.lf", "export": "export.lp"}[command]
    golden = GOLDEN / f"{name.rsplit('.', 1)[0]}.{suffix}"
    out = tmp_path / "out"
    source = "--signature" if name == "signature" else corpus(name)
    assert main([command, source, "-o", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


# --- the sort tables ---------------------------------------------------------

SORT_BASE = "symbol iota : Type;\nsymbol a : iota;\nsymbol P : iota -> Prop;\nsymbol ha : P a;\n"
OF_SORT = {"Prop": "P a", "Type": "iota", "Kind": "Type"}  # a type of each sort
INHABITANT = {"Prop": "ha", "Type": "a", "Kind": "iota"}  # a term whose type is of each sort
# pcert's product rules, written out rather than read off the kernel, so a
# rule added to or dropped from its table fails here
PCERT_PRODUCTS = {("Prop", "Prop"), ("Type", "Type"), ("Type", "Prop")}


@pytest.mark.parametrize("command", ["check", "translate"])
@pytest.mark.parametrize("form", ["product", "abstraction"])
@pytest.mark.parametrize(("s_dom", "s_cod"), list(itertools.product(OF_SORT, repeat=2)))
def test_a_pair_of_sorts_is_accepted_exactly_when_pcert_has_its_product(tmp_path, capsys, command, form, s_dom, s_cod):
    # an abstraction's type is the product of its domain and its body's type
    if form == "product":
        decl = f"symbol f : (!h: {OF_SORT[s_dom]}. {OF_SORT[s_cod]});"
    else:
        decl = f"definition f := \\h: {OF_SORT[s_dom]}. {INHABITANT[s_cod]};"
    src = tmp_path / "sorts.pcert"
    src.write_text(SORT_BASE + decl + "\n")
    out = ["-o", str(tmp_path / "out.lf")] if command == "translate" else []
    code = main([command, str(src), *out])
    err = capsys.readouterr().err
    if (s_dom, s_cod) in PCERT_PRODUCTS:
        assert (code, err) == (0, "")
    else:
        line = f"{src}:5:1: IllegalProduct: no product rule for ({s_dom}, {s_cod}) in system pcert\n"
        assert (code, err) == (1, line)


# --- the paused collector -----------------------------------------------------


def collector_cases(tmp_path: Path) -> list[tuple[list[str], int, str | None]]:
    """Argument vector, exit code and the `ROUNDTRIP_FAULTS` binding it
    breaks, if any, of every command over the corpus and of one input for
    each failing exit code."""
    texts = {
        "type.pcert": TYPE_ERRORS["assert"][1],
        "parse.pcert": "symbol x : fst(T);",
        "slow.pcert": SLOW_SOURCE,
        "deep.pcert": DEEP_BASE + _arrows(2000),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    out = str(tmp_path / "out")
    cases = [([command, corpus(name), *(["-o", out] if command in ("translate", "export") else [])], 0, None)
             for name in CORPUS_PCERT for command in ("check", "translate", "roundtrip", "export")]
    cases += [(["check", corpus("even_pair.lf")], 0, None), (["export", corpus("even_pair.lf"), "-o", out], 0, None)]
    cases += [
        (["check", str(tmp_path / "type.pcert")], 1, None),
        (["check", str(tmp_path / "parse.pcert")], 2, None),
        (["check", str(tmp_path / "missing.pcert")], 2, None),
        (["check", str(tmp_path / "slow.pcert"), "--fuel", "1"], 3, None),
        (["check", str(tmp_path / "deep.pcert")], 3, None),
        (["check", corpus("even_pair_forged.lf")], 4, None),
        (["roundtrip", corpus("even_numbers.pcert")], 5, "inverse_term"),
    ]
    return cases


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_a_command_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    # main pauses the cyclic collector, which is sound only while reference
    # counting frees everything a command drops: a cycle made by a later
    # change fails here
    cases = collector_cases(tmp_path)
    quiet_main(cases[0][0])  # fills what a process builds once
    for argv, code, fault in cases:
        with monkeypatch.context() as patch:
            if fault is not None:
                patch.setattr(cli, fault, ROUNDTRIP_FAULTS[fault][0])
            gc.collect()
            assert quiet_main(argv) == code, argv
            assert gc.collect() == 0, argv


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_restores_it_on_every_exit(tmp_path, monkeypatch, enabled):
    seen: list[bool] = []  # the collector's state inside each command

    def fuel_value(args):
        seen.append(gc.isenabled())
        return cli_fuel_value(args)

    def collector(on: bool) -> None:
        if on:
            gc.enable()
        else:
            gc.disable()

    cli_fuel_value = cli._fuel_value
    monkeypatch.setattr(cli, "_fuel_value", fuel_value)
    was = gc.isenabled()
    try:
        for argv, code, fault in collector_cases(tmp_path):
            with monkeypatch.context() as patch:
                if fault is not None:
                    patch.setattr(cli, fault, ROUNDTRIP_FAULTS[fault][0])
                collector(enabled)
                assert quiet_main(argv) == code, argv
                assert gc.isenabled() is enabled, argv
        for argv in (["check"], ["check", "x.pcert", "--fuel", "many"], ["nonsense"]):
            collector(enabled)
            with pytest.raises(SystemExit):
                quiet_main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        collector(was)
    assert seen and not any(seen)


# --- fuzzing the driver ------------------------------------------------------


@st.composite
def fuzz_input(draw) -> bytes:
    """A mutated corpus file, a corpus file with parentheses added or
    removed, one with parentheses hidden in comments, or random bytes."""
    kind = draw(st.sampled_from(("mutated", "parentheses", "comments", "bytes")))
    if kind == "mutated":
        return draw(mutated_corpus()).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    text = Path(corpus(draw(st.sampled_from(CORPUS_OK)))).read_text()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        if kind == "parentheses":
            text = text[:at] + draw(st.sampled_from(("(", ")", "((", "))", ""))) + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from(("// (", "// )", "//((\n", " // ) (\n"))) + text[at:]
    return text.encode()


@settings(max_examples=300, deadline=None)
@given(fuzz_input())
def test_fuzzed_input_exits_with_a_documented_code_and_no_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "fuzz.pcert"
        src.write_bytes(data)
        for command in ("check", "translate", "roundtrip", "export"):
            out = ["-o", str(Path(tmp) / "out")] if command in ("translate", "export") else []
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, str(src), *out, "--fuel", "100000"])
            assert code in range(6), (command, code)
            assert "Traceback" not in err.getvalue()
