"""Exit codes, streams and flags of the command-line driver."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcert
from pcert import corpus_path
from pcert.cli import main

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


def test_check_type_error_exits_one(tmp_path):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\nsymbol x : T;\nassert x : Type;\n")
    assert main(["check", str(bad)]) == 1


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


def test_fuel_flag_exits_three(tmp_path, capsys):
    slow = tmp_path / "slow.pcert"
    slow.write_text(
        "symbol iota : Type;\n"
        "symbol a : iota;\n"
        "symbol f : iota -> iota;\n"
        "convertible (\\x: iota. f (f (f x))) ((\\x: iota. x) a), f (f (f a));\n"
    )
    assert main(["check", str(slow)]) == 0
    assert main(["check", str(slow), "--fuel", "1"]) == 3
    assert "FuelExhausted" in capsys.readouterr().err


def test_fuel_env_override(tmp_path, monkeypatch):
    slow = tmp_path / "slow.pcert"
    slow.write_text(
        "symbol iota : Type;\n"
        "symbol a : iota;\n"
        "symbol f : iota -> iota;\n"
        "convertible (\\x: iota. f (f (f x))) ((\\x: iota. x) a), f (f (f a));\n"
    )
    monkeypatch.setenv("PCERT_FUEL", "1")
    assert main(["check", str(slow)]) == 3
    monkeypatch.setenv("PCERT_FUEL", "0")  # unlimited
    assert main(["check", str(slow)]) == 0
    # the flag wins over the environment
    assert main(["check", str(slow), "--fuel", "1"]) == 3


def test_missing_file_exits_two(capsys):
    assert main(["check", "no/such/file.pcert"]) == 2


def test_duplicate_declaration_exits_one(tmp_path, capsys):
    dup = tmp_path / "dup.pcert"
    dup.write_text("symbol T : Type;\ndefinition T := Prop;\n")
    assert main(["check", str(dup)]) == 1
    assert "DuplicateName" in capsys.readouterr().err


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


DEEP_INPUTS = {
    "arrows": "symbol s : " + " -> ".join(["iota"] * 2001) + ";\n",
    "applications": "assert " + "f (" * 2000 + "a" + ")" * 2000 + " : iota;\n",
}


@pytest.mark.parametrize("command", ["check", "translate"])
@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
def test_deep_input_exits_zero_or_three_without_a_traceback(tmp_path, capsys, command, shape):
    src = tmp_path / "deep.pcert"
    src.write_text("symbol iota : Type;\nsymbol a : iota;\nsymbol f : iota -> iota;\n" + DEEP_INPUTS[shape])
    argv = [command, str(src)] + (["-o", str(tmp_path / "deep.lf")] if command == "translate" else [])
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("DepthExceeded: ") and err.count("\n") == 1


def test_definition_disagreeing_with_its_annotation_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.pcert"
    bad.write_text("symbol T : Type;\nsymbol U : Type;\nsymbol x : T;\ndefinition y : U := x;\n")
    assert main(["check", str(bad)]) == 1
    assert f"{bad}:4:1: TypeMismatch" in capsys.readouterr().err


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


# Emitted bytes, written by `pcert translate|export FILE -o OUT` on the
# bundled corpus. Regenerate them only for a change meant to alter output.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [(cmd, name) for name in CORPUS_PCERT for cmd in ("translate", "export")]
GOLDEN_CASES.append(("export", "even_pair.lf"))


@pytest.mark.parametrize(("command", "name"), GOLDEN_CASES)
def test_output_matches_golden_bytes(command, name, tmp_path):
    suffix = {"translate": "translate.lf", "export": "export.lp"}[command]
    golden = GOLDEN / f"{name.rsplit('.', 1)[0]}.{suffix}"
    out = tmp_path / "out"
    assert main([command, corpus(name), "-o", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
