"""Exit codes, streams and flags of the command-line driver."""

from __future__ import annotations

from pcert import corpus_path
from pcert.cli import main

CORPUS_OK = ("prelude.pcert", "stacks.pcert", "bounded_lists.pcert", "even_numbers.pcert",
             "even_pair.lf")


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
    for name in ("prelude.pcert", "stacks.pcert", "bounded_lists.pcert", "even_numbers.pcert"):
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
