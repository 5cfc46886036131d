"""Lambdapi export: the encoding signature and translated developments."""

from __future__ import annotations

import shutil
import subprocess

import pytest

from pcert import check_file, corpus_path, parse_file
from pcert.cli import _translate_decls
from pcert.export import export_lambdapi


def test_signature_export_marks_pair_prime_protected():
    text = export_lambdapi((), mode="signature")
    protected = [line for line in text.splitlines() if line.startswith("protected")]
    assert len(protected) == 1
    assert "pair'" in protected[0]


def test_signature_export_carries_the_seven_rule_system():
    text = export_lambdapi((), mode="signature")
    rule_lines = [line for line in text.splitlines() if line.startswith("rule ")]
    assert len(rule_lines) == 6  # the seventh, beta, is native to the target
    assert any("(beta)" in line for line in text.splitlines())
    assert "rule pair $t $p $m $h ↪ pair' $t $p $m;" in rule_lines
    assert "rule fst $t0 $p0 (pair' $t1 $p1 $m) ↪ $m;" in rule_lines
    assert "rule El prop ↪ Prop;" in rule_lines


def test_signature_export_declares_every_symbol():
    text = export_lambdapi((), mode="signature")
    for name in ("Kind", "Type", "Prop", "type", "prop", "El", "Prf", "fa", "impd", "arrd",
                 "psub", "pair", "fst", "snd"):
        assert f" {name} :" in text


def test_empty_development_is_header_only():
    text = export_lambdapi((), mode="development")
    lines = [line for line in text.splitlines() if line and not line.startswith("//")]
    assert lines == ["require open pcert.encoding;"]


def test_stacks_development_export_shape():
    parsed = parse_file(corpus_path("stacks.pcert").read_text(), "stacks")
    decls = _translate_decls(check_file(parsed), None)
    text = export_lambdapi(decls, mode="development")
    assert "symbol stack : Type;" in text
    assert "symbol push :" in text
    assert "symbol pop :" in text
    assert "symbol pop_push :" in text
    # the tcc placeholder survives as an explicit symbol
    assert "symbol tcc0 :" in text
    # definitions become defined symbols
    assert "≔" in text
    # names outside Lambdapi's identifier set are escaped
    assert "{|nonempty_stack?|}" in text


def test_export_is_deterministic():
    one = export_lambdapi((), mode="signature")
    two = export_lambdapi((), mode="signature")
    assert one == two


@pytest.mark.skipif(shutil.which("lambdapi") is None, reason="lambdapi not installed")
def test_lambdapi_accepts_the_signature(tmp_path):
    pkg = tmp_path / "lambdapi.pkg"
    pkg.write_text("package_name = pcert\nroot_path = pcert\n")
    sig = tmp_path / "encoding.lp"
    sig.write_text(export_lambdapi((), mode="signature"))
    subprocess.run(["lambdapi", "check", str(sig)], check=True, cwd=tmp_path)
