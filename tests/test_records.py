"""Value semantics of the slotted term and record classes, and what
`import pcert.cli` loads."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pcert
from genutil import calls_made
from pcert.checker import CheckedFile, Elaborated
from pcert.diagnostics import Diagnostic, SourceSpan
from pcert.inverse import NotInImage
from pcert.kernel import Kernel
from pcert.rewrite import OrthogonalityReport, RewriteRule
from pcert.syntax import AssertConv, AssertJudgment, Definition, ParsedFile, SymbolDecl, _SymRef
from pcert.terms import Abs, App, Bound, Prod, SigEntry, Sort, SymApp, Var

RULE_LHS = SymApp("f", (Var("x"),))
# each class with constructor arguments, one per field in order; the
# classes that accept anything get strings, so every record is hashable
SAMPLES = [
    (Sort, ("Prop",)),
    (Var, ("x",)),
    (Bound, (0,)),
    (App, (Var("f"), Var("a"))),
    (Abs, ("x", Sort("Type"), Bound(0))),
    (Prod, ("x", Sort("Type"), Sort("Prop"))),
    (SymApp, ("psub", (Var("A"), Var("P")))),
    (SigEntry, ("telescope", "result", "sort", True)),
    (SymbolDecl, ("name", "type", SourceSpan("a", 1, 1))),
    (Definition, ("name", "body", "type", SourceSpan("a", 1, 1))),
    (AssertJudgment, ("subject", "type", SourceSpan("a", 1, 1))),
    (AssertConv, ("a", "b", SourceSpan("a", 1, 1))),
    (ParsedFile, ("lf", ("decl",), "path")),
    (_SymRef, ("pair", 3)),
    (SourceSpan, ("file", 1, 2, 3)),
    (Diagnostic, ("kind", "message", "span", "context", "subject")),
    (Elaborated, ("decl", "inferred")),
    (CheckedFile, ("pcert", "context", ("decl",))),
    (RewriteRule, ("rule", RULE_LHS, Var("x"))),
    (OrthogonalityReport, (("rule",), (("r", "s", "root"),))),
    (NotInImage, (("annot",), "subterm")),
]
MUTABLE = {_SymRef, Diagnostic, CheckedFile}
DECLARATIONS = {SymbolDecl, Definition, AssertJudgment, AssertConv}
IDS = [cls.__name__ for cls, _ in SAMPLES]


def positional(obj: object, n: int) -> tuple:
    """What a class pattern with n positional sub-patterns binds."""
    cls = type(obj)
    match n, obj:
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return a, b
        case 3, cls(a, b, c):
            return a, b, c
        case 4, cls(a, b, c, d):
            return a, b, c, d
        case 5, cls(a, b, c, d, e):
            return a, b, c, d, e
        case 6, cls(a, b, c, d, e, f):
            return a, b, c, d, e, f
    raise AssertionError(f"{cls.__name__} did not match with {n} sub-patterns")


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_match_binds_the_constructor_fields_in_order(cls, args):
    obj = cls(*args)
    assert positional(obj, len(args)) == args


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_formerly_frozen_classes_reject_assignment(cls, args):
    obj = cls(*args)
    first = type(obj).__match_args__[0]
    if cls in MUTABLE:
        setattr(obj, first, "changed")
        assert getattr(obj, first) == "changed"
        return
    with pytest.raises(AttributeError):
        setattr(obj, first, "changed")
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, first) == args[0]


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_equality_and_hash_over_the_compared_fields(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if cls in DECLARATIONS:
        # the span, the last field, is left out of == and the hash
        moved = cls(*args[:-1], SourceSpan("b", 7, 9))
        assert moved == a and hash(moved) == hash(a)
        assert cls(*args[:-1]) == a
    assert a != object() and a != args


@pytest.mark.parametrize("cls, value", [(Var, "x"), (Sort, "Prop"), (Bound, 0)], ids=["Var", "Sort", "Bound"])
def test_leaf_hash_is_the_hash_of_its_one_field_tuple(cls, value):
    # composite hashes are built from the leaves', so every term hashes as before
    assert hash(cls(value)) == hash((value,))


BINDERS = [(Abs("x", Sort("Type"), Bound(0)), "annot", "dom"), (Prod("x", Sort("Type"), Sort("Prop")), "cod", "body")]


@pytest.mark.parametrize("binder, alias, slot", BINDERS, ids=["Abs", "Prod"])
def test_binders_share_one_layout_and_alias_its_slots(binder, alias, slot):
    assert getattr(binder, alias) is getattr(binder, slot)
    for name in ("dom", "body", "annot", "cod"):
        with pytest.raises(AttributeError):
            setattr(binder, name, Var("y"))
        with pytest.raises(AttributeError):
            delattr(binder, name)
    # an alias is the slot's own descriptor: reading it runs no Python code
    assert calls_made(lambda: getattr(binder, alias)) == calls_made(lambda: None)


def test_binders_keep_their_match_args():
    assert Abs.__match_args__ == ("hint", "annot", "body")
    assert Prod.__match_args__ == ("hint", "dom", "cod")


def test_repr_lists_every_field():
    span = SourceSpan("f.pcert", 2, 3)
    assert repr(span) == "SourceSpan(file='f.pcert', line=2, column=3, length=1)"
    assert repr(SymbolDecl("x", Var("T"), span)) == f"SymbolDecl(name='x', type=T, span={span!r})"


def test_rewrite_rule_validates_its_pattern():
    with pytest.raises(pcert.CheckError) as err:
        RewriteRule("bad", RULE_LHS, Var("y"))
    assert err.value.kind == "BadRule"


def test_kernel_irrelevant_defaults_to_a_fresh_empty_mapping():
    one, two = Kernel("a", {}, {}, None, None), Kernel("b", {}, {}, None, None)
    assert one.irrelevant == {} and one.irrelevant is not two.irrelevant


def test_importing_the_cli_loads_no_dataclasses_inspect_or_string():
    # each costs start-up time on every run of `pcert`; `string` is checked
    # against what the bare interpreter has loaded already
    code = ("import sys; bare = set(sys.modules); import pcert.cli; "
            "print(sorted(({'dataclasses', 'inspect'} & set(sys.modules)) | ({'string'} & (set(sys.modules) - bare))))")
    env = {**os.environ, "PYTHONPATH": str(Path(pcert.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


# Every run of `pcert` without a bytecode cache compiles each module again,
# and the peak memory of compiling the largest module is the peak of a short
# run. CPython's compiler allocates in steps that grow with the size of a
# module (1.74 MiB for `syntax.py` and 1.81 MiB for `terms.py` on CPython
# 3.11.7 before this bound), so a module that crosses one shows here first.
COMPILE_PEAK_BYTES = 2 * 2**20


@pytest.mark.parametrize("path", sorted(Path(pcert.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_each_module_compiles_within_its_memory_bound(path):
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= COMPILE_PEAK_BYTES, f"{path.name} compiles with a {peak / 2**20:.2f} MiB peak"
