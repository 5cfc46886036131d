"""The output half of the pipeline walks each distinct node once per file.

`pcert translate`, `export` and `roundtrip` hand one translation memo to
every translation of a file, `roundtrip` one inversion memo to every
inversion, and the one walk that shows both concrete syntaxes renders each
shared node once per file. The references are per-call translation and the
tree-walking printers `genutil.ref_print_file` and
`genutil.ref_development_lines`: the emitted bytes must be theirs, and the
work must grow linearly in the links of chains whose text grows
exponentially. The walkers tell a node's kind by its type, never by a
class pattern, and translating and inverting a fixed development stay
within a number of Python calls per declaration.
"""

from __future__ import annotations

import ast
import inspect

import pytest
from genutil import _ref_print_term, calls_made, doubling_chain_source, ref_development_lines, ref_print_file
from hypothesis import HealthCheck, given, settings, strategies as st
from pcert import check_file, cli, corpus_path, export, inverse, parse_file, syntax, translate
from pcert.export import LambdapiPrinter, development_lines
from pcert.syntax import (
    AssertConv,
    AssertJudgment,
    Definition,
    ParsedFile,
    SymbolDecl,
    parse_term,
    print_file,
    print_term,
)
from pcert.inverse import inverse_term
from pcert.terms import KIND, LF_KIND, LF_TYPE, PROP, TYPE_, Abs, App, Bound, Memo, Prod, Var
from pcert.translate import translate_term, translate_type
from test_cli import CORPUS_OK, shared_chain_source
from test_replay import count_calls, count_puts, termgen_development

HAND_CASES = {
    # f's binder is named after the free symbol x, which k and h use: the
    # one shared abstraction prints as \x in f and as \x' in h and k
    "hint_is_a_free_name": """#MODE pcert
symbol iota : Type;
symbol x : iota;
symbol g : iota -> iota -> iota;
definition f := \\x: iota. x;
definition h := g x ((\\x: iota. x) x);
definition k := g x (f x);
""",
    # one abstraction at one precedence, under different free names
    "hint_is_a_free_name_at_one_precedence": """#MODE pcert
symbol iota : Type;
symbol x : iota;
symbol a : iota;
symbol ap : (iota -> iota) -> iota -> iota;
definition f := ap (\\x: iota. x) a;
definition h := ap (\\x: iota. x) x;
""",
    "underscore_binders": """#MODE pcert
symbol iota : Type;
symbol a : iota;
symbol P : iota -> Prop;
symbol s : iota -> iota -> iota;
definition k := \\_: iota. \\_: iota. a;
definition i := \\_: iota. _;
symbol hP : !_: iota. P _;
definition c := \\z: iota -> iota. \\_: iota -> iota. z;
assert c (s a) : (iota -> iota) -> iota -> iota;
""",
    # one body node under binders of other names and orders
    "nested_dependent_products": """#MODE pcert
symbol iota : Type;
symbol P : iota -> Prop;
symbol R : iota -> iota -> Prop;
symbol h1 : !x: iota. !y: iota. R x y -> R y x;
symbol h2 : !y: iota. !x: iota. R x y -> R y x;
symbol h3 : !x: iota. P x -> !x': iota. R x x';
definition u := \\x: iota. \\h: P x. h;
definition w := \\y: iota. \\h: P y. h;
assert h1 : !a: iota. !b: iota. R a b -> R b a;
""",
    "lf_binders": """#MODE lf
symbol nat : Type;
symbol z : El nat;
symbol even : El nat -> Prop;
symbol ev : !_: El nat. Prf (even _);
symbol sw : !x: El nat. !y: El nat. Prf (even x) -> Prf (even y);
definition idn := \\_: El nat. _;
definition again := \\x: El nat. \\y: El nat. sw y x (ev y);
""",
}


def per_call_translation(checked) -> list:
    """`cli._translate_decls` with a fresh memo for every call."""
    ctx, out = checked.context, []
    for record in checked.decls:
        match record.decl:
            case SymbolDecl(name, ty, span):
                out.append(SymbolDecl(name, translate_type(ctx, ty), span))
            case Definition(name, body, _, span):
                out.append(Definition(name, translate_term(ctx, body), translate_type(ctx, record.inferred), span))
            case AssertJudgment(subject, ty, span):
                out.append(AssertJudgment(translate_term(ctx, subject), translate_type(ctx, ty), span))
            case AssertConv(a, b, span):
                out.append(AssertConv(translate_term(ctx, a), translate_term(ctx, b), span))
    return out


def assert_same_bytes(text: str, name: str) -> None:
    """Printing and exporting the parsed file, and for a pcert file its
    translation, give the bytes of the references."""
    parsed = parse_file(text, name)
    checked = check_file(parsed, 0)
    assert print_file(parsed) == ref_print_file(parsed), name
    if parsed.mode == "lf":
        assert development_lines(parsed.decls) == ref_development_lines(parsed.decls), name
        return
    shared = cli._translate_decls(checked)
    fresh = per_call_translation(checked)
    assert shared == fresh, name
    assert print_file(ParsedFile("lf", tuple(shared))) == ref_print_file(ParsedFile("lf", tuple(fresh))), name
    assert development_lines(shared) == ref_development_lines(fresh), name


SOURCES = {name: corpus_path(name).read_text(encoding="utf-8") for name in CORPUS_OK}
SOURCES.update(HAND_CASES)
SOURCES["doubling8"] = doubling_chain_source(8)
SOURCES["uv5"] = "#MODE pcert\n" + shared_chain_source(5)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_printers_and_translation_emit_the_bytes_of_the_references(name):
    assert_same_bytes(SOURCES[name], name)


def test_a_shared_binder_prints_with_the_names_of_each_declaration():
    parsed = parse_file(HAND_CASES["hint_is_a_free_name"])
    f, h, k = parsed.decls[3:]
    assert h.body.arg.fun is f.body  # one interned abstraction
    lines = print_file(parsed).splitlines()
    assert lines[4:] == [
        "definition f := \\x: iota. x;",
        "definition h := g x ((\\x': iota. x') x);",
        "definition k := g x (f x);",
    ]
    checked = check_file(parsed, 0)
    assert checked.decls[5].decl.body.arg.fun is f.body  # f expanded into k
    assert print_file(ParsedFile("lf", tuple(cli._translate_decls(checked)))).splitlines()[6] == (
        "definition k : El(iota) := g x ((\\x': El(iota). x') x);"
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), count=st.integers(2, 8))
def test_printers_and_translation_emit_the_bytes_of_the_references_on_generated_developments(seed, count):
    assert_same_bytes(termgen_development(seed, count), f"gen{seed}")


def test_an_open_codomain_prints_as_the_reference_prints_it():
    # under an arrow, an index that points past the term prints as it
    # would once the arrow's unused binder were dropped
    for body in (App(Bound(1), Bound(3)), Abs("x", Bound(2), App(Bound(0), Bound(4)))):
        for t in (Prod("_", Var("a"), body), Prod("y", Var("a"), Prod("_", Bound(0), body))):
            assert print_term(t) == _ref_print_term(t)


def test_an_open_term_exports_as_the_reference_exports_it():
    # the reference opens each named binder, which shifts a dangling index
    # down by one, and renders an arrow's codomain as it stands
    bodies = (App(Bound(0), Bound(3)), App(Bound(1), Bound(3)), Abs("x", Bound(2), App(Bound(0), Bound(4))))
    for body in bodies:
        for t in (Abs("x", Var("a"), body), Prod("y", Var("a"), body), Prod("y", Var("a"), Prod("_", Bound(0), body))):
            decls = [SymbolDecl("c", t), AssertJudgment(App(t, Bound(5)), Prod("_", t, Bound(2)))]
            assert development_lines(decls) == ref_development_lines(decls)


def test_a_parsed_sort_is_the_module_constant():
    assert parse_term("Prop") is PROP
    assert parse_term("Type") is TYPE_
    assert parse_term("Kind") is KIND
    assert parse_term("TYPE", "lf") is LF_TYPE
    assert parse_term("KIND", "lf") is LF_KIND
    assert parse_term("iota -> Prop").cod is PROP


# --- scaling guards: count the work, do not time it --------------------------------

LINKS = (10, 12, 14)


def doubling_checked(links: int):
    return check_file(parse_file(doubling_chain_source(links)), 0)


def assert_linear(counts: list[int]) -> None:
    assert counts[2] - counts[1] == counts[1] - counts[0], counts


def test_translation_of_a_doubling_chain_is_linear_in_its_links(monkeypatch):
    calls = count_puts(monkeypatch, cli)  # the translation memo of `_translate_decls`
    counts = []
    for links in LINKS:
        checked = doubling_checked(links)
        calls[0] = 0
        cli._translate_decls(checked)
        counts.append(calls[0])
    assert_linear(counts)


def rendering_calls(monkeypatch, owner, name: str, render) -> list[int]:
    calls = count_calls(monkeypatch, owner, name)
    counts = []
    for links in LINKS:
        decls = cli._translate_decls(doubling_checked(links))  # 2^links leaves in the last body
        calls[0] = 0
        render(decls)
        counts.append(calls[0])
    return counts


def test_exporting_a_doubling_chain_is_linear_in_its_links(monkeypatch):
    assert_linear(rendering_calls(monkeypatch, syntax.Printer, "show", export.export_lambdapi))


def print_lf(decls) -> str:
    return print_file(ParsedFile("lf", tuple(decls)))


def test_printing_a_doubling_chain_is_linear_in_its_links(monkeypatch):
    assert_linear(rendering_calls(monkeypatch, syntax.Printer, "show", print_lf))


def test_roundtrip_inverts_a_shared_chain_in_work_linear_in_its_links(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, inverse, "_term")
    counts = []
    for links in LINKS:
        src = tmp_path / f"uv{links}.pcert"
        src.write_text(shared_chain_source(links))
        calls[0] = 0
        assert cli.main(["roundtrip", str(src), "--fuel", "0"]) == 0
        counts.append(calls[0])
    assert_linear(counts)


# --- per-node cost: dispatch by type, leaves first --------------------------------

TERM_CLASSES = {"Sort", "Var", "Bound", "App", "Abs", "Prod", "SymApp"}

# The per-node walkers of the output half, by module (a method as Class.name):
# both concrete syntaxes are shown by one walk, and Lambdapi's naming rule
# walks the node a binder binds in.
WALKERS = {
    translate: ("_term", "_sort", "_type"),
    inverse: ("_term", "_type"),
    syntax: ("Printer.show",),
    export: ("LambdapiPrinter.name",),
}


def functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
    return out


@pytest.mark.parametrize("module", list(WALKERS), ids=lambda m: m.__name__)
def test_the_output_walkers_dispatch_by_type_not_by_class_patterns(module):
    # a `match` on class patterns costs several times a `type(t) is` test
    # per node; no function of the output half's modules may use one on terms
    tree = ast.parse(inspect.getsource(module))
    defs = functions(tree)
    assert set(WALKERS[module]) <= set(defs)
    patterns = {ast.unparse(n.cls) for n in ast.walk(tree) if isinstance(n, ast.MatchClass)}
    assert not patterns & TERM_CLASSES


# Most Python calls per declaration of one fixed generated development
# (39 declarations, 20 definitions): translating every declaration as
# `translate` and `export` do (41.6 with class-pattern dispatch, two memo
# entries put per node and a sort test by `==`), and inverting every
# definition body's translation as `roundtrip` does (18.3 with a path tuple
# built per node). Translation took 25.6 with a function for its memo and
# another for its rules, and translation and inversion 22.9 and 12.5 before
# each encoded type had one `El`/`Prf` wrapper per file.
OUTPUT_FLOOR = {"translate": 21, "inverse": 13}


def output_half_work(stage: str):
    checked = check_file(parse_file(termgen_development(7, 20)), 0)
    if stage == "translate":
        return lambda: cli._translate_decls(checked), len(checked.decls)
    memo, inverses = Memo(), Memo()
    bodies = [r.decl.body for r in checked.decls if isinstance(r.decl, Definition)]
    encoded = [translate_term(checked.context, body, memo) for body in bodies]
    return lambda: [inverse_term(e, inverses) for e in encoded], len(checked.decls)


@pytest.mark.parametrize("stage", sorted(OUTPUT_FLOOR))
def test_the_output_half_costs_a_bounded_number_of_calls_per_declaration(stage):
    work, decls = output_half_work(stage)
    per_decl = calls_made(work) / decls
    assert per_decl <= OUTPUT_FLOOR[stage], per_decl


def _arrow_spine(arrows: int) -> Prod:
    """a0 -> a1 -> ... -> iota"""
    t = Var("iota")
    for i in reversed(range(arrows)):
        t = Prod("_", Var(f"a{i}"), t)
    return t


@pytest.mark.parametrize("printer", [print_term, lambda t: LambdapiPrinter().term(t)], ids=["print_term", "export"])
def test_printing_an_arrow_spine_is_linear_in_its_arrows(printer):
    # an arrow's dependence read by a walk of its codomain made both
    # printers quadratic: 3.98x the calls for twice the arrows
    spines = {n: _arrow_spine(n) for n in (200, 400)}
    calls = {n: calls_made(lambda: printer(t), builtins=True) for n, t in spines.items()}
    assert calls[400] <= 2.2 * calls[200], calls
