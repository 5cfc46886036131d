"""Grammar, symbol resolution, printing and the parse/print round trip."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    BASE_SURFACE,
    TermGen,
    lam,
    parse_file_fresh,
    parse_file_named,
    parse_term_fresh,
    parse_term_named,
    pi,
)
from pcert import corpus_path
from pcert.diagnostics import SurfaceError
from pcert.syntax import (
    AssertConv,
    Definition,
    Printer,
    SymbolDecl,
    parse_file,
    parse_term,
    print_file,
    print_term,
)
from pcert.terms import (
    Abs,
    App,
    Bound,
    Prod,
    Sort,
    SymApp,
    Var,
    alpha_eq,
)

CORPUS = ("prelude.pcert", "stacks.pcert", "bounded_lists.pcert", "even_numbers.pcert",
          "even_pair.lf", "even_pair_forged.lf")


def test_symbol_declaration():
    parsed = parse_file("symbol T : Type;")
    assert parsed.mode == "pcert"
    assert parsed.decls == (SymbolDecl("T", Sort("Type"), parsed.decls[0].span),)


def test_bounded_lists_corpus_declares_the_expected_names():
    parsed = parse_file(corpus_path("bounded_lists.pcert").read_text(), "bounded_lists")
    names = [d.name for d in parsed.decls if isinstance(d, (SymbolDecl, Definition))]
    for expected in ("zero", "suc", "leq", "bound", "blist", "bnil", "bounded", "bcons"):
        assert expected in names
    assert any(isinstance(d, AssertConv) for d in parsed.decls)


def test_underapplied_call_form_is_an_arity_error():
    with pytest.raises(SurfaceError) as err:
        parse_file("symbol x : fst(T);")
    assert err.value.kind == "ArityMismatch"


def test_underapplied_juxtaposition_is_an_arity_error():
    with pytest.raises(SurfaceError) as err:
        parse_term("fa t", mode="lf")
    assert err.value.kind == "ArityMismatch"


def test_overapplication_wraps_in_application():
    got = parse_term("El t u", mode="lf")
    assert got == App(SymApp("El", (Var("t"),)), Var("u"))


def test_parse_binders_and_sugar():
    assert parse_term("\\x: Prop. x") == lam("x", Sort("Prop"), Var("x"))
    assert parse_term("!x: T. P x") == pi("x", Var("T"), App(Var("P"), Var("x")))
    assert parse_term("{n: nat | leq n bound}") == SymApp(
        "psub", (Var("nat"), lam("n", Var("nat"), App(App(Var("leq"), Var("n")), Var("bound"))))
    )


def test_arrow_is_right_associative_and_nondependent():
    got = parse_term("a -> b -> c")
    assert got == Prod("_", Var("a"), Prod("_", Var("b"), Var("c")))


def test_application_is_left_associative():
    assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))


def test_mode_changes_keyword_meaning():
    assert parse_term("Prop", mode="pcert") == Sort("Prop")
    assert parse_term("Prop", mode="lf") == SymApp("Prop")
    assert parse_term("TYPE", mode="lf") == Sort("TYPE")


def test_reserved_names_rejected():
    with pytest.raises(SurfaceError):
        parse_file("symbol pair : Type;")
    with pytest.raises(SurfaceError):
        parse_file("#MODE lf\nsymbol El : Type;")


def test_print_nondependent_product_uses_arrow():
    assert print_term(pi("x", Sort("Prop"), Sort("Prop"))) == "Prop -> Prop"


def test_print_dependent_product_uses_binder():
    text = print_term(pi("x", Var("T"), App(Var("P"), Var("x"))))
    assert text == "!x: T. P x"


def test_print_psub_sugar_only_for_matching_abstraction():
    sugar = SymApp("psub", (Var("T"), lam("x", Var("T"), App(Var("p"), Var("x")))))
    assert print_term(sugar) == "{x: T | p x}"
    bare = SymApp("psub", (Var("T"), Var("p")))
    assert print_term(bare) == "psub(T, p)"
    mismatched = SymApp("psub", (Var("T"), lam("x", Var("U"), App(Var("p"), Var("x")))))
    assert "psub(" in print_term(mismatched)


def test_print_renames_shadowing_binders():
    # a free y below the binder forces the binder away from the name y
    t = Abs("y", Var("T"), Var("y"))  # body's y is free, not the binder
    printed = print_term(t)
    assert printed != "\\y: T. y"
    reparsed = parse_term(printed)
    assert alpha_eq(reparsed, t)


def test_pair_call_round_trips():
    t = parse_term("pair(T, p, m, h)")
    assert t == SymApp("pair", (Var("T"), Var("p"), Var("m"), Var("h")))
    assert parse_term(print_term(t)) == t


def test_comments_and_spans():
    parsed = parse_file("// a comment\nsymbol T : Type;\n")
    assert parsed.decls[0].span.line == 2
    with pytest.raises(SurfaceError) as err:
        parse_file("symbol T :;")
    assert err.value.diagnostic.span.line == 1


def test_parse_print_parse_is_parse_on_corpus():
    for name in CORPUS:
        source = corpus_path(name).read_text()
        first = parse_file(source, name)
        printed = print_file(first)
        second = parse_file(printed, name)
        assert first.mode == second.mode
        assert len(first.decls) == len(second.decls)
        for d1, d2 in zip(first.decls, second.decls):
            assert type(d1) is type(d2)
        # byte-level stability after one printing pass
        assert print_file(second) == printed


def test_print_parse_round_trip_on_generated_terms():
    gen = TermGen(71)
    for _ in range(80):
        t, _ = gen.some_term(5)
        assert alpha_eq(parse_term(print_term(t)), t)


def test_framework_type_declaration_in_lf_mode():
    parsed = parse_file("#MODE lf\nsymbol T : TYPE;\nsymbol x : T;\n")
    assert parsed.decls[0].type == Sort("TYPE")


def test_overapplied_call_form_is_an_arity_error():
    with pytest.raises(SurfaceError) as err:
        parse_file("symbol x : psub(T, p, q);")
    assert err.value.kind == "ArityMismatch"


# Every SurfaceError path of the front end, pinned to its exact report:
# (parse_file or parse_term, source, kind, message, line, column, length).
SURFACE_ERRORS = {
    "unexpected character after a tab and a comment": (
        "file", "symbol T : Type; // note $\n\t@", "ParseError", "unexpected character '@'", 2, 2, 1),
    "unexpected character on a later line": (
        "file", "symbol T : Type;\n// a comment\nsymbol x :\tT $ ;", "ParseError",
        "unexpected character '$'", 3, 14, 1),
    "unexpected character before a syntax error": (
        "file", "symbol T Type; /", "ParseError", "unexpected character '/'", 1, 16, 1),
    "expected punctuation": ("file", "symbol T Type;", "ParseError", "expected ':', found 'Type'", 1, 10, 4),
    "expected punctuation at end of input": (
        "file", "symbol T : Type", "ParseError", "expected ';', found 'end of input'", 1, 16, 1),
    "end of input after a newline": (
        "file", "symbol T : Type;\nsymbol U : T\n", "ParseError", "expected ';', found 'end of input'", 3, 1, 1),
    "expected an identifier": ("file", "symbol : Type;", "ParseError", "expected 'id', found ':'", 1, 8, 1),
    "expected an identifier, found a keyword": (
        "file", "symbol symbol : Type;", "ParseError", "expected 'id', found 'symbol'", 1, 8, 6),
    "expected assignment": ("file", "definition d : T T;", "ParseError", "expected 'assign', found ';'", 1, 19, 1),
    "expected a term": ("file", "symbol T :;", "ParseError", "expected a term, found ';'", 1, 11, 1),
    "expected a term at end of input": (
        "file", "symbol T :", "ParseError", "expected a term, found 'end of input'", 1, 11, 1),
    "expected binder dot": ("file", "symbol T : \\x: Type x;", "ParseError", "expected '.', found ';'", 1, 22, 1),
    "expected subtype bar": ("file", "symbol T : {x : T p};", "ParseError", "expected '|', found '}'", 1, 20, 1),
    "expected a declaration": (
        "file", "symbol T : Type;\nfoo", "ParseError",
        "expected a declaration (symbol/definition/assert/convertible)", 2, 1, 3),
    "second mode line": (
        "file", "#MODE lf #MODE pcert", "ParseError",
        "expected a declaration (symbol/definition/assert/convertible)", 1, 10, 5),
    "unknown mode": (
        "file", "#MODE coq\nsymbol T : Type;", "ParseError", "unknown mode 'coq' (expected pcert or lf)", 1, 7, 3),
    "mode without a name": ("file", "#MODE\nsymbol T : Type;", "ParseError", "expected 'id', found 'symbol'", 2, 1, 6),
    "reserved pcert name": ("file", "symbol pair : Type;", "ParseError", "'pair' is a reserved symbol name", 1, 8, 4),
    "reserved lf name in an indented definition": (
        "file", "#MODE lf\n  definition El := TYPE;", "ParseError", "'El' is a reserved symbol name", 2, 14, 2),
    "underapplied call": (
        "file", "symbol x : fst(T);", "ArityMismatch", "symbol 'fst' expects 3 arguments, got 1", 1, 12, 3),
    "overapplied call": (
        "file", "symbol x : psub(T, p, q);", "ArityMismatch", "symbol 'psub' expects 2 arguments, got 3", 1, 12, 4),
    "underapplied juxtaposition": (
        "file", "#MODE lf\nsymbol x : fa t;", "ArityMismatch", "symbol 'fa' expects 2 arguments, got 1", 2, 12, 2),
    "unapplied symbol as an argument": (
        "file", "#MODE lf\nsymbol x : f fa;", "ArityMismatch", "symbol 'fa' expects 2 arguments, got 0", 2, 14, 2),
    "trailing input after a term": ("term", "a b )", "ParseError", "trailing input after term", 1, 5, 1),
    "trailing input after an arrow": ("term", "a -> b c;", "ParseError", "trailing input after term", 1, 9, 1),
    "empty term": ("term", "", "ParseError", "expected a term, found 'end of input'", 1, 1, 1),
}


@pytest.mark.parametrize("case", SURFACE_ERRORS.values(), ids=SURFACE_ERRORS.keys())
def test_surface_error_report_is_pinned(case):
    entry, source, kind, message, line, column, length = case
    with pytest.raises(SurfaceError) as err:
        parse_file(source, "in.pcert") if entry == "file" else parse_term(source)
    diagnostic = err.value.diagnostic
    span = diagnostic.span
    file = "in.pcert" if entry == "file" else "<term>"
    assert (diagnostic.kind, diagnostic.message) == (kind, message)
    assert (span.file, span.line, span.column, span.length) == (file, line, column, length)


# (line, column, length) of every declaration of every bundled corpus file;
# a declaration's span is its keyword.
CORPUS_SPANS = {
    "prelude.pcert": [(6, 1, 6), (7, 1, 6), (8, 1, 6), (10, 1, 10), (11, 1, 6)],
    "stacks.pcert": [(5, 1, 6), (6, 1, 6), (7, 1, 6), (8, 1, 6), (9, 1, 6), (11, 1, 10), (12, 1, 10),
                     (13, 1, 10), (15, 1, 6), (16, 1, 6), (18, 1, 6), (22, 1, 6), (25, 1, 6), (31, 1, 6)],
    "bounded_lists.pcert": [(6, 1, 6), (7, 1, 6), (8, 1, 6), (9, 1, 6), (10, 1, 6), (11, 1, 6), (12, 1, 6),
                            (13, 1, 10), (14, 1, 6), (17, 1, 6), (18, 1, 6), (20, 1, 10), (21, 1, 10),
                            (22, 1, 10), (23, 1, 10), (25, 1, 6), (26, 1, 6), (27, 1, 11), (28, 1, 11)],
    "even_numbers.pcert": [(6, 1, 6), (7, 1, 6), (8, 1, 6), (9, 1, 6), (11, 1, 10), (12, 1, 6), (13, 1, 6),
                           (15, 1, 10), (16, 1, 10), (17, 1, 10), (19, 1, 6), (20, 1, 6), (21, 1, 11),
                           (22, 1, 11), (23, 1, 11)],
    "even_pair.lf": [(6, 1, 6), (7, 1, 6), (8, 1, 6), (9, 1, 6), (11, 1, 10), (12, 1, 6), (13, 1, 11)],
    "even_pair_forged.lf": [(6, 1, 6), (7, 1, 6), (8, 1, 6), (10, 1, 10)],
}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_declaration_spans_are_pinned(name):
    parsed = parse_file(corpus_path(name).read_text(), name)
    assert {d.span.file for d in parsed.decls} == {name}
    assert [(d.span.line, d.span.column, d.span.length) for d in parsed.decls] == CORPUS_SPANS[name]


def test_declaration_spans_after_tabs_comments_and_on_shared_lines():
    source = (
        "symbol A : Type; symbol B : A;\n"
        "\t  definition c := B; // x assert c : A;\n"
        "// y\n"
        "\r\n"
        "   assert c : A;convertible c, c;\n"
    )
    spans = [d.span for d in parse_file(source, "f").decls]
    assert [(s.line, s.column, s.length) for s in spans] == [
        (1, 1, 6), (1, 18, 6), (2, 4, 10), (5, 4, 6), (5, 17, 11)]


def test_deep_nesting_still_parses():
    depth = 200
    nested = parse_file("definition d := " + "f (" * depth + "a" + ")" * depth + ";").decls[0].body
    for _ in range(depth):
        assert nested.fun == Var("f")
        nested = nested.arg
    assert nested == Var("a")
    arrows = parse_file("symbol s : " + " -> ".join(["iota"] * (depth + 1)) + ";").decls[0].type
    for _ in range(depth):
        assert arrows.dom == Var("iota")
        arrows = arrows.cod
    assert arrows == Var("iota")


# A token of the surface language, for mutating source text independently of
# the lexer under test.
_FUZZ_TOKEN = re.compile(r"//[^\n]*|[A-Za-z_][A-Za-z0-9_'?]*|:=|->|#MODE|\S")


@st.composite
def mutated_corpus(draw) -> str:
    text = corpus_path(draw(st.sampled_from(CORPUS))).read_text()
    for _ in range(draw(st.integers(1, 3))):
        spans = [m.span() for m in _FUZZ_TOKEN.finditer(text)]
        start, end = draw(st.sampled_from(spans))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "insert")))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + " " + text[start:end] + text[end:]
        elif op == "swap":
            other_start, other_end = draw(st.sampled_from(spans))
            (a, b), (c, d) = sorted([(start, end), (other_start, other_end)])
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        else:
            noise = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=4))
            text = text[:start] + noise + text[start:]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_corpus())
def test_mutated_corpus_parses_or_raises_a_surface_error(text):
    try:
        parse_file(text, "fuzz")
    except SurfaceError:
        pass


# --- binder names resolved while parsing ------------------------------------------


def same_parse(parse, parse_named, text: str, *args):
    """The scope-resolving parser gives the terms, binder hints included, or
    the error that closing each binder with lam/pi afterwards gives."""
    try:
        expected = parse_named(text, *args)
    except SurfaceError as err:
        with pytest.raises(SurfaceError) as got:
            parse(text, *args)
        assert (got.value.kind, str(got.value)) == (err.kind, str(err))
        return
    got = parse(text, *args)
    assert got == expected
    assert repr(got) == repr(expected)  # hints are not compared by ==


SCOPE_CASES = (
    "\\x: T. T -> P x",
    "\\x: T. \\x: T. x",
    "\\x: T. \\y: T. x -> y -> x",
    "!x: T. (T -> P x) -> !y: P x. Q x y",
    "{n: nat | leq n b}",
    "\\n: nat. {m: {k: nat | leq k n} | leq m n}",
    "\\x: {x: T | p x}. x",
    "(T -> T) -> \\z: T. z",
    "\\f: T -> T. \\x: T. f (f x)",
    "!x: T. x -> !x: P x. x",
    "\\fst: T. fst",
    "\\a: T. fst(a, b, c) a",
)


@pytest.mark.parametrize("text", SCOPE_CASES)
def test_scoped_parse_matches_closing_binders_afterwards(text):
    same_parse(parse_term, parse_term_named, text)


def test_scoped_parse_leaves_framework_sorts_and_symbols_unresolved():
    for text in ("\\TYPE: TYPE. TYPE", "\\El: TYPE. El Prop", "\\x: TYPE. x -> KIND"):
        same_parse(parse_term, parse_term_named, text, "lf")
    assert parse_term("\\TYPE: TYPE. TYPE", "lf") == Abs("TYPE", Sort("TYPE"), Sort("TYPE"))
    assert parse_term("\\x: T. T -> P x") == Abs("x", Var("T"), Prod("_", Var("T"), App(Var("P"), Bound(1))))


def test_scoped_parse_matches_closing_binders_afterwards_on_the_corpus():
    for name in CORPUS:
        same_parse(parse_file, parse_file_named, corpus_path(name).read_text(), name)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scoped_parse_matches_closing_binders_afterwards_on_generated_files(seed):
    gen = TermGen(seed)
    lines = [BASE_SURFACE]
    for i in range(6):
        t, goal = gen.some_term(5)
        lines.append(f"definition d{i} : {print_term(goal)} := {print_term(t)};")
        lines.append(f"assert {print_term(t)} : {print_term(goal)};")
    same_parse(parse_file, parse_file_named, "\n".join(lines), "gen")


# --- interning: one object per distinct node of a parse ------------------------------


def test_interned_parse_prints_what_building_every_node_anew_prints():
    for name in CORPUS:
        text = corpus_path(name).read_text()
        got, fresh = parse_file(text, name), parse_file_fresh(text, name)
        assert got == fresh
        assert print_file(got) == print_file(fresh)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_interned_parse_prints_the_same_on_generated_files(seed):
    gen = TermGen(seed)
    lines = [BASE_SURFACE]
    for i in range(6):
        t, goal = gen.some_term(5)
        lines.append(f"definition d{i} : {print_term(goal)} := {print_term(t)};")
        lines.append(f"assert {print_term(t)} : {print_term(goal)};")
    text = "\n".join(lines)
    got, fresh = parse_file(text, "gen"), parse_file_fresh(text, "gen")
    assert got == fresh
    assert print_file(got) == print_file(fresh)


def test_repeated_text_is_one_object():
    parsed = parse_file("definition d := g (f (\\x: T. x)) (f (\\x: T. x));\nassert f (\\x: T. x) : T;")
    body = parsed.decls[0].body
    assert body.fun.arg is body.arg
    assert parsed.decls[1].subject is body.arg


def test_alpha_equal_binders_with_different_names_stay_distinct():
    parsed = parse_file("definition d := g (\\x: T. x) (\\y: T. y);\nsymbol s : !x: T. P x -> !y: T. P y;")
    body = parsed.decls[0].body
    assert body.fun.arg == body.arg and body.fun.arg is not body.arg
    assert print_term(body) == "g (\\x: T. x) (\\y: T. y)"
    # `P x` and `P y` are one node, App(P, ^0), printed under each binder's name
    ty = parsed.decls[1].type
    assert ty.cod.dom is ty.cod.cod.cod
    assert Printer().decl(parsed.decls[1]) == "symbol s : !x: T. P x -> !y: T. P y;"


@pytest.mark.parametrize("case", SURFACE_ERRORS.values(), ids=SURFACE_ERRORS.keys())
def test_interning_leaves_surface_errors_as_they_were(case):
    entry, source = case[:2]
    reports = []
    for parse in ((parse_file, parse_file_fresh) if entry == "file" else (parse_term, parse_term_fresh)):
        with pytest.raises(SurfaceError) as err:
            parse(source)
        reports.append((err.value.kind, str(err.value), err.value.diagnostic.span))
    assert reports[0] == reports[1]
