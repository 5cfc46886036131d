"""The parser's span memo: a repeated group is read once per binder frame.

Every test compares the memoizing parser with `genutil.UnmemoizedParser`,
the same interning parser without group tokens or the memo: the
declarations, their spans, the pattern of shared objects and every surface
error must be the same. The parser searches only lf text for repeats, so
each case is read as written and under a "#MODE lf" header (`as_lf`).
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    BASE_SURFACE,
    TermGen,
    calls_made,
    doubling_chain_source,
    parse_file_fresh,
    parse_file_unmemoized,
    parse_term_fresh,
    ref_lex,
)
from pcert import check_file, corpus_path
from pcert import lexer, syntax
from pcert.cli import _translate_decls, main
from pcert.diagnostics import SurfaceError
from pcert.lexer import repeated_groups, scan
from pcert.syntax import ParsedFile, parse_file, parse_term, print_file, print_term
from pcert.terms import Abs, App, Prod, SymApp, Var
from test_cli import fuzz_input, shared_chain_source
from test_syntax import CORPUS, mutated_corpus


def _children(t):
    cls = type(t)
    if cls is App:
        return (t.fun, t.arg)
    if cls is Abs or cls is Prod:
        return (t.annot, t.body) if cls is Abs else (t.dom, t.cod)
    if cls is SymApp:
        return t.args
    return ()


def _terms(parsed: ParsedFile) -> list:
    out = []
    for decl in parsed.decls:
        out += [getattr(decl, field) for field in decl.__match_args__ if field not in ("name", "span")]
    return [t for t in out if t is not None]


def names_by_walk(parsed: ParsedFile) -> frozenset[str]:
    """The free identifiers and signature symbols of parsed's terms, found by
    walking each distinct node."""
    out, seen, todo = set(), set(), _terms(parsed)
    while todo:
        t = todo.pop()
        if type(t) is Var:
            out.add(t.name)
        elif id(t) not in seen:
            seen.add(id(t))
            if type(t) is SymApp:
                out.add(t.sym)
            todo += _children(t)
    return frozenset(out)


def assert_same_sharing(a: ParsedFile, b: ParsedFile) -> None:
    """The objects of a and b correspond one to one: two positions hold the
    same object in a exactly when they hold the same object in b."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    todo = list(zip(_terms(a), _terms(b)))
    keep = []  # hold every visited node, so no id is reused during the walk
    while todo:
        x, y = todo.pop()
        keep.append((x, y))
        if forward.setdefault(id(x), id(y)) != id(y) or backward.setdefault(id(y), id(x)) != id(x):
            raise AssertionError(f"sharing differs at {x!r}")
        todo += zip(_children(x), _children(y))


def token_starts(kinds, source) -> list[int]:
    """The offset of every token of a scan, found a segment of the
    source's segment table at a time."""
    out = []
    ends = [*source.heads[1:], len(kinds) - 1]
    for head, offset, end in zip(source.heads, source.offsets, ends):
        out += [m.start() for m in islice(lexer._TOKEN_RE.finditer(source.text, offset), end - head)]
    return out + [len(source.text)]


def expanded(kinds, values, starts, groups):
    """The token lists with each group token replaced by the tokens of the
    first occurrence it names (themselves expanded), moved to its offset."""
    out = []

    def copy(lo: int, hi: int, shift: int) -> None:
        for i in range(lo, hi):
            first = groups.get(i)
            if first is None:
                out.append((kinds[i], values[i], starts[i] + shift))
                continue
            assert (kinds[i], values[i], kinds[first], values[first]) == ("group", "(", "punct", "(")
            assert starts[first] < starts[i]
            end, depth = first, 0
            while True:  # a group token inside is a whole group
                depth += (values[end], kinds[end]) == ("(", "punct")
                depth -= values[end] == ")"
                end += 1
                if not depth:
                    break
            copy(first, end, shift + starts[i] - starts[first])

    copy(0, len(kinds), 0)
    return [list(column) for column in zip(*out)]


def same_parse(text: str) -> None:
    """The memoizing parser reads text as the unmemoizing one does."""
    plain_kinds, plain_values, groups, _ = scan(text, [])
    assert groups == {}
    starts = ref_lex(text)[2]  # every token start, as the lexer once kept them
    kinds, values, groups, source = scan(text, repeated_groups(text))
    assert expanded(kinds, values, token_starts(kinds, source), groups) == [plain_kinds, plain_values, starts]
    try:
        expected = parse_file_unmemoized(text, "f")
    except SurfaceError as err:
        with pytest.raises(SurfaceError) as got:
            parse_file(text, "f")
        assert (got.value.kind, str(got.value), got.value.diagnostic.span) == (
            err.kind, str(err), err.diagnostic.span)
        return
    got = parse_file(text, "f")
    assert got == expected
    assert repr(got) == repr(expected)  # hints are not compared by ==
    assert [d.span for d in got.decls] == [d.span for d in expected.decls]
    assert_same_sharing(got, expected)
    # == leaves the names out: the intern table of either parse names just
    # what its terms hold, a recalled group's included
    assert got.mentioned == expected.mentioned == names_by_walk(got)


def as_lf(text: str) -> str:
    """text under a "#MODE lf" header on its first line, so that no line
    number changes."""
    return "#MODE lf " + text


def translation(source: str) -> str:
    checked = check_file(parse_file(source, "src.pcert"))
    return print_file(ParsedFile("lf", tuple(_translate_decls(checked)), "src.pcert"))


def termgen_file(seed: int) -> str:
    gen = TermGen(seed)
    lines = [BASE_SURFACE]
    for i in range(6):
        t, goal = gen.some_term(5)
        lines.append(f"definition d{i} : {print_term(goal)} := {print_term(t)};")
        lines.append(f"assert {print_term(t)} : {print_term(goal)};")
    return "\n".join(lines)


@pytest.mark.parametrize("name", CORPUS)
def test_the_corpus_parses_as_without_the_memo(name):
    same_parse(corpus_path(name).read_text())


@pytest.mark.parametrize("source", [
    shared_chain_source(4), shared_chain_source(9), doubling_chain_source(6), doubling_chain_source(10),
], ids=["uv4", "uv9", "doubling6", "doubling10"])
def test_translations_parse_as_without_the_memo(source):
    same_parse(source)
    same_parse(translation(source))


def test_a_termgen_translation_parses_as_without_the_memo():
    for seed in range(3):
        source = termgen_file(seed)
        same_parse(source)
        same_parse(translation(source))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_files_parse_as_without_the_memo(seed):
    same_parse(termgen_file(seed))


@settings(max_examples=200, deadline=None)
@given(mutated_corpus())
def test_mutated_corpus_parses_or_fails_as_without_the_memo(text):
    same_parse(text)


REPEATED_GROUPS = {
    # the same text under different binder frames resolves differently
    "frames": "symbol g : T -> T -> T -> T;\n"
              "definition d := \\x: T. \\y: T. g (g x y (g x y aaaaaaaaaaaaaaaaaa))"
              " ((\\z: T. g x y (g x y aaaaaaaaaaaaaaaaaa)) (g x y (g x y aaaaaaaaaaaaaaaaaa))) y;",
    # an arrow is a frame of its own
    "arrows": "symbol s : (T -> P (f aaaaaaaaaaaaaaaaaaaaaaaa)) -> P (f aaaaaaaaaaaaaaaaaaaaaaaa);",
    # a call and a plain group with the same parenthesised text
    "calls": "#MODE lf\nsymbol c : El(arrd(iota, \\_: El(iota). iota));\n"
             "definition d := c (arrd(iota, \\_: El(iota). iota));",
    # the arguments of the same symbol, read again in a new frame
    "same_callee": "#MODE lf\nsymbol c : El(arrd(iota, \\_: El(iota). iota));\n"
                   "definition d := \\x: El(iota). El(arrd(iota, \\_: El(iota). iota));",
    # parentheses inside comments, and comments inside repeated groups
    "comments": "definition d := g (f a // ) ( unmatched\n b) (f a // ) ( unmatched\n b) // (\n;"
                "\nassert (f a // ) ( unmatched\n b) : T;",
    "comments_in_long_groups": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa // ) (\n b) (f aaaaaaaaaaaaaaaaaaaaaaaa // ) (\n b);"
                               "\nassert (f aaaaaaaaaaaaaaaaaaaaaaaa // ) (\n b) : T;",
    "comment_text_differs": "definition d := g (f aaaaaaaaaaaaaaaaaaaa // one\n b) (f aaaaaaaaaaaaaaaaaaaa // two\n b);",
    # nested repeats, and repeats deeper than the hashed depth
    "deep": "definition d := " + "f (" * 90 + "g aaaaaaaaaaaaaaaaaaaaaaaa" + ")" * 90 + ";\n"
            "definition e := " + "f (" * 90 + "g aaaaaaaaaaaaaaaaaaaaaaaa" + ")" * 90 + ";",
    # a repeated group after an error, and one whose first parse fails
    "error_after": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa) ;; (f aaaaaaaaaaaaaaaaaaaaaaaa);",
    "error_inside": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa :) (f aaaaaaaaaaaaaaaaaaaaaaaa :);",
    "arity_inside": "definition d := g (pair(aaaaaaaaaaaaaaaaaaaaaaaa)) (pair(aaaaaaaaaaaaaaaaaaaaaaaa));",
    "bad_character": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa) (f aaaaaaaaaaaaaaaaaaaaaaaa) $;",
    "bad_in_group": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaa$) (f aaaaaaaaaaaaaaaaaaaaaaa$);",
    "unbalanced": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa) (f aaaaaaaaaaaaaaaaaaaaaaaa)) (;",
    "unclosed": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa) ((f aaaaaaaaaaaaaaaaaaaaaaaa);",
}

# a first occurrence read as a plain group and its repeat as a call's
# arguments, or the reverse, where only the repeat fails to parse: the
# lexer matches the repeat's own tokens, where the error is found
CROSSED_GROUPS = {
    "plain_then_call": "definition d := g (aaaaaaaaaaaaaaaaaaaaaaaa b);\n"
                       "assert psub(aaaaaaaaaaaaaaaaaaaaaaaa b) : T;",
    "call_then_plain": "definition d := psub(aaaaaaaaaaaaaaaaaaaaaaaa, b);\n"
                       "assert g (aaaaaaaaaaaaaaaaaaaaaaaa, b) : T;",
    # the failing repeat holds a repeat of its own, which hits
    "nested": "definition d := psub(aaaaaaaaaaaaaaaaaaaaaaaa, b);\n"
              "definition e := g (psub(aaaaaaaaaaaaaaaaaaaaaaaa, b) c);\n"
              "assert psub(psub(aaaaaaaaaaaaaaaaaaaaaaaa, b) c) : T;",
}
REPEATED_GROUPS.update(CROSSED_GROUPS)


@pytest.mark.parametrize("text", REPEATED_GROUPS.values(), ids=REPEATED_GROUPS.keys())
def test_repeated_groups_parse_as_without_the_memo(text):
    same_parse(text)
    same_parse(as_lf(text))


PCERT_GROUPS = {name: text for name, text in REPEATED_GROUPS.items() if not text.startswith("#MODE lf")}


@pytest.mark.parametrize("text", [*PCERT_GROUPS.values(), termgen_file(0)], ids=[*PCERT_GROUPS.keys(), "termgen"])
def test_pcert_text_is_read_without_group_tokens(text):
    # a pcert source names its definitions, so the parser reads its repeats
    # as written; under a "#MODE lf" header, or as an lf term, it reads them
    # as group tokens
    def groups(text: str) -> dict[int, int]:  # what the parser searches is the text with comments blanked
        bare = lexer.blank_comments(text)
        return scan(bare, repeated_groups(bare))[2]

    tokens = syntax._Parser.tokens
    assert repeated_groups(lexer.blank_comments(text))
    assert tokens(text, "f", "pcert")[2] == {}
    assert tokens(text, "<term>", "lf")[2] == groups(text)
    assert tokens(as_lf(text), "f", "pcert")[2] == groups(as_lf(text))
    same_parse(text)


@pytest.mark.parametrize("text", CROSSED_GROUPS.values(), ids=CROSSED_GROUPS.keys())
def test_a_repeat_read_otherwise_than_its_first_occurrence_is_no_group_token(text):
    repeats = repeated_groups(text)
    kinds, _, groups, source = scan(text, repeats)
    crossed = repeats[-1][0]  # the repeat on the last line
    assert kinds[token_starts(kinds, source).index(crossed)] == "punct"
    assert len(groups) == len(repeats) - 1  # the nested case keeps its other repeat


@pytest.mark.parametrize("text", CROSSED_GROUPS.values(), ids=CROSSED_GROUPS.keys())
def test_an_error_inside_a_group_parsed_in_place_has_the_span_as_written(text):
    for case in (text, as_lf(text)):
        with pytest.raises(SurfaceError) as err:
            parse_file(case, "f")
        assert err.value.diagnostic.span.line == text.count("\n") + 1  # in the repeat
        same_parse(case)


def _errors_raised_in_place(texts) -> int:
    """How many `SurfaceError`s `_Parser.recall` raises while texts are parsed."""
    raised = [0]
    recall = syntax._Parser.recall

    def counting(self, *args):
        try:
            return recall(self, *args)
        except SurfaceError:
            raised[0] += 1
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(syntax._Parser, "recall", counting)
        for text in texts:
            try:
                parse_file(text, "f")
            except SurfaceError:
                pass
    return raised[0]


def test_no_error_is_raised_in_a_group_parsed_in_place():
    # a repeat read as its first occurrence was parses as it did
    texts = [*REPEATED_GROUPS.values(), *random_texts()]
    assert _errors_raised_in_place([*texts, *map(as_lf, texts)]) == 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_corpus(), fuzz_input().map(lambda data: data.decode("utf-8", "replace"))))
def test_no_error_is_raised_in_a_group_parsed_in_place_in_fuzzed_text(text):
    assert _errors_raised_in_place([text, as_lf(text)]) == 0


def test_a_term_fails_in_a_group_parsed_in_place_as_written():
    for head in ("g ", ""):  # a first occurrence at token 0 has no token before it
        text = f"{head}(aaaaaaaaaaaaaaaaaaaaaaaa b)\n  psub(aaaaaaaaaaaaaaaaaaaaaaaa b)"
        errors = []
        for mode in ("pcert", "lf"):
            for parse in (parse_term, parse_term_fresh):
                with pytest.raises(SurfaceError) as err:
                    parse(text, mode)
                errors.append((err.value.kind, str(err.value), err.value.diagnostic.span))
        assert errors[0] == errors[1] and errors[2] == errors[3] and errors[0][2].line == 2, head


def test_an_error_after_a_group_parsed_in_place_is_raised_as_found():
    # the repeat is read in a new frame, from its first occurrence's tokens;
    # only lf text is searched for repeats
    group = "(f aaaaaaaaaaaaaaaaaaaaaaaa x)"
    text = f"#MODE lf definition d := \\x: T. {group};\ndefinition e := \\y: T. \\x: T. {group} ;;"
    parser = syntax._Parser(text, "f")
    with pytest.raises(SurfaceError) as err:
        parser.parse_file()
    assert len(parser.parsed) == 2 and err.value.diagnostic.span.line == 2
    same_parse(text)


def test_only_groups_within_the_depth_bound_take_part():
    # (h ...) nested k deep in one of two outer groups has k + 1 groups
    # around it, and only it occurs twice
    def nested(head: str, depth: int) -> str:
        return f"{head} (" * depth + f"{head} (h aaaaaaaaaaaaaaaaaaaaaaaa)" + ")" * depth

    bound = lexer._GROUP_DEPTH
    for first, second, repeats in ((0, bound - 2, 1), (bound - 2, 0, 1), (0, bound - 1, 0), (bound - 1, 0, 0)):
        text = f"definition d := g ({nested('p', first)}) ({nested('q', second)});"
        assert len(repeated_groups(text)) == repeats, (first, second)
        same_parse(text)


def test_only_groups_of_the_least_length_take_part():
    for size, repeats in ((lexer._GROUP_MIN, 1), (lexer._GROUP_MIN - 1, 0)):
        group = "(f " + "a" * (size - 4) + ")"
        text = f"definition d := g {group} {group};"
        assert len(group) == size and len(repeated_groups(text)) == repeats
        same_parse(text)


def test_groups_sharing_a_prefix_are_not_repeats(monkeypatch):
    # four groups alike in their first 24 characters, two of one length
    groups = ["(f aaaaaaaaaaaaaaaaaaaaaaaa b)", "(f aaaaaaaaaaaaaaaaaaaaaaaa c)", "(f aaaaaaaaaaaaaaaaaaaaaaaa b c)"]
    text = f"definition d := g {' '.join(groups)} {groups[0]};"
    assert repeated_groups(text) == [(text.rindex(groups[0]), len(text) - 1, text.index(groups[0]))]
    same_parse(text)
    # every group begins with the same one character: only the texts
    # themselves tell groups apart
    monkeypatch.setattr(lexer, "_GROUP_MIN", 1)
    for text in REPEATED_GROUPS.values():
        same_parse(text)
    same_parse(translation(shared_chain_source(3)))


def random_texts() -> list[str]:
    rng = random.Random(7)
    pieces = ["(", ")", "(f a b c d e f g h i j k)", "\\x: T.", "->", "// (\n", "g", " ", "\n", "$", "pair(",
              ",", ";", "symbol", "definition d :=", "1", "'", "-", "/"]
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 40))) for _ in range(400)]


def test_random_text_lexes_and_fails_as_without_the_memo():
    for text in random_texts():
        same_parse(text)
        same_parse(as_lf(text))


def test_a_hit_returns_the_interned_node_and_skips_the_group(monkeypatch):
    group = "(f (\\x: T. x) aaaaaaaaaaaaaaaaaaaa)"
    text = f"#MODE lf definition d := g {group} {group};\nassert {group} : T;"  # only lf text is searched
    hits, terms = [], [0]
    recall, read_term = syntax._Parser.recall, syntax._Parser.parse_term

    def counting(self):
        terms[0] += 1
        return read_term(self)

    def recording(self, i, first, callee):
        before = terms[0]
        node = recall(self, i, first, callee)
        hits.append(terms[0] == before)  # a hit parses nothing
        return node

    monkeypatch.setattr(syntax._Parser, "parse_term", counting)
    monkeypatch.setattr(syntax._Parser, "recall", recording)
    parsed = parse_file(text)
    assert hits == [True, True]  # the first occurrence is parsed and stored, its repeats hit
    hits.clear()
    parse_file(f"#MODE lf definition d := \\x: T. \\y: T. g {group} {group} {group};")
    assert hits == [True, True]  # under binders too
    body = parsed.decls[0].body
    assert body.arg is body.fun.arg is parsed.decls[1].subject
    assert_same_sharing(parsed, parse_file_unmemoized(text))
    fresh = parse_file_fresh(text).decls[0].body  # the reference bypasses the memo
    assert fresh.arg == fresh.fun.arg and fresh.arg is not fresh.fun.arg


def test_the_memo_holds_an_entry_per_group_parsed_not_per_occurrence():
    # a 12-link doubling translation spells out 2^12 leaves in thousands of
    # groups, but has few distinct groups per frame
    text = translation(doubling_chain_source(12))
    parser = syntax._Parser(text, "f")
    parser.parse_file()
    assert len(parser.parsed) < 60
    assert len(parser.shared) <= text.count("(")


def _parse_term_calls(monkeypatch, tmp_path, source: str) -> int:
    calls = [0]
    parse_term = syntax._Parser.parse_term

    def counting(self):
        calls[0] += 1
        return parse_term(self)

    monkeypatch.setattr(syntax._Parser, "parse_term", counting)
    src = tmp_path / "chain.pcert"
    src.write_text(source)
    assert main(["translate", str(src), "-o", str(tmp_path / "chain.lf"), "--fuel", "0"]) == 0
    monkeypatch.undo()
    return calls[0]


def test_reading_back_a_chain_translation_is_linear_in_links(monkeypatch, tmp_path):
    # `translate` parses the source and reads its printed translation back;
    # without the memo the calls grow quadratically (2 564/7 913/16 207/27 444)
    counts = [_parse_term_calls(monkeypatch, tmp_path, shared_chain_source(n)) for n in (8, 16, 24, 32)]
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1, counts


@pytest.mark.parametrize("source", [doubling_chain_source, shared_chain_source])
def test_the_lexer_matches_a_number_of_tokens_linear_in_links(source):
    # the other tokens of a chain translation, most of them, are copied from
    # the earlier group with the same text
    counts = []
    for links in (8, 10, 12, 14):
        text = translation(source(links))
        kinds, _, groups, _ = scan(text, repeated_groups(text))
        counts.append(len(kinds) - 1 - len(groups))  # all but eof and the group tokens
    assert len({b - a for a, b in zip(counts, counts[1:])}) == 1, counts


def test_reading_back_a_doubling_translation_is_linear_in_its_distinct_groups():
    # the text doubles per link, its distinct groups grow by a few; a lexer
    # that visits every parenthesis and hashes every group made 7 455
    # calls at 10 links and 99 959 at 14
    texts = {links: translation(doubling_chain_source(links)) for links in (10, 14)}
    calls = {links: calls_made(lambda: parse_file(text), builtins=True) for links, text in texts.items()}
    assert calls[14] < 2 * calls[10], calls
