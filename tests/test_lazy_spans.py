"""Spans found on demand: the lexer keeps no token offsets, and a span the
parser makes finds its line, column and length only when it is read.

The reference is the parser as it was with eager offsets: `EagerParser`
reads the tokens of the reference lexer, `genutil.ref_lex`, and its spans
resolve from a list of every token's start offset and a table of the text's
newlines, both found up front.
Every declaration span and every parse error (kind, message and span) of
`parse_file` must equal the reference's.
"""

from __future__ import annotations

import gc
import re
import weakref
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from genutil import UnmemoizedParser, doubling_chain_source, ref_lex
from pcert import corpus_path, lexer, syntax
from pcert.cli import main
from pcert.diagnostics import SourceSpan, SurfaceError
from pcert.lexer import scan
from pcert.syntax import parse_file
from test_cli import CHAIN12_FUEL, shared_chain_source
from test_span_memo import REPEATED_GROUPS, as_lf, termgen_file, translation
from test_syntax import CORPUS, mutated_corpus


class EagerSource:
    """The start offset of every token and the offset of every newline,
    found when the text is scanned, as the lexer and the parser once kept
    them; a span's line is found by bisecting the newlines."""

    def __init__(self, text: str, file: str, values: list[str], starts: list[int]):
        self.file = file
        self.starts = starts
        self.lengths = [len(value) or 1 for value in values]  # eof: 1
        self.newlines = [m.start() for m in re.finditer("\n", text)]

    def offset(self, i: int) -> int:
        return self.starts[i]

    def locate(self, i: int) -> tuple[str, int, int, int]:
        start = self.starts[i]
        line = bisect_left(self.newlines, start)  # newlines before the token
        column = start - self.newlines[line - 1] if line else start + 1
        return self.file, line + 1, column, self.lengths[i]


class EagerParser(UnmemoizedParser):
    """Reads the tokens of the reference lexer, `genutil.ref_lex`."""

    @staticmethod
    def tokens(text: str, file: str, mode: str) -> tuple:
        kinds, values, starts = ref_lex(text)
        return kinds, values, {}, EagerSource(text, file, values, starts)


def outcome(parse, text: str):
    """The spans of text's declarations, or its parse error, with every
    span's fields read."""
    try:
        decls = parse(text).decls
    except SurfaceError as err:
        span = err.diagnostic.span
        return err.kind, str(err), (span.file, span.line, span.column, span.length)
    return [(d.span.file, d.span.line, d.span.column, d.span.length) for d in decls]


def same_spans(text: str) -> None:
    assert outcome(lambda t: parse_file(t, "f"), text) == outcome(lambda t: EagerParser(t, "f").parse_file(), text)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_spans_equal_the_eager_ones(name):
    same_spans(corpus_path(name).read_text())


def test_termgen_developments_and_their_translations_have_the_eager_spans():
    for seed in range(3):
        source = termgen_file(seed)
        same_spans(source)
        same_spans(translation(source))
    for source in (doubling_chain_source(6), shared_chain_source(5)):
        same_spans(translation(source))


@pytest.mark.parametrize("text", REPEATED_GROUPS.values(), ids=REPEATED_GROUPS.keys())
def test_spans_around_group_tokens_equal_the_eager_ones(text):
    same_spans(text)
    same_spans(as_lf(text))


LAYOUTS = {
    "comments": "// head\nsymbol T : Type; // after\n  // alone\n\tsymbol a : T;",
    "crlf": "symbol T : Type;\r\nsymbol a : T;\r\n\r\n  assert a : T;\r\n",
    "tabs": "\tsymbol T : Type;\n\t\tsymbol a :\tT;\tassert a : T;",
    "bad_after_group": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa) (f aaaaaaaaaaaaaaaaaaaaaaaa)\n  $;",
    "bad_after_group_on_a_line": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa)\n(f aaaaaaaaaaaaaaaaaaaaaaaa)$",
    "bad_first": "$ symbol T : Type;",
    "error_at_a_group_token": "definition d := g (f aaaaaaaaaaaaaaaaaaaaaaaa);\n (f aaaaaaaaaaaaaaaaaaaaaaaa);",
    "error_at_eof": "symbol T : Type;\n\nsymbol a :",
    "empty": "",
    "comment_only": "// nothing\n",
}


@pytest.mark.parametrize("text", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_spans_after_comments_crlf_tabs_and_bad_characters_equal_the_eager_ones(text):
    same_spans(text)
    same_spans(as_lf(text))


@settings(max_examples=200, deadline=None)
@given(mutated_corpus())
def test_mutated_corpus_fails_with_the_eager_spans(text):
    same_spans(text)


# the token alphabet, and the characters and comments around it that the
# lexer must read as the reference does
LEXER_PIECES = [
    *"abxyzAZ_(){}|,;:.!\\", ":=", "->", "#MODE", "lf", "pcert", "symbol", "Type", "TYPE", "El", "pair",
    " ", "\t", "\r", "\n", "//", "// c (\n", *"07-=#/'?", "\u00e9", "x\u00e9", "\u00e9x",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=40).map("".join))
def test_the_lexer_reads_what_the_reference_regex_reads(text):
    kinds, values, _, source = scan(text, [])
    ref_kinds, ref_values, ref_starts = ref_lex(text)
    assert (kinds, values) == (ref_kinds, ref_values)
    assert list(map(source.offset, range(len(kinds)))) == ref_starts
    same_spans(text)  # every error, "unexpected character" ones included, and every span


def test_an_error_at_a_group_token_has_its_own_span():
    text = as_lf(LAYOUTS["error_at_a_group_token"])  # only lf text is searched for repeats
    assert len(syntax._Parser.tokens(text, "f", "pcert")[2]) == 1  # the header makes the repeat a group token
    with pytest.raises(SurfaceError) as err:
        parse_file(text, "f")
    assert err.value.diagnostic.span == SourceSpan("f", 2, 2, 1)


# --- what resolving costs, and what it keeps alive --------------------------------


def test_checking_a_well_formed_file_reads_no_token_offset(monkeypatch, tmp_path):
    def never(self, i):
        raise AssertionError(f"token {i}'s offset was read")

    monkeypatch.setattr(lexer.Source, "offset", never)
    for name in CORPUS:
        if "forged" in name:
            continue  # rejected, and its diagnostic reads a span
        path = corpus_path(name)
        commands = [["check"]]
        if name.endswith(".pcert"):
            commands += [["translate", "-o", str(tmp_path / "out.lf")], ["roundtrip"]]
            commands += [["export", "-o", str(tmp_path / "out.lp")]]
        for command, *rest in commands:
            assert main([command, str(path), *rest]) == 0, (name, command)


def test_a_span_keeps_the_scanned_text_alive_but_not_the_parser(monkeypatch):
    parsers = []
    parse = syntax._Parser.parse_file

    def remembering(self):
        parsers.append(weakref.ref(self))
        return parse(self)

    monkeypatch.setattr(syntax._Parser, "parse_file", remembering)
    parsed = parse_file(translation(doubling_chain_source(4)), "f")
    assert parsers and parsers[0]() is None  # dead as parse_file returns, no collection needed
    gc.collect()
    assert parsed.decls[-1].span.line == len(parsed.decls) + 1  # the span still resolves, under "#MODE lf"


def test_a_recheck_failure_resolves_only_the_span_it_reports(monkeypatch, tmp_path, capsys):
    located = []
    locate = lexer.Source.locate

    def counting(self, i):
        located.append(self.file)
        return locate(self, i)

    monkeypatch.setattr(lexer.Source, "locate", counting)
    src = tmp_path / "chain12.pcert"
    src.write_text(shared_chain_source(12))
    fuel = CHAIN12_FUEL["translate"][0] - 1  # enough for check, not for the lf re-check
    assert main(["translate", str(src), "-o", str(tmp_path / "out.lf"), "--fuel", str(fuel)]) == 3
    assert capsys.readouterr().err.startswith(f"{src}:50:1: FuelExhausted")
    # the failing declaration is found in the reparsed file by identity:
    # none of its spans is resolved, and the source's only for the report
    assert located == [str(src)]


def test_reading_every_span_matches_each_token_at_most_once_more(monkeypatch):
    text = "symbol T : Type;\n" + "".join(f"symbol c{i} : T;\n" for i in range(300))
    parsed = parse_file(text, "f")
    tokens = len(scan(text, [])[0]) - 1  # all but eof
    chain = translation(doubling_chain_source(8))  # many segments, split at group tokens
    chain_parsed = parse_file(chain, "f")
    chain_tokens = len(scan(chain, lexer.repeated_groups(chain))[0]) - 1
    matched = [0]
    regex = lexer._TOKEN_RE

    class Counting:
        def finditer(self, *args):
            for match in regex.finditer(*args):
                matched[0] += 1
                yield match

        def match(self, *args):
            return regex.match(*args)

    monkeypatch.setattr(lexer, "_TOKEN_RE", Counting())
    assert [d.span.line for d in parsed.decls] == list(range(1, 302))
    # one segment: its offsets are found once, not once per span
    assert matched[0] == tokens
    matched[0] = 0
    assert [d.span.line for d in chain_parsed.decls] == list(range(2, len(chain_parsed.decls) + 2))
    assert matched[0] <= chain_tokens
