"""Lexer of the declaration language, and the repeated groups of a text.

The lexer is one regex scan of the text with its comments blanked to
spaces, so that every offset, line and column is the text's own. The regex,
`[A-Za-z_][A-Za-z0-9_'?]*|:=|->|\\#MODE|[^ \\t\\r\\n]`, has no group and no
skip: `findall` steps over whitespace by searching, and a character that
starts no other token is a token of one character. The kind of each token
is read off one table; an identifier is what the table lacks, and every
ASCII character that starts no token is in it as "bad". A character beyond
ASCII starts no token either, so text that is not ASCII has its tokens
beyond ASCII marked "bad" by one more pass. The scan fills two flat lists,
the kinds and values of the tokens, ending in an eof entry, which the
parser indexes. It keeps no token offsets: a span finds them only when read
(see `Source`).

Repeated groups. `repeated_groups` makes one pass left to right over the
parentheses of a text and finds the parenthesised groups whose exact text
occurred before. `scan` makes each such repeat one token of kind "group",
which names the "(" token of the repeat's first occurrence, instead of
matching its text again, when the repeat is read the way its first
occurrence is: the tokens just before the two name the same signature
symbol (the group is that symbol's arguments), or neither names one (the
group is a parenthesised term). Any other repeat is matched as ordinary
tokens. So a group token reads as its first occurrence did but for the
binder frame, on which no parse error depends, and the parser reads it from
that occurrence's tokens once per frame (see `syntax._Parser`). A text that
spells out the same expanded definitions many times, as the output of
`pcert translate` does, is read in time linear in its distinct groups
rather than its size. The parser searches only lf text (`is_lf`): that is
what `pcert translate` writes, while a pcert source names its definitions
and repeats too little for the search to pay for itself.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import islice, repeat

from .lf import LF_SIGNATURE
from .pcert import PCERT_SIGNATURE

KEYWORDS = frozenset({"symbol", "definition", "assert", "convertible", "Type", "Kind", "Prop"})

# A token is an identifier, an operator of two or more characters, or any
# one character but whitespace; `_KINDS` tells the last apart.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'?]*|:=|->|\#MODE|[^ \t\r\n]")

# The names of the signature symbols of both modes, which decide how a group
# is read (see the module docstring).
SYMBOLS = frozenset(PCERT_SIGNATURE.names()) | frozenset(LF_SIGNATURE.names())

# the kind of every token value that is not an identifier
_KINDS = {
    **dict.fromkeys(KEYWORDS, "kw"),
    ":=": "assign",
    "->": "arrow",
    "#MODE": "mode",
    **dict.fromkeys((c for c in map(chr, range(128)) if not c.isalpha() and c != "_"), "bad"),
    **dict.fromkeys("(){}|,;:.!\\", "punct"),
}
_COMMENT_RE = re.compile(r"//[^\n]*")
_NEWLINE_RE = re.compile("\n")
# a "#MODE lf" header: the text's first two tokens
_LF_HEADER = re.compile(r"[ \t\r\n]*\#MODE[ \t\r\n]*lf(?![A-Za-z0-9_'?])")
_GROUP_MIN = 24
_GROUP_DEPTH = 64


def _blank(comment: re.Match) -> str:
    return " " * len(comment[0])


def blank_comments(text: str) -> str:
    """text with each comment replaced by as many spaces; a text with no
    comment is returned as it is."""
    return _COMMENT_RE.sub(_blank, text) if "//" in text else text


def is_lf(text: str, mode: str) -> bool:
    """Whether text, with comments blanked, is read in lf mode: mode is
    "lf" or the text starts with a "#MODE lf" header."""
    return mode == "lf" or _LF_HEADER.match(text) is not None


def repeated_groups(text: str) -> list[tuple[int, int, int]]:
    """Find the parenthesised groups of text whose exact text occurred
    before, outside any other such group. Returns (start, end, first) for
    each, in the order of the text, where `first` starts the group that
    first had the same text.

    One pass goes left to right over the parentheses outside comments. At
    each "(", the groups closed so far that begin with the same `_GROUP_MIN`
    characters are tried with `str.startswith`; a repeat is skipped whole,
    so no parenthesis inside it is visited. Only groups of at least
    `_GROUP_MIN` characters, nested at most `_GROUP_DEPTH` deep, take part:
    shorter ones parse faster than they are looked up, and deeper ones would
    be tried at every level."""
    size = len(text)
    # "()" after the text: both searches find a parenthesis, and the walk
    # ends at that "("
    bare = blank_comments(text) + "()"
    find = bare.find
    closed: dict[str, list[tuple[int, int]]] = {}  # prefix -> (start, end) of the groups closed so far
    opened: list[int] = []
    repeats: list[tuple[int, int, int]] = []
    push, pop, recall = opened.append, opened.pop, closed.get
    least, deepest = _GROUP_MIN, _GROUP_DEPTH
    start, close = find("("), find(")")
    while True:
        if close < start:
            if opened:  # else an unmatched ")": parsing fails on it
                first = pop()
                if close - first >= least - 1 and len(opened) < deepest:
                    prefix = text[first:first + least]
                    seen = recall(prefix)
                    if seen is None:
                        closed[prefix] = [(first, close + 1)]
                    else:
                        seen.append((first, close + 1))
            close = find(")", close + 1)
            continue
        if start == size:
            break
        seen = closed and recall(text[start:start + least])
        if seen and len(opened) < deepest:
            for first, end in seen:
                # equal texts hold the same parentheses, so a group that
                # starts with a closed group's text is that group again; one
                # that does not close where that text would is not tried
                stop = end + start - first
                if text[stop - 1:stop] == ")" and text.startswith(text[first:end], start):
                    repeats.append((start, stop, first))
                    start = find("(", stop)
                    if close < stop:
                        close = find(")", stop)
                    break
            else:
                push(start)
                start = find("(", start + 1)
            continue
        push(start)
        start = find("(", start + 1)
    return repeats


class Source:
    """A scanned text, which finds where its tokens are only when asked.

    `text` is the scanned text with its comments blanked (see the module
    docstring), which puts every token where the text has it. `scan`
    collects token values, not offsets, a segment of the text at a time,
    and records the segment table: `heads[k]` is the index of the first
    token of segment k and `offsets[k]` an offset at or before that token,
    with no token between. Token i starts where the (i - heads[k])-th match
    of the token regex from `offsets[k]` starts, for the last segment k
    whose first token is at most i: the regex reads the text after it as
    the scan did. A group token is a segment of its own. A segment's offsets
    are found when a span in it is first read, and the text's newlines when
    the first span is, so reading every span takes time linear in the text.
    A span the parser makes holds this object and a token index
    (`diagnostics.span_at`), not the parser, and resolves itself when read,
    so a file that parses and checks computes no offset, line or column."""

    __slots__ = ("text", "file", "heads", "offsets", "count", "starts", "newlines")

    def __init__(self, text: str, file: str, heads: list[int], offsets: list[int], count: int):
        self.text = text
        self.file = file
        self.heads = heads
        self.offsets = offsets
        self.count = count  # the tokens before eof
        self.starts: dict[int, list[int]] = {}  # segment -> the offsets of its tokens
        self.newlines: list[int] | None = None

    def offset(self, i: int) -> int:
        """Where token i starts; eof starts at the end of the text."""
        if i >= self.count:
            return len(self.text)
        heads = self.heads
        k = bisect_right(heads, i) - 1
        starts = self.starts.get(k)
        if starts is None:
            size = (heads[k + 1] if k + 1 < len(heads) else self.count) - heads[k]
            matches = islice(_TOKEN_RE.finditer(self.text, self.offsets[k]), size)
            starts = self.starts[k] = list(map(re.Match.start, matches))
        return starts[i - heads[k]]

    def locate(self, i: int) -> tuple[str, int, int, int]:
        """The file, line, column and length of token i, as `SourceSpan`
        holds them; eof has length 1."""
        text = self.text
        start = self.offset(i)
        token = _TOKEN_RE.match(text, start)
        length = token.end() - start if token else 1
        if self.newlines is None:
            self.newlines = list(map(re.Match.start, _NEWLINE_RE.finditer(text)))
        line = bisect_left(self.newlines, start)  # the newlines before the token
        column = start - self.newlines[line - 1] if line else start + 1
        return self.file, line + 1, column, length


def scan(
    text: str, repeats: list[tuple[int, int, int]], file: str = "<input>"
) -> tuple[list[str], list[str], dict[int, int], Source]:
    """Kinds and values of the tokens of text, ending in eof, the group
    tokens, and the text's `Source`; a character that starts no token has
    the kind "bad". A repeat (see `repeated_groups`) read the way its first
    occurrence is (see the module docstring) is one token of kind "group"
    and value "(", and the returned dict maps its index to the index of the
    "(" token of the repeat's first occurrence: no token of the repeat is
    matched or copied.

    The values are collected by `findall` a segment at a time (see
    `Source`). Segments end at each repeat and at each first occurrence, so
    the index of a first occurrence's "(" token is known when its repeats
    are reached."""
    text = blank_comments(text)
    values: list[str] = []
    groups: dict[int, int] = {}
    heads: list[int] = []
    offsets: list[int] = []
    findall = _TOKEN_RE.findall
    # the offsets of the first occurrences, in order, and the index of the
    # token at each one passed so far
    cuts = sorted({first for _, _, first in repeats})
    cuts.append(len(text))
    firsts: dict[int, int] = {}
    c = pos = 0
    for start, end, first in repeats:
        while cuts[c] < start:
            cut = cuts[c]
            heads.append(len(values))
            offsets.append(pos)
            values += findall(text, pos, cut)
            firsts[cut] = len(values)
            pos = cut
            c += 1
        heads.append(len(values))
        offsets.append(pos)
        values += findall(text, pos, start)
        j = firsts[first]
        # the tokens just before the first occurrence and before the repeat
        was, now = values[j - 1] if j else None, values[-1]
        if was != now and (was in SYMBOLS or now in SYMBOLS):
            pos = start
            continue
        groups[len(values)] = j
        heads.append(len(values))
        offsets.append(start)
        values.append("(")
        pos = end
    heads.append(len(values))
    offsets.append(pos)
    values += findall(text, pos)
    kinds = list(map(_KINDS.get, values, repeat("id")))
    if not text.isascii():
        # a character beyond ASCII is a token of its own, which no
        # identifier holds
        kinds = [kind if value.isascii() else "bad" for kind, value in zip(kinds, values)]
    for i in groups:
        kinds[i] = "group"
    source = Source(text, file, heads, offsets, len(values))
    kinds.append("eof")
    values.append("")
    return kinds, values, groups, source
