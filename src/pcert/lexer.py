"""Lexer of the declaration language, and the repeated groups of a text.

The lexer is one regex scan of the text. It skips whitespace and comments
inside the regex, reports the first character that starts no token through a
catch-all branch, and fills three flat lists: the kinds, values and start
offsets of the tokens, ending in an eof entry, which the parser indexes.

Before scanning, `repeated_groups` makes one pass over the parentheses of the
text, outside comments, and finds the parenthesised groups whose exact text
occurred before. `scan` copies the tokens of such a group from its first
occurrence instead of matching them again, and the parser reads the group
once per binder frame (see `syntax._Parser`). So a text that spells out the
same expanded definitions many times, as the output of `pcert translate`
does, is read in time linear in its distinct groups rather than its size.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, compress, islice, repeat
from operator import itemgetter, ne

KEYWORDS = frozenset({"symbol", "definition", "assert", "convertible", "Type", "Kind", "Prop"})

# Whitespace and comments after a token. Each token match ends with them, so
# the next match starts on a token or at the end of the text.
_SKIP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"

# Group 1 is the token; a character that starts no token matches the
# catch-all instead and leaves it None.
_TOKEN_RE = re.compile(r"""(?:([A-Za-z_][A-Za-z0-9_'?]*|:=|->|[(){}|,;:.!\\]|\#MODE)|.)""" + _SKIP, re.DOTALL)
_LEADING_SKIP = re.compile(_SKIP)

# the kind of every token value that is not an identifier
_KINDS = {
    **dict.fromkeys(KEYWORDS, "kw"),
    ":=": "assign",
    "->": "arrow",
    "#MODE": "mode",
    None: "bad",
    **dict.fromkeys("(){}|,;:.!\\", "punct"),
}
_token = itemgetter(1)
_COMMENT_RE = re.compile(r"//[^\n]*")
_GROUP_MIN = 24
_GROUP_DEPTH = 64


def _blank(comment: re.Match) -> str:
    return " " * len(comment[0])


def repeated_groups(text: str) -> list[tuple[int, int, int]]:
    """Find the parenthesised groups of text whose exact text occurs again.
    Returns (start, end, first) for each later occurrence, in the order of
    the text, where `first` starts the earliest group with the same text.
    Only groups of at least `_GROUP_MIN` characters, nested at most
    `_GROUP_DEPTH` deep, take part: shorter ones parse faster than they are
    looked up, and the depth bound keeps the hashing linear in the text."""
    bare = _COMMENT_RE.sub(_blank, text) if "//" in text else text
    # one past each parenthesis outside comments
    ends = accumulate(map((1).__add__, map(len, bare.replace(")", "(").split("("))))
    opened: list[int] = []
    starts: list[int] = []
    stops: list[int] = []
    for end in islice(ends, bare.count("(") + bare.count(")")):
        if text[end - 1] == "(":
            opened.append(end - 1)
        elif opened:  # else an unmatched ")": parsing fails on it
            start = opened.pop()
            if end - start >= _GROUP_MIN and len(opened) < _GROUP_DEPTH:
                starts.append(start)
                stops.append(end)
    hashes = list(map(hash, map(text.__getitem__, map(slice, starts, stops))))
    # groups close inner first, so of equal texts, which never nest, the
    # earliest closes first and is the last one this dict is given
    firsts = list(map(dict(zip(reversed(hashes), reversed(starts))).__getitem__, hashes))
    repeats = [
        (start, end, first)
        for start, end, first in compress(zip(starts, stops, firsts), map(ne, firsts, starts))
        if text.startswith(text[start:end], first)  # not a collision of hashes
    ]
    repeats.sort()
    return repeats


def _match(text: str, pos: int, end: int, values: list[str | None], starts: list[int]) -> None:
    """Append the values and start offsets of the tokens from pos to end;
    the matches are taken a batch at a time, so few are alive at once."""
    matches = _TOKEN_RE.finditer(text, pos, end)
    while batch := list(islice(matches, 256)):
        values += map(_token, batch)
        starts += map(re.Match.start, batch)


def scan(text: str, repeats: list[tuple[int, int, int]]) -> tuple[list[str], list[str], list[int]]:
    """Kinds, values and start offsets of the tokens of text, ending in eof;
    a character that starts no token has the kind "bad" and the value None.
    The tokens of each repeated group (see `repeated_groups`) are copied
    from the group that first had its text, with their offsets moved, not
    matched again."""
    values: list[str | None] = []
    starts: list[int] = []
    pos = _LEADING_SKIP.match(text).end()
    for start, end, first in repeats:
        if start < pos:
            continue  # inside a group already copied
        _match(text, pos, start, values, starts)
        a = bisect_left(starts, first)
        b = bisect_left(starts, first + end - start, a)
        values += values[a:b]
        starts += map((start - first).__add__, starts[a:b])
        pos = _LEADING_SKIP.match(text, end).end()
    _match(text, pos, len(text), values, starts)
    kinds = list(map(_KINDS.get, values, repeat("id")))
    kinds.append("eof")
    values.append("")
    starts.append(len(text))
    return kinds, values, starts
