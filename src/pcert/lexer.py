"""Lexer of the declaration language, and the repeated groups of a text.

The lexer is one regex scan of the text. It skips whitespace and comments
inside the regex, reports the first character that starts no token through a
catch-all branch, and fills three flat lists: the kinds, values and start
offsets of the tokens, ending in an eof entry, which the parser indexes.

Before scanning, `repeated_groups` makes one pass left to right over the
parentheses of the text, outside comments, and finds the parenthesised
groups whose exact text occurred before: at each "(", it tries the groups
closed so far that begin with the same characters, and jumps past a
repeat, so no parenthesis inside a repeat is visited. `scan` then makes
each repeat one token of kind "group", which names the "(" token of the
repeat's first occurrence, instead of matching its text again, and the
parser reads a group token from that occurrence's tokens once per binder
frame (see `syntax._Parser`). So a text that spells out the same expanded
definitions many times, as the output of `pcert translate` does, is read
in time linear in its distinct groups rather than its size.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice, repeat
from operator import itemgetter

from .lf import LF_SIGNATURE
from .pcert import PCERT_SIGNATURE

KEYWORDS = frozenset({"symbol", "definition", "assert", "convertible", "Type", "Kind", "Prop"})

# Whitespace and comments after a token. Each token match ends with them, so
# the next match starts on a token or at the end of the text.
_SKIP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"

# Group 1 is the token; a character that starts no token matches the
# catch-all instead and leaves it None.
_TOKEN_RE = re.compile(r"""(?:([A-Za-z_][A-Za-z0-9_'?]*|:=|->|[(){}|,;:.!\\]|\#MODE)|.)""" + _SKIP, re.DOTALL)
_LEADING_SKIP = re.compile(_SKIP)

# The names of the signature symbols of both modes: a group right after a
# symbol of the mode is read as its arguments, and after any other token as
# a parenthesised term (see `scan`).
SYMBOLS = frozenset(PCERT_SIGNATURE.names()) | frozenset(LF_SIGNATURE.names())

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
    """Find the parenthesised groups of text whose exact text occurred
    before, outside any other such group. Returns (start, end, first) for
    each, in the order of the text, where `first` starts the group that
    first had the same text.

    One pass goes left to right over the parentheses outside comments,
    each found by `str.find` from the one before. At each "(", the groups
    closed so far that begin with the same `_GROUP_MIN` characters are
    tried with `str.startswith`; a group that matches one of them is a
    repeat, and the search goes on from its end, so no parenthesis inside
    a repeat is found and no text is hashed but those prefixes. Only groups
    of at least `_GROUP_MIN` characters, nested at most `_GROUP_DEPTH`
    deep, take part: shorter ones parse faster than they are looked up,
    and deeper ones would be tried at every level."""
    size = len(text)
    # "()" after the text: both searches find a parenthesis, and the walk
    # ends at that "("
    bare = (_COMMENT_RE.sub(_blank, text) if "//" in text else text) + "()"
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


def _match(text: str, pos: int, end: int, values: list[str | None], starts: list[int]) -> None:
    """Append the values and start offsets of the tokens from pos to end;
    the matches are taken a batch at a time, so few are alive at once."""
    matches = _TOKEN_RE.finditer(text, pos, end)
    while batch := list(islice(matches, 256)):
        values += map(_token, batch)
        starts += map(re.Match.start, batch)


def scan(
    text: str, repeats: list[tuple[int, int, int]]
) -> tuple[list[str], list[str], list[int], dict[int, int]]:
    """Kinds, values and start offsets of the tokens of text, ending in eof,
    and the group tokens; a character that starts no token has the kind
    "bad" and the value None. A repeat (see `repeated_groups`) is one token
    of kind "group" and value "(" at the repeat's offset, and the returned
    dict maps its index to the index of the "(" token of the repeat's first
    occurrence, whose tokens it stands for: no token of the repeat is
    matched or copied. That holds for a repeat read the way its first
    occurrence is: the tokens before the two name the same signature
    symbol, or neither names one. Any other repeat is matched as ordinary
    tokens, so a group token reads as its first occurrence did but for the
    binder frame, and no parse error depends on the frame."""
    values: list[str | None] = []
    starts: list[int] = []
    groups: dict[int, int] = {}
    pos = _LEADING_SKIP.match(text).end()
    for start, end, first in repeats:
        _match(text, pos, start, values, starts)
        j = bisect_left(starts, first)
        # the tokens just before the first occurrence and before the repeat
        was, now = values[j - 1] if j else None, values[-1]
        if was != now and (was in SYMBOLS or now in SYMBOLS):
            pos = start
            continue
        groups[len(values)] = j
        values.append("(")
        starts.append(start)
        pos = _LEADING_SKIP.match(text, end).end()
    _match(text, pos, len(text), values, starts)
    kinds = list(map(_KINDS.get, values, repeat("id")))
    for i in groups:
        kinds[i] = "group"
    kinds.append("eof")
    values.append("")
    starts.append(len(text))
    return kinds, values, starts, groups
