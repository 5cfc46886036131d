"""Parser and printer for the declaration language of both systems.

Grammar (comments run from // to end of line):

    file := mode? decl*
    mode := "#MODE" ("pcert" | "lf")
    decl := "symbol" ID ":" term ";"
          | "definition" ID (":" term)? ":=" term ";"
          | "assert" term ":" term ";"
          | "convertible" term "," term ";"
    term := "Type" | "Kind" | "Prop" | ID | term term
          | "\\" ID ":" term "." term | "!" ID ":" term "." term
          | term "->" term | "{" ID ":" term "|" term "}"
          | SYM "(" term ("," term)* ")" | "(" term ")"

Application is left-associative, "->" right-associative, binders extend
maximally to the right. The mode selects which signature's symbols are in
scope; signature symbols accept both the parenthesized call form and plain
juxtaposition, and must be fully applied either way. In pcert mode the
keywords Type/Kind/Prop are sort literals; in lf mode they name the nullary
encodings of those sorts, while TYPE and KIND denote the framework sorts.

The lexer (`lexer.scan`) fills three flat lists, the kinds, values and
start offsets of the tokens, which the parser indexes. Lines and columns
are computed only where a SourceSpan is built (for each declaration and
for an error), by bisecting the newline offsets of the text, found once
per text. Binder names are resolved to `Bound` indices as they
are parsed, so each binder is built once and its body is never walked again.

Nodes are interned for one parse: every node is built through one dict
keyed by its class, its name, index, tag or binder hint, and the ids of its
children, so text that occurs again anywhere in the file, such as an
expanded definition in the output of `pcert translate`, parses to the very
object it parsed to before, and the kernels' identity memos hit on it.
The hint is part of the key, so binders written with different names stay
distinct objects and print with their own names. The dict is plain, not
weak: it lives only as long as the parse, its values hold the children
whose ids the keys are made of, and a hit costs less than building the
node. The printer renders a node shared across the terms of a file once,
from one `terms.Memo` per file.

Text that occurs again is also read only once: the lexer copies the tokens
of a parenthesised group whose exact text occurred before
(`lexer.repeated_groups`), and the parser returns the node it parsed from
the same text in the same binder frame (see `_Parser`), so reading back a
translation that spells out an expanded definition many times takes time
in its distinct groups, not in its size.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Union

from .diagnostics import ARITY_MISMATCH, PARSE_ERROR, SourceSpan, SurfaceError
from .lexer import KEYWORDS, repeated_groups, scan
from .lf import LF_SIGNATURE
from .pcert import PCERT_SIGNATURE
from .record import Frozen, Record, set_field
from .terms import (
    KIND,
    LF_KIND,
    LF_TYPE,
    PROP,
    TYPE_,
    Abs,
    App,
    Bound,
    Memo,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    free_vars,
    ident,
    instantiate,
    is_nondependent,
)

_SIGNATURES = {"pcert": PCERT_SIGNATURE, "lf": LF_SIGNATURE}

_RESERVED_DECL_NAMES = (
    frozenset(PCERT_SIGNATURE.names()) | frozenset(LF_SIGNATURE.names()) | {"TYPE", "KIND"}
)


class SymbolDecl(Frozen):
    __slots__ = __match_args__ = ("name", "type", "span")
    _compared = ("name", "type")  # not the span

    def __init__(self, name: str, type: Term, span: SourceSpan | None = None):
        set_field(self, "name", name)
        set_field(self, "type", type)
        set_field(self, "span", span)


class Definition(Frozen):
    __slots__ = __match_args__ = ("name", "body", "type", "span")
    _compared = ("name", "body", "type")  # not the span

    def __init__(self, name: str, body: Term, type: Term | None = None, span: SourceSpan | None = None):
        set_field(self, "name", name)
        set_field(self, "body", body)
        set_field(self, "type", type)
        set_field(self, "span", span)


class AssertJudgment(Frozen):
    __slots__ = __match_args__ = ("subject", "type", "span")
    _compared = ("subject", "type")  # not the span

    def __init__(self, subject: Term, type: Term, span: SourceSpan | None = None):
        set_field(self, "subject", subject)
        set_field(self, "type", type)
        set_field(self, "span", span)


class AssertConv(Frozen):
    __slots__ = __match_args__ = ("a", "b", "span")
    _compared = ("a", "b")  # not the span

    def __init__(self, a: Term, b: Term, span: SourceSpan | None = None):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "span", span)


Declaration = Union[SymbolDecl, Definition, AssertJudgment, AssertConv]


class ParsedFile(Frozen):
    __slots__ = __match_args__ = ("mode", "decls", "path")

    def __init__(self, mode: str, decls: tuple[Declaration, ...], path: str = "<input>"):
        set_field(self, "mode", mode)
        set_field(self, "decls", decls)
        set_field(self, "path", path)


# --- parser ------------------------------------------------------------------

_NEWLINE = re.compile("\n")


class _SymRef(Record):
    """A signature symbol awaiting its arguments; `index` is its token's position."""

    __slots__ = __match_args__ = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index


_ARITIES = {mode: {name: entry.arity for name, entry in sig.items()} for mode, sig in _SIGNATURES.items()}

# a parsed sort is the module constant, so it is the very object the
# signatures and the kernels build types from
_SORT_NODES = {(Sort, sort.tag): sort for sort in (PROP, TYPE_, KIND, LF_TYPE, LF_KIND)}

# values of the tokens other than identifiers that start an atom
_ATOM_START = frozenset({"(", "{", "Type", "Kind", "Prop"})


class _Parser:
    """Recursive descent over the token lists of one text; pos indexes them.

    Binder names are resolved while parsing: `names` lists the names of
    the enclosing binders, innermost last, with None for an arrow, and
    `scope` maps each name to the levels in `names` that bind it, so with
    d enclosing binders an identifier bound at level l is `Bound(d - 1 - l)`
    and an unbound one a free `Var`.

    The span memo parses each repeated group once per binder frame. It
    covers every parenthesised group `( ... )` and every symbol call
    `s( ... )` whose parenthesised text occurs again in the text (see
    `lexer.repeated_groups`). Its key is the name of that text (the offset
    of its first occurrence), the calling symbol (None for a plain group)
    and the frame, the tuple `names`, which fixes the index of every
    `Bound` inside. On a
    hit the parser moves `pos` past the group and returns the node parsed
    before. That is the very object parsing the group again would return:
    the parse of a group depends only on its tokens, the mode and the
    frame, and interning returns the object built from the same parts. So
    nothing downstream can tell a hit from a parse. A group whose parse
    raises stores nothing, and the memo holds one entry per group parsed,
    whatever the size of the text.
    """

    def __init__(self, text: str, file: str, mode: str = "pcert"):
        repeats = repeated_groups(text)
        self.kinds, self.values, self.starts = scan(text, repeats)
        self.newlines = list(map(re.Match.start, _NEWLINE.finditer(text)))
        self.file = file
        self.pos = 0
        self.mode = mode
        self.arities = _ARITIES[mode]
        self.names: list[str | None] = []
        self.scope: dict[str | None, list[int]] = {}
        self.nodes: dict[tuple, Term] = dict(_SORT_NODES)
        if "bad" in self.kinds:
            bad = self.kinds.index("bad")
            self.values[bad] = text[self.starts[bad]]
            raise self.error(f"unexpected character {self.values[bad]!r}", bad)
        # the span memo: `shared` names each group whose text occurs again
        # by the start of the first group with that text, and `parsed` maps
        # a group key to its node and its number of tokens
        self.shared: dict[int, int] = {}
        for start, _, first in repeats:
            self.shared[start] = self.shared[first] = first
        self.parsed: dict[tuple, tuple[Term, int]] = {}

    def span(self, i: int) -> SourceSpan:
        start = self.starts[i]
        line = bisect_left(self.newlines, start)  # newlines before the token
        column = start - self.newlines[line - 1] if line else start + 1
        return SourceSpan(self.file, line + 1, column, max(1, len(self.values[i])))

    def error(self, message: str, i: int | None = None, kind: str = PARSE_ERROR) -> SurfaceError:
        return SurfaceError(message, self.span(self.pos if i is None else i), kind)

    def expect(self, kind: str, value: str | None = None) -> int:
        """Consume the next token, which must be of this kind and value; return its index."""
        i = self.pos
        if self.kinds[i] != kind or (value is not None and self.values[i] != value):
            raise self.error(f"expected {value or kind!r}, found {self.values[i] or 'end of input'!r}")
        self.pos = i + 1
        return i

    # - file and declarations -

    def parse_file(self) -> ParsedFile:
        if self.kinds[0] == "mode":
            self.pos = 1
            i = self.expect("id")
            if self.values[i] not in _SIGNATURES:
                raise self.error(f"unknown mode {self.values[i]!r} (expected pcert or lf)", i)
            self.mode = self.values[i]
            self.arities = _ARITIES[self.mode]
        decls: list[Declaration] = []
        while self.kinds[self.pos] != "eof":
            decls.append(self.parse_decl())
        return ParsedFile(self.mode, tuple(decls), self.file)

    def parse_decl(self) -> Declaration:
        i = self.pos
        keyword = self.values[i]
        if self.kinds[i] != "kw" or keyword not in ("symbol", "definition", "assert", "convertible"):
            raise self.error("expected a declaration (symbol/definition/assert/convertible)", i)
        self.pos = i + 1
        span = self.span(i)
        if keyword == "symbol":
            name = self.parse_decl_name()
            self.expect("punct", ":")
            ty = self.parse_term()
            self.expect("punct", ";")
            return SymbolDecl(name, ty, span)
        if keyword == "definition":
            name = self.parse_decl_name()
            ty = None
            if self.values[self.pos] == ":":
                self.pos += 1
                ty = self.parse_term()
            self.expect("assign")
            body = self.parse_term()
            self.expect("punct", ";")
            return Definition(name, body, ty, span)
        if keyword == "assert":
            subject = self.parse_term()
            self.expect("punct", ":")
            ty = self.parse_term()
            self.expect("punct", ";")
            return AssertJudgment(subject, ty, span)
        a = self.parse_term()
        self.expect("punct", ",")
        b = self.parse_term()
        self.expect("punct", ";")
        return AssertConv(a, b, span)

    def parse_decl_name(self) -> str:
        # Names from either signature are reserved in both modes so that a
        # checked development can always be translated and reprinted.
        i = self.expect("id")
        if self.values[i] in _RESERVED_DECL_NAMES:
            raise self.error(f"{self.values[i]!r} is a reserved symbol name", i)
        return self.values[i]

    # - terms -

    def parse_term(self) -> Term:
        binder = self.values[self.pos]
        if binder == "\\" or binder == "!":
            self.pos += 1
            name = self.values[self.expect("id")]
            self.expect("punct", ":")
            annot = self.parse_term()
            self.expect("punct", ".")
            self.bind(name)
            body = self.parse_term()
            self.unbind(name)
            return self.binder(Abs if binder == "\\" else Prod, name, annot, body)
        lhs = self.parse_app()
        if self.kinds[self.pos] == "arrow":
            self.pos += 1
            self.bind(None)  # no name reaches an arrow's binder, but outer indices shift
            cod = self.parse_term()
            self.unbind(None)
            return self.binder(Prod, "_", lhs, cod)
        return lhs

    def bind(self, name: str | None) -> None:
        """Enter a binder, which binds `name` (None: no identifier)."""
        self.scope.setdefault(name, []).append(len(self.names))
        self.names.append(name)

    def unbind(self, name: str | None) -> None:
        self.scope[name].pop()
        self.names.pop()

    # - the span memo: a repeated group is parsed once per frame -

    def recall(self, key: tuple, first: int) -> Term | None:
        """The node of a group with this key parsed earlier, whose first
        token is now `first`; on a hit, `pos` moves past the group."""
        seen = self.parsed.get(key)
        if seen is None:
            return None
        self.pos = first + seen[1]
        return seen[0]

    def remember(self, key: tuple, first: int, node: Term) -> Term:
        """Store the node of the group from token `first` to `pos`."""
        self.parsed[key] = (node, self.pos - first)
        return node

    # - interned nodes: one object per distinct node of this parse -

    def leaf(self, cls: type, value: str | int) -> Term:
        """Var, Bound or Sort, interned by its name, index or tag."""
        key = (cls, value)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(value)
        return node

    def app(self, fun: Term, arg: Term) -> Term:
        key = (App, id(fun), id(arg))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = App(fun, arg)
        return node

    def binder(self, cls: type, hint: str, annot: Term, body: Term) -> Term:
        """Abs or Prod; the hint is part of the key, so a binder keeps the
        name it was written with."""
        key = (cls, hint, id(annot), id(body))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(hint, annot, body)
        return node

    def sym(self, name: str, args: tuple[Term, ...] = ()) -> Term:
        key = (SymApp, name, *map(id, args))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = SymApp(name, args)
        return node

    def parse_app(self) -> Term:
        kinds, values = self.kinds, self.values
        head = self.parse_atom()
        args: list[Term | _SymRef] = []
        while kinds[self.pos] == "id" or values[self.pos] in _ATOM_START:
            args.append(self.parse_atom())
        for arg in args:
            if isinstance(arg, _SymRef):
                raise self.error(
                    f"symbol {arg.name!r} expects {self.arities[arg.name]} arguments, got 0", arg.index, ARITY_MISMATCH
                )
        if isinstance(head, _SymRef):
            arity = self.arities[head.name]
            if len(args) < arity:
                raise self.error(
                    f"symbol {head.name!r} expects {arity} arguments, got {len(args)}", head.index, ARITY_MISMATCH
                )
            head, args = self.sym(head.name, tuple(args[:arity])), args[arity:]  # type: ignore[arg-type]
        for arg in args:
            head = self.app(head, arg)  # type: ignore[arg-type]
        return head

    def parse_atom(self) -> Term | _SymRef:
        i = self.pos
        value = self.values[i]
        if self.kinds[i] == "id":
            self.pos = i + 1
            if value == "TYPE" or value == "KIND":
                return self.leaf(Sort, value)
            arity = self.arities.get(value)
            if arity is None:
                levels = self.scope.get(value)
                return self.leaf(Bound, len(self.names) - 1 - levels[-1]) if levels else self.leaf(Var, value)
            if self.values[i + 1] == "(":
                return self.parse_call(value, i)
            return self.sym(value) if arity == 0 else _SymRef(value, i)
        if value == "Type" or value == "Kind" or value == "Prop":
            self.pos = i + 1
            return self.leaf(Sort, value) if self.mode == "pcert" else self.sym(value)
        if value == "(":
            text = self.shared.get(self.starts[i])
            key = None if text is None else (text, None, *self.names)
            if key is not None:
                node = self.recall(key, i)
                if node is not None:
                    return node
            self.pos = i + 1
            inner = self.parse_term()
            self.expect("punct", ")")
            return inner if key is None else self.remember(key, i, inner)
        if value == "{":
            self.pos = i + 1
            name = self.values[self.expect("id")]
            self.expect("punct", ":")
            ty = self.parse_term()
            self.expect("punct", "|")
            self.bind(name)
            pred = self.parse_term()
            self.unbind(name)
            self.expect("punct", "}")
            return self.sym("psub", (ty, self.binder(Abs, name, ty, pred)))
        raise self.error(f"expected a term, found {value or 'end of input'!r}", i)

    def parse_call(self, name: str, i: int) -> Term:
        text = self.shared.get(self.starts[i + 1])
        key = None if text is None else (text, name, *self.names)
        if key is not None:
            node = self.recall(key, i)
            if node is not None:
                return node
        self.expect("punct", "(")
        args = [self.parse_term()]
        while self.values[self.pos] == ",":
            self.pos += 1
            args.append(self.parse_term())
        self.expect("punct", ")")
        arity = self.arities[name]
        if len(args) != arity:
            raise self.error(f"symbol {name!r} expects {arity} arguments, got {len(args)}", i, ARITY_MISMATCH)
        node = self.sym(name, tuple(args))
        return node if key is None else self.remember(key, i, node)


def parse_file(text: str, file: str = "<input>") -> ParsedFile:
    return _Parser(text, file).parse_file()


def parse_term(text: str, mode: str = "pcert") -> Term:
    """Parse a single term, for tests and tooling."""
    parser = _Parser(text, "<term>", mode)
    term = parser.parse_term()
    if parser.kinds[parser.pos] != "eof":
        raise parser.error("trailing input after term")
    return term


# --- printer -----------------------------------------------------------------

_TERM, _ARROW, _APP, _ATOM = 0, 1, 2, 3

_RESERVED_DISPLAY = (
    KEYWORDS
    | {"TYPE", "KIND"}
    | set(PCERT_SIGNATURE.names())
    | set(LF_SIGNATURE.names())
)

_ID_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_'?]*\Z")


def _display_name(hint: str, taken: set[str]) -> str:
    base = hint.split("#", 1)[0]
    if not _ID_OK.match(base):
        base = "x"
    name = base
    while name in taken or name in _RESERVED_DISPLAY:
        name += "'"
    return name


class _Printer:
    """Renders one top-level term. The text of a node depends on it, `prec`,
    the display names of the binders in scope and the free names of the
    top-level term (`avoid`), which no display name may capture. So `memo`,
    a `terms.Memo` which callers may share across terms, is keyed by all
    four."""

    def __init__(self, term: Term, memo: Memo):
        self.avoid = frozenset(free_vars(term))
        self.memo = memo

    def show(self, t: Term, prec: int, binders: tuple[str, ...]) -> str:
        cls = type(t)
        if cls is Sort:
            return t.tag
        if cls is Var:
            return t.name
        if cls is Bound:
            k = t.index
            return binders[-1 - k] if k < len(binders) else f"^{k}"
        key = (ident(t), prec, binders, self.avoid)
        seen = self.memo.get(key)
        if seen is not None:
            return seen
        match t:
            case App(f, a):
                body = f"{self.show(f, _APP, binders)} {self.show(a, _ATOM, binders)}"
                out = self.wrap(body, _APP, prec)
            case Abs(hint, annot, inner):
                name = _display_name(hint, self.avoid | set(binders))
                body = (
                    f"\\{name}: {self.show(annot, _TERM, binders)}. "
                    f"{self.show(inner, _TERM, binders + (name,))}"
                )
                out = self.wrap(body, _TERM, prec)
            case Prod(hint, dom, cod):
                if is_nondependent(cod):
                    dropped = instantiate(cod, Var("_"))
                    body = f"{self.show(dom, _APP, binders)} -> {self.show(dropped, _TERM, binders)}"
                    out = self.wrap(body, _ARROW, prec)
                else:
                    name = _display_name(hint, self.avoid | set(binders))
                    body = (
                        f"!{name}: {self.show(dom, _TERM, binders)}. "
                        f"{self.show(cod, _TERM, binders + (name,))}"
                    )
                    out = self.wrap(body, _TERM, prec)
            case SymApp("psub", (ty, Abs(hint, annot, pred))) if annot == ty:
                # the sugar drops the binder annotation, so it must equal the
                # carrier or reparsing would change the term
                name = _display_name(hint, self.avoid | set(binders))
                out = (
                    f"{{{name}: {self.show(ty, _TERM, binders)} | "
                    f"{self.show(pred, _TERM, binders + (name,))}}}"
                )
            case SymApp(sym, args):
                if not args:
                    out = sym
                else:
                    inner = ", ".join(self.show(a, _TERM, binders) for a in args)
                    out = f"{sym}({inner})"
            case _:
                raise TypeError(f"not a term: {t!r}")
        return self.memo.put(key, out, t)

    @staticmethod
    def wrap(body: str, level: int, prec: int) -> str:
        return f"({body})" if level < prec else body


def print_term(t: Term, memo: Memo | None = None) -> str:
    """Concrete syntax; parse_file(print(t)) yields a term alpha-equal to t.
    Terms printed with one `memo` render a node they share once."""
    return _Printer(t, Memo() if memo is None else memo).show(t, _TERM, ())


def print_decl(decl: Declaration, memo: Memo | None = None) -> str:
    match decl:
        case SymbolDecl(name, ty, _):
            return f"symbol {name} : {print_term(ty, memo)};"
        case Definition(name, body, ty, _):
            if ty is None:
                return f"definition {name} := {print_term(body, memo)};"
            return f"definition {name} : {print_term(ty, memo)} := {print_term(body, memo)};"
        case AssertJudgment(subject, ty, _):
            return f"assert {print_term(subject, memo)} : {print_term(ty, memo)};"
        case AssertConv(a, b, _):
            return f"convertible {print_term(a, memo)}, {print_term(b, memo)};"
    raise TypeError(f"not a declaration: {decl!r}")


def print_file(parsed: ParsedFile) -> str:
    """One memo serves the file, so a node shared across declarations,
    such as an expanded definition in `pcert translate`'s output, is
    rendered once: the work is linear in the distinct nodes, not in the
    size of the text."""
    memo = Memo()
    lines = [f"#MODE {parsed.mode}"]
    lines.extend(print_decl(d, memo) for d in parsed.decls)
    return "\n".join(lines) + "\n"
