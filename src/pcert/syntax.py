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

The lexer (`lexer.scan`) fills the token lists the parser indexes, and a
declaration's or an error's span resolves only when read (see
`lexer.Source`). A character that starts no token is reported before any
parsing, from its kind "bad" in the lexer's table. Binder names are
resolved to `Bound` indices as they are parsed, so each binder is built
once and its body is never walked again. `parse_term` reads the atoms of
an application in one loop, each variable, parenthesised term and call
in place, `parse_call` reads a variable argument in place, and a binder's
fixed tokens are checked in place: a variable or a fixed token costs no
Python call of its own, and each level of nested parentheses one frame.

Nodes are interned for one parse: every node is built through one dict
keyed by its class, its name, index, tag or binder hint, and the ids of its
children, so text that occurs again anywhere in the file, such as an
expanded definition in the output of `pcert translate`, parses to the very
object it parsed to before, and the kernels' identity memos hit on it.
The hint is part of the key, so binders written with different names stay
distinct objects and print with their own names. The dict is plain, not
weak: it lives only as long as the parse, its values hold the children
whose ids the keys are made of, and a hit costs less than building the
node. In lf text, a "#MODE lf" file or a term parsed in lf mode, a repeated
group is read once per binder frame (see `lexer` and `_Parser`); that is
what `pcert translate` writes and reads back. pcert text is not searched
for repeats: a source names its definitions, so it repeats little, and
the search would cost more than it saves.

`Printer.show` is the one walk that shows terms in both concrete
syntaxes: this one, and Lambdapi's (`export.LambdapiPrinter`). It decides
the memo key, which products print as arrows, the placeholder an arrow's
unused binder leaves in scope, and the parentheses. Each syntax keeps a
table of its spellings: binder, arrow and separator tokens, the
precedence of an arrow's codomain, a symbol application's form, the head
it sugars as `{x: T | p}` (none in Lambdapi) and its declaration forms;
and methods for its naming rule and its dangling index. One printer
serves a file or a development and owns its `terms.Memo`, so a node
shared across its terms renders once, and each node's free names, which
naming reads, are found in one walk of the distinct nodes, not one walk
per printed term. Whether a product is an arrow, and which enclosing
binders a body reaches, are read off the node's `loose` mask (see
`terms`). A name's spelling is filed on its first use, at its declaration
if it has one, so a name seen again costs a dict lookup and no Python
call.
"""

from __future__ import annotations

import re
from typing import Union

from .diagnostics import ARITY_MISMATCH, PARSE_ERROR, SourceSpan, SurfaceError, span_at
from .lexer import KEYWORDS, SYMBOLS, blank_comments, is_lf, repeated_groups, scan
from .lf import KIND_ENC, LF_SIGNATURE, PROP_ENC, PROP_OBJ, TYPE_ENC, TYPE_OBJ
from .pcert import PCERT_SIGNATURE
from .record import Frozen, Record, setters
from .terms import (
    SORTS,
    Abs,
    App,
    Bound,
    Memo,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    free_names,
    ident,
)

_SIGNATURES = {"pcert": PCERT_SIGNATURE, "lf": LF_SIGNATURE}

_RESERVED_DECL_NAMES = SYMBOLS | {"TYPE", "KIND"}


class SymbolDecl(Frozen):
    __slots__ = __match_args__ = ("name", "type", "span")
    _compared = ("name", "type")  # not the span

    def __init__(self, name: str, type: Term, span: SourceSpan | None = None):
        _symbol_name(self, name)
        _symbol_type(self, type)
        _symbol_span(self, span)


_symbol_name, _symbol_type, _symbol_span = setters(SymbolDecl)


class Definition(Frozen):
    __slots__ = __match_args__ = ("name", "body", "type", "span")
    _compared = ("name", "body", "type")  # not the span

    def __init__(self, name: str, body: Term, type: Term | None = None, span: SourceSpan | None = None):
        _definition_name(self, name)
        _definition_body(self, body)
        _definition_type(self, type)
        _definition_span(self, span)


_definition_name, _definition_body, _definition_type, _definition_span = setters(Definition)


class AssertJudgment(Frozen):
    __slots__ = __match_args__ = ("subject", "type", "span")
    _compared = ("subject", "type")  # not the span

    def __init__(self, subject: Term, type: Term, span: SourceSpan | None = None):
        _judgment_subject(self, subject)
        _judgment_type(self, type)
        _judgment_span(self, span)


_judgment_subject, _judgment_type, _judgment_span = setters(AssertJudgment)


class AssertConv(Frozen):
    __slots__ = __match_args__ = ("a", "b", "span")
    _compared = ("a", "b")  # not the span

    def __init__(self, a: Term, b: Term, span: SourceSpan | None = None):
        _conv_a(self, a)
        _conv_b(self, b)
        _conv_span(self, span)


_conv_a, _conv_b, _conv_span = setters(AssertConv)


Declaration = Union[SymbolDecl, Definition, AssertJudgment, AssertConv]


class ParsedFile(Frozen):
    """A file's mode and declarations. `mentioned` holds the names of the
    free identifiers and signature symbols its terms contain, read off the
    parser's intern table, on which `check_file` relies (see `checker`).
    Only `parse_file` fills it; a file built in code has None, unknown. It
    is derived, not part of the file's value: `==`, the repr and match
    patterns leave it out."""

    __match_args__ = ("mode", "decls", "path")
    __slots__ = (*__match_args__, "mentioned")

    def __init__(self, mode: str, decls: tuple[Declaration, ...], path: str = "<input>"):
        _parsed_mode(self, mode)
        _parsed_decls(self, decls)
        _parsed_path(self, path)
        _parsed_mentioned(self, None)


_parsed_mode, _parsed_decls, _parsed_path, _parsed_mentioned = setters(ParsedFile)


# --- parser ------------------------------------------------------------------


class _SymRef(Record):
    """A signature symbol awaiting its arguments; `index` is its token's position."""

    __slots__ = __match_args__ = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index


_ARITIES = {mode: {name: entry.arity for name, entry in sig.items()} for mode, sig in _SIGNATURES.items()}

# a parsed sort is the module constant, so it is the very object the
# signatures and the kernels build types from; so is a parsed lf encoding of
# a sort, which `sym` takes from here on its first use, so that the intern
# table, and the file's `mentioned`, hold only the names the text uses
_SORT_NODES = {(Sort, tag): sort for tag, sort in SORTS.items()}
_CONSTANTS = {
    "pcert": {},
    "lf": {(SymApp, node.sym): node for node in (KIND_ENC, TYPE_ENC, PROP_ENC, TYPE_OBJ, PROP_OBJ)},
}

# values of the tokens other than identifiers that start an atom
_ATOM_START = frozenset({"(", "{", "Type", "Kind", "Prop"})

# values of the tokens that end a call's argument
_ARGUMENT_END = frozenset({",", ")"})

# the identifiers that are sorts, not variables
_NOT_VARIABLES = frozenset({"TYPE", "KIND"})

_DECL_KEYWORDS = frozenset({"symbol", "definition", "assert", "convertible"})


class _Parser:
    """Recursive descent over the token lists of one text; pos indexes them.

    Binder names are resolved while parsing: `names` lists the names of
    the enclosing binders, innermost last, with None for an arrow, and
    `scope` maps each name to the levels in `names` that bind it, so with
    d enclosing binders an identifier bound at level l is `Bound(d - 1 - l)`
    and an unbound one a free `Var`.

    The span memo parses each repeated group of lf text (see `tokens`) once
    per binder frame. Its key is the index of the "(" token a group token
    names (see `lexer`) and the frame, the tuple `names`, which fixes the
    index of every `Bound` inside. Parsing a first occurrence stores its
    node; at a group token a hit returns it, and a miss (a new frame) parses
    the first occurrence's tokens in place. The node is the very object
    parsing the repeat's own text would return, since the parse of a group
    depends only on its tokens, the mode, the callee and the frame, and
    interning returns the object built from the same parts. A parse in
    place cannot fail: the first occurrence parsed, and no error depends on
    the frame.

    `parse_file` reads the file's `mentioned` off the intern table `nodes`,
    into a frozenset that keeps neither the table nor the parser alive.
    """

    def __init__(self, text: str, file: str, mode: str = "pcert"):
        self.kinds, self.values, groups, self.source = self.tokens(text, file, mode)
        self.file = file
        self.pos = 0
        self.mode = mode
        self.arities = _ARITIES[mode]
        self.constants = _CONSTANTS[mode]
        self.names: list[str | None] = []
        self.scope: dict[str, list[int]] = {}
        self.nodes: dict[tuple, Term] = dict(_SORT_NODES)
        if "bad" in self.kinds:
            bad = self.kinds.index("bad")
            raise self.error(f"unexpected character {self.values[bad]!r}", bad)
        # the span memo: `shared` maps each group token, and the "(" token
        # of each first occurrence, to the index of that "(" token, and
        # `parsed` maps a group key to its node
        self.shared = {first: first for first in groups.values()}
        self.shared.update(groups)
        self.parsed: dict[tuple, Term] = {}

    @staticmethod
    def tokens(text: str, file: str, mode: str) -> tuple:
        """`lexer.scan` of text; lf text has the repeats
        `lexer.repeated_groups` finds read as group tokens."""
        text = blank_comments(text)
        return scan(text, repeated_groups(text) if is_lf(text, mode) else [], file)

    def error(self, message: str, i: int | None = None, kind: str = PARSE_ERROR) -> SurfaceError:
        """The error at token i, the current one by default; reached by
        malformed text only, which no generated input is."""
        return SurfaceError(message, span_at(self.source, self.pos if i is None else i), kind)

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
            self.constants = _CONSTANTS[self.mode]
        decls: list[Declaration] = []
        while self.kinds[self.pos] != "eof":
            decls.append(self.parse_decl())
        parsed = ParsedFile(self.mode, tuple(decls), self.file)
        _parsed_mentioned(parsed, frozenset([key[1] for key in self.nodes if key[0] is Var or key[0] is SymApp]))
        return parsed

    def parse_decl(self) -> Declaration:
        """One declaration. Its fixed tokens are checked in place, by value
        (a punctuation value has one kind); `expect` is called only to
        raise the error for a token that does not match."""
        i = self.pos
        kinds, values = self.kinds, self.values
        keyword = values[i]
        if kinds[i] != "kw" or keyword not in _DECL_KEYWORDS:
            raise self.error("expected a declaration (symbol/definition/assert/convertible)", i)
        span = span_at(self.source, i)
        self.pos = i = i + 1
        if keyword == "symbol" or keyword == "definition":
            # Names from either signature are reserved in both modes so that
            # a checked development can always be translated and reprinted.
            name = values[i]
            if kinds[i] != "id":
                self.expect("id")
            if name in _RESERVED_DECL_NAMES:
                raise self.error(f"{name!r} is a reserved symbol name", i)
            self.pos = i = i + 1
        if keyword == "symbol":
            if values[i] != ":":
                self.expect("punct", ":")
            self.pos = i + 1
            decl = SymbolDecl(name, self.parse_term(), span)
        elif keyword == "definition":
            ty = None
            if values[i] == ":":
                self.pos = i + 1
                ty = self.parse_term()
            if kinds[self.pos] != "assign":
                self.expect("assign")
            self.pos += 1
            decl = Definition(name, self.parse_term(), ty, span)
        elif keyword == "assert":
            subject = self.parse_term()
            if values[self.pos] != ":":
                self.expect("punct", ":")
            self.pos += 1
            decl = AssertJudgment(subject, self.parse_term(), span)
        else:
            a = self.parse_term()
            if values[self.pos] != ",":
                self.expect("punct", ",")
            self.pos += 1
            decl = AssertConv(a, self.parse_term(), span)
        if values[self.pos] != ";":
            self.expect("punct", ";")
        self.pos += 1
        return decl

    # - terms -

    def parse_term(self) -> Term:
        i = self.pos
        kinds, values = self.kinds, self.values
        value = values[i]
        if value == "\\" or value == "!":
            # fixed tokens are checked in place, as in `parse_decl`
            name = values[i + 1]
            if kinds[i + 1] != "id":
                self.pos = i + 1
                self.expect("id")
            if values[i + 2] != ":":
                self.pos = i + 2
                self.expect("punct", ":")
            self.pos = i + 3
            annot = self.parse_term()
            if values[self.pos] != ".":
                self.expect("punct", ".")
            self.pos += 1
            levels = self.scope.setdefault(name, [])  # enter the binder
            levels.append(len(self.names))
            self.names.append(name)
            body = self.parse_term()
            levels.pop()
            self.names.pop()
            return self.binder(Abs if value == "\\" else Prod, name, annot, body)
        # the spine: an atom and the atoms applied to it; a variable, the
        # commonest atom, a parenthesised term and a symbol's call are read
        # in place, so that nesting costs one frame per level
        spine = None  # the atoms before the last one, once there are two
        while True:
            if kinds[i] == "id" and value not in self.arities and value not in _NOT_VARIABLES:
                levels = self.scope.get(value)
                key = (Bound, len(self.names) - 1 - levels[-1]) if levels else (Var, value)
                atom = self.nodes.get(key) or self.leaf(key)
                i += 1
            elif value == "(":  # or a group token, which names a parenthesised term
                first = self.shared.get(i)
                if first is not None and first != i:
                    atom = self.recall(i, first, None)
                    i = self.pos
                else:
                    self.pos = i + 1
                    atom = self.parse_term()
                    i = self.pos
                    if values[i] != ")":
                        self.expect("punct", ")")
                    i += 1
                    if first is not None:
                        self.parsed[(first, *self.names)] = atom
            elif kinds[i] == "id" and values[i + 1] == "(" and value in self.arities:
                atom = self.parse_call(value, i)
                i = self.pos
            else:  # the other atoms; where none starts, `parse_atom` raises
                self.pos = i
                atom = self.parse_atom()
                i = self.pos
            value = values[i]
            if kinds[i] != "id" and value not in _ATOM_START:
                break
            if spine is None:
                spine = [atom]
            else:
                spine.append(atom)
        self.pos = i
        if spine is not None:
            spine.append(atom)
            atom = self.apply(spine)
        elif type(atom) is _SymRef:
            atom = self.apply([atom])
        if kinds[i] == "arrow":
            self.pos = i + 1
            # no name reaches an arrow's binder, so it enters `names` but
            # not `scope`: outer indices shift all the same
            self.names.append(None)
            cod = self.parse_term()
            self.names.pop()
            return self.binder(Prod, "_", atom, cod)
        return atom

    # - the span memo -

    def recall(self, i: int, first: int, callee: str | None) -> Term:
        """The node of group token i, whose first occurrence's "(" is token
        `first`, from the span memo, read as the arguments of `callee` or,
        for None, as a parenthesised term; `pos` moves past the group
        token."""
        key = (first, *self.names)
        node = self.parsed.get(key)
        if node is None:
            if callee is None:
                self.pos = first + 1
                node = self.parsed[key] = self.parse_term()
            else:
                node = self.parse_call(callee, first - 1)
        self.pos = i + 1
        return node

    # - interned nodes: one object per distinct node of this parse -

    def leaf(self, key: tuple) -> Term:
        """The Var, Bound or Sort of key, (class, name, index or tag), on a
        miss in the table: the callers look the key up themselves first."""
        node = self.nodes[key] = key[0](key[1])
        return node

    def app(self, fun: Term, arg: Term) -> Term:
        key = (App, id(fun), id(arg))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = App(fun, arg)
        return node

    def binder(self, cls: type, hint: str, annot: Term, body: Term) -> Term:
        """The interned Abs or Prod."""
        key = (cls, hint, id(annot), id(body))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(hint, annot, body)
        return node

    def sym(self, name: str, args: tuple[Term, ...] = ()) -> Term:
        key = (SymApp, name, *map(id, args))
        node = self.nodes.get(key)
        if node is None:
            node = self.constants.get(key)
            if node is None:
                node = SymApp(name, args)
            self.nodes[key] = node
        return node

    def apply(self, atoms: list[Term | _SymRef]) -> Term:
        """The application of the first of atoms, the spine `parse_term`
        read, to the others; a symbol that needs arguments takes them from
        the front."""
        head, args = atoms[0], atoms[1:]
        for arg in args:
            if type(arg) is _SymRef:
                raise self.error(
                    f"symbol {arg.name!r} expects {self.arities[arg.name]} arguments, got 0",
                    arg.index,
                    ARITY_MISMATCH,
                )
        if type(head) is _SymRef:
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
            # a framework sort, or a symbol no "(" follows: `parse_term`
            # reads a variable and a call in place
            self.pos = i + 1
            if value == "TYPE" or value == "KIND":
                key = (Sort, value)
                return self.nodes.get(key) or self.leaf(key)
            return self.sym(value) if self.arities[value] == 0 else _SymRef(value, i)
        if value == "Type" or value == "Kind" or value == "Prop":
            self.pos = i + 1
            if self.mode != "pcert":
                return self.sym(value)
            key = (Sort, value)
            return self.nodes.get(key) or self.leaf(key)
        if value == "{":
            self.pos = i + 1
            name = self.values[self.expect("id")]
            self.expect("punct", ":")
            ty = self.parse_term()
            self.expect("punct", "|")
            levels = self.scope.setdefault(name, [])  # enter the binder
            levels.append(len(self.names))
            self.names.append(name)
            pred = self.parse_term()
            levels.pop()
            self.names.pop()
            self.expect("punct", "}")
            return self.sym("psub", (ty, self.binder(Abs, name, ty, pred)))
        raise self.error(f"expected a term, found {value or 'end of input'!r}", i)

    def parse_call(self, name: str, i: int) -> Term:
        """The call of symbol token i, which a "(" follows."""
        first = self.shared.get(i + 1)
        if first is not None and first != i + 1:
            return self.recall(i + 1, first, name)
        kinds, values = self.kinds, self.values
        pos = i + 2
        args = []
        while True:
            value = values[pos]
            if (
                kinds[pos] == "id"
                and values[pos + 1] in _ARGUMENT_END
                and value not in self.arities
                and value not in _NOT_VARIABLES
            ):
                # a variable argument skips `parse_term`
                levels = self.scope.get(value)
                key = (Bound, len(self.names) - 1 - levels[-1]) if levels else (Var, value)
                args.append(self.nodes.get(key) or self.leaf(key))
                pos += 1
            else:
                self.pos = pos
                args.append(self.parse_term())
                pos = self.pos
            if values[pos] != ",":
                break
            pos += 1
        self.pos = pos
        if values[pos] != ")":
            self.expect("punct", ")")
        self.pos = pos + 1
        arity = self.arities[name]
        if len(args) != arity:
            raise self.error(f"symbol {name!r} expects {arity} arguments, got {len(args)}", i, ARITY_MISMATCH)
        node = self.sym(name, tuple(args))
        if first is not None:
            self.parsed[(first, *self.names)] = node
        return node


def parse_file(text: str, file: str = "<input>") -> ParsedFile:
    """The declarations of text; malformed text raises `SurfaceError`."""
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

_RESERVED_DISPLAY = KEYWORDS | _RESERVED_DECL_NAMES

_ID_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_'?]*\Z")

_SORT_TEXT = {tag: tag for tag in SORTS}


class Printer:
    """The one walk of both concrete syntaxes, with the lf/pcert syntax's
    table; `export.LambdapiPrinter` holds the Lambdapi one. A printer serves
    one file or development and owns its `memo` (see the module docstring).
    The text of a node depends on it, `prec`, the display names of the
    binders in scope and `avoid`, the free names of the top-level term,
    which the lf/pcert naming rule must not capture; so the memo is keyed by
    all four, and also keeps each node's free names."""

    def __init__(self):
        self.memo = Memo()
        self.avoid: frozenset[str] = frozenset()
        # each name's spelling, filed by `spell` on its first use; a
        # sort's is its tag
        self.vars = self.syms = {}
        self.sorts = _SORT_TEXT
        # The table, kept on the instance: CPython 3.11 specializes loads of
        # an instance's attributes, not of its class's. A binder is `lam` or
        # `pi`, its name, ": ", its domain, `dot` and its body; an arrow's
        # codomain follows `arrow` at precedence `codomain`. A symbol's
        # arguments are shown at `call_arg`, joined by `call_sep` between
        # `call_open` and `call_close`, and the call is parenthesised above
        # `call_level`. `sugared` is the head shown as {x: T | p}, or None.
        # A declaration form is its head and the text between its parts.
        self.lam, self.pi, self.dot, self.arrow, self.codomain = "\\", "!", ". ", " -> ", _TERM
        self.call_open, self.call_sep, self.call_close, self.call_level, self.call_arg = "(", ", ", ")", _ATOM, _TERM
        self.sugared: str | None = "psub"
        self.definition = ("definition ", " := ")
        self.judgment, self.conversion = ("assert ", " : "), ("convertible ", ", ")

    def term(self, t: Term) -> str:
        """The text of the top-level term t."""
        self.avoid = free_names(t, self.memo)
        return self.show(t, _TERM, ())

    def decl(self, decl: Declaration) -> str:
        """The text of one declaration, in the table's forms."""
        cls = type(decl)
        if cls is SymbolDecl:
            return f"symbol {self.spell(self.syms, decl.name)} : {self.term(decl.type)};"
        if cls is Definition:
            head, sep = self.definition
            ty = decl.type
            annot = "" if ty is None else f" : {self.term(ty)}"
            return f"{head}{self.spell(self.syms, decl.name)}{annot}{sep}{self.term(decl.body)};"
        if cls is AssertJudgment:
            head, sep = self.judgment
            return f"{head}{self.term(decl.subject)}{sep}{self.term(decl.type)};"
        if cls is AssertConv:
            head, sep = self.conversion
            return f"{head}{self.term(decl.a)}{sep}{self.term(decl.b)};"
        raise TypeError(f"not a declaration: {decl!r}")

    def spell(self, names: dict[str, str], name: str) -> str:
        """Files name's spelling, the name itself, in `names` and returns
        it."""
        names[name] = name
        return name

    def name(self, hint: str, body: Term, binders: tuple[str, ...]) -> str:
        """The display name of a binder of body: an identifier that is no
        keyword and that no enclosing binder and no free name of the
        top-level term has."""
        base = hint.split("#", 1)[0]
        if not _ID_OK.match(base):
            base = "x"
        taken = self.avoid | set(binders)
        name = base
        while name in taken or name in _RESERVED_DISPLAY:
            name += "'"
        return name

    def dangling(self, k: int, binders: tuple[str, ...]) -> str:
        """A `Bound` that points past the term, counting no placeholder. A
        guard: a checked term has none to print."""
        return f"^{k - binders.count('')}"

    def subset(self, carrier: Term, pred: Abs, binders: tuple[str, ...]) -> str:
        """The `{x: T | p}` sugar of pcert text, which `print_file` writes
        (acceptance criterion 9) and no command prints."""
        name = self.name(pred.hint, pred.body, binders)
        return f"{{{name}: {self.show(carrier, _TERM, binders)} | {self.show(pred.body, _TERM, binders + (name,))}}}"

    def show(self, t: Term, prec: int, binders: tuple[str, ...]) -> str:
        """The text of t at precedence `prec`, under binders with these
        display names, innermost last."""
        cls = type(t)
        if cls is Var:
            try:
                return self.vars[t.name]
            except KeyError:
                return self.spell(self.vars, t.name)
        if cls is Bound:
            k = t.index
            # a dangling index counts no placeholder (see the Prod case)
            return binders[-1 - k] if k < len(binders) else self.dangling(k, binders)
        if cls is Sort:
            return self.sorts[t.tag]
        key = (ident(t), prec, binders, self.avoid)
        memo = self.memo
        seen = memo.get(key)
        if seen is not None:
            return seen
        if cls is SymApp:
            sym, args = t.sym, t.args
            try:
                spelled = self.syms[sym]
            except KeyError:
                spelled = self.spell(self.syms, sym)
            if not args:
                out = spelled
            elif sym == self.sugared and len(args) == 2 and type(args[1]) is Abs and args[1].annot == args[0]:
                # the sugar drops the binder annotation, so it must equal the
                # carrier or reparsing would change the term
                out = self.subset(args[0], args[1], binders)
            else:
                shown, at = [], self.call_arg
                for a in args:
                    shown.append(self.show(a, at, binders))
                body = f"{spelled}{self.call_open}{self.call_sep.join(shown)}{self.call_close}"
                out = f"({body})" if self.call_level < prec else body
        elif cls is App:
            body = f"{self.show(t.fun, _APP, binders)} {self.show(t.arg, _ATOM, binders)}"
            out = f"({body})" if _APP < prec else body
        elif cls is Abs:
            name = self.name(t.hint, t.body, binders)
            body = (
                f"{self.lam}{name}: {self.show(t.annot, _TERM, binders)}"
                f"{self.dot}{self.show(t.body, _TERM, binders + (name,))}"
            )
            out = f"({body})" if _TERM < prec else body
        elif cls is Prod:
            cod = t.cod
            loose = cod.loose
            if not loose & 1:
                # an arrow: the codomain is shown as it stands, under a
                # placeholder for the unused binder, which no display name
                # equals; a codomain with no loose index needs none
                inner = binders + ("",) if loose else binders
                body = f"{self.show(t.dom, _APP, binders)}{self.arrow}{self.show(cod, self.codomain, inner)}"
                out = f"({body})" if _ARROW < prec else body
            else:
                name = self.name(t.hint, cod, binders)
                body = (
                    f"{self.pi}{name}: {self.show(t.dom, _TERM, binders)}"
                    f"{self.dot}{self.show(cod, _TERM, binders + (name,))}"
                )
                out = f"({body})" if _TERM < prec else body
        else:
            raise TypeError(f"not a term: {t!r}")
        return memo.put(key, out, t)


def print_term(t: Term) -> str:
    """Concrete syntax; parse_file(print(t)) yields a term alpha-equal to t.
    For tests and tooling: the commands print with a `Printer` per file."""
    return Printer().term(t)


def print_file(parsed: ParsedFile) -> str:
    """The file in concrete syntax. One printer serves the file, so a node
    shared across declarations is rendered once."""
    lines = [f"#MODE {parsed.mode}"]
    lines.extend(map(Printer().decl, parsed.decls))
    return "\n".join(lines) + "\n"
