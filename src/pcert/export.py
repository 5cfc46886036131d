"""Export to Lambdapi concrete syntax.

Two modes: `signature` emits the encoding theory itself (the constant
symbols, the protected certificate-free pair, and the rewrite rules) as a
standalone module; `development` emits a checked development against that
module, one declaration per line group. Beta is native to Lambdapi, so it
appears as a comment line rather than a rule statement.

Terms are shown by `syntax.Printer`'s walk, which owns the memo (see the
`syntax` docstring). A `LambdapiPrinter` holds only what Lambdapi does
otherwise: its table (`λ x: T, t`, `Π x: T, U`, `T → U` with the codomain
at arrow precedence, `f a b` for a symbol's call, no `{x: T | p}` sugar,
and `symbol … ≔`/`assert ⊢` declarations), the spelling of names (`{|…|}`
for one that is no Lambdapi identifier, `$t` for a rule's pattern
variable), of sorts (`TYPE` only) and of a dangling index (counted from
outside the term), and its naming rule. That rule avoids the body's free
names and the enclosing binders the body reaches, not the top-level
term's free names, so the printer's `avoid` stays empty: one development
is shown by one printer, and a node shared across its declarations
renders once per precedence and binder names.
"""

from __future__ import annotations

import re

from .diagnostics import UNCHECKED_INPUT, fail
from .lf import LF_SIGNATURE, RULES_R
from .syntax import _APP, _ARROW, _ATOM, _TERM, Declaration, Printer
from .terms import Memo, Prod, Term, abstract_var, free_names

ENCODING_MODULE = "pcert.encoding"

_LP_ID = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*\Z")


class _Sorts(dict):
    """`TYPE`, Lambdapi's one sort; any other has no Lambdapi syntax."""

    __slots__ = ()

    def __missing__(self, tag: str) -> str:
        """A guard: a checked development exports no other sort."""
        raise fail(UNCHECKED_INPUT, f"sort {tag} has no Lambdapi syntax")


_LP_SORTS = _Sorts(TYPE="TYPE")


class LambdapiPrinter(Printer):
    """`syntax.Printer` with Lambdapi's table, spellings and naming rule.
    `pattern_vars` are the variables spelled `$t`, those of one rule."""

    def __init__(self, pattern_vars: frozenset[str] = frozenset()):
        super().__init__()
        self.lam, self.pi, self.dot, self.arrow, self.codomain = "λ ", "Π ", ", ", " → ", _ARROW
        self.call_open, self.call_sep, self.call_close, self.call_level, self.call_arg = " ", " ", "", _APP, _ATOM
        self.sugared = None
        self.definition = ("symbol ", " ≔ ")
        self.judgment, self.conversion = ("assert ⊢ ", " : "), ("assert ⊢ ", " ≡ ")
        if pattern_vars:
            self.vars = {name: f"${self.spell(self.syms, name)}" for name in pattern_vars}
        self.sorts = _LP_SORTS

    def term(self, t: Term) -> str:
        # the naming rule reads no `avoid`: it stays empty, uncollected
        return self.show(t, _TERM, ())

    def spell(self, names: dict[str, str], name: str) -> str:
        """The name if it is a Lambdapi identifier, else the name escaped
        as `{|name|}`, filed in `names`."""
        out = names[name] = name if _LP_ID.match(name) else f"{{|{name}|}}"
        return out

    def name(self, hint: str, body: Term, binders: tuple[str, ...]) -> str:
        """A name for the binder of body that clashes with none of its free
        names and with no name of the enclosing `binders` it reaches.
        Lambdapi reads `_` in a term as a placeholder, so `_` names only a
        binder that body does not use."""
        base = hint.split("#", 1)[0]
        loose = body.loose
        if not _LP_ID.match(base) or (base == "_" and loose & 1):
            base = "x"
        name = base
        taken = free_names(body, self.memo)
        reach = loose >> 1  # bit k: the binder k levels out, binders[-1 - k]
        reached = {binders[-1 - k] for k in range(min(reach.bit_length(), len(binders))) if reach >> k & 1}
        while name in taken or name in reached:
            name += "'"
        return name

    def dangling(self, k: int, binders: tuple[str, ...]) -> str:
        """A `Bound` that points past the term, counted from outside it and
        with no placeholder. A guard: a checked term has none to print."""
        return f"?{k - len(binders) + binders.count('')}"


def _telescope_type(entry) -> Term:
    ty = entry.result
    for name, dom in reversed(entry.telescope):
        ty = Prod(name, dom, abstract_var(ty, name))
    return ty


def signature_lines() -> list[str]:
    """The encoding module: `LF_SIGNATURE` and the rules `RULES_R`."""
    lines = [
        "// Encoding of simple type theory with predicate subtyping and",
        "// proof irrelevance, as a rewrite theory.",
        "",
    ]
    rewritten_heads = {r.lhs.sym for r in RULES_R.rules}
    printer = LambdapiPrinter()
    for name, entry in LF_SIGNATURE.items():
        mods = []
        if entry.protected:
            mods.append("protected")
        if name not in rewritten_heads:
            mods.append("constant")
        mods.append(f"symbol {printer.spell(printer.syms, name)}")
        lines.append(f"{' '.join(mods)} : {printer.term(_telescope_type(entry))};")
    lines.append("")
    lines.append("// rule (beta): (λ x: T, t) u ↪ t with u for x. Beta is native to")
    lines.append("// Lambdapi; it belongs to the rewrite system alongside the six below.")
    for rule in RULES_R.rules:
        printer = LambdapiPrinter(free_names(rule.lhs, Memo()))
        lines.append(f"rule {printer.term(rule.lhs)} ↪ {printer.term(rule.rhs)};")
    return lines


def development_lines(decls: tuple[Declaration, ...] | list[Declaration]) -> list[str]:
    lines = [
        "// Development checked against the encoding module.",
        f"require open {ENCODING_MODULE};",
        "",
    ]
    lines.extend(map(LambdapiPrinter().decl, decls))
    return lines


def export_lambdapi(decls, mode: str = "development") -> str:
    """Declarations are expected to be checked; nothing is re-verified here.
    `pcert export` passes an lf file's declarations after the lf kernel has
    checked them, but a pcert file's translation without the lf re-check
    that `pcert translate` runs."""
    if mode == "signature":
        return "\n".join(signature_lines()) + "\n"
    if mode == "development":
        return "\n".join(development_lines(decls)) + "\n"
    raise fail(UNCHECKED_INPUT, f"unknown export mode {mode!r}")
