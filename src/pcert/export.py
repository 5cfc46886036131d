"""Export to Lambdapi concrete syntax.

Two modes: `signature` emits the encoding theory itself (the constant
symbols, the protected certificate-free pair, and the rewrite rules) as a
standalone module; `development` emits a checked development against that
module, one declaration per line group. Beta is native to Lambdapi, so it
appears as a comment line rather than a rule statement. A development
renders each node once per precedence and binder names, from a `terms.Memo`
kept for the whole development, which also keeps each name's Lambdapi
spelling, each node's free names, which binder names avoid, and each node's
loose bound indices, which tell whether a binder is used.
"""

from __future__ import annotations

import re

from .diagnostics import UNCHECKED_INPUT, fail
from .lf import LF_SIGNATURE, RULES_R
from .syntax import AssertConv, AssertJudgment, Declaration, Definition, SymbolDecl
from .terms import (
    Abs,
    App,
    Bound,
    Memo,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    abstract_var,
    free_names,
    free_vars,
    ident,
    loose_bounds,
)

ENCODING_MODULE = "pcert.encoding"

_LP_ID = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*\Z")

_TERM, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def _ident(name: str) -> str:
    return name if _LP_ID.match(name) else f"{{|{name}|}}"


def _show(t: Term, prec: int, binders: tuple[str, ...], memo: Memo, pattern_vars: frozenset[str]) -> str:
    """The Lambdapi text of t at precedence `prec`. A bound variable is
    shown by the display name of its binder, from `binders`, innermost last.
    `memo` (see the module docstring) maps (node, prec, binders) to text,
    and each name to its spelling. A memo serves one set of pattern
    variables, so the text depends on the node, prec and binders alone."""
    cls = type(t)
    if cls is Var:
        name = t.name
        out = memo.get(name)  # `_spelled`, inlined at the most frequent node
        if out is None:
            out = memo[name] = _ident(name)
        return f"${out}" if name in pattern_vars else out
    if cls is Sort:
        if t.tag != "TYPE":
            raise fail(UNCHECKED_INPUT, f"sort {t.tag} has no Lambdapi syntax")
        return "TYPE"
    if cls is Bound:
        k = t.index
        # a dangling index counts the named binders only (see the Prod case)
        return binders[-1 - k] if k < len(binders) else f"?{k - len(binders) + binders.count('')}"
    key = (ident(t), prec, binders)
    seen = memo.get(key)
    if seen is not None:
        return seen
    if cls is SymApp:
        args = t.args
        if not args:
            out = _spelled(t.sym, memo)
        else:
            shown = []
            for a in args:
                shown.append(_show(a, _ATOM, binders, memo, pattern_vars))
            body = f"{_spelled(t.sym, memo)} {' '.join(shown)}"
            out = f"({body})" if _APP < prec else body
    elif cls is App:
        body = f"{_show(t.fun, _APP, binders, memo, pattern_vars)} {_show(t.arg, _ATOM, binders, memo, pattern_vars)}"
        out = f"({body})" if _APP < prec else body
    elif cls is Abs:
        name = _fresh_display(t.hint, t.body, binders, memo)
        inner = _show(t.body, _TERM, binders + (name,), memo, pattern_vars)
        body = f"λ {name}: {_show(t.annot, _TERM, binders, memo, pattern_vars)}, {inner}"
        out = f"({body})" if _TERM < prec else body
    elif cls is Prod:
        cod = t.cod
        loose = loose_bounds(cod, memo)
        if not loose & 1:
            # an arrow: the codomain is shown under a placeholder for the
            # unused binder, which no display name equals; a codomain with
            # no loose index needs none
            inner = _show(cod, _ARROW, binders + ("",) if loose else binders, memo, pattern_vars)
            body = f"{_show(t.dom, _APP, binders, memo, pattern_vars)} → {inner}"
            out = f"({body})" if _ARROW < prec else body
        else:
            name = _fresh_display(t.hint, cod, binders, memo)
            inner = _show(cod, _TERM, binders + (name,), memo, pattern_vars)
            body = f"Π {name}: {_show(t.dom, _TERM, binders, memo, pattern_vars)}, {inner}"
            out = f"({body})" if _TERM < prec else body
    else:
        raise TypeError(f"not a term: {t!r}")
    return memo.put(key, out, t)


def _spelled(name: str, memo: Memo) -> str:
    """`_ident(name)`, kept in memo by the name: a name is text, so it needs
    no node held, and no other key of the memo is a string."""
    out = memo.get(name)
    if out is None:
        out = memo[name] = _ident(name)
    return out


def _fresh_display(hint: str, body: Term, binders: tuple[str, ...], memo: Memo) -> str:
    """A name for the binder of body that clashes with none of its free
    names (kept in memo) and with no name of the enclosing
    `binders` it reaches. Lambdapi reads `_` in a term as a placeholder,
    so `_` names only a binder that body does not use."""
    base = hint.split("#", 1)[0]
    loose = loose_bounds(body, memo)
    if not _LP_ID.match(base) or (base == "_" and loose & 1):
        base = "x"
    name = base
    taken = free_names(body, memo)
    reach = loose >> 1  # bit k: the binder k levels out, binders[-1 - k]
    reached = {binders[-1 - k] for k in range(min(reach.bit_length(), len(binders))) if reach >> k & 1}
    while name in taken or name in reached:
        name += "'"
    return name


def _lp_term(t: Term, memo: Memo, pattern_vars: frozenset[str] = frozenset()) -> str:
    return _show(t, _TERM, (), memo, pattern_vars)


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
    for name, entry in LF_SIGNATURE.items():
        mods = []
        if entry.protected:
            mods.append("protected")
        if name not in rewritten_heads:
            mods.append("constant")
        mods.append("symbol")
        lines.append(f"{' '.join(mods)} {_ident(name)} : {_lp_term(_telescope_type(entry), Memo())};")
    lines.append("")
    lines.append("// rule (beta): (λ x: T, t) u ↪ t with u for x. Beta is native to")
    lines.append("// Lambdapi; it belongs to the rewrite system alongside the six below.")
    for rule in RULES_R.rules:
        pvars, memo = frozenset(free_vars(rule.lhs)), Memo()
        lines.append(f"rule {_lp_term(rule.lhs, memo, pvars)} ↪ {_lp_term(rule.rhs, memo, pvars)};")
    return lines


def development_lines(decls: tuple[Declaration, ...] | list[Declaration]) -> list[str]:
    lines = [
        "// Development checked against the encoding module.",
        f"require open {ENCODING_MODULE};",
        "",
    ]
    memo = Memo()
    for decl in decls:
        match decl:
            case SymbolDecl(name, ty, _):
                lines.append(f"symbol {_ident(name)} : {_lp_term(ty, memo)};")
            case Definition(name, body, ty, _):
                annot = f" : {_lp_term(ty, memo)}" if ty is not None else ""
                lines.append(f"symbol {_ident(name)}{annot} ≔ {_lp_term(body, memo)};")
            case AssertJudgment(subject, ty, _):
                lines.append(f"assert ⊢ {_lp_term(subject, memo)} : {_lp_term(ty, memo)};")
            case AssertConv(a, b, _):
                lines.append(f"assert ⊢ {_lp_term(a, memo)} ≡ {_lp_term(b, memo)};")
            case _:
                raise TypeError(f"not a declaration: {decl!r}")
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
