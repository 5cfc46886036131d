"""Translation from subtyping-land into the framework encoding.

One structural pass over locally nameless terms: `Var` and `Bound` map to
themselves, binder bodies are translated in place, sorts are objectified,
products go to fa/impd/arrd by the sorts of their domain and codomain, and
the subtype symbols map argument by argument. Types go to El/Prf by their
sort, which on checked input the head of their translation decides: `arrd`,
`psub` and `prop` head types of sort Type; a free `Var` has the sort its
context type names, a `Bound` the one its binder's annotation names (carried
down the recursion); anything else is a proposition. That is exact because
pcert has no product rule into Kind: no function returns a type, and
`fst(T, …)` is a type only when T is Prop. So no kernel is asked, nothing is
reduced or charged to fuel, and no binder is opened.

A subterm's translation depends only on the sorts of the enclosing binders
its `Bound`s reach, which its `loose` mask names (see `terms`): the binders
reached are the innermost `m.loose.bit_length()`. So it is memoized by its
identity and those sorts: a term that shares subterms translates once per
distinct subterm and reachable sorts, and its translation shares them too.
`_term` is that memoized walk, one function as `terms` says under Dispatch.
The memo lives for one call, or for every call handed the same one under
the same context; the commands hand one to all the calls of a file.

The `El`/`Prf` wrapper `_type` builds around an encoded type is filed in
the same memo under `~ident` of the encoded node, so each encoded type has
one wrapper per memo, and both printers, whose memos are keyed by
identity, render it once per file. That is exact: the wrapper's former is
read off the encoded node's head or, for a free variable, off the context
the memo is used under; a `Bound`, whose sort the enclosing binders
decide, is wrapped anew each time.

Typability is `check_file`'s obligation and `pcert translate` re-checks the
output in the lf kernel; unchecked input fails with a diagnostic or
translates to a term the lf kernel rejects.
"""

from __future__ import annotations

from . import diagnostics as dk
from .diagnostics import fail
from .lf import KIND_ENC, PRODUCT_HEADS, PROP_OBJ, SUBTYPE_SYMBOLS, TYPE_ENC, TYPE_OBJ
from .terms import Abs, App, Bound, Context, Memo, Prod, Sort, SymApp, Term, Var, ident

# The sort of a type whose translation has this head; other symbols head
# propositions. `type` (the sort Type) is never a domain on checked input.
_HEAD_SORTS = {"arrd": "Type", "psub": "Type", "prop": "Type", "type": "Kind"}

_TYPE_FORMERS = {"Type": "El", "Prop": "Prf"}  # the type of a term, by its sort
_SORT_OBJECTS = {"Prop": PROP_OBJ, "Type": TYPE_OBJ}

Sorts = tuple[str | None, ...]  # per enclosing binder, innermost last


def _term(ctx: Context, m: Term, sorts: Sorts, memo: Memo) -> Term:
    """The translation of m under binders of these sorts. `memo` holds one
    entry per non-leaf subterm and the sorts of the binders it reaches. A
    subterm that reaches past `sorts` holds a dangling index, which its
    walk raises on before the entry is filed; its key, shorter than its
    reach, matches no entry."""
    cls = type(m)
    if cls is Var:
        return m
    depth = len(sorts)
    if cls is Bound:
        if m.index >= depth:
            raise fail(dk.NOT_TYPABLE, f"dangling bound variable ^{m.index}", context=ctx, subject=m)
        return m
    if cls is Sort:
        out = _SORT_OBJECTS.get(m.tag)
        if out is None:
            raise fail(dk.NOT_TYPABLE, f"sort {m.tag} has no term translation", context=ctx, subject=m)
        return out
    key = (ident(m), sorts[depth - m.loose.bit_length() :])
    out = memo.get(key)
    if out is not None:
        return out
    if cls is App:
        out = App(_term(ctx, m.fun, sorts, memo), _term(ctx, m.arg, sorts, memo))
    elif cls is Abs:
        annot = m.annot
        t_annot = _type(ctx, annot, sorts, memo)
        inner = sorts + (annot.tag if type(annot) is Sort else None,)
        out = Abs(m.hint, t_annot, _term(ctx, m.body, inner, memo))
    elif cls is SymApp:
        sym = m.sym
        if sym not in SUBTYPE_SYMBOLS:
            raise fail(dk.UNKNOWN_SYMBOL, f"symbol {sym!r} has no encoding", context=ctx, subject=m)
        args = []
        for a in m.args:
            args.append(_term(ctx, a, sorts, memo))
        out = SymApp(sym, tuple(args))
    elif cls is Prod:
        dom = m.dom
        inner = sorts + (dom.tag if type(dom) is Sort else None,)
        t_dom, t_cod = _term(ctx, dom, sorts, memo), _term(ctx, m.cod, inner, memo)
        s_dom, s_cod = _sort(ctx, t_dom, sorts), _sort(ctx, t_cod, inner)
        head = PRODUCT_HEADS.get((s_dom, s_cod))
        if head is None:
            message = f"product over sorts ({s_dom}, {s_cod}) has no encoding"
            raise fail(dk.ILLEGAL_PRODUCT, message, context=ctx, subject=m)
        out = SymApp(head, (t_dom, Abs(m.hint, SymApp(_TYPE_FORMERS[s_dom], (t_dom,)), t_cod)))
    else:
        raise TypeError(f"not a term: {m!r}")
    return memo.put(key, out, m)


def _sort(ctx: Context, t: Term, sorts: Sorts) -> str:
    """The sort of a checked type, read off its translation t."""
    cls = type(t)
    if cls is SymApp:
        return _HEAD_SORTS.get(t.sym, "Prop")
    if cls is Var:
        ty = ctx.lookup(t.name)
        if ty is None:
            raise fail(dk.UNBOUND_VARIABLE, f"unbound variable {t.name!r}", context=ctx, subject=t)
        tag = ty.tag if type(ty) is Sort else None
    elif cls is Bound:  # in range: _term checked it
        tag = sorts[-1 - t.index]
    else:
        return "Prop"
    if tag is None:
        raise fail(dk.NOT_A_SORT, f"{t!r} is not a type: its type is not a sort", context=ctx, subject=t)
    return tag


def _type(ctx: Context, t: Term, sorts: Sorts, memo: Memo) -> Term:
    if type(t) is Sort:
        if t.tag == "Kind":
            return KIND_ENC
        if t.tag == "Type":
            return TYPE_ENC
    encoded = _term(ctx, t, sorts, memo)
    cls = type(encoded)
    if cls is not Bound:
        out = memo.get(~ident(encoded))
        if out is not None:
            return out
    sort = _sort(ctx, encoded, sorts)
    former = _TYPE_FORMERS.get(sort)
    if former is None:
        raise fail(dk.NOT_A_SORT, f"no type translation at sort {sort}", context=ctx, subject=t)
    out = SymApp(former, (encoded,))
    if cls is not Bound:
        memo[~ident(encoded)] = out  # `put`, inlined: encoded is held by out
    return out


def translate_term(ctx: Context, m: Term, memo: Memo | None = None) -> Term:
    """Requires m typable in ctx, which check_file's records guarantee; callers
    own that obligation, it is not re-checked here. A `memo` handed in must
    only ever have been used under ctx."""
    return _term(ctx, m, (), Memo() if memo is None else memo)


def translate_type(ctx: Context, t: Term, memo: Memo | None = None) -> Term:
    """Requires t to be Kind or typable by a sort in ctx; `memo` as for
    translate_term."""
    return _type(ctx, t, (), Memo() if memo is None else memo)


def translate_ctx(ctx: Context) -> Context:
    """Entrywise type translation. Each entry is read under the whole of ctx,
    which resolves its names as its prefix does: names are unique, and on a
    well-formed ctx an entry mentions only names declared before it.
    Library API: acceptance criterion 8 translates its context with it."""
    out = Context()
    for name, ty in ctx:
        out = out.declare(name, translate_type(ctx, ty))
    return out
