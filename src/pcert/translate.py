"""Type-directed translation from subtyping-land into the framework encoding.

Terms go to terms: sorts are objectified, products dispatch on the sorts of
their domain and codomain to fa/impd/arrd, the four subtype symbols map to
their encoded counterparts argument by argument. Types go to types through
El/Prf according to their sort. Translation never normalizes its output;
conversion reduces what its comparison needs. It is defined on checked
terms only: `check_file`'s records establish typability, nothing here
infers a pcert type again (only sorts are queried), and `pcert translate`
re-checks the output in the lf kernel.
"""

from __future__ import annotations

from . import diagnostics as dk
from .diagnostics import fail
from .lf import El, KIND_ENC, PROP_OBJ, Prf, TYPE_ENC, TYPE_OBJ
from .pcert import KERNEL as PCERT
from .rewrite import Fuel, _as_fuel
from .terms import (
    Abs,
    App,
    Context,
    KIND,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    abstract_var,
    open_term,
)

# Subtype symbols keep their names across the encoding.
_SYMBOL_MAP = {"psub": "psub", "pair": "pair", "fst": "fst", "snd": "snd"}


class _Translation:
    """One translation call: shares sort queries between subterms."""

    def __init__(self, fuel: Fuel):
        self.fuel = fuel
        # Contexts hash by identity; holding them in the keys keeps them
        # alive, so a key's id cannot be reused by a later context.
        self._sorts: dict[tuple[Context, Term], str] = {}

    def sort_of(self, ctx: Context, t: Term) -> str:
        key = (ctx, t)
        hit = self._sorts.get(key)
        if hit is None:
            hit = PCERT.sort_of(ctx, t, self.fuel).tag
            self._sorts[key] = hit
        return hit

    def term(self, ctx: Context, m: Term) -> Term:
        match m:
            case Var(_):
                return m
            case Sort("Prop"):
                return PROP_OBJ
            case Sort("Type"):
                return TYPE_OBJ
            case Sort(tag):
                raise fail(dk.NOT_TYPABLE, f"sort {tag} has no term translation", context=ctx, subject=m)
            case App(f, a):
                return App(self.term(ctx, f), self.term(ctx, a))
            case Abs(hint, annot, body):
                v, opened = open_term(hint, body)
                inner = self.term(ctx.extend(v.name, annot), opened)
                return Abs(hint, self.type(ctx, annot), abstract_var(inner, v.name))
            case Prod(hint, dom, cod):
                v, opened = open_term(hint, cod)
                inner_ctx = ctx.extend(v.name, dom)
                s_dom = self.sort_of(ctx, dom)
                s_cod = self.sort_of(inner_ctx, opened)
                binder = Abs(hint, self.type(ctx, dom), abstract_var(self.term(inner_ctx, opened), v.name))
                head = {
                    ("Type", "Type"): "arrd",
                    ("Type", "Prop"): "fa",
                    ("Prop", "Prop"): "impd",
                }.get((s_dom, s_cod))
                if head is None:
                    raise fail(
                        dk.ILLEGAL_PRODUCT,
                        f"product over sorts ({s_dom}, {s_cod}) has no encoding",
                        context=ctx,
                        subject=m,
                    )
                return SymApp(head, (self.term(ctx, dom), binder))
            case SymApp(sym, args):
                target = _SYMBOL_MAP.get(sym)
                if target is None:
                    raise fail(dk.UNKNOWN_SYMBOL, f"symbol {sym!r} has no encoding", context=ctx, subject=m)
                return SymApp(target, tuple(self.term(ctx, a) for a in args))
        raise TypeError(f"not a term: {m!r}")

    def type(self, ctx: Context, t: Term) -> Term:
        if t == KIND:
            return KIND_ENC
        if t == Sort("Type"):
            return TYPE_ENC
        sort = self.sort_of(ctx, t)
        if sort == "Type":
            return El(self.term(ctx, t))
        if sort == "Prop":
            return Prf(self.term(ctx, t))
        raise fail(dk.NOT_A_SORT, f"no type translation at sort {sort}", context=ctx, subject=t)


def translate_term(ctx: Context, m: Term, fuel: Fuel | int | None = None) -> Term:
    """Requires m typable in ctx, which check_file's records guarantee; callers
    own that obligation, it is not re-checked here."""
    return _Translation(_as_fuel(fuel)).term(ctx, m)


def translate_type(ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Term:
    """Requires t to be Kind or typable by a sort in ctx."""
    tr = _Translation(_as_fuel(fuel))
    return tr.type(ctx, t)


def translate_ctx(ctx: Context, fuel: Fuel | int | None = None) -> Context:
    """Entrywise type translation, each entry under the prefix before it."""
    fuel = _as_fuel(fuel)
    out = Context()
    for depth, (name, ty) in enumerate(ctx):
        out = out.declare(name, translate_type(ctx.prefix(depth), ty, fuel))
    return out
