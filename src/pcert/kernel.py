"""Algorithmic checker for a pure type system with fixed-arity symbols.

Both systems share the same inference rules and the same conversion; they
differ only in the tables each hands to `Kernel`. Inference synthesizes types
bottom-up; the conversion rule is applied post hoc wherever a type is
consumed (application arguments, symbol arguments, explicit checks).

Definitions reach the kernel expanded, and expansion hands one object to
every use, so the same term comes up for inference in many declarations.
Inference therefore memoizes each non-leaf term's type by the term's
identity, per kernel, on the context's table (`terms.Records`), for one
file, in one walk (`_infer`, laid out as `terms` says under Dispatch). An
entry is filed only for a term inferred under no binder, so no key
mentions a fresh name, and is used under any view that sees at least the
rows it was made under, at any depth: that is weakening, sound because rows
never change and a binder's name is never a row's. A replay follows the
rule of `rewrite`, with the entry's *redo cost* as its steps: what inferring
the term again would spend today. That is every step spent while inferring
it (the `whnf` of types, conversions, the charges of nested replays), less
the steps of each conversion whose pair mentions no binder (the growth of
`Records.free` meanwhile): a redo meets that very pair again, now in the
file's record of proven conversions, and gets it free. A pair that
mentions a binder is met again under a new fresh name and costs its steps
again. `convert` credits `free` for every pair it proves, inside an
inference or not; `free` is read only as a difference around one
inference, and a failed conversion raises before any entry is filed, so
the credit of a conversion outside an inference changes no redo cost.

A binder body that does not mention its binder is typed in the outer
context (strengthening), so the closed codomain of an arrow is filed and
replayed like any term under no binder.

Inference does not rebuild what it can read off the term, and each skip is
exact. A body with no loose index (`terms.loose_bounds`, kept for the file
on the same table) is neither opened nor closed: `open_term` would hand it
back as itself, and `abstract_var` would hand back as itself the type it
has in the outer context. Its fresh name is drawn all the same, so later
names, and the diagnostics that print them, are those of opening it. The
application rule returns such a codomain as it is, for the same reason.
A symbol argument is matched against its telescope type in place
(`terms.substituted_equals`), and the expected type is built only on a
miss: on a hit `convert` would return at `==` before it spends fuel or
records a pair. A bound variable is answered by one lookup, and a type
that is already a sort is not taken to head normal form.

The kernel's conversion and head normal form memos, on the same table,
replay by the rule of `rewrite` too. The application rule takes a function
type's head normal form from the latter, since in the lf encoding a symbol
typed `El(arrd(...))` becomes a product again at every use; an entry holds
under every view and binder, because the kernel has no delta-reduction and
`whnf` never reads the context. `_sort_of` and `Kernel.whnf` replay nothing.
"""

from __future__ import annotations

from typing import Mapping

from . import diagnostics as dk
from .diagnostics import fail
from .rewrite import Fuel, RuleSet, _as_fuel, _convert, _whnf, whnf_replayed
from .terms import (
    SORTS,
    Abs,
    App,
    Bound,
    Context,
    Prod,
    Records,
    Signature,
    Sort,
    SymApp,
    Term,
    Var,
    abstract_var,
    fresh_name,
    ident,
    instantiate,
    loose_bounds,
    open_term,
    shown,
    substitute_parallel,
    substituted_equals,
)


class Kernel:
    """The checker of one system, as its tables set it up. `axioms` maps a
    sort tag to the tag of its type and `products` a pair of sort tags to
    the tag of their product; `rules` decide conversion and expose
    products; `irrelevant` maps a symbol to the position of the argument
    conversion never inspects: proof irrelevance as a table (pcert skips a
    pair's certificate), none unless given."""

    def __init__(
        self,
        name: str,
        axioms: Mapping[str, str],
        products: Mapping[tuple[str, str], str],
        signature: Signature,
        rules: RuleSet,
        irrelevant: Mapping[str, int] | None = None,
    ):
        self.name = name
        self.axioms = axioms
        self.products = products
        self.signature = signature
        self.rules = rules
        self.irrelevant = {} if irrelevant is None else irrelevant
        # the sort of each tag the tables can infer, the module constant
        # where there is one
        tags = (*axioms, *axioms.values(), *products.values())
        self.sorts = {tag: SORTS.get(tag) or Sort(tag) for tag in tags}

    def convert(self, ctx: Context, a: Term, b: Term, fuel: Fuel) -> bool:
        """Head-first conversion under this system's rules
        (`rewrite.convertible`), with the file's conversion memo.

        Each pair proven convertible is recorded on ctx's table, per kernel,
        so proving it again anywhere in the same file is a lookup that
        spends no fuel. Only whole pairs at this entry are recorded, never
        the comparisons inside the recursion: those are charged every step
        again, so a term whose unfolding doubles per link still costs fuel
        exponential in the links. The steps of a proof whose pair mentions
        no binder are counted in `records.free` (see the module docstring).
        """
        if a == b:
            return True
        records = ctx.records(self)
        if (a, b) in records.proven:
            return True
        spent = fuel.spent
        if not _convert(self.rules, a, b, fuel, self.irrelevant, records.converted):
            return False
        records.proven.add((a, b))
        if fuel.spent != spent and not ctx.mentions_binder(a, b):
            records.free += fuel.spent - spent
        return True

    def whnf(self, t: Term, fuel: Fuel) -> Term:
        """Weak head normal form under this system's rules, on the caller's
        `Fuel`."""
        return _whnf(self.rules, t, fuel)

    # The public entry points take a `Fuel`, an int or None, and test for a
    # `Fuel` in place rather than call `_as_fuel`: `check_file` hands every
    # entry point of a declaration one `Fuel`.

    def infer(self, ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Term:
        if not isinstance(fuel, Fuel):
            fuel = _as_fuel(fuel)
        return self._infer(ctx, t, fuel, ctx.records(self))

    def _infer(self, ctx: Context, t: Term, fuel: Fuel, records: Records) -> Term:
        """Infer t's type, or replay it from the file's memo (see the module
        docstring). `records` is this kernel's `Records` under ctx's table;
        `records.inferred` maps a term to (its type, the `rows` of the view
        it was inferred under, its redo cost)."""
        cls = type(t)
        if cls is Var:
            ty = ctx.lookup(t.name)
            if ty is None:
                raise fail(dk.UNBOUND_VARIABLE, f"unbound variable {t.name!r}", context=ctx, subject=t)
            return ty
        if cls is Sort:
            above = self.axioms.get(t.tag)
            if above is None:
                raise fail(
                    dk.SORT_HAS_NO_TYPE,
                    f"sort {t.tag} has no type in system {self.name}",
                    context=ctx,
                    subject=t,
                )
            return self.sorts[above]
        if cls is Bound:
            raise fail(dk.NOT_TYPABLE, f"dangling bound variable ^{t.index}", context=ctx, subject=t)
        seen = records.inferred.get(ident(t))
        if seen is not None and ctx.rows >= seen[1] and fuel.charge(seen[2]):
            return seen[0]
        spent, free = fuel.spent, records.free
        if cls is App:
            tf = whnf_replayed(self.rules, self._infer(ctx, t.fun, fuel, records), fuel, records.heads)
            if not isinstance(tf, Prod):
                raise fail(
                    dk.NOT_A_FUNCTION,
                    f"application head has non-product type {shown(tf)}",
                    context=ctx,
                    subject=t,
                )
            a = t.arg
            ta = self._infer(ctx, a, fuel, records)
            if not self.convert(ctx, ta, tf.dom, fuel):
                raise fail(
                    dk.DOMAIN_MISMATCH,
                    f"argument type {shown(ta)} does not match domain {shown(tf.dom)}",
                    context=ctx,
                    subject=t,
                )
            cod = tf.cod
            ty = instantiate(cod, a) if loose_bounds(cod, records.bounds) else cod
        elif cls is Prod or cls is Abs:
            # both sort the domain, and a codomain under the opened binder:
            # a product's body, or the type of an abstraction's body; a body
            # that ignores its binder is neither opened nor closed, and is
            # typed in the outer context
            dom, hint, cod = t.dom, t.hint, t.body
            s_dom = self._sort_of(ctx, dom, fuel, records)
            opened = loose_bounds(cod, records.bounds)
            if opened:
                v, cod = open_term(hint, cod)
                inner_ctx = ctx.extend(v.name, dom)
            else:
                fresh_name(hint)  # drawn as opening would, so later names stay the same
                inner_ctx = ctx
            if cls is Abs:
                cod = self._infer(inner_ctx, cod, fuel, records)
            s_cod = self._sort_of(inner_ctx, cod, fuel, records)
            s_res = self.products.get((s_dom, s_cod))
            if s_res is None:
                raise fail(
                    dk.ILLEGAL_PRODUCT,
                    f"no product rule for ({s_dom}, {s_cod}) in system {self.name}",
                    context=ctx,
                    subject=t,
                )
            if cls is Prod:
                ty = self.sorts[s_res]
            else:
                ty = Prod(hint, dom, abstract_var(cod, v.name) if opened else cod)
        elif cls is SymApp:
            sym, args = t.sym, t.args
            entry = self.signature.get(sym)
            if entry is None:
                raise fail(dk.UNKNOWN_SYMBOL, f"unknown symbol {sym!r} in system {self.name}", context=ctx, subject=t)
            if len(args) != len(entry.telescope):
                raise fail(
                    dk.ARITY_MISMATCH,
                    f"symbol {sym!r} expects {entry.arity} arguments, got {len(args)}",
                    context=ctx,
                    subject=t,
                )
            binding: dict[str, Term] = {}
            for (x, declared), arg in zip(entry.telescope, args):
                actual = self._infer(ctx, arg, fuel, records)
                if not substituted_equals(declared, binding, actual):
                    expected = substitute_parallel(declared, binding)
                    if not self.convert(ctx, actual, expected, fuel):
                        raise fail(
                            dk.DOMAIN_MISMATCH,
                            f"argument {shown(arg)} of {sym!r} has type {shown(actual)}, expected {shown(expected)}",
                            context=ctx,
                            subject=t,
                        )
                binding[x] = arg
            ty = substitute_parallel(entry.result, binding)
        else:
            raise TypeError(f"not a term: {t!r}")
        if not ctx.binders:
            records.inferred.put(ident(t), (ty, ctx.rows, fuel.spent - spent - (records.free - free)), t)
        return ty

    def _sort_of(self, ctx: Context, t: Term, fuel: Fuel, records: Records) -> str:
        ty = self._infer(ctx, t, fuel, records)
        if type(ty) is not Sort:
            ty = self.whnf(ty, fuel)
            if type(ty) is not Sort:
                raise fail(dk.NOT_A_SORT, f"type of {shown(t)} is {shown(ty)}, not a sort", context=ctx, subject=t)
        return ty.tag

    def sort_of(self, ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Sort:
        """The sort classifying t, or NotASort: the kernel's constant for
        its tag (`sorts`)."""
        if not isinstance(fuel, Fuel):
            fuel = _as_fuel(fuel)
        tag = self._sort_of(ctx, t, fuel, ctx.records(self))
        return self.sorts.get(tag) or Sort(tag)

    def check(self, ctx: Context, term: Term, expected: Term, fuel: Fuel | int | None = None) -> Term:
        """Infer and compare against an expected type; returns the inferred type."""
        if not isinstance(fuel, Fuel):
            fuel = _as_fuel(fuel)
        actual = self._infer(ctx, term, fuel, ctx.records(self))
        if not self.convert(ctx, actual, expected, fuel):
            raise fail(
                dk.TYPE_MISMATCH,
                f"term has type {shown(actual)}, expected {shown(expected)}",
                context=ctx,
                subject=term,
            )
        return actual
