"""Algorithmic checker for a pure type system with fixed-arity symbols.

Both systems share the same inference rules and the same conversion; they
differ only in configuration: sorts, axioms, product triples, signature,
rewrite rules and the symbol arguments conversion ignores. Inference
synthesizes types bottom-up; the conversion rule is applied post hoc
wherever a type is consumed (application arguments, symbol arguments,
explicit checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import diagnostics as dk
from .diagnostics import fail
from .rewrite import Fuel, RuleSet, _as_fuel, convertible, whnf
from .terms import (
    Abs,
    App,
    Bound,
    Context,
    Prod,
    Signature,
    Sort,
    SymApp,
    Term,
    Var,
    abstract_var,
    instantiate,
    open_term,
    substitute_parallel,
)


@dataclass(frozen=True)
class SystemConfig:
    name: str
    axioms: Mapping[str, str]  # sort tag -> tag of its type
    products: Mapping[tuple[str, str], str]
    signature: Signature
    rules: RuleSet  # decides conversion and exposes products
    # symbol -> position of the argument conversion never inspects: proof
    # irrelevance as configuration (pcert skips a pair's certificate)
    irrelevant: Mapping[str, int] = field(default_factory=dict)


class Kernel:
    def __init__(self, config: SystemConfig):
        self.config = config
        self.signature = config.signature
        self.rules = config.rules

    def convert(self, ctx: Context, a: Term, b: Term, fuel: Fuel) -> bool:
        """Head-first conversion under this system's rules (`convertible`).

        Each pair proven convertible is recorded on ctx's table, per kernel,
        so proving it again anywhere in the same file is a lookup that
        spends no fuel. Only whole pairs at this entry are recorded, never
        the comparisons inside the recursion: those still pay for every
        step, so a term whose unfolding doubles per link still costs fuel
        exponential in the links.
        """
        if a == b:  # before the record: hashing a pair walks both terms
            return True
        proven = ctx.proven(self)
        if (a, b) in proven:
            return True
        if not convertible(self.rules, a, b, fuel, self.config.irrelevant):
            return False
        proven.add((a, b))
        return True

    def whnf(self, t: Term, fuel: Fuel) -> Term:
        return whnf(self.rules, t, fuel)

    def infer(self, ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Term:
        fuel = _as_fuel(fuel)
        return self._infer(ctx, t, fuel)

    def _infer(self, ctx: Context, t: Term, fuel: Fuel) -> Term:
        cfg = self.config
        match t:
            case Sort(tag):
                above = cfg.axioms.get(tag)
                if above is None:
                    raise fail(
                        dk.SORT_HAS_NO_TYPE,
                        f"sort {tag} has no type in system {cfg.name}",
                        context=ctx,
                        subject=t,
                    )
                return Sort(above)
            case Var(name):
                ty = ctx.lookup(name)
                if ty is None:
                    raise fail(dk.UNBOUND_VARIABLE, f"unbound variable {name!r}", context=ctx, subject=t)
                return ty
            case Bound(k):
                raise fail(dk.NOT_TYPABLE, f"dangling bound variable ^{k}", context=ctx, subject=t)
            case App(f, a):
                tf = self.whnf(self._infer(ctx, f, fuel), fuel)
                if not isinstance(tf, Prod):
                    raise fail(
                        dk.NOT_A_FUNCTION,
                        f"application head has non-product type {tf!r}",
                        context=ctx,
                        subject=t,
                    )
                ta = self._infer(ctx, a, fuel)
                if not self.convert(ctx, ta, tf.dom, fuel):
                    raise fail(
                        dk.DOMAIN_MISMATCH,
                        f"argument type {ta!r} does not match domain {tf.dom!r}",
                        context=ctx,
                        subject=t,
                    )
                return instantiate(tf.cod, a)
            case Abs(hint, annot, body):
                s_dom = self._sort_of(ctx, annot, fuel)
                v, opened = open_term(hint, body)
                inner_ctx = ctx.extend(v.name, annot)
                body_ty = self._infer(inner_ctx, opened, fuel)
                s_cod = self._sort_of(inner_ctx, body_ty, fuel)
                if (s_dom, s_cod) not in cfg.products:
                    raise fail(
                        dk.ILLEGAL_PRODUCT,
                        f"no product rule for ({s_dom}, {s_cod}) in system {cfg.name}",
                        context=ctx,
                        subject=t,
                    )
                return Prod(hint, annot, abstract_var(body_ty, v.name))
            case Prod(hint, dom, cod):
                s_dom = self._sort_of(ctx, dom, fuel)
                v, opened = open_term(hint, cod)
                s_cod = self._sort_of(ctx.extend(v.name, dom), opened, fuel)
                s_res = cfg.products.get((s_dom, s_cod))
                if s_res is None:
                    raise fail(
                        dk.ILLEGAL_PRODUCT,
                        f"no product rule for ({s_dom}, {s_cod}) in system {cfg.name}",
                        context=ctx,
                        subject=t,
                    )
                return Sort(s_res)
            case SymApp(sym, args):
                entry = self.signature.get(sym)
                if entry is None:
                    raise fail(dk.UNKNOWN_SYMBOL, f"unknown symbol {sym!r} in system {cfg.name}", context=ctx, subject=t)
                if len(args) != entry.arity:
                    raise fail(
                        dk.ARITY_MISMATCH,
                        f"symbol {sym!r} expects {entry.arity} arguments, got {len(args)}",
                        context=ctx,
                        subject=t,
                    )
                binding: dict[str, Term] = {}
                for (x, ty), arg in zip(entry.telescope, args):
                    expected = substitute_parallel(ty, binding)
                    actual = self._infer(ctx, arg, fuel)
                    if not self.convert(ctx, actual, expected, fuel):
                        raise fail(
                            dk.DOMAIN_MISMATCH,
                            f"argument {arg!r} of {sym!r} has type {actual!r}, expected {expected!r}",
                            context=ctx,
                            subject=t,
                        )
                    binding[x] = arg
                return substitute_parallel(entry.result, binding)
        raise TypeError(f"not a term: {t!r}")

    def _sort_of(self, ctx: Context, t: Term, fuel: Fuel) -> str:
        ty = self.whnf(self._infer(ctx, t, fuel), fuel)
        if not isinstance(ty, Sort):
            raise fail(dk.NOT_A_SORT, f"type of {t!r} is {ty!r}, not a sort", context=ctx, subject=t)
        return ty.tag

    def sort_of(self, ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Sort:
        """The sort classifying t, or NotASort."""
        return Sort(self._sort_of(ctx, t, _as_fuel(fuel)))

    def check_wf(self, ctx: Context, fuel: Fuel | int | None = None) -> None:
        """Each entry's type must be classified by a sort under its prefix."""
        fuel = _as_fuel(fuel)
        seen: set[str] = set()
        prefix = Context()
        for name, ty in ctx:
            if name in seen:
                raise fail(dk.DUPLICATE_NAME, f"variable {name!r} declared twice", context=ctx)
            seen.add(name)
            self._sort_of(prefix, ty, fuel)
            prefix = prefix.declare(name, ty)

    def check(self, ctx: Context, term: Term, expected: Term, fuel: Fuel | int | None = None) -> Term:
        """Infer and compare against an expected type; returns the inferred type."""
        fuel = _as_fuel(fuel)
        actual = self._infer(ctx, term, fuel)
        if not self.convert(ctx, actual, expected, fuel):
            raise fail(
                dk.TYPE_MISMATCH,
                f"term has type {actual!r}, expected {expected!r}",
                context=ctx,
                subject=term,
            )
        return actual

    def validate_signature(self, fuel: Fuel | int | None = None) -> None:
        """Check each entry against its own telescope: telescope is well
        formed, the result type has the recorded sort."""
        fuel = _as_fuel(fuel)
        for sym, entry in self.signature.items():
            ctx = Context()
            for x, ty in entry.telescope:
                self._sort_of(ctx, ty, fuel)
                ctx = ctx.declare(x, ty)
            got = self.whnf(self._infer(ctx, entry.result, fuel), fuel)
            if got != entry.sort:
                raise fail(
                    dk.NOT_A_SORT,
                    f"signature entry {sym!r}: result sort {got!r} differs from recorded {entry.sort!r}",
                )
