"""Algorithmic checker for a pure type system with fixed-arity symbols.

Both systems share the same inference rules and the same conversion; they
differ only in configuration: sorts, axioms, product triples, signature,
rewrite rules and the symbol arguments conversion ignores. Inference
synthesizes types bottom-up; the conversion rule is applied post hoc
wherever a type is consumed (application arguments, symbol arguments,
explicit checks).

Definitions reach the kernel expanded, and expansion hands one object to
every use, so the same term comes up for inference again and again, in
one declaration and in every later one. Inference therefore memoizes each
non-leaf term's type by the term's identity (a `terms.Memo`), per kernel,
on the context's table, so the memo lives for one file like the record of
proven conversions. An entry is used only under a view that sees at least
the rows it was made under; that is weakening, sound because rows never change
and every binder the kernel opens has a fresh name (a context the caller
handed in with binders of its own gets no memo). A replay returns the
recorded type and charges, through `Fuel.charge`, the entry's *redo cost*:
what inferring the term again would spend today. That is

- every step spent while inferring it (the `whnf` of types, conversions,
  the charges of nested replays), less
- the steps of each conversion whose pair mentions no binder opened during
  this inference: a redo meets that very pair again, now in the file's
  record of proven conversions, and gets it free. A pair that mentions
  such a binder is met again under a new fresh name and costs its steps
  again.

The steps of each conversion are filed under the level of its pair, 1 +
the position of the innermost binder it mentions (`Context.binder_level`),
and an inference that began under b binders subtracts those filed at levels
<= b during it (`_Replay`). When fewer steps remain than the redo cost, the
term is inferred again for real, so fuel runs out at the same step on the
same partial term as without the memo. Verdicts, fuel left and diagnostics
are those of inferring every occurrence; only the work shrinks, to linear
in the distinct subterms of a chain whose expansions share them.

Conversion keeps the same bargain across the file: `convert` hands
`rewrite.convertible` the kernel's conversion memo on the same table, so a
pair of objects compared in an earlier declaration is replayed at the steps
it cost then (see `convertible`).

So does the head normal form of a function's type, which the application
rule needs: in the lf encoding a symbol typed `El(arrd(...))` becomes a
product again at every use. A third memo on the same table maps each type
object reduced there to (its weak head normal form, the steps reducing it
spent), and `rewrite.whnf_replayed` charges those steps through
`Fuel.charge`; when they do not remain the type is reduced again for real,
so fuel runs out at the same step on the same partial term. The bargain is
exact because an entry depends on the term and the rules alone: the kernel
has no delta-reduction and `whnf` never reads the context, so an entry
holds under every view and every binder, and the steps a replay charges
are the steps reducing again would spend. A type that is neither an
application nor a symbol application skips the memo, and so does
`_sort_of`, whose types are nearly always sorts already; `Kernel.whnf` itself replays nothing.
"""

from __future__ import annotations

from typing import Mapping

from . import diagnostics as dk
from .diagnostics import fail
from .record import Frozen, setters
from .rewrite import Fuel, RuleSet, _as_fuel, _whnf, convertible, whnf_replayed
from .terms import (
    SORTS,
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
    ident,
    instantiate,
    open_term,
    substitute_parallel,
)


class SystemConfig(Frozen):
    """What sets one system apart. `axioms` maps a sort tag to the tag of
    its type; `rules` decide conversion and expose products; `irrelevant`
    maps a symbol to the position of the argument conversion never
    inspects: proof irrelevance as configuration (pcert skips a pair's
    certificate), none unless given."""

    __slots__ = __match_args__ = ("name", "axioms", "products", "signature", "rules", "irrelevant")

    def __init__(
        self,
        name: str,
        axioms: Mapping[str, str],
        products: Mapping[tuple[str, str], str],
        signature: Signature,
        rules: RuleSet,
        irrelevant: Mapping[str, int] | None = None,
    ):
        _config_name(self, name)
        _config_axioms(self, axioms)
        _config_products(self, products)
        _config_signature(self, signature)
        _config_rules(self, rules)
        _config_irrelevant(self, {} if irrelevant is None else irrelevant)


_config_name, _config_axioms, _config_products, _config_signature, _config_rules, _config_irrelevant = (
    setters(SystemConfig)
)


_LEAVES = (Var, Sort, Bound)


class _Replay:
    """One public inference call's access to the file's inference memo.

    `memo` is the kernel's inference memo on the context's table
    (`Context.records`, a `terms.Memo`) and lives, like the record of proven
    conversions, for one file: it maps each non-leaf term inferred to (its
    type, the `rows` of the view it was inferred under, its redo cost). A
    call whose context already holds binders gets no memo: their names are
    the caller's and need not be fresh.

    The ledger `low`/`total` files the steps of each conversion made inside
    the inference by the level of the pair, 1 + the position of the
    innermost binder it mentions (0: none); `free(b)` is the total filed at
    levels <= b so far.

    `heads` is the kernel's head normal form memo on the same table, which
    holds under any binders (see `rewrite.whnf_replayed`).
    """

    __slots__ = ("memo", "heads", "low", "total")

    def __init__(self, kernel: Kernel, ctx: Context):
        records = ctx.records(kernel)
        self.memo = None if ctx.binders else records.inferred
        self.heads = records.heads
        self.low: list[int] = []  # low[b]: steps filed at levels <= b
        self.total = 0  # steps filed at any level; all levels are < len(low)

    def free(self, b: int) -> int:
        low = self.low
        return low[b] if b < len(low) else self.total

    def file(self, level: int, steps: int) -> None:
        low = self.low
        while len(low) <= level:
            low.append(self.total)
        for i in range(level, len(low)):
            low[i] += steps
        self.total += steps


class Kernel:
    def __init__(self, config: SystemConfig):
        self.config = config
        self.signature = config.signature
        self.rules = config.rules
        # the sort of each tag the configuration can infer, the module
        # constant where there is one: sorts compare by value
        tags = (*config.axioms, *config.axioms.values(), *config.products.values())
        self.sorts = {tag: SORTS.get(tag) or Sort(tag) for tag in tags}

    def convert(self, ctx: Context, a: Term, b: Term, fuel: Fuel) -> bool:
        """Head-first conversion under this system's rules (`convertible`).

        Each pair proven convertible is recorded on ctx's table, per kernel,
        so proving it again anywhere in the same file is a lookup that
        spends no fuel; terms keep their hashes, so the lookup hashes neither
        side again. Only whole pairs at this entry are recorded, never
        the comparisons inside the recursion: those still pay for every
        step, so a term whose unfolding doubles per link still costs fuel
        exponential in the links. `convertible` replays a repeated
        sub-comparison from the kernel's conversion memo on the same table,
        which lives for the file too, instead of redoing it, but charges its
        steps again; so the time a chain of assertions takes is linear in
        its links, though each assertion re-compares the earlier links.
        """
        if a == b:
            return True
        records = ctx.records(self)
        if (a, b) in records.proven:
            return True
        if not convertible(self.rules, a, b, fuel, self.config.irrelevant, records.converted):
            return False
        records.proven.add((a, b))
        return True

    def whnf(self, t: Term, fuel: Fuel) -> Term:
        """Weak head normal form under this system's rules, on the budget
        the caller holds: `fuel` is a `Fuel` already, so it goes straight
        to the loop `rewrite._whnf`, not through the public `rewrite.whnf`,
        which would coerce it again."""
        return _whnf(self.rules, t, fuel)

    # The public entry points take a `Fuel`, an int or None. A `Fuel` is
    # coerced by an `isinstance` test in place, not a call of `_as_fuel`:
    # `check_file` hands every entry point of a declaration one `Fuel`.

    def infer(self, ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Term:
        if not isinstance(fuel, Fuel):
            fuel = _as_fuel(fuel)
        return self._infer(ctx, t, fuel, _Replay(self, ctx))

    def _infer(self, ctx: Context, t: Term, fuel: Fuel, run: _Replay) -> Term:
        """Infer t's type, or replay it from the file's memo (see `_Replay`);
        leaves bypass the memo."""
        memo = run.memo
        if memo is None or type(t) in _LEAVES:
            return self._infer_node(ctx, t, fuel, run)
        seen = memo.get(ident(t))
        if seen is not None and ctx.rows >= seen[1] and fuel.charge(seen[2]):
            return seen[0]
        b = len(ctx.binders)
        spent, free = fuel.spent, run.free(b)
        ty = self._infer_node(ctx, t, fuel, run)
        memo.put(ident(t), (ty, ctx.rows, fuel.spent - spent - (run.free(b) - free)), t)
        return ty

    def _infer_node(self, ctx: Context, t: Term, fuel: Fuel, run: _Replay) -> Term:
        """The inference rule at t's head; subterms go through `_infer`.
        The head is told by `type(t)`, most frequent first, as the walks in
        `terms` do: a `match` on class patterns costs several times more per
        node."""
        cfg = self.config
        cls = type(t)
        if cls is Var:
            ty = ctx.lookup(t.name)
            if ty is None:
                raise fail(dk.UNBOUND_VARIABLE, f"unbound variable {t.name!r}", context=ctx, subject=t)
            return ty
        if cls is App:
            tf = whnf_replayed(self.rules, self._infer(ctx, t.fun, fuel, run), fuel, run.heads)
            if not isinstance(tf, Prod):
                raise fail(
                    dk.NOT_A_FUNCTION,
                    f"application head has non-product type {tf!r}",
                    context=ctx,
                    subject=t,
                )
            a = t.arg
            ta = self._infer(ctx, a, fuel, run)
            if not self._convert(ctx, ta, tf.dom, fuel, run):
                raise fail(
                    dk.DOMAIN_MISMATCH,
                    f"argument type {ta!r} does not match domain {tf.dom!r}",
                    context=ctx,
                    subject=t,
                )
            return instantiate(tf.cod, a)
        if cls is Prod:
            dom = t.dom
            s_dom = self._sort_of(ctx, dom, fuel, run)
            v, opened = open_term(t.hint, t.cod)
            s_cod = self._sort_of(ctx.extend(v.name, dom), opened, fuel, run)
            s_res = cfg.products.get((s_dom, s_cod))
            if s_res is None:
                raise fail(
                    dk.ILLEGAL_PRODUCT,
                    f"no product rule for ({s_dom}, {s_cod}) in system {cfg.name}",
                    context=ctx,
                    subject=t,
                )
            return self.sorts[s_res]
        if cls is SymApp:
            sym, args = t.sym, t.args
            entry = self.signature.get(sym)
            if entry is None:
                raise fail(dk.UNKNOWN_SYMBOL, f"unknown symbol {sym!r} in system {cfg.name}", context=ctx, subject=t)
            if len(args) != len(entry.telescope):
                raise fail(
                    dk.ARITY_MISMATCH,
                    f"symbol {sym!r} expects {entry.arity} arguments, got {len(args)}",
                    context=ctx,
                    subject=t,
                )
            binding: dict[str, Term] = {}
            for (x, ty), arg in zip(entry.telescope, args):
                expected = substitute_parallel(ty, binding)
                actual = self._infer(ctx, arg, fuel, run)
                if not self._convert(ctx, actual, expected, fuel, run):
                    raise fail(
                        dk.DOMAIN_MISMATCH,
                        f"argument {arg!r} of {sym!r} has type {actual!r}, expected {expected!r}",
                        context=ctx,
                        subject=t,
                    )
                binding[x] = arg
            return substitute_parallel(entry.result, binding)
        if cls is Abs:
            annot, hint = t.annot, t.hint
            s_dom = self._sort_of(ctx, annot, fuel, run)
            v, opened = open_term(hint, t.body)
            inner_ctx = ctx.extend(v.name, annot)
            body_ty = self._infer(inner_ctx, opened, fuel, run)
            s_cod = self._sort_of(inner_ctx, body_ty, fuel, run)
            if (s_dom, s_cod) not in cfg.products:
                raise fail(
                    dk.ILLEGAL_PRODUCT,
                    f"no product rule for ({s_dom}, {s_cod}) in system {cfg.name}",
                    context=ctx,
                    subject=t,
                )
            return Prod(hint, annot, abstract_var(body_ty, v.name))
        if cls is Sort:
            above = cfg.axioms.get(t.tag)
            if above is None:
                raise fail(
                    dk.SORT_HAS_NO_TYPE,
                    f"sort {t.tag} has no type in system {cfg.name}",
                    context=ctx,
                    subject=t,
                )
            return self.sorts[above]
        if cls is Bound:
            raise fail(dk.NOT_TYPABLE, f"dangling bound variable ^{t.index}", context=ctx, subject=t)
        raise TypeError(f"not a term: {t!r}")

    def _convert(self, ctx: Context, a: Term, b: Term, fuel: Fuel, run: _Replay) -> bool:
        """`convert` inside an inference, filing the steps it spent by the
        innermost binder the pair mentions, for the redo costs of `_infer`."""
        spent = fuel.spent
        verdict = self.convert(ctx, a, b, fuel)
        if fuel.spent != spent and run.memo is not None:
            run.file(ctx.binder_level(a, b), fuel.spent - spent)
        return verdict

    def _sort_of(self, ctx: Context, t: Term, fuel: Fuel, run: _Replay) -> str:
        ty = self.whnf(self._infer(ctx, t, fuel, run), fuel)
        if not isinstance(ty, Sort):
            raise fail(dk.NOT_A_SORT, f"type of {t!r} is {ty!r}, not a sort", context=ctx, subject=t)
        return ty.tag

    def sort_of(self, ctx: Context, t: Term, fuel: Fuel | int | None = None) -> Sort:
        """The sort classifying t, or NotASort. Sorts compare by value, so
        the sort is the kernel's constant for its tag (`sorts`), not a new
        node."""
        if not isinstance(fuel, Fuel):
            fuel = _as_fuel(fuel)
        tag = self._sort_of(ctx, t, fuel, _Replay(self, ctx))
        return self.sorts.get(tag) or Sort(tag)

    def check(self, ctx: Context, term: Term, expected: Term, fuel: Fuel | int | None = None) -> Term:
        """Infer and compare against an expected type; returns the inferred type."""
        if not isinstance(fuel, Fuel):
            fuel = _as_fuel(fuel)
        actual = self._infer(ctx, term, fuel, _Replay(self, ctx))
        if not self.convert(ctx, actual, expected, fuel):
            raise fail(
                dk.TYPE_MISMATCH,
                f"term has type {actual!r}, expected {expected!r}",
                context=ctx,
                subject=term,
            )
        return actual
