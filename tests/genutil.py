"""Random typed-term synthesis and equational walks for the test suite.

Terms are generated bottom-up against a fixed base context, goal-directed so
that every output is well typed by construction (the tests re-check that
with the kernel anyway). The equational walker perturbs a typed seed with
beta expansions/contractions, projection steps and certificate swaps, all of
which preserve the conversion relation. `normalize_and_compare` is the
reference decision the kernels' head-first conversion is checked against,
`translate_by_kernel_sorts` the reference translation the one-pass
`pcert.translate` is checked against, the `ref_*` reduction functions the
reference the step-for-step reduction engine of `pcert.rewrite` is checked
against, `ref_infer` the reference the replaying inference of
`pcert.kernel` is checked against, `reference_conversion` the reference the
file-wide conversion memo of `Kernel.convert` is checked against,
`ref_equal` and `ref_hash` the references the sharing-aware `==` and the
kept hashes of terms are checked against, `NamedParser`, `FreshParser`
and `UnmemoizedParser` the references the scope-resolving parser, the
interning parser and its span memo are checked against, `ref_lex` the
reference the lexer is checked against, `ref_instantiate`,
`ref_is_nondependent` and `ref_loose_bounds` the tree walks the sharing
ones of `pcert.terms` are checked against, `ref_print_file` and
`ref_development_lines` the references the memoizing printer and Lambdapi
exporter are checked against, `ref_inverse_term` and `ref_inverse_type`
the reference the inverse, which builds a failure's path only on failure,
is checked against, and `ref_check_orthogonality` the unification-based
report the skeleton-based `rewrite.check_orthogonality` is checked against.
`check_wf`, `validate_signature`, `inverse_type`, `substitute`, `lam` and
`pi` are entry points that only the tests use.
"""

from __future__ import annotations

import contextlib
import gc
import random
import re
import sys

from pcert import Context, check_file, parse_file
from pcert import diagnostics as dk, inverse as inverse_module, kernel as kernel_module
from pcert.diagnostics import UNCHECKED_INPUT, fail
from pcert.export import _LP_ID, ENCODING_MODULE
from pcert.inverse import NotInImage
from pcert.kernel import Kernel
from pcert.lexer import scan
from pcert.lf import El, KIND_ENC, PROP_OBJ, Prf, TYPE_ENC, TYPE_OBJ
from pcert.pcert import KERNEL as PCERT_KERNEL, BETA_PROJ, pi_erase
from pcert.rewrite import Fuel, OrthogonalityReport, RuleSet, _as_fuel, match, normalize
from pcert.syntax import (
    AssertConv,
    AssertJudgment,
    Definition,
    ParsedFile,
    SymbolDecl,
    _ID_OK,
    _RESERVED_DISPLAY,
    _Parser,
    _SymRef,
)
from pcert.terms import (
    KIND,
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
    alpha_eq,
    free_names,
    fresh_name,
    instantiate,
    open_term,
    substitute_parallel,
)

def lam(name: str, annot: Term, body: Term) -> Abs:
    """Abstraction from named syntax: closes `name` in `body`."""
    return Abs(name, annot, abstract_var(body, name))


def pi(name: str, dom: Term, cod: Term) -> Prod:
    return Prod(name, dom, abstract_var(cod, name))


BASE_SURFACE = """#MODE pcert
symbol iota : Type;
symbol P : iota -> Prop;
symbol Q : Prop;
symbol a : iota;
symbol b : iota;
symbol f : iota -> iota;
symbol g : iota -> iota -> iota;
symbol ha : P a;
symbol ha' : P a;
symbol hb : P b;
symbol hq : Q;
symbol hq' : Q;
symbol qimp : Q -> P b;
"""

BASE_CTX: Context = check_file(parse_file(BASE_SURFACE, "<base>")).context

IOTA = Var("iota")
PQ = Var("P")
QT = Var("Q")
PSUB_P = SymApp("psub", (IOTA, PQ))
P_A = App(PQ, Var("a"))
P_B = App(PQ, Var("b"))
PROP = Sort("Prop")
ARR_II = Prod("_", IOTA, IOTA)

GOAL_POOL = [IOTA, IOTA, IOTA, PSUB_P, PSUB_P, QT, P_A, PROP, PROP, ARR_II]


# --- entry points only the tests use --------------------------------------------


def check_wf(kernel: Kernel, ctx: Context, fuel: Fuel | int | None = None) -> None:
    """Each entry's type must be classified by a sort under its prefix."""
    fuel = _as_fuel(fuel)
    seen: set[str] = set()
    prefix = Context()
    for name, ty in ctx:
        if name in seen:
            raise fail(dk.DUPLICATE_NAME, f"variable {name!r} declared twice", context=ctx)
        seen.add(name)
        kernel.sort_of(prefix, ty, fuel)
        prefix = prefix.declare(name, ty)


def validate_signature(kernel: Kernel, fuel: Fuel | int | None = None) -> None:
    """Check each entry of the kernel's signature against its own telescope:
    the telescope is well formed, the result type has the recorded sort."""
    fuel = _as_fuel(fuel)
    for sym, entry in kernel.signature.items():
        ctx = Context()
        for x, ty in entry.telescope:
            kernel.sort_of(ctx, ty, fuel)
            ctx = ctx.declare(x, ty)
        got = kernel.whnf(kernel.infer(ctx, entry.result, fuel), fuel)
        if got != entry.sort:
            raise fail(
                dk.NOT_A_SORT,
                f"signature entry {sym!r}: result sort {got!r} differs from recorded {entry.sort!r}",
            )


def inverse_type(t: Term) -> Term | NotInImage:
    """The inverse of a translated type, with a memo of its own."""
    return inverse_module._reported(inverse_module._type(t, Memo()))


def substitute(body: Term, binding: tuple[str, Term]) -> Term:
    """Capture-avoiding single substitution of a named free variable."""
    name, value = binding
    return substitute_parallel(body, {name: value})


class TermGen:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def some_term(self, depth: int = 6, ctx: Context = BASE_CTX) -> tuple[Term, Term]:
        goal = self.rng.choice(GOAL_POOL)
        return self.term_of(goal, depth, ctx), goal

    def vars_of(self, ctx: Context, goal: Term) -> list[Term]:
        return [Var(n) for n, ty in ctx if alpha_eq(ty, goal)]

    def term_of(self, goal: Term, depth: int, ctx: Context = BASE_CTX) -> Term:
        rng = self.rng
        if depth <= 0:
            return self._leaf(goal, ctx)
        roll = rng.random()
        if alpha_eq(goal, IOTA):
            if roll < 0.25:
                return self._leaf(goal, ctx)
            if roll < 0.45:
                return App(Var("f"), self.term_of(IOTA, depth - 1, ctx))
            if roll < 0.6:
                return App(App(Var("g"), self.term_of(IOTA, depth - 1, ctx)), self.term_of(IOTA, depth - 1, ctx))
            if roll < 0.8:
                return SymApp("fst", (IOTA, PQ, self.term_of(PSUB_P, depth - 1, ctx)))
            return self._redex(goal, depth, ctx)
        if alpha_eq(goal, PSUB_P):
            if roll < 0.45:
                return SymApp("pair", (IOTA, PQ, Var("a"), self.term_of(P_A, depth - 1, ctx)))
            if roll < 0.7:
                return SymApp("pair", (IOTA, PQ, Var("b"), self.term_of(P_B, depth - 1, ctx)))
            if roll < 0.85 and self.vars_of(ctx, goal):
                return rng.choice(self.vars_of(ctx, goal))
            return self._redex(goal, depth, ctx)
        if alpha_eq(goal, QT):
            if roll < 0.6:
                return self._leaf(goal, ctx)
            return self._redex(goal, depth, ctx)
        if alpha_eq(goal, P_A):
            if roll < 0.4:
                return self._leaf(goal, ctx)
            if roll < 0.7:
                return SymApp(
                    "snd",
                    (IOTA, PQ, SymApp("pair", (IOTA, PQ, Var("a"), self.term_of(P_A, depth - 1, ctx)))),
                )
            return self._redex(goal, depth, ctx)
        if alpha_eq(goal, P_B):
            if roll < 0.4:
                return Var("hb")
            if roll < 0.7:
                return App(Var("qimp"), self.term_of(QT, depth - 1, ctx))
            return self._redex(goal, depth, ctx)
        if alpha_eq(goal, PROP):
            if roll < 0.2:
                return QT
            if roll < 0.45:
                return App(PQ, self.term_of(IOTA, depth - 1, ctx))
            if roll < 0.65:
                x = fresh_name("x")
                body = self.term_of(PROP, depth - 1, ctx.extend(x, IOTA))
                return pi(x, IOTA, body)
            if roll < 0.8:
                h = fresh_name("h")
                left = self.term_of(PROP, depth - 1, ctx)
                body = self.term_of(PROP, depth - 1, ctx.extend(h, left))
                return pi(h, left, body)
            return self._redex(goal, depth, ctx)
        if alpha_eq(goal, ARR_II):
            if roll < 0.3:
                return Var("f")
            if roll < 0.5:
                return App(Var("g"), self.term_of(IOTA, depth - 1, ctx))
            x = fresh_name("x")
            body = self.term_of(IOTA, depth - 1, ctx.extend(x, IOTA))
            return lam(x, IOTA, body)
        return self._leaf(goal, ctx)

    def _leaf(self, goal: Term, ctx: Context) -> Term:
        options = self.vars_of(ctx, goal)
        if alpha_eq(goal, PROP):
            options = [QT, P_A, P_B]
        if alpha_eq(goal, PSUB_P):
            options = options or [SymApp("pair", (IOTA, PQ, Var("a"), Var("ha")))]
        if alpha_eq(goal, ARR_II):
            options = options or [Var("f")]
        if not options:
            raise ValueError(f"no leaf for goal {goal!r}")
        return self.rng.choice(options)

    def _redex(self, goal: Term, depth: int, ctx: Context) -> Term:
        """A beta redex of the requested type: (\\x: D. body) arg."""
        prop_goal = alpha_eq(goal, QT) or alpha_eq(goal, P_A) or alpha_eq(goal, P_B)
        # proposition-sorted codomains admit proof-typed domains too
        domains = (IOTA, PSUB_P, QT) if prop_goal else (IOTA, PSUB_P)
        dom = self.rng.choice(domains)
        x = fresh_name("x")
        body = self.term_of(goal, depth - 1, ctx.extend(x, dom))
        arg = self.term_of(dom, depth - 1, ctx)
        return App(lam(x, dom, body), arg)


# --- typed positions and equational steps ------------------------------------


def _children(t: Term) -> list[Term]:
    match t:
        case App(fn, arg):
            return [fn, arg]
        case Abs(_, annot, body) | Prod(_, annot, body):
            return [annot, body]
        case SymApp(_, args):
            return list(args)
        case _:
            return []


def positions(ctx: Context, t: Term) -> list[tuple[tuple[int, ...], tuple[str, ...], Context, Term]]:
    """All subterm positions as (path, opened binder names, context, subterm).

    Binders are opened with fresh variables so every reported subterm is
    locally closed; replace_at reuses the recorded names so edits computed
    against an opened subterm close back correctly.
    """
    out: list[tuple[tuple[int, ...], tuple[str, ...], Context, Term]] = [((), (), ctx, t)]
    match t:
        case App(fn, arg):
            for i, child in enumerate((fn, arg)):
                out.extend(((i,) + p, ns, c, s) for p, ns, c, s in positions(ctx, child))
        case Abs(hint, annot, body) | Prod(hint, annot, body):
            out.extend(((0,) + p, ns, c, s) for p, ns, c, s in positions(ctx, annot))
            v, opened = open_term(hint, body)
            inner = ctx.extend(v.name, annot)
            out.extend(((1,) + p, (v.name,) + ns, c, s) for p, ns, c, s in positions(inner, opened))
        case SymApp(_, args):
            for i, child in enumerate(args):
                out.extend(((i,) + p, ns, c, s) for p, ns, c, s in positions(ctx, child))
        case _:
            pass
    return out


def replace_at(t: Term, path: tuple[int, ...], opened: tuple[str, ...], new: Term) -> Term:
    """Rebuild t with the subterm at path replaced, reopening binders with
    the names positions() recorded."""
    if not path:
        return new
    i, rest = path[0], path[1:]
    match t:
        case App(fn, arg):
            if i == 0:
                return App(replace_at(fn, rest, opened, new), arg)
            return App(fn, replace_at(arg, rest, opened, new))
        case Abs(hint, annot, body):
            if i == 0:
                return Abs(hint, replace_at(annot, rest, opened, new), body)
            name, opened = opened[0], opened[1:]
            inner = replace_at(instantiate(body, Var(name)), rest, opened, new)
            return Abs(hint, annot, abstract_var(inner, name))
        case Prod(hint, dom, cod):
            if i == 0:
                return Prod(hint, replace_at(dom, rest, opened, new), cod)
            name, opened = opened[0], opened[1:]
            inner = replace_at(instantiate(cod, Var(name)), rest, opened, new)
            return Prod(hint, dom, abstract_var(inner, name))
        case SymApp(sym, args):
            new_args = list(args)
            new_args[i] = replace_at(args[i], rest, opened, new)
            return SymApp(sym, tuple(new_args))
    raise ValueError(f"bad path {path} at {t!r}")


def _is_beta_redex(t: Term) -> bool:
    return isinstance(t, App) and isinstance(t.fun, Abs)


def _is_proj_redex(t: Term) -> bool:
    return match(BETA_PROJ.rules[0].lhs, t) is not None


_PROOF_SWAPS = {P_A: (Var("ha"), Var("ha'")), P_B: (Var("hb"),), QT: (Var("hq"), Var("hq'"))}


class EquivalenceWalker:
    """Applies conversion-preserving steps to typed terms of the base context."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def step(self, ctx: Context, t: Term) -> Term | None:
        moves = []
        for path, opened, local_ctx, sub in positions(ctx, t):
            if _is_beta_redex(sub):
                moves.append((path, opened, instantiate(sub.fun.body, sub.arg)))
            if _is_proj_redex(sub):
                moves.append((path, opened, sub.args[2].args[2]))
            if isinstance(sub, SymApp) and sub.sym == "pair" and len(sub.args) == 4:
                proof = sub.args[3]
                proof_ty = PCERT_KERNEL.infer(local_ctx, proof, Fuel())
                key = normalize(BETA_PROJ, proof_ty, Fuel())
                for replacement in _PROOF_SWAPS.get(key, ()):
                    if not alpha_eq(replacement, proof):
                        moves.append((path, opened, SymApp("pair", sub.args[:3] + (replacement,))))
            # beta expansion of any subterm whose type lives in a sort that
            # products can abstract over
            if self.rng.random() < 0.3:
                try:
                    ty = PCERT_KERNEL.infer(local_ctx, sub, Fuel())
                    sort = PCERT_KERNEL.sort_of(local_ctx, ty, Fuel()).tag
                except Exception:
                    continue
                if (sort, sort) in PCERT_KERNEL.products:
                    moves.append((path, opened, App(Abs("z", ty, Bound(0)), sub)))
        if not moves:
            return None
        path, opened, new_sub = self.rng.choice(moves)
        return replace_at(t, path, opened, new_sub)

    def walk(self, ctx: Context, t: Term, steps: int) -> Term:
        current = t
        for _ in range(steps):
            stepped = self.step(ctx, current)
            if stepped is None:
                break
            current = stepped
        return current


# --- the conversion oracle -----------------------------------------------------


def normalize_and_compare(rules: RuleSet, a: Term, b: Term, fuel: Fuel, erase: bool = False) -> bool:
    """Conversion by full normalization of both sides, then comparison.

    With `erase` the normal forms are compared after `pi_erase`, which is
    pcert's proof irrelevance. Slow (every subterm is normalized, pair
    certificates included) but plainly right on the orthogonal rule sets,
    so it is the oracle for `rewrite.convertible` and `Kernel.convert`.
    """
    if a == b:
        return True
    na, nb = normalize(rules, a, fuel), normalize(rules, b, fuel)
    if erase:
        na, nb = pi_erase(na), pi_erase(nb)
    return na == nb


# --- the translation oracle ------------------------------------------------------

_PRODUCT_HEADS = {("Type", "Type"): "arrd", ("Type", "Prop"): "fa", ("Prop", "Prop"): "impd"}


def _sort_of(ctx: Context, t: Term) -> str:
    return PCERT_KERNEL.sort_of(ctx, t).tag


def _term_by_kernel_sorts(ctx: Context, m: Term) -> Term:
    match m:
        case Var(_):
            return m
        case Sort("Prop"):
            return PROP_OBJ
        case Sort("Type"):
            return TYPE_OBJ
        case App(f, a):
            return App(_term_by_kernel_sorts(ctx, f), _term_by_kernel_sorts(ctx, a))
        case Abs(hint, annot, body):
            v, opened = open_term(hint, body)
            inner = _term_by_kernel_sorts(ctx.extend(v.name, annot), opened)
            return Abs(hint, _type_by_kernel_sorts(ctx, annot), abstract_var(inner, v.name))
        case Prod(hint, dom, cod):
            v, opened = open_term(hint, cod)
            inner_ctx = ctx.extend(v.name, dom)
            head = _PRODUCT_HEADS.get((_sort_of(ctx, dom), _sort_of(inner_ctx, opened)))
            if head is None:
                raise fail(dk.ILLEGAL_PRODUCT, f"product {m!r} has no encoding")
            inner = abstract_var(_term_by_kernel_sorts(inner_ctx, opened), v.name)
            binder = Abs(hint, _type_by_kernel_sorts(ctx, dom), inner)
            return SymApp(head, (_term_by_kernel_sorts(ctx, dom), binder))
        case SymApp(sym, args) if sym in ("psub", "pair", "fst", "snd"):
            return SymApp(sym, tuple(_term_by_kernel_sorts(ctx, a) for a in args))
    raise fail(dk.NOT_TYPABLE, f"no translation for {m!r}")


def _type_by_kernel_sorts(ctx: Context, t: Term) -> Term:
    if t == KIND:
        return KIND_ENC
    if t == Sort("Type"):
        return TYPE_ENC
    sort = _sort_of(ctx, t)
    if sort not in ("Type", "Prop"):
        raise fail(dk.NOT_A_SORT, f"no type translation at sort {sort}")
    return (El if sort == "Type" else Prf)(_term_by_kernel_sorts(ctx, t))


def translate_by_kernel_sorts(ctx: Context, t: Term, as_type: bool = False) -> Term:
    """The translation of a term, or with `as_type` of a type, that asks the
    pcert kernel for every sort it needs.

    Binders are opened with fresh variables, so the kernel sees every
    subterm under its full context. Slow (one inference per product and per
    type position, each domain translated twice) but plainly right on typable
    input, so it is the oracle for `translate_term` and `translate_type`,
    which read sorts off the translation instead.
    """
    return _type_by_kernel_sorts(ctx, t) if as_type else _term_by_kernel_sorts(ctx, t)


# --- the equality reference ------------------------------------------------------


def ref_equal(a: Term, b: Term) -> bool:
    """Structural equality as a tree walk, field by field, binder hints
    ignored: `==` on terms without sharing or memo."""
    match a, b:
        case App(f, x), App(g, y):
            return ref_equal(f, g) and ref_equal(x, y)
        case (Abs(_, s, t), Abs(_, u, v)) | (Prod(_, s, t), Prod(_, u, v)):
            return ref_equal(s, u) and ref_equal(t, v)
        case SymApp(f, xs), SymApp(g, ys):
            return f == g and len(xs) == len(ys) and all(map(ref_equal, xs, ys))
        case (Var(x), Var(y)) | (Bound(x), Bound(y)) | (Sort(x), Sort(y)):
            return x == y
    return False


def ref_hash(t: Term) -> int:
    """The hash of a term's compared fields, hint excluded, computed afresh
    over nested tuples: `hash` on terms without the kept hash."""

    def fields(t: Term):
        match t:
            case App(f, x):
                return fields(f), fields(x)
            case Abs(_, s, u) | Prod(_, s, u):
                return fields(s), fields(u)
            case SymApp(sym, args):
                return sym, tuple(map(fields, args))
        return t

    return hash(fields(t))


def rehinted(t: Term) -> Term:
    """A copy of t built node by node with other binder hints."""
    match t:
        case App(f, a):
            return App(rehinted(f), rehinted(a))
        case Abs(hint, annot, body):
            return Abs(hint + "'", rehinted(annot), rehinted(body))
        case Prod(hint, dom, cod):
            return Prod(hint + "'", rehinted(dom), rehinted(cod))
        case SymApp(sym, args):
            return SymApp(sym, tuple(rehinted(a) for a in args))
    return t


# --- the reduction reference -----------------------------------------------------
#
# The reduction functions as they were before substitution kept sharing and
# `whnf` became a loop that allocates nothing: every node rebuilt, the
# subject built anew per rule attempt, structural matching. They take the
# same steps in the same order, so on any input they return an equal term,
# leave the same fuel, draw the same fresh names and run out of fuel at the
# same step on the same partial term.


def ref_substitute_parallel(t: Term, mapping: dict[str, Term]) -> Term:
    if not mapping:
        return t
    match t:
        case Var(name):
            return mapping.get(name, t)
        case App(fun, arg):
            return App(ref_substitute_parallel(fun, mapping), ref_substitute_parallel(arg, mapping))
        case Abs(hint, annot, body):
            return Abs(hint, ref_substitute_parallel(annot, mapping), ref_substitute_parallel(body, mapping))
        case Prod(hint, dom, cod):
            return Prod(hint, ref_substitute_parallel(dom, mapping), ref_substitute_parallel(cod, mapping))
        case SymApp(sym, args):
            return SymApp(sym, tuple(ref_substitute_parallel(a, mapping) for a in args))
        case _:
            return t


def ref_instantiate(body: Term, value: Term, depth: int = 0) -> Term:
    match body:
        case Bound(k):
            if k == depth:
                return value
            if k > depth:
                return Bound(k - 1)
            return body
        case Var() | Sort():
            return body
        case App(fun, arg):
            return App(ref_instantiate(fun, value, depth), ref_instantiate(arg, value, depth))
        case Abs(hint, annot, inner):
            return Abs(hint, ref_instantiate(annot, value, depth), ref_instantiate(inner, value, depth + 1))
        case Prod(hint, dom, cod):
            return Prod(hint, ref_instantiate(dom, value, depth), ref_instantiate(cod, value, depth + 1))
        case SymApp(sym, args):
            return SymApp(sym, tuple(ref_instantiate(a, value, depth) for a in args))
    raise TypeError(f"not a term: {body!r}")


def ref_is_nondependent(cod: Term, depth: int = 0) -> bool:
    match cod:
        case Bound(k):
            return k != depth
        case App(fun, arg):
            return ref_is_nondependent(fun, depth) and ref_is_nondependent(arg, depth)
        case Abs(_, annot, body) | Prod(_, annot, body):
            return ref_is_nondependent(annot, depth) and ref_is_nondependent(body, depth + 1)
        case SymApp(_, args):
            return all(ref_is_nondependent(a, depth) for a in args)
    return True


def ref_loose_bounds(t: Term, depth: int = 0) -> int:
    """The mask a node keeps as `loose`, bit k for each loose index k, by a
    tree walk."""
    match t:
        case Bound(k):
            return 1 << k - depth if k >= depth else 0
        case App(fun, arg):
            return ref_loose_bounds(fun, depth) | ref_loose_bounds(arg, depth)
        case Abs(_, annot, body) | Prod(_, annot, body):
            return ref_loose_bounds(annot, depth) | ref_loose_bounds(body, depth + 1)
        case SymApp(_, args):
            out = 0
            for a in args:
                out |= ref_loose_bounds(a, depth)
            return out
    return 0


def ref_abstract_var(t: Term, name: str, depth: int = 0) -> Term:
    match t:
        case Var(n):
            return Bound(depth) if n == name else t
        case Bound(k):
            return Bound(k + 1) if k >= depth else t
        case Sort():
            return t
        case App(fun, arg):
            return App(ref_abstract_var(fun, name, depth), ref_abstract_var(arg, name, depth))
        case Abs(hint, annot, body):
            return Abs(hint, ref_abstract_var(annot, name, depth), ref_abstract_var(body, name, depth + 1))
        case Prod(hint, dom, cod):
            return Prod(hint, ref_abstract_var(dom, name, depth), ref_abstract_var(cod, name, depth + 1))
        case SymApp(sym, args):
            return SymApp(sym, tuple(ref_abstract_var(a, name, depth) for a in args))
    raise TypeError(f"not a term: {t!r}")


def _ref_open(hint: str, body: Term) -> tuple[Var, Term]:
    v = Var(fresh_name(hint))
    return v, ref_instantiate(body, v)


def ref_match(pattern: Term, subject: Term, binding: dict[str, Term] | None = None) -> dict[str, Term] | None:
    if binding is None:
        binding = {}
    match pattern:
        case Var(name):
            seen = binding.get(name)
            if seen is not None and not alpha_eq(seen, subject):
                return None
            binding[name] = subject
            return binding
        case SymApp(sym, pargs):
            if not isinstance(subject, SymApp) or subject.sym != sym or len(subject.args) != len(pargs):
                return None
            for p, s in zip(pargs, subject.args):
                if ref_match(p, s, binding) is None:
                    return None
            return binding
        case _:
            return binding if alpha_eq(pattern, subject) else None


def _ref_try_rules(rules: RuleSet, sym: str, args: list[Term], fuel: Fuel) -> Term | None:
    for rule in (r for r in rules.rules if r.lhs.sym == sym):
        if len(rule.lhs.args) != len(args):
            continue
        ok = True
        for i, parg in enumerate(rule.lhs.args):
            if isinstance(parg, SymApp):
                args[i] = ref_whnf(rules, args[i], fuel)
                if not isinstance(args[i], SymApp):
                    ok = False
                    break
        if not ok:
            continue
        binding = ref_match(rule.lhs, SymApp(sym, tuple(args)))
        if binding is not None:
            fuel.spend(SymApp(sym, tuple(args)))
            return ref_substitute_parallel(rule.rhs, binding)
    return None


def ref_whnf(rules: RuleSet, t: Term, fuel: Fuel | int | None = None) -> Term:
    fuel = _as_fuel(fuel)
    while True:
        match t:
            case App(f, a):
                f2 = ref_whnf(rules, f, fuel)
                if isinstance(f2, Abs):
                    fuel.spend(t)
                    t = ref_instantiate(f2.body, a)
                    continue
                return App(f2, a) if f2 is not f else t
            case SymApp(sym, args):
                args_l = list(args)
                reduced = _ref_try_rules(rules, sym, args_l, fuel)
                if reduced is None:
                    return SymApp(sym, tuple(args_l))
                t = reduced
            case _:
                return t


def _ref_outermost(rules: RuleSet, t: Term, fuel: Fuel) -> Term:
    t = ref_whnf(rules, t, fuel)
    match t:
        case App(f, a):
            return App(_ref_outermost(rules, f, fuel), _ref_outermost(rules, a, fuel))
        case Abs(hint, annot, body):
            v, opened = _ref_open(hint, body)
            inner = _ref_outermost(rules, opened, fuel)
            return Abs(hint, _ref_outermost(rules, annot, fuel), ref_abstract_var(inner, v.name))
        case Prod(hint, dom, cod):
            v, opened = _ref_open(hint, cod)
            inner = _ref_outermost(rules, opened, fuel)
            return Prod(hint, _ref_outermost(rules, dom, fuel), ref_abstract_var(inner, v.name))
        case SymApp(sym, args):
            return SymApp(sym, tuple(_ref_outermost(rules, a, fuel) for a in args))
        case _:
            return t


def _ref_innermost(rules: RuleSet, t: Term, fuel: Fuel) -> Term:
    match t:
        case App(f, a):
            f2 = _ref_innermost(rules, f, fuel)
            a2 = _ref_innermost(rules, a, fuel)
            if isinstance(f2, Abs):
                fuel.spend(App(f2, a2))
                return _ref_innermost(rules, ref_instantiate(f2.body, a2), fuel)
            return App(f2, a2)
        case Abs(hint, annot, body):
            v, opened = _ref_open(hint, body)
            inner = _ref_innermost(rules, opened, fuel)
            return Abs(hint, _ref_innermost(rules, annot, fuel), ref_abstract_var(inner, v.name))
        case Prod(hint, dom, cod):
            v, opened = _ref_open(hint, cod)
            inner = _ref_innermost(rules, opened, fuel)
            return Prod(hint, _ref_innermost(rules, dom, fuel), ref_abstract_var(inner, v.name))
        case SymApp(sym, args):
            args_l = [_ref_innermost(rules, a, fuel) for a in args]
            reduced = _ref_try_rules(rules, sym, args_l, fuel)
            if reduced is None:
                return SymApp(sym, tuple(args_l))
            return _ref_innermost(rules, reduced, fuel)
        case _:
            return t


def ref_normalize(rules: RuleSet, t: Term, fuel: Fuel | int | None = None, strategy: str = "outermost") -> Term:
    fuel = _as_fuel(fuel)
    if strategy == "outermost":
        return _ref_outermost(rules, t, fuel)
    if strategy == "innermost":
        return _ref_innermost(rules, t, fuel)
    raise ValueError(f"unknown strategy {strategy!r}")


def ref_convertible(rules: RuleSet, a: Term, b: Term, fuel: Fuel | int | None = None, irrelevant=None) -> bool:
    return _ref_convert(rules, a, b, _as_fuel(fuel), irrelevant or {})


def _ref_convert(rules: RuleSet, a: Term, b: Term, fuel: Fuel, irrelevant) -> bool:
    if a == b:
        return True
    a, b = ref_whnf(rules, a, fuel), ref_whnf(rules, b, fuel)
    match a, b:
        case App(f, x), App(g, y):
            return _ref_convert(rules, f, g, fuel, irrelevant) and _ref_convert(rules, x, y, fuel, irrelevant)
        case SymApp(sym, xs), SymApp(other, ys):
            if sym != other or len(xs) != len(ys):
                return False
            skip = irrelevant.get(sym)
            return all(
                i == skip or _ref_convert(rules, x, y, fuel, irrelevant) for i, (x, y) in enumerate(zip(xs, ys))
            )
        case (Abs(hint, dom, body), Abs(_, dom2, body2)) | (Prod(hint, dom, body), Prod(_, dom2, body2)):
            if not _ref_convert(rules, dom, dom2, fuel, irrelevant):
                return False
            v = Var(fresh_name(hint))
            return _ref_convert(rules, ref_instantiate(body, v), ref_instantiate(body2, v), fuel, irrelevant)
        case _:
            return a == b


def canonical_fresh_names(t: Term | bool) -> Term | bool:
    """t with its fresh names (`terms.fresh_name`, the ones holding '#')
    renumbered in order of first occurrence, so that two terms that differ
    only in which fresh names their opened binders drew compare equal. A
    verdict is returned as it is."""
    if isinstance(t, bool):
        return t
    renamed: dict[str, Term] = {}

    def walk(u: Term) -> None:
        if isinstance(u, Var):
            if "#" in u.name and u.name not in renamed:
                renamed[u.name] = Var(f"{u.name.split('#', 1)[0]}#{len(renamed)}")
        for child in _children(u):
            walk(child)

    walk(t)
    return ref_substitute_parallel(t, renamed)


# --- the orthogonality reference ------------------------------------------------


def _ref_count_vars(t: Term, counts: dict[str, int]) -> None:
    match t:
        case Var(name):
            counts[name] = counts.get(name, 0) + 1
        case SymApp(_, args):
            for a in args:
                _ref_count_vars(a, counts)
        case _:
            pass


def _ref_rename_apart(t: Term, suffix: str) -> Term:
    return substitute_parallel(t, {v: Var(v + suffix) for v in free_names(t, Memo())})


def _ref_unify(a: Term, b: Term, binding: dict[str, Term]) -> bool:
    def resolve(t: Term) -> Term:
        while isinstance(t, Var) and t.name in binding:
            t = binding[t.name]
        return t

    a, b = resolve(a), resolve(b)
    if isinstance(a, Var):
        if a == b:
            return True
        if a.name in free_names(b, Memo()):
            return False
        binding[a.name] = b
        return True
    if isinstance(b, Var):
        return _ref_unify(b, a, binding)
    if isinstance(a, SymApp) and isinstance(b, SymApp):
        if a.sym != b.sym or len(a.args) != len(b.args):
            return False
        return all(_ref_unify(x, y, binding) for x, y in zip(a.args, b.args))
    return a == b


def ref_check_orthogonality(rules: RuleSet) -> OrthogonalityReport:
    """The orthogonality report by first-order unification of left sides
    renamed apart, with an occurs check, for any first-order patterns."""
    nonlinear = []
    for rule in rules.rules:
        counts: dict[str, int] = {}
        _ref_count_vars(rule.lhs, counts)
        if any(n > 1 for n in counts.values()):
            nonlinear.append(rule.name)

    overlaps = []
    for i, r1 in enumerate(rules.rules):
        lhs1 = _ref_rename_apart(r1.lhs, "!1")
        for j, r2 in enumerate(rules.rules):
            lhs2 = _ref_rename_apart(r2.lhs, "!2")
            # root overlap (distinct rules only)
            if i < j and _ref_unify(lhs1, lhs2, {}):
                overlaps.append((r1.name, r2.name, "root"))
            # r2's lhs inside a non-variable proper subterm of r1's lhs
            for pos, sub in enumerate(lhs1.args):
                if isinstance(sub, SymApp) and _ref_unify(sub, lhs2, {}):
                    overlaps.append((r1.name, r2.name, f"argument {pos}"))
    return OrthogonalityReport(tuple(nonlinear), tuple(overlaps))


# --- the parsing reference --------------------------------------------------------

# The token regex as it was before the lexer blanked comments ahead of its
# scan: each match skips the whitespace and comments after its token, group
# 1 is the token, and a character that starts no token matches the
# catch-all with group 1 empty.
REF_SKIP = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*")
REF_TOKEN_RE = re.compile(r"""(?:([A-Za-z_][A-Za-z0-9_'?]*|:=|->|[(){}|,;:.!\\]|\#MODE)|.)""" + REF_SKIP.pattern, re.DOTALL)
_REF_KINDS = {
    **dict.fromkeys(("symbol", "definition", "assert", "convertible", "Type", "Kind", "Prop"), "kw"),
    ":=": "assign",
    "->": "arrow",
    "#MODE": "mode",
    **dict.fromkeys("(){}|,;:.!\\", "punct"),
}


def ref_lex(text: str) -> tuple[list[str], list[str], list[int]]:
    """Kinds, values and start offsets of text's tokens by `REF_TOKEN_RE`,
    ending in eof at the end of the text. A character that starts no token
    has the kind "bad" and, as `lexer.scan` gives it, the value of that
    character."""
    kinds, values, starts = [], [], []
    for m in REF_TOKEN_RE.finditer(text, REF_SKIP.match(text).end()):
        kinds.append(_REF_KINDS.get(m[1], "id") if m[1] else "bad")
        values.append(m[1] or text[m.start()])
        starts.append(m.start())
    return kinds + ["eof"], values + [""], starts + [len(text)]


class NamedParser(_Parser):
    """The parser as it was before binder names were resolved while parsing:
    no binder enters the scope, so every identifier is a free `Var`, and
    each binder is closed afterwards with `lam`/`pi`, which walk its body
    once more. It reads every group's own tokens, as the parser did then."""

    @staticmethod
    def tokens(text: str, file: str, mode: str) -> tuple:
        return scan(text, [], file)

    def parse_file(self) -> ParsedFile:
        return names_unknown(super().parse_file())

    def parse_term(self) -> Term:
        binder = self.values[self.pos]
        if binder == "\\" or binder == "!":
            self.pos += 1
            name = self.values[self.expect("id")]
            self.expect("punct", ":")
            annot = self.parse_term()
            self.expect("punct", ".")
            body = self.parse_term()
            return lam(name, annot, body) if binder == "\\" else pi(name, annot, body)
        return super().parse_term()  # no name is in scope: every identifier is a Var

    def parse_atom(self) -> Term | _SymRef:
        i = self.pos
        value = self.values[i]
        if self.kinds[i] == "id":
            self.pos = i + 1
            if value == "TYPE" or value == "KIND":
                return Sort(value)
            arity = self.arities.get(value)
            if arity is None:
                return Var(value)
            if self.values[i + 1] == "(":
                return self.parse_call(value, i)
            return SymApp(value) if arity == 0 else _SymRef(value, i)
        if value == "{":
            self.pos = i + 1
            name = self.values[self.expect("id")]
            self.expect("punct", ":")
            ty = self.parse_term()
            self.expect("punct", "|")
            pred = self.parse_term()
            self.expect("punct", "}")
            return SymApp("psub", (ty, lam(name, ty, pred)))
        return super().parse_atom()


def names_unknown(parsed: ParsedFile) -> ParsedFile:
    """parsed as a file built in code, without its `mentioned` names, so
    `check_file` takes every walk; a reference parser that builds nodes
    outside the intern table cannot read the names off it."""
    return ParsedFile(parsed.mode, parsed.decls, parsed.path)


def parse_file_named(text: str, file: str = "<input>"):
    return NamedParser(text, file).parse_file()


def parse_term_named(text: str, mode: str = "pcert") -> Term:
    parser = NamedParser(text, "<term>", mode)
    term = parser.parse_term()
    if parser.kinds[parser.pos] != "eof":
        raise parser.error("trailing input after term")
    return term


# --- the inference reference ------------------------------------------------------
#
# `Kernel._infer` as it was before it replayed repeated subterms from the
# file's memo: every occurrence of a subterm is inferred again. Conversions
# still go through `Kernel.convert`, so a pair proven earlier in the file is
# free, which is what a redo gets for free and a replay must not charge.


def ref_infer(kernel: Kernel, ctx: Context, t: Term, fuel: Fuel) -> Term:
    match t:
        case Sort(tag):
            above = kernel.axioms.get(tag)
            if above is None:
                raise fail(
                    dk.SORT_HAS_NO_TYPE, f"sort {tag} has no type in system {kernel.name}", context=ctx, subject=t
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
            tf = kernel.whnf(ref_infer(kernel, ctx, f, fuel), fuel)
            if not isinstance(tf, Prod):
                raise fail(
                    dk.NOT_A_FUNCTION, f"application head has non-product type {tf!r}", context=ctx, subject=t
                )
            ta = ref_infer(kernel, ctx, a, fuel)
            if not kernel.convert(ctx, ta, tf.dom, fuel):
                raise fail(
                    dk.DOMAIN_MISMATCH,
                    f"argument type {ta!r} does not match domain {tf.dom!r}",
                    context=ctx,
                    subject=t,
                )
            return instantiate(tf.cod, a)
        case Abs(hint, annot, body):
            s_dom = ref_sort_of(kernel, ctx, annot, fuel)
            v, opened = open_term(hint, body)
            inner_ctx = ctx.extend(v.name, annot)
            body_ty = ref_infer(kernel, inner_ctx, opened, fuel)
            s_cod = ref_sort_of(kernel, inner_ctx, body_ty, fuel)
            if (s_dom, s_cod) not in kernel.products:
                raise fail(
                    dk.ILLEGAL_PRODUCT,
                    f"no product rule for ({s_dom}, {s_cod}) in system {kernel.name}",
                    context=ctx,
                    subject=t,
                )
            return Prod(hint, annot, abstract_var(body_ty, v.name))
        case Prod(hint, dom, cod):
            s_dom = ref_sort_of(kernel, ctx, dom, fuel)
            v, opened = open_term(hint, cod)
            s_cod = ref_sort_of(kernel, ctx.extend(v.name, dom), opened, fuel)
            s_res = kernel.products.get((s_dom, s_cod))
            if s_res is None:
                raise fail(
                    dk.ILLEGAL_PRODUCT,
                    f"no product rule for ({s_dom}, {s_cod}) in system {kernel.name}",
                    context=ctx,
                    subject=t,
                )
            return Sort(s_res)
        case SymApp(sym, args):
            entry = kernel.signature.get(sym)
            if entry is None:
                raise fail(dk.UNKNOWN_SYMBOL, f"unknown symbol {sym!r} in system {kernel.name}", context=ctx, subject=t)
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
                actual = ref_infer(kernel, ctx, arg, fuel)
                if not kernel.convert(ctx, actual, expected, fuel):
                    raise fail(
                        dk.DOMAIN_MISMATCH,
                        f"argument {arg!r} of {sym!r} has type {actual!r}, expected {expected!r}",
                        context=ctx,
                        subject=t,
                    )
                binding[x] = arg
            return substitute_parallel(entry.result, binding)
    raise TypeError(f"not a term: {t!r}")


def ref_sort_of(kernel: Kernel, ctx: Context, t: Term, fuel: Fuel) -> str:
    ty = kernel.whnf(ref_infer(kernel, ctx, t, fuel), fuel)
    if not isinstance(ty, Sort):
        raise fail(dk.NOT_A_SORT, f"type of {t!r} is {ty!r}, not a sort", context=ctx, subject=t)
    return ty.tag


@contextlib.contextmanager
def reference_inference():
    """Every kernel infers through `ref_infer` inside the block."""
    saved = Kernel._infer, Kernel._sort_of
    Kernel._infer = lambda self, ctx, t, fuel, records: ref_infer(self, ctx, t, fuel)
    Kernel._sort_of = lambda self, ctx, t, fuel, records: ref_sort_of(self, ctx, t, fuel)
    try:
        yield
    finally:
        Kernel._infer, Kernel._sort_of = saved


@contextlib.contextmanager
def reference_conversion():
    """Inside the block every kernel conversion gets a fresh sub-comparison
    memo per call, as before the memo lived for the file: `check_file` then
    runs as it did before, with whole pairs still recorded as proven."""

    def per_call(rules, a, b, fuel, irrelevant, memo):
        return saved(rules, a, b, fuel, irrelevant, Memo())

    saved = kernel_module._convert
    kernel_module._convert = per_call
    try:
        yield
    finally:
        kernel_module._convert = saved


def calls_made(fn, builtins: bool = False) -> int:
    """Python-level calls (`sys.setprofile` "call" events) made by fn(),
    and with `builtins` its calls of built-in functions and methods as well
    ("c_call" events). The garbage collector is paused meanwhile, so the
    count does not depend on what earlier work left for it to collect."""
    counted = ("call", "c_call") if builtins else ("call",)
    calls = [0]

    def profile(frame, event, arg):
        if event in counted:
            calls[0] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls[0]


def doubling_chain_source(links: int, mode: str = "pcert") -> str:
    """d(i+1) := g d(i) d(i): every expansion hands one object to both
    occurrences, so the expanded body of d(links) has 2^links leaves but
    only links + 1 distinct subterms."""
    lines = ["symbol iota : Type;", "symbol a : iota;", "symbol g : iota -> iota -> iota;", "definition d0 := a;"]
    lines += [f"definition d{i + 1} := g d{i} d{i};" for i in range(links)]
    return "\n".join(lines) + "\n"


class UnmemoizedParser(_Parser):
    """The parser as it was before its span memo: it interns nodes, but it
    reads no group tokens, so it parses every occurrence of a repeated
    group from its own tokens."""

    @staticmethod
    def tokens(text: str, file: str, mode: str) -> tuple:
        return scan(text, [], file)


def parse_file_unmemoized(text: str, file: str = "<input>"):
    return UnmemoizedParser(text, file).parse_file()


class FreshParser(UnmemoizedParser):
    """The parser as it was before it interned nodes: every node is built
    anew, so repeated text gives equal but distinct objects. It bypasses
    the span memo, which would hand out one object for repeated text."""

    def __init__(self, text: str, file: str, mode: str = "pcert"):
        super().__init__(text, file, mode)
        self.nodes = {}  # no sort constants either: every lookup misses

    def parse_file(self) -> ParsedFile:
        return names_unknown(super().parse_file())

    def leaf(self, key: tuple) -> Term:
        return key[0](key[1])

    def app(self, fun: Term, arg: Term) -> Term:
        return App(fun, arg)

    def binder(self, cls: type, hint: str, annot: Term, body: Term) -> Term:
        return cls(hint, annot, body)

    def sym(self, name: str, args: tuple[Term, ...] = ()) -> Term:
        return SymApp(name, args)


def parse_file_fresh(text: str, file: str = "<input>"):
    return FreshParser(text, file).parse_file()


def parse_term_fresh(text: str, mode: str = "pcert") -> Term:
    parser = FreshParser(text, "<term>", mode)
    term = parser.parse_term()
    if parser.kinds[parser.pos] != "eof":
        raise parser.error("trailing input after term")
    return term


# --- the inverse reference -------------------------------------------------------
#
# `pcert.inverse` as it was before it built failure paths lazily: a tree walk
# with no memo that extends the path at every node on the way down.


def ref_inverse_term(m: Term, path: tuple[str, ...] = ()) -> Term | NotInImage:
    match m:
        case Var() | Bound():
            return m
        case Abs(hint, annot, body):
            a = ref_inverse_type(annot, path + ("annot",))
            if isinstance(a, NotInImage):
                return a
            b = ref_inverse_term(body, path + ("body",))
            if isinstance(b, NotInImage):
                return b
            return Abs(hint, a, b)
        case App(f, x):
            fi = ref_inverse_term(f, path + ("fun",))
            if isinstance(fi, NotInImage):
                return fi
            xi = ref_inverse_term(x, path + ("arg",))
            if isinstance(xi, NotInImage):
                return xi
            return App(fi, xi)
        case SymApp("prop", ()):
            return Sort("Prop")
        case SymApp(("fa" | "impd" | "arrd") as head, (left, Abs(hint, _, body))):
            li = ref_inverse_term(left, path + (f"{head}.0",))
            if isinstance(li, NotInImage):
                return li
            bi = ref_inverse_term(body, path + (f"{head}.1", "body"))
            if isinstance(bi, NotInImage):
                return bi
            return Prod(hint, li, bi)
        case SymApp(("psub" | "pair" | "fst" | "snd") as head, args):
            out: list[Term] = []
            for i, a in enumerate(args):
                ai = ref_inverse_term(a, path + (f"{head}.{i}",))
                if isinstance(ai, NotInImage):
                    return ai
                out.append(ai)
            return SymApp(head, tuple(out))
    return NotInImage(path, m)


def ref_inverse_type(t: Term, path: tuple[str, ...] = ()) -> Term | NotInImage:
    match t:
        case SymApp("Type", ()):
            return Sort("Type")
        case SymApp("Prop", ()):
            return Sort("Prop")
        case SymApp("El", (m,)):
            return ref_inverse_term(m, path + ("El.0",))
        case SymApp("Prf", (p,)):
            return ref_inverse_term(p, path + ("Prf.0",))
        case Prod(hint, dom, cod):
            d = ref_inverse_type(dom, path + ("dom",))
            if isinstance(d, NotInImage):
                return d
            c = ref_inverse_type(cod, path + ("cod",))
            if isinstance(c, NotInImage):
                return c
            return Prod(hint, d, c)
    return NotInImage(path, t)


# --- the printer references ------------------------------------------------------
#
# `syntax.print_file` and `export.development_lines` as they were before they
# memoized their renderings: tree walks that render every occurrence of a
# shared node again, so they take time in the size of the text.

_TERM, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def _display_name(hint: str, taken: frozenset[str]) -> str:
    """`syntax.Printer.name`'s rule, given the names it must avoid."""
    base = hint.split("#", 1)[0]
    if not _ID_OK.match(base):
        base = "x"
    name = base
    while name in taken or name in _RESERVED_DISPLAY:
        name += "'"
    return name


def _ident(name: str) -> str:
    """A name as Lambdapi spells it (`export.LambdapiPrinter.spell`)."""
    return name if _LP_ID.match(name) else f"{{|{name}|}}"


def _ref_wrap(body: str, level: int, prec: int) -> str:
    return f"({body})" if level < prec else body


def _ref_print(t: Term, prec: int, binders: tuple[str, ...], avoid: frozenset[str]) -> str:
    match t:
        case Sort(tag):
            return tag
        case Var(name):
            return name
        case Bound(k):
            return binders[-1 - k] if k < len(binders) else f"^{k}"
        case App(f, a):
            body = f"{_ref_print(f, _APP, binders, avoid)} {_ref_print(a, _ATOM, binders, avoid)}"
            return _ref_wrap(body, _APP, prec)
        case Abs(hint, annot, inner):
            name = _display_name(hint, avoid | set(binders))
            body = (
                f"\\{name}: {_ref_print(annot, _TERM, binders, avoid)}. "
                f"{_ref_print(inner, _TERM, binders + (name,), avoid)}"
            )
            return _ref_wrap(body, _TERM, prec)
        case Prod(hint, dom, cod):
            if ref_is_nondependent(cod):
                dropped = instantiate(cod, Var("_"))
                body = f"{_ref_print(dom, _APP, binders, avoid)} -> {_ref_print(dropped, _TERM, binders, avoid)}"
                return _ref_wrap(body, _ARROW, prec)
            name = _display_name(hint, avoid | set(binders))
            body = (
                f"!{name}: {_ref_print(dom, _TERM, binders, avoid)}. "
                f"{_ref_print(cod, _TERM, binders + (name,), avoid)}"
            )
            return _ref_wrap(body, _TERM, prec)
        case SymApp("psub", (ty, Abs(hint, annot, pred))) if annot == ty:
            name = _display_name(hint, avoid | set(binders))
            return (
                f"{{{name}: {_ref_print(ty, _TERM, binders, avoid)} | "
                f"{_ref_print(pred, _TERM, binders + (name,), avoid)}}}"
            )
        case SymApp(sym, args):
            if not args:
                return sym
            inner = ", ".join(_ref_print(a, _TERM, binders, avoid) for a in args)
            return f"{sym}({inner})"
    raise TypeError(f"not a term: {t!r}")


def _ref_print_term(t: Term) -> str:
    return _ref_print(t, _TERM, (), free_names(t, Memo()))


def ref_print_file(parsed: ParsedFile) -> str:
    lines = [f"#MODE {parsed.mode}"]
    for decl in parsed.decls:
        match decl:
            case SymbolDecl(name, ty, _):
                lines.append(f"symbol {name} : {_ref_print_term(ty)};")
            case Definition(name, body, None, _):
                lines.append(f"definition {name} := {_ref_print_term(body)};")
            case Definition(name, body, ty, _):
                lines.append(f"definition {name} : {_ref_print_term(ty)} := {_ref_print_term(body)};")
            case AssertJudgment(subject, ty, _):
                lines.append(f"assert {_ref_print_term(subject)} : {_ref_print_term(ty)};")
            case AssertConv(a, b, _):
                lines.append(f"convertible {_ref_print_term(a)}, {_ref_print_term(b)};")
    return "\n".join(lines) + "\n"


def _ref_fresh_display(hint: str, body: Term) -> str:
    base = hint.split("#", 1)[0]
    if not _LP_ID.match(base) or (base == "_" and not ref_is_nondependent(body)):
        base = "x"
    name = base
    taken = free_names(body, Memo())
    while name in taken:
        name += "'"
    return name


def _ref_show(t: Term, prec: int) -> str:
    match t:
        case Sort("TYPE"):
            return "TYPE"
        case Sort(tag):
            raise fail(UNCHECKED_INPUT, f"sort {tag} has no Lambdapi syntax")
        case Var(name):
            return _ident(name)
        case Bound(k):
            return f"?{k}"
        case App(f, a):
            return _ref_wrap(f"{_ref_show(f, _APP)} {_ref_show(a, _ATOM)}", _APP, prec)
        case Abs(hint, annot, body):
            name = _ref_fresh_display(hint, body)
            inner = _ref_show(instantiate(body, Var(name)), _TERM)
            return _ref_wrap(f"λ {name}: {_ref_show(annot, _TERM)}, {inner}", _TERM, prec)
        case Prod(hint, dom, cod):
            if ref_is_nondependent(cod):
                return _ref_wrap(f"{_ref_show(dom, _APP)} → {_ref_show(cod, _ARROW)}", _ARROW, prec)
            name = _ref_fresh_display(hint, cod)
            inner = _ref_show(instantiate(cod, Var(name)), _TERM)
            return _ref_wrap(f"Π {name}: {_ref_show(dom, _TERM)}, {inner}", _TERM, prec)
        case SymApp(sym, args):
            if not args:
                return _ident(sym)
            shown = " ".join(_ref_show(a, _ATOM) for a in args)
            return _ref_wrap(f"{_ident(sym)} {shown}", _APP, prec)
    raise TypeError(f"not a term: {t!r}")


def ref_development_lines(decls) -> list[str]:
    lines = [
        "// Development checked against the encoding module.",
        f"require open {ENCODING_MODULE};",
        "",
    ]
    for decl in decls:
        match decl:
            case SymbolDecl(name, ty, _):
                lines.append(f"symbol {_ident(name)} : {_ref_show(ty, _TERM)};")
            case Definition(name, body, ty, _):
                annot = f" : {_ref_show(ty, _TERM)}" if ty is not None else ""
                lines.append(f"symbol {_ident(name)}{annot} ≔ {_ref_show(body, _TERM)};")
            case AssertJudgment(subject, ty, _):
                lines.append(f"assert ⊢ {_ref_show(subject, _TERM)} : {_ref_show(ty, _TERM)};")
            case AssertConv(a, b, _):
                lines.append(f"assert ⊢ {_ref_show(a, _TERM)} ≡ {_ref_show(b, _TERM)};")
    return lines
