"""Random typed-term synthesis and equational walks for the test suite.

Terms are generated bottom-up against a fixed base context, goal-directed so
that every output is well typed by construction (the tests re-check that
with the kernel anyway). The equational walker perturbs a typed seed with
beta expansions/contractions, projection steps and certificate swaps, all of
which preserve the conversion relation. `normalize_and_compare` is the
reference decision the kernels' head-first conversion is checked against.
"""

from __future__ import annotations

import random

from pcert import Context, check_file, parse_file
from pcert.pcert import KERNEL as PCERT_KERNEL, BETA_PROJ, pi_erase
from pcert.rewrite import Fuel, RuleSet, match, normalize
from pcert.terms import (
    Abs,
    App,
    Bound,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    abstract_var,
    alpha_eq,
    fresh_name,
    instantiate,
    lam,
    open_term,
    pi,
)

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
                if (sort, sort) in PCERT_KERNEL.config.products:
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
