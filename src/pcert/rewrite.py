"""Fuel-bounded normalization for beta plus left-linear symbol rules.

A rule set pairs built-in beta reduction with first-order rules whose left
sides are symbol applications over pattern variables, nested at most one
symbol deep. Rewriting is the closure of the rules by substitution and
context. Conversion is decided head-first (`convertible`): both sides go
to weak head normal form, heads are compared, and only agreeing heads are
descended into, so no side is normalized in full. Full normalization is
leftmost-outermost by default; an innermost strategy exists solely to
cross-check confluence in tests.

Termination of the shipped rule sets is an open question, so every reduction
spends from an explicit fuel budget and exhaustion is a hard error carrying
the partially reduced term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .diagnostics import FuelError, fail
from .terms import (
    Abs,
    App,
    Prod,
    SymApp,
    Term,
    Var,
    alpha_eq,
    free_vars,
    fresh_name,
    instantiate,
    abstract_var,
    open_term,
    substitute_parallel,
)

DEFAULT_FUEL = 100_000


class Fuel:
    """Budget of head-rewrite steps; exhaustion raises, never loops."""

    def __init__(self, remaining: int | None = DEFAULT_FUEL):
        if remaining is not None and remaining < 0:
            raise ValueError("fuel must be nonnegative")
        self.remaining = remaining

    @classmethod
    def unlimited(cls) -> Fuel:
        return cls(None)

    def spend(self, at: Term) -> None:
        if self.remaining is None:
            return
        if self.remaining == 0:
            raise FuelError(at)
        self.remaining -= 1

    def __repr__(self) -> str:
        return f"Fuel({self.remaining})"


def _as_fuel(fuel: Fuel | int | None) -> Fuel:
    if isinstance(fuel, Fuel):
        return fuel
    if fuel is None:
        return Fuel(DEFAULT_FUEL)
    return Fuel.unlimited() if fuel == 0 else Fuel(fuel)


def _check_pattern(lhs: Term, rule_name: str) -> None:
    if not isinstance(lhs, SymApp):
        raise fail("BadRule", f"rule {rule_name!r}: left side must be a symbol application")
    for arg in lhs.args:
        match arg:
            case Var(_):
                pass
            case SymApp(_, inner):
                for x in inner:
                    if not isinstance(x, Var):
                        raise fail(
                            "BadRule",
                            f"rule {rule_name!r}: patterns deeper than two symbols are not supported",
                        )
            case _:
                raise fail(
                    "BadRule",
                    f"rule {rule_name!r}: pattern arguments must be variables or symbol applications",
                )


@dataclass(frozen=True)
class RewriteRule:
    name: str
    lhs: SymApp
    rhs: Term

    def __post_init__(self):
        _check_pattern(self.lhs, self.name)
        extra = free_vars(self.rhs) - free_vars(self.lhs)
        if extra:
            raise fail("BadRule", f"rule {self.name!r}: right side invents variables {sorted(extra)}")

    def pattern_vars(self) -> set[str]:
        return free_vars(self.lhs)


class RuleSet:
    """Oriented rules, reduced alongside built-in beta; immutable once built."""

    def __init__(self, rules: tuple[RewriteRule, ...] = ()):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise fail("BadRule", "rule names must be distinct")
        self.rules = tuple(rules)
        self._by_head: dict[str, list[RewriteRule]] = {}
        for r in self.rules:
            self._by_head.setdefault(r.lhs.sym, []).append(r)

    def rules_for(self, sym: str) -> list[RewriteRule]:
        return self._by_head.get(sym, [])

    def __repr__(self) -> str:
        return f"RuleSet({[r.name for r in self.rules]})"


def match(pattern: Term, subject: Term, binding: dict[str, Term] | None = None) -> dict[str, Term] | None:
    """First-order matching of a rule left side against a subject."""
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
                if match(p, s, binding) is None:
                    return None
            return binding
        case _:
            return binding if alpha_eq(pattern, subject) else None


def _try_rules(rules: RuleSet, sym: str, args: list[Term], fuel: Fuel) -> Term | None:
    """One head step at a symbol application, reducing nested positions on
    demand so that rule patterns can see the head of their arguments. The
    (possibly reduced) argument list is kept either way."""
    for rule in rules.rules_for(sym):
        if len(rule.lhs.args) != len(args):
            continue
        ok = True
        for i, parg in enumerate(rule.lhs.args):
            if isinstance(parg, SymApp):
                args[i] = whnf(rules, args[i], fuel)
                if not isinstance(args[i], SymApp):
                    ok = False
                    break
        if not ok:
            continue
        binding = match(rule.lhs, SymApp(sym, tuple(args)))
        if binding is not None:
            fuel.spend(SymApp(sym, tuple(args)))
            return substitute_parallel(rule.rhs, binding)
    return None


def whnf(rules: RuleSet, t: Term, fuel: Fuel | int | None = None) -> Term:
    """Weak head normal form: no rule and no beta redex at the head."""
    fuel = _as_fuel(fuel)
    while True:
        match t:
            case App(f, a):
                f2 = whnf(rules, f, fuel)
                if isinstance(f2, Abs):
                    fuel.spend(t)
                    t = instantiate(f2.body, a)
                    continue
                return App(f2, a) if f2 is not f else t
            case SymApp(sym, args):
                args_l = list(args)
                reduced = _try_rules(rules, sym, args_l, fuel)
                if reduced is None:
                    return SymApp(sym, tuple(args_l))
                t = reduced
            case _:
                return t


def _normalize_outermost(rules: RuleSet, t: Term, fuel: Fuel) -> Term:
    t = whnf(rules, t, fuel)
    match t:
        case App(f, a):
            return App(_normalize_outermost(rules, f, fuel), _normalize_outermost(rules, a, fuel))
        case Abs(hint, annot, body):
            v, opened = open_term(hint, body)
            inner = _normalize_outermost(rules, opened, fuel)
            return Abs(hint, _normalize_outermost(rules, annot, fuel), abstract_var(inner, v.name))
        case Prod(hint, dom, cod):
            v, opened = open_term(hint, cod)
            inner = _normalize_outermost(rules, opened, fuel)
            return Prod(hint, _normalize_outermost(rules, dom, fuel), abstract_var(inner, v.name))
        case SymApp(sym, args):
            return SymApp(sym, tuple(_normalize_outermost(rules, a, fuel) for a in args))
        case _:
            return t


def _normalize_innermost(rules: RuleSet, t: Term, fuel: Fuel) -> Term:
    match t:
        case App(f, a):
            f2 = _normalize_innermost(rules, f, fuel)
            a2 = _normalize_innermost(rules, a, fuel)
            if isinstance(f2, Abs):
                fuel.spend(App(f2, a2))
                return _normalize_innermost(rules, instantiate(f2.body, a2), fuel)
            return App(f2, a2)
        case Abs(hint, annot, body):
            v, opened = open_term(hint, body)
            inner = _normalize_innermost(rules, opened, fuel)
            return Abs(hint, _normalize_innermost(rules, annot, fuel), abstract_var(inner, v.name))
        case Prod(hint, dom, cod):
            v, opened = open_term(hint, cod)
            inner = _normalize_innermost(rules, opened, fuel)
            return Prod(hint, _normalize_innermost(rules, dom, fuel), abstract_var(inner, v.name))
        case SymApp(sym, args):
            args_l = [_normalize_innermost(rules, a, fuel) for a in args]
            reduced = _try_rules(rules, sym, args_l, fuel)
            if reduced is None:
                return SymApp(sym, tuple(args_l))
            return _normalize_innermost(rules, reduced, fuel)
        case _:
            return t


def normalize(rules: RuleSet, t: Term, fuel: Fuel | int | None = None, strategy: str = "outermost") -> Term:
    """Full normal form: no subterm is a redex for any rule or for beta."""
    fuel = _as_fuel(fuel)
    if strategy == "outermost":
        return _normalize_outermost(rules, t, fuel)
    if strategy == "innermost":
        return _normalize_innermost(rules, t, fuel)
    raise ValueError(f"unknown strategy {strategy!r}")


def convertible(
    rules: RuleSet,
    a: Term,
    b: Term,
    fuel: Fuel | int | None = None,
    irrelevant: Mapping[str, int] | None = None,
) -> bool:
    """Decide conversion head-first.

    Syntactically equal sides are convertible with no reduction. Otherwise
    both sides are put in weak head normal form and their heads compared;
    only when the heads agree does the comparison descend, into an
    application's function and then its argument, a symbol's arguments in
    order, and a binder's annotation and then its body, both bodies opened
    with one shared fresh variable. A head mismatch rejects at once, without
    normalizing the rest. `irrelevant` maps a symbol to the position of an
    argument that conversion neither reduces nor compares (proof
    irrelevance: the certificate of a pcert `pair`).

    Because the rule sets are orthogonal and their patterns look at most one
    symbol below the head, a weak head normal form's head survives every
    further reduction. So on terms with normal forms the answer is the one
    full normalization of both sides would give (with the irrelevant
    arguments erased), and the steps spent are a subset of the steps that
    normalization spends.
    """
    return _convert(rules, a, b, _as_fuel(fuel), irrelevant or {})


def _convert(rules: RuleSet, a: Term, b: Term, fuel: Fuel, irrelevant: Mapping[str, int]) -> bool:
    if a == b:
        return True
    a, b = whnf(rules, a, fuel), whnf(rules, b, fuel)
    match a, b:
        case App(f, x), App(g, y):
            return _convert(rules, f, g, fuel, irrelevant) and _convert(rules, x, y, fuel, irrelevant)
        case SymApp(sym, xs), SymApp(other, ys):
            if sym != other or len(xs) != len(ys):
                return False
            skip = irrelevant.get(sym)
            return all(i == skip or _convert(rules, x, y, fuel, irrelevant) for i, (x, y) in enumerate(zip(xs, ys)))
        case (Abs(hint, dom, body), Abs(_, dom2, body2)) | (Prod(hint, dom, body), Prod(_, dom2, body2)):
            if not _convert(rules, dom, dom2, fuel, irrelevant):
                return False
            v = Var(fresh_name(hint))
            return _convert(rules, instantiate(body, v), instantiate(body2, v), fuel, irrelevant)
        case _:
            return a == b


# --- orthogonality report ---------------------------------------------------


@dataclass(frozen=True)
class OrthogonalityReport:
    nonlinear: tuple[str, ...]  # rules whose lhs repeats a pattern variable
    overlaps: tuple[tuple[str, str, str], ...]  # (rule, rule, position)

    @property
    def ok(self) -> bool:
        return not self.nonlinear and not self.overlaps

    def __str__(self) -> str:
        if self.ok:
            return "orthogonal: no left-linearity violations, no overlapping left sides"
        lines = []
        for name in self.nonlinear:
            lines.append(f"left-linearity violation in rule {name!r}")
        for a, b, pos in self.overlaps:
            lines.append(f"overlap between {a!r} and {b!r} at {pos}")
        return "\n".join(lines)


def _count_vars(t: Term, counts: dict[str, int]) -> None:
    match t:
        case Var(name):
            counts[name] = counts.get(name, 0) + 1
        case SymApp(_, args):
            for a in args:
                _count_vars(a, counts)
        case _:
            pass


def _rename_apart(t: Term, suffix: str) -> Term:
    return substitute_parallel(t, {v: Var(v + suffix) for v in free_vars(t)})


def _unify(a: Term, b: Term, binding: dict[str, Term]) -> bool:
    def resolve(t: Term) -> Term:
        while isinstance(t, Var) and t.name in binding:
            t = binding[t.name]
        return t

    a, b = resolve(a), resolve(b)
    if isinstance(a, Var):
        if a == b:
            return True
        if a.name in free_vars(b):
            return False
        binding[a.name] = b
        return True
    if isinstance(b, Var):
        return _unify(b, a, binding)
    if isinstance(a, SymApp) and isinstance(b, SymApp):
        if a.sym != b.sym or len(a.args) != len(b.args):
            return False
        return all(_unify(x, y, binding) for x, y in zip(a.args, b.args))
    return alpha_eq(a, b)


def check_orthogonality(rules: RuleSet) -> OrthogonalityReport:
    """Report left-linearity violations and overlapping left sides.

    Beta never overlaps the symbol rules since their patterns contain no
    applications or abstractions, so only symbol/symbol critical pairs are
    inspected. Patterns are at most two symbols deep, which keeps the
    position walk finite.
    """
    nonlinear = []
    for rule in rules.rules:
        counts: dict[str, int] = {}
        _count_vars(rule.lhs, counts)
        if any(n > 1 for n in counts.values()):
            nonlinear.append(rule.name)

    overlaps = []
    for i, r1 in enumerate(rules.rules):
        lhs1 = _rename_apart(r1.lhs, "!1")
        for j, r2 in enumerate(rules.rules):
            lhs2 = _rename_apart(r2.lhs, "!2")
            # root overlap (distinct rules only)
            if i < j and _unify(lhs1, lhs2, {}):
                overlaps.append((r1.name, r2.name, "root"))
            # r2's lhs inside a non-variable proper subterm of r1's lhs
            for pos, sub in enumerate(lhs1.args):
                if isinstance(sub, SymApp) and _unify(sub, lhs2, {}):
                    overlaps.append((r1.name, r2.name, f"argument {pos}"))
    return OrthogonalityReport(tuple(nonlinear), tuple(overlaps))
