"""Fuel-bounded normalization for beta plus left-linear symbol rules.

A rule set pairs built-in beta reduction with first-order rules whose left
sides are symbol applications over pattern variables, nested at most one
symbol deep. Conversion is decided head-first (`convertible`). Full
normalization is leftmost-outermost by default; an innermost strategy exists
solely to cross-check confluence in tests. `whnf` is the public entry; rule
arguments, normalization, conversion and `Kernel.whnf` call the loop
`_whnf` on the `Fuel` they already hold.

Termination of the shipped rule sets is an open question, so every reduction
spends from an explicit fuel budget and exhaustion is a hard error carrying
the partially reduced term.

Replay. Beta hands one argument object to every occurrence of its variable,
and definitions reach the kernels expanded, so the same object, or pair of
objects, comes up for reduction many times. Conversion keeps each
sub-comparison's verdict, outermost normalization each subterm's normal
form and `whnf_replayed` each term's weak head normal form in a
`terms.Memo`, with the steps it spent; each is one function, as `terms`
says under Dispatch. A repeat whose recorded steps remain is charged them
through `Fuel.charge` and returns the recorded result; otherwise it is
reduced again for real, so fuel runs out at the same step on the same
partial term. An entry depends only on its key objects and the
rules (for conversion, also the irrelevant positions), so results, fuel
spent and fuel left are those of redoing every repeat, whatever the memo
holds; only the work shrinks. A memo lives for one call unless the caller
hands one in: the kernels keep a conversion and a head normal form memo per
file (`terms.Records`), `roundtrip` a normalization memo per command.

The kernels also hand down their file's `loose_bounds` masks
(`Records.bounds`), which the beta step and conversion's binder opening
pass to `terms.instantiate`: a subterm known to be closed at the depth it
is met at comes back unwalked, the very object the walk would return.
Outermost normalization reads its masks from its own memo, where
`terms.loose_bounds` files them under `~ident`, apart from the normal
forms: its beta steps and the binders it opens pass that memo to
`instantiate`. A binder body with no loose index is normalized as it is,
neither opened nor closed: opening would hand it back as itself, and
closing would hand back its normal form as itself. Its fresh name is drawn
all the same, as `Kernel._infer` draws it, so later names are those of
opening it.
"""

from __future__ import annotations

from typing import Mapping

from .diagnostics import FuelError, fail
from .record import Frozen, setters
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
    free_names,
    fresh_name,
    ident,
    instantiate,
    abstract_var,
    loose_bounds,
    open_term,
    substitute_parallel,
)

DEFAULT_FUEL = 100_000


class Fuel:
    """Budget of head-rewrite steps; exhaustion raises, never loops.
    `Fuel(None)` is a budget without limit.

    `spent` counts every step spent or charged, unlimited budgets included,
    so a caller can measure what a piece of work cost by its difference.
    """

    def __init__(self, remaining: int | None = DEFAULT_FUEL):
        if remaining is not None and remaining < 0:
            raise ValueError("fuel must be nonnegative")
        self.remaining = remaining
        self.spent = 0

    def spend(self, at: Term) -> None:
        remaining = self.remaining
        if remaining is not None:
            if remaining == 0:
                raise FuelError(at)
            self.remaining = remaining - 1
        self.spent += 1

    def charge(self, steps: int) -> bool:
        """Spend `steps` already known to be needed, all at once, if they
        remain; otherwise spend nothing and return False."""
        remaining = self.remaining
        if remaining is not None:
            if remaining < steps:
                return False
            self.remaining = remaining - steps
        self.spent += steps
        return True

    def __repr__(self) -> str:
        """The debugging surface."""
        return f"Fuel({self.remaining})"


def _as_fuel(fuel: Fuel | int | None) -> Fuel:
    if isinstance(fuel, Fuel):
        return fuel
    if fuel is None:
        return Fuel(DEFAULT_FUEL)
    return Fuel(None) if fuel == 0 else Fuel(fuel)


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


class RewriteRule(Frozen):
    """An oriented rule. The left side is a symbol applied to variables or
    to symbols applied to variables, and the right side has no variable the
    left side lacks; anything else raises BadRule."""

    __slots__ = __match_args__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: SymApp, rhs: Term):
        _rule_name(self, name)
        _rule_lhs(self, lhs)
        _rule_rhs(self, rhs)
        _check_pattern(self.lhs, self.name)
        memo = Memo()
        extra = free_names(self.rhs, memo) - free_names(self.lhs, memo)
        if extra:
            raise fail("BadRule", f"rule {self.name!r}: right side invents variables {sorted(extra)}")


_rule_name, _rule_lhs, _rule_rhs = setters(RewriteRule)


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

    def __repr__(self) -> str:
        """The debugging surface."""
        return f"RuleSet({[r.name for r in self.rules]})"


def match(pattern: SymApp, subject: Term, binding: dict[str, Term] | None = None) -> dict[str, Term] | None:
    """First-order matching of a rule left side against a subject. A left
    side, and each argument of it that is not a variable, is a symbol
    application (`RewriteRule`), so no other pattern reaches here."""
    if binding is None:
        binding = {}
    if type(subject) is not SymApp or subject.sym != pattern.sym or len(subject.args) != len(pattern.args):
        return None
    for p, s in zip(pattern.args, subject.args):
        if type(p) is not Var:
            if match(p, s, binding) is None:
                return None
            continue
        seen = binding.get(p.name)  # a pattern variable, bound here without a call
        if seen is not None and seen != s:
            return None
        binding[p.name] = s
    return binding


def _try_rules(rules: RuleSet, t: SymApp, fuel: Fuel, bounds: Memo | None = None) -> tuple[Term | None, SymApp]:
    """One head step at a symbol application, reducing nested positions on
    demand so that rule patterns can see the head of their arguments.

    Returns the contractum, or None when no rule fires, together with the
    subject with its reduced arguments, which is t itself when none changed.
    A position is reduced the first time a rule's pattern needs it, in rule
    order, and read as it is for later rules: reducing a weak head normal
    form again spends nothing and hands back the very object.
    """
    sym = t.sym
    reduced = 0  # bit i: position i is in weak head normal form
    for rule in rules._by_head.get(sym, ()):
        pargs = rule.lhs.args
        if len(pargs) != len(t.args):
            continue
        for i, parg in enumerate(pargs):
            if type(parg) is SymApp:
                arg = t.args[i]
                if not reduced >> i & 1:
                    reduced |= 1 << i
                    arg = _whnf(rules, arg, fuel, bounds)
                    if arg is not t.args[i]:
                        t = SymApp(sym, t.args[:i] + (arg,) + t.args[i + 1 :])
                if type(arg) is not SymApp:
                    break
        else:
            binding = match(rule.lhs, t)
            if binding is not None:
                fuel.spend(t)
                return substitute_parallel(rule.rhs, binding), t
    return None, t


def whnf(rules: RuleSet, t: Term, fuel: Fuel | int | None = None) -> Term:
    """Weak head normal form: no rule and no beta redex at the head.
    Library API for the tests; `perfbench/probes.py` patches it."""
    return _whnf(rules, t, _as_fuel(fuel))


def _whnf(rules: RuleSet, t: Term, fuel: Fuel, bounds: Memo | None = None) -> Term:
    """`whnf` on a budget; returns t itself when its head is already normal."""
    by_head = rules._by_head
    while True:
        cls = type(t)
        if cls is App:
            f = t.fun
            f2 = _whnf(rules, f, fuel, bounds)
            if type(f2) is Abs:
                fuel.spend(t)
                t = instantiate(f2.body, t.arg, bounds)
                continue
            return t if f2 is f else App(f2, t.arg)
        if cls is SymApp and t.sym in by_head:
            reduced, t = _try_rules(rules, t, fuel, bounds)
            if reduced is None:
                return t
            t = reduced
            continue
        return t


def whnf_replayed(rules: RuleSet, t: Term, fuel: Fuel, memo: Memo, bounds: Memo | None = None) -> Term:
    """`_whnf` replayed from `memo` (see the module docstring). Entries:
    t -> (its weak head normal form, the steps spent reaching it)."""
    cls = type(t)
    if cls is not App and cls is not SymApp:
        return t  # already normal
    seen = memo.get(ident(t))
    if seen is not None and (not seen[1] or fuel.charge(seen[1])):
        return seen[0]
    before = fuel.spent
    u = _whnf(rules, t, fuel, bounds)
    memo[ident(t)] = u, fuel.spent - before  # `put`, inlined: one call fewer per node
    memo._held.append(t)
    return u


def _normalize_outermost(rules: RuleSet, t: Term, fuel: Fuel, memo: Memo) -> Term:
    """Entries: t -> (its normal form, the steps spent reaching it), and
    under `~ident` the `loose_bounds` masks, which the beta step and the
    opening of a binder read (see the module docstring)."""
    cls = type(t)
    if cls is Var or cls is Bound or cls is Sort:
        return t  # already normal
    seen = memo.get(ident(t))
    if seen is not None and fuel.charge(seen[1]):
        return seen[0]
    before = fuel.spent
    u = _whnf(rules, t, fuel, memo)
    cls = type(u)
    if cls is App:
        nf = App(_normalize_outermost(rules, u.fun, fuel, memo), _normalize_outermost(rules, u.arg, fuel, memo))
    elif cls is Abs or cls is Prod:
        hint, body = u.hint, u.body
        if loose_bounds(body, memo):
            v, opened = open_term(hint, body, memo)
            inner = abstract_var(_normalize_outermost(rules, opened, fuel, memo), v.name)
        else:
            fresh_name(hint)  # drawn as opening would, so later names stay the same
            inner = _normalize_outermost(rules, body, fuel, memo)
        nf = cls(hint, _normalize_outermost(rules, u.dom, fuel, memo), inner)
    elif cls is SymApp and u.args:
        args = []
        for a in u.args:
            args.append(_normalize_outermost(rules, a, fuel, memo))
        nf = SymApp(u.sym, tuple(args))
    else:
        nf = u
    memo.put(ident(t), (nf, fuel.spent - before), t)
    return nf


def _normalize_innermost(rules: RuleSet, t: Term, fuel: Fuel) -> Term:
    """`normalize`'s innermost strategy: acceptance criterion 7 compares it
    with the outermost one, which the commands use."""
    cls = type(t)
    if cls is Abs or cls is Prod:
        v, opened = open_term(t.hint, t.body)
        inner = _normalize_innermost(rules, opened, fuel)
        return cls(t.hint, _normalize_innermost(rules, t.dom, fuel), abstract_var(inner, v.name))
    match t:
        case App(f, a):
            f2 = _normalize_innermost(rules, f, fuel)
            a2 = _normalize_innermost(rules, a, fuel)
            if isinstance(f2, Abs):
                fuel.spend(App(f2, a2))
                return _normalize_innermost(rules, instantiate(f2.body, a2), fuel)
            return App(f2, a2)
        case SymApp(sym, args):
            t = SymApp(sym, tuple(_normalize_innermost(rules, a, fuel) for a in args))
            reduced, t = _try_rules(rules, t, fuel)
            return t if reduced is None else _normalize_innermost(rules, reduced, fuel)
        case _:
            return t


def normalize(
    rules: RuleSet,
    t: Term,
    fuel: Fuel | int | None = None,
    strategy: str = "outermost",
    memo: Memo | None = None,
) -> Term:
    """Full normal form: no subterm is a redex for any rule or for beta.

    Outermost normalization replays a repeated subterm's normal form from
    `memo` (see the module docstring), and closes each binder body with
    `terms.abstract_var`, so a normal form keeps its sharing.
    """
    fuel = _as_fuel(fuel)
    if strategy == "outermost":
        return _normalize_outermost(rules, t, fuel, Memo() if memo is None else memo)
    if strategy == "innermost":
        return _normalize_innermost(rules, t, fuel)
    raise ValueError(f"unknown strategy {strategy!r}")


def convertible(
    rules: RuleSet,
    a: Term,
    b: Term,
    fuel: Fuel | int | None = None,
    irrelevant: Mapping[str, int] | None = None,
    memo: Memo | None = None,
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
    normalization spends. Sub-comparisons replay from `memo` (see the module
    docstring).

    Library API: `lf.convertible_lf` and the tests call it; the kernels
    call `_convert` through `Kernel.convert`.
    """
    if a == b:
        return True
    return _convert(rules, a, b, _as_fuel(fuel), irrelevant or {}, Memo() if memo is None else memo)


def _convert(
    rules: RuleSet, a: Term, b: Term, fuel: Fuel, irrelevant: Mapping[str, int], memo: Memo, bounds: Memo | None = None
) -> bool:
    """Entries: the pair (a, b) -> (verdict, steps spent). The caller has
    found a and b not equal (`==`), as each sub-comparison here does first.
    Two applications of one symbol are compared argument by argument only
    when they have as many arguments: on checked terms the signature fixes
    each symbol's arity, so the test guards the public `convertible` on
    unchecked terms, where `zip` would otherwise drop the surplus."""
    key = (ident(a), ident(b))
    seen = memo.get(key)
    if seen is not None and (not seen[1] or fuel.charge(seen[1])):
        return seen[0]
    before = fuel.spent
    x, y = _whnf(rules, a, fuel, bounds), _whnf(rules, b, fuel, bounds)
    cls = type(x)
    if cls is not type(y):
        verdict = False
    elif cls is App:
        u, w = x.fun, y.fun
        verdict = u == w or _convert(rules, u, w, fuel, irrelevant, memo, bounds)
        if verdict:
            u, w = x.arg, y.arg
            verdict = u == w or _convert(rules, u, w, fuel, irrelevant, memo, bounds)
    elif cls is SymApp:
        xs, ys = x.args, y.args
        verdict = x.sym == y.sym and len(xs) == len(ys)
        if verdict:
            skip = irrelevant.get(x.sym)
            for i, (u, w) in enumerate(zip(xs, ys)):
                if i != skip and u != w and not _convert(rules, u, w, fuel, irrelevant, memo, bounds):
                    verdict = False
                    break
    elif cls is Abs or cls is Prod:
        u, w = x.dom, y.dom
        verdict = u == w or _convert(rules, u, w, fuel, irrelevant, memo, bounds)
        if verdict:
            v = Var(fresh_name(x.hint))
            u, w = instantiate(x.body, v, bounds), instantiate(y.body, v, bounds)
            verdict = u == w or _convert(rules, u, w, fuel, irrelevant, memo, bounds)
    else:
        verdict = x == y
    memo.put(key, (verdict, fuel.spent - before), a, b)
    return verdict


# --- orthogonality report ---------------------------------------------------


class OrthogonalityReport(Frozen):
    """`nonlinear`: the rules whose lhs repeats a pattern variable;
    `overlaps`: (rule, rule, position) triples."""

    __slots__ = __match_args__ = ("nonlinear", "overlaps")

    def __init__(self, nonlinear: tuple[str, ...], overlaps: tuple[tuple[str, str, str], ...]):
        """Made by `check_orthogonality`, which only acceptance criterion 7
        and the tests call."""
        _report_nonlinear(self, nonlinear)
        _report_overlaps(self, overlaps)

    @property
    def ok(self) -> bool:
        """Whether the rules are orthogonal, as acceptance criterion 7 asks."""
        return not self.nonlinear and not self.overlaps

    def __str__(self) -> str:
        """The report's text, for a failed criterion 7."""
        if self.ok:
            return "orthogonal: no left-linearity violations, no overlapping left sides"
        lines = []
        for name in self.nonlinear:
            lines.append(f"left-linearity violation in rule {name!r}")
        for a, b, pos in self.overlaps:
            lines.append(f"overlap between {a!r} and {b!r} at {pos}")
        return "\n".join(lines)


_report_nonlinear, _report_overlaps = setters(OrthogonalityReport)


def _agree(p: Term, q: Term) -> bool:
    """Whether two patterns agree on their symbols and arities wherever both
    have a symbol. For left-linear patterns with no variable in common that
    is exactly unifiability, since each variable occurs once and may take
    any term; with a repeated variable it is only necessary. Read by
    `check_orthogonality` only."""
    if type(p) is Var or type(q) is Var:
        return True
    return p.sym == q.sym and len(p.args) == len(q.args) and all(map(_agree, p.args, q.args))


def check_orthogonality(rules: RuleSet) -> OrthogonalityReport:
    """Report left-linearity violations and overlapping left sides.

    Beta never overlaps the symbol rules since their patterns contain no
    applications or abstractions, so only symbol/symbol critical pairs are
    inspected: two distinct rules at the root, and each rule at each symbol
    argument of each left side, its own included. A left side is a symbol
    applied to variables or to symbols applied to variables (`RewriteRule`),
    so its variables form one flat list, and two left sides renamed apart
    overlap exactly when their symbols and arities agree (`_agree`). The
    report is that of first-order unification on left-linear rule sets;
    with a nonlinear rule, which is reported either way, it may list
    overlaps that unification would rule out, and `ok` is the same.

    Library API: acceptance criterion 7 checks the six framework rules with
    it; the commands trust them.
    """
    nonlinear = []
    for rule in rules.rules:
        names = [v.name for a in rule.lhs.args for v in ((a,) if type(a) is Var else a.args)]
        if len(set(names)) != len(names):
            nonlinear.append(rule.name)

    overlaps = []
    for i, r1 in enumerate(rules.rules):
        for j, r2 in enumerate(rules.rules):
            if i < j and _agree(r1.lhs, r2.lhs):
                overlaps.append((r1.name, r2.name, "root"))
            for pos, sub in enumerate(r1.lhs.args):
                if type(sub) is SymApp and _agree(sub, r2.lhs):
                    overlaps.append((r1.name, r2.name, f"argument {pos}"))
    return OrthogonalityReport(tuple(nonlinear), tuple(overlaps))
