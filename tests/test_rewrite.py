"""Matching, normalization, conversion and the orthogonality report."""

from __future__ import annotations

import itertools
import random

import genutil
import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    BASE_CTX,
    EquivalenceWalker,
    TermGen,
    canonical_fresh_names,
    lam,
    ref_convertible,
    ref_normalize,
    ref_whnf,
)
from pcert import rewrite, terms, translate_term
from pcert.diagnostics import CheckError, FuelError
from pcert.lf import KERNEL as LF_KERNEL, El, PROP_ENC, PROP_OBJ, Prf, RULES_R
from pcert.pcert import BETA_PROJ, KERNEL as PCERT_KERNEL
from pcert.translate import translate_type
from pcert.rewrite import (
    Fuel,
    RewriteRule,
    RuleSet,
    _as_fuel,
    check_orthogonality,
    convertible,
    match,
    normalize,
    whnf,
)
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
    instantiate,
    open_term,
    substitute_parallel,
)

BETA = RuleSet()


def test_match_binds_variable():
    assert match(El(Var("v")), El(PROP_OBJ)) == {"v": PROP_OBJ}


def test_match_rejects_other_symbol():
    assert match(El(Var("v")), Prf(Var("p"))) is None


def test_match_nested_projection_pattern():
    # the projection rule's pattern yields six bindings
    rule = next(r for r in RULES_R.rules if r.name == "proj_pair")
    subject = SymApp(
        "fst",
        (Var("A"), Var("B"), SymApp("pair'", (Var("C"), Var("D"), Var("E")))),
    )
    binding = match(rule.lhs, subject)
    assert binding == {
        "t0": Var("A"),
        "p0": Var("B"),
        "t1": Var("C"),
        "p1": Var("D"),
        "m": Var("E"),
    }
    assert len(binding) == 5  # five pattern variables over six positions


def test_whnf_applies_symbol_rule():
    assert whnf(RULES_R, El(PROP_OBJ)) == PROP_ENC


def test_whnf_beta_step():
    t = App(lam("x", Var("T"), Var("x")), Var("u"))
    assert whnf(BETA, t) == Var("u")


def test_whnf_stuck_variable():
    assert whnf(RULES_R, Var("x")) == Var("x")


def test_whnf_evaluates_argument_to_expose_pattern():
    # fst needs its third argument reduced from pair to pair' before firing
    inner = SymApp("pair", (Var("t"), Var("p"), Var("m"), Var("h")))
    t = SymApp("fst", (Var("t"), Var("p"), inner))
    assert whnf(RULES_R, t) == Var("m")


def test_normalize_prf_of_quantifier():
    t = Prf(SymApp("fa", (Var("t"), Var("p"))))
    expected = Prod("x", El(Var("t")), Prf(App(Var("p"), Bound(0))))
    assert normalize(RULES_R, t) == expected


def test_normalize_pair_compresses_and_normalizes_arguments():
    redex = App(lam("x", Var("T"), Var("x")), Var("m"))
    t = SymApp("pair", (Var("t"), Var("p"), redex, Var("h")))
    assert normalize(RULES_R, t) == SymApp("pair'", (Var("t"), Var("p"), Var("m")))


def test_normalize_sort_is_fixed():
    assert normalize(RULES_R, Sort("Prop")) == Sort("Prop")
    assert normalize(BETA, Sort("TYPE")) == Sort("TYPE")


def test_convertible_pair_proofs_swapped():
    args = (Var("t"), Var("p"), Var("m"))
    a = SymApp("pair", args + (Var("h0"),))
    b = SymApp("pair", args + (Var("h1"),))
    assert convertible(RULES_R, a, b)


def test_convertible_tells_apart_one_symbol_at_two_arities():
    # unchecked terms: only the arity test keeps zip from comparing the
    # common prefix alone
    a, b = Var("a"), Var("b")
    assert not convertible(RuleSet(), SymApp("f", (a,)), SymApp("f", (a, b)))
    assert not convertible(RuleSet(), SymApp("f", (a, b)), SymApp("f", (a,)))


def test_convertible_el_prop():
    assert convertible(RULES_R, El(PROP_OBJ), PROP_ENC)


def test_convertible_alpha_only():
    assert convertible(BETA, lam("x", Var("T"), Var("x")), lam("y", Var("T"), Var("y")))


def test_fuel_exhaustion_is_an_error():
    omega = Abs("x", Var("T"), App(Bound(0), Bound(0)))
    loop = App(omega, omega)
    with pytest.raises(FuelError):
        whnf(BETA, loop, 100)


def test_fuel_zero_means_unlimited_budget_object():
    assert _as_fuel(0).remaining is None


def test_orthogonality_of_encoding_rules():
    report = check_orthogonality(RULES_R)
    assert report.ok
    assert report.nonlinear == ()
    assert report.overlaps == ()
    assert str(report) == "orthogonal: no left-linearity violations, no overlapping left sides"


def test_orthogonality_flags_nonlinear_rule():
    dup = RewriteRule("dup", SymApp("f", (Var("x"), Var("x"))), Var("x"))
    report = check_orthogonality(RuleSet((dup,)))
    assert report.nonlinear == ("dup",)
    other = RewriteRule("other", SymApp("f", (Var("x"), Var("y"))), Var("y"))
    report = check_orthogonality(RuleSet((dup, other)))
    assert str(report) == "left-linearity violation in rule 'dup'\noverlap between 'dup' and 'other' at root"


def test_orthogonality_flags_overlap():
    rules = RuleSet(
        (
            RewriteRule("ground", El(PROP_OBJ), SymApp("A")),
            RewriteRule("general", El(Var("v")), SymApp("B")),
        )
    )
    report = check_orthogonality(rules)
    assert ("ground", "general", "root") in report.overlaps


def test_rule_construction_rejects_deep_patterns():
    deep = SymApp("f", (SymApp("g", (SymApp("h", (Var("x"),)),)),))
    with pytest.raises(CheckError) as err:
        RewriteRule("deep", deep, Var("x"))
    assert err.value.kind == "BadRule"


def test_rule_construction_rejects_invented_variables():
    with pytest.raises(CheckError) as err:
        RewriteRule("bad", SymApp("f", (Var("x"),)), Var("y"))
    assert err.value.kind == "BadRule"


# The pattern limits that `check_orthogonality` relies on: a left side is a
# symbol applied to variables or to symbols applied to variables.
OUTSIDE_THE_PATTERN_LIMITS = {
    "variable": Var("x"),
    "application": App(Var("f"), Var("x")),
    "abstraction_argument": SymApp("f", (Abs("y", Var("T"), Bound(0)),)),
    "application_argument": SymApp("f", (App(Var("g"), Var("x")),)),
    "sort_argument": SymApp("f", (Sort("Type"),)),
    "nested_constant": SymApp("f", (SymApp("g", (SymApp("c"),)),)),
    "nested_sort": SymApp("f", (Var("x"), SymApp("g", (Var("y"), Sort("Prop"))))),
}


@pytest.mark.parametrize("lhs", OUTSIDE_THE_PATTERN_LIMITS.values(), ids=OUTSIDE_THE_PATTERN_LIMITS.keys())
def test_rule_construction_rejects_patterns_outside_the_limits(lhs):
    with pytest.raises(CheckError) as err:
        RewriteRule("bad", lhs, SymApp("c"))
    assert err.value.kind == "BadRule"


# Rule sets within the pattern limits: symbols of arity 0-2 whose arities
# may differ between occurrences, and few variables, so that overlaps and
# repeated variables are both common.
def _symbol_patterns(args: st.SearchStrategy) -> st.SearchStrategy:
    symbols = st.sampled_from(["f", "g", "h"])
    return st.builds(lambda sym, xs: SymApp(sym, tuple(xs)), symbols, st.lists(args, max_size=2))


_PATTERN_VARS = st.sampled_from(["x", "y", "z"]).map(Var)
_LEFT_SIDES = _symbol_patterns(st.one_of(_PATTERN_VARS, _symbol_patterns(_PATTERN_VARS)))
PATTERN_RULE_SETS = st.lists(_LEFT_SIDES, min_size=1, max_size=4).map(
    lambda lhss: RuleSet(tuple(RewriteRule(f"r{i}", lhs, SymApp("c")) for i, lhs in enumerate(lhss)))
)


@settings(max_examples=600, deadline=None)
@given(PATTERN_RULE_SETS)
def test_orthogonality_report_agrees_with_unification(rules):
    report, ref = check_orthogonality(rules), genutil.ref_check_orthogonality(rules)
    assert report.nonlinear == ref.nonlinear
    assert report.ok == ref.ok
    if not ref.nonlinear:
        assert report == ref
    else:
        assert set(ref.overlaps) <= set(report.overlaps)


def test_normalize_idempotent_on_random_encodings():
    gen = TermGen(21)
    for _ in range(50):
        t, _ = gen.some_term(5)
        enc = translate_term(BASE_CTX, t)
        once = normalize(RULES_R, enc, 10_000)
        again = normalize(RULES_R, once, 10_000)
        assert alpha_eq(once, again)


def test_strategies_agree_on_random_encodings():
    gen = TermGen(22)
    for _ in range(50):
        t, _ = gen.some_term(5)
        enc = translate_term(BASE_CTX, t)
        outer = normalize(RULES_R, enc, 10_000, strategy="outermost")
        inner = normalize(RULES_R, enc, 10_000, strategy="innermost")
        assert alpha_eq(outer, inner)


# --- soundness against an independent single-step reference -----------------


def _one_step(rules: RuleSet, t: Term) -> Term | None:
    """Leftmost-outermost single rewrite step, implemented independently of
    the engine: plain pattern matching, explicit recursion into children."""
    if isinstance(t, App) and isinstance(t.fun, Abs):
        return instantiate(t.fun.body, t.arg)
    if isinstance(t, SymApp):
        for rule in (r for r in rules.rules if r.lhs.sym == t.sym):
            binding = match(rule.lhs, t)
            if binding is not None:
                return substitute_parallel(rule.rhs, binding)
    match t:
        case App(f, a):
            step = _one_step(rules, f)
            if step is not None:
                return App(step, a)
            step = _one_step(rules, a)
            return None if step is None else App(f, step)
        case Abs(hint, annot, body):
            step = _one_step(rules, annot)
            if step is not None:
                return Abs(hint, step, body)
            v, opened = open_term(hint, body)
            step = _one_step(rules, opened)
            return None if step is None else Abs(hint, annot, abstract_var(step, v.name))
        case Prod(hint, dom, cod):
            step = _one_step(rules, dom)
            if step is not None:
                return Prod(hint, step, cod)
            v, opened = open_term(hint, cod)
            step = _one_step(rules, opened)
            return None if step is None else Prod(hint, dom, abstract_var(step, v.name))
        case SymApp(sym, args):
            for i, arg in enumerate(args):
                step = _one_step(rules, arg)
                if step is not None:
                    out = list(args)
                    out[i] = step
                    return SymApp(sym, tuple(out))
            return None
        case _:
            return None


def _reference_normalize(rules: RuleSet, t: Term, cap: int = 10_000) -> Term:
    for _ in range(cap):
        step = _one_step(rules, t)
        if step is None:
            return t
        t = step
    raise AssertionError("reference normalizer exceeded its step cap")


def test_normalize_agrees_with_single_step_reference():
    gen = TermGen(23)
    for _ in range(60):
        t, _ = gen.some_term(5)
        enc = translate_term(BASE_CTX, t)
        assert alpha_eq(normalize(RULES_R, enc, 10_000), _reference_normalize(RULES_R, enc))


def test_whnf_exposes_function_through_projection():
    # the head only becomes a beta redex after the projection fires
    identity = Abs("x", El(Var("t")), Bound(0))
    packed = SymApp("pair'", (Var("t"), Var("p"), identity))
    t = App(SymApp("fst", (Var("t"), Var("p"), packed)), Var("a"))
    assert whnf(RULES_R, t) == Var("a")


# --- the same steps as the reference ---------------------------------------------


def test_whnf_returns_a_symbol_application_without_rules_itself():
    t = SymApp("f", (Var("a"), App(lam("x", Var("T"), Var("x")), Var("b"))))
    assert whnf(RULES_R, t) is t
    # a head with rules whose patterns cannot see their argument's head
    stuck = El(Var("v"))
    assert whnf(RULES_R, stuck) is stuck


def test_whnf_returns_a_weak_head_normal_form_itself():
    for t in (
        App(App(Var("f"), Var("a")), App(lam("x", Var("T"), Var("x")), Var("b"))),
        lam("x", Var("T"), App(lam("y", Var("T"), Var("y")), Var("x"))),
        Prod("x", El(PROP_OBJ), Var("Q")),
        Var("x"),
        Sort("Prop"),
    ):
        assert whnf(RULES_R, t) is t
        assert whnf(BETA_PROJ, t) is t


def test_match_rejects_a_nonlinear_pattern_whose_occurrences_differ():
    x, a, b = Var("x"), Var("a"), Var("b")
    assert match(SymApp("f", (x, x)), SymApp("f", (a, b))) is None
    assert match(SymApp("f", (x, x)), SymApp("f", (a, a))) == {"x": a}
    nested = SymApp("f", (x, SymApp("g", (x,))))
    assert match(nested, SymApp("f", (a, SymApp("g", (b,))))) is None
    assert match(nested, SymApp("f", (a, SymApp("g", (a,))))) == {"x": a}


def _outcome(run, budget: int, module, matcher: str) -> tuple:
    """What a reduction returns, or the partial term it stops on, the fuel
    it leaves, and how many rule attempts it made (outermost calls of the
    module's matcher, the ones that pass no binding)."""
    original = getattr(module, matcher)
    attempts = [0]

    def counted(pattern, subject, binding=None):
        if binding is None:
            attempts[0] += 1
        return original(pattern, subject, binding)

    fuel = Fuel(budget)
    setattr(module, matcher, counted)
    try:
        return ("done", run(fuel), fuel.remaining, attempts[0])
    except FuelError as err:
        return ("out of fuel", err.diagnostic.subject, fuel.remaining, attempts[0])
    finally:
        setattr(module, matcher, original)


def _same_as_reference(reference, change, budget: int, exact: bool = True) -> tuple:
    """Both outcomes, each drawn from the same fresh-name counter so that
    binders opened on the way get the same names; they must be equal, and
    so must the number of names drawn.

    With exact=False (conversion and outermost normalization, which replay
    a repeated sub-comparison or subterm instead of redoing it) the result
    and the fuel left must still be equal, and so must the partial term
    once its fresh names are renumbered, but the change may make fewer rule
    attempts and draw fewer names: those count work done, not behaviour."""
    start = next(terms._fresh_counter)
    outcomes, ends = [], []
    for run, module, matcher in ((reference, genutil, "ref_match"), (change, rewrite, "match")):
        terms._fresh_counter = itertools.count(start)
        outcomes.append(_outcome(run, budget, module, matcher))
        ends.append(next(terms._fresh_counter))
    terms._fresh_counter = itertools.count(max(ends) + 1)
    if exact:
        assert outcomes[0] == outcomes[1]
        assert ends[0] == ends[1]
    else:
        (kind, result, left, attempts), (kind2, result2, left2, attempts2) = outcomes
        assert (kind2, left2) == (kind, left)
        assert canonical_fresh_names(result2) == canonical_fresh_names(result)
        assert attempts2 <= attempts
        assert ends[1] <= ends[0]
    return outcomes[1]


FULL = 100_000


def _agree_at_every_budget(reference, change, exact: bool = True) -> None:
    """Equal under the full budget, and under small budgets around the
    exact number of steps spent, where both must run out at the same step."""
    kind, _, left, _ = _same_as_reference(reference, change, FULL, exact)
    assert kind == "done"
    spent = FULL - left
    for budget in sorted({0, 1, 2, spent // 2, max(spent - 1, 0), spent}):
        kind, _, _, _ = _same_as_reference(reference, change, budget, exact)
        assert kind == ("done" if budget >= spent else "out of fuel")


RULE_SETS = ((BETA_PROJ, PCERT_KERNEL.irrelevant), (RULES_R, LF_KERNEL.irrelevant))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reduction_takes_the_reference_steps_on_generated_terms(seed):
    gen = TermGen(seed)
    m, goal = gen.some_term(5)
    walked = EquivalenceWalker(random.Random(seed)).walk(BASE_CTX, m, 2)
    other = gen.term_of(goal, 4)
    ty_m, ty_o = (PCERT_KERNEL.infer(BASE_CTX, t) for t in (m, other))
    pcert_terms = (m, walked, other, ty_m)
    lf_terms = (translate_term(BASE_CTX, m), translate_term(BASE_CTX, walked), translate_term(BASE_CTX, other),
                translate_type(BASE_CTX, ty_m))
    pairs = [(m, walked), (m, other), (ty_m, ty_o), (lf_terms[0], lf_terms[1]), (lf_terms[0], lf_terms[2]),
             (lf_terms[3], translate_type(BASE_CTX, ty_o))]
    for rules, irrelevant in RULE_SETS:
        for t in pcert_terms + lf_terms:
            _agree_at_every_budget(lambda f: ref_whnf(rules, t, f), lambda f: whnf(rules, t, f))
            for strategy in ("outermost", "innermost"):
                _agree_at_every_budget(
                    lambda f: ref_normalize(rules, t, f, strategy),
                    lambda f: normalize(rules, t, f, strategy),
                    exact=strategy == "innermost",
                )
        for a, b in pairs:
            _agree_at_every_budget(
                lambda f: ref_convertible(rules, a, b, f, irrelevant),
                lambda f: convertible(rules, a, b, f, irrelevant),
                exact=False,
            )


# --- outermost normalization with loose-bound masks, against the tree walk ----------


class NoReplay(terms.Memo):
    """A normalization memo that files and hands out `loose_bounds` masks,
    kept under `~ident` (negative keys), but never a normal form, so that
    normalization walks its term as a tree, as the reference does."""

    __slots__ = ()

    def get(self, key, default=None):
        return dict.get(self, key, default) if type(key) is int and key < 0 else default


def _normal_outcome(run, budget: int, start: int) -> tuple:
    """run(Fuel(budget)) with the fresh-name counter restarted at start:
    the normal form, or the partial term fuel ran out at, the fuel spent
    and left, and the names drawn."""
    terms._fresh_counter = itertools.count(start)
    fuel = Fuel(budget)
    try:
        kind, result = "done", run(fuel)
    except FuelError as err:
        kind, result = "out of fuel", err.diagnostic.subject
    return kind, result, fuel.spent, fuel.remaining, next(terms._fresh_counter) - start


def _masked_normalization_agrees_at_every_budget(rules: RuleSet, t: Term) -> None:
    """From budget 0 up to the first that reaches the normal form: walked
    as a tree, masked normalization gives the reference's result or partial
    term, fuel spent and left, and names drawn, name for name; replaying
    from its memo, the same up to the names of the partial term, and no
    more names."""
    budget = 0
    while True:
        start = next(terms._fresh_counter)
        want = _normal_outcome(lambda f: ref_normalize(rules, t, f), budget, start)
        tree = _normal_outcome(lambda f: normalize(rules, t, f, memo=NoReplay()), budget, start)
        kind, result, spent, left, names = _normal_outcome(lambda f: normalize(rules, t, f), budget, start)
        terms._fresh_counter = itertools.count(start + want[4] + 1)
        assert tree == want, budget
        assert (kind, spent, left) == (want[0], want[2], want[3]), budget
        assert canonical_fresh_names(result) == canonical_fresh_names(want[1]), budget
        assert names <= want[4], budget
        if kind == "done":
            return
        budget += 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_masked_normalization_walks_as_the_reference_at_every_budget(seed):
    gen = TermGen(seed)
    m, _ = gen.some_term(5)
    walked = EquivalenceWalker(random.Random(seed)).walk(BASE_CTX, m, 2)
    ty = PCERT_KERNEL.infer(BASE_CTX, m)
    for t in (m, walked, ty):
        _masked_normalization_agrees_at_every_budget(BETA_PROJ, t)
    for t in (translate_term(BASE_CTX, m), translate_term(BASE_CTX, walked), translate_type(BASE_CTX, ty)):
        _masked_normalization_agrees_at_every_budget(RULES_R, t)


def test_a_closed_binder_body_is_neither_opened_nor_closed_but_draws_its_name(monkeypatch):
    opened = []
    monkeypatch.setattr(rewrite, "open_term", lambda *args: opened.append(args) or open_term(*args))
    iota = Var("iota")
    arrows = Prod("_", iota, Prod("_", iota, iota))
    before = next(terms._fresh_counter)
    assert normalize(BETA, App(lam("y", iota, arrows), Var("a"))) == arrows
    assert next(terms._fresh_counter) - before - 1 == 2  # one name per binder, opened or not
    assert opened == []
