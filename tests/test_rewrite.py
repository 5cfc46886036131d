"""Matching, normalization, conversion and the orthogonality report."""

from __future__ import annotations

import pytest

from genutil import BASE_CTX, TermGen
from pcert import translate_term
from pcert.diagnostics import FuelError
from pcert.lf import El, PROP_ENC, PROP_OBJ, Prf, RULES_R
from pcert.rewrite import (
    Fuel,
    RewriteRule,
    RuleSet,
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
    lam,
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
    assert Fuel.unlimited().remaining is None


def test_orthogonality_of_encoding_rules():
    report = check_orthogonality(RULES_R)
    assert report.ok
    assert report.nonlinear == ()
    assert report.overlaps == ()


def test_orthogonality_flags_nonlinear_rule():
    rules = RuleSet((RewriteRule("dup", SymApp("f", (Var("x"), Var("x"))), Var("x")),))
    report = check_orthogonality(rules)
    assert report.nonlinear == ("dup",)


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
    with pytest.raises(Exception):
        RewriteRule("deep", deep, Var("x"))


def test_rule_construction_rejects_invented_variables():
    with pytest.raises(Exception):
        RewriteRule("bad", SymApp("f", (Var("x"),)), Var("y"))


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
        for rule in rules.rules_for(t.sym):
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
