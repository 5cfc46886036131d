"""The reject direction: what pcert rejects, the lf encoding rejects too.

The acceptance criteria check that accepted developments translate to
accepted ones. These properties mutate well-typed `TermGen` judgments into
mostly ill-typed ones and check that both systems give one verdict on
them: a judgment `m : A` passes pcert (A is classified by a sort, and m
checks against it) exactly when its translation is made without a
diagnostic and passes the lf kernel the same way. And two terms that
pcert's conversion tells apart stay apart after translation. A judgment
whose check runs out of fuel in either system is discarded.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from genutil import BASE_CTX, GOAL_POOL, IOTA, P_A, P_B, PQ, PROP, PSUB_P, QT, TermGen, lam, positions, replace_at
from pcert.diagnostics import CheckError, FuelError
from pcert.export import LambdapiPrinter, export_lambdapi
from pcert.lf import KERNEL as LF_KERNEL, convertible_lf
from pcert.pcert import KERNEL as PCERT_KERNEL, conv_pcert
from pcert.terms import Abs, Bound, Prod, SymApp, Term, Var, alpha_eq
from pcert.translate import translate_ctx, translate_term, translate_type

LF_CTX = translate_ctx(BASE_CTX)
FUEL = 20_000

PROOFS = ("ha", "ha'", "hb", "hq", "hq'")
# predicates over iota other than P, for pairs and subset types
OTHER_PREDICATES = (lam("x", IOTA, QT), lam("x", IOTA, P_B), lam("x", IOTA, P_A))
DOMAINS = (IOTA, PSUB_P, QT, P_A, Prod("_", IOTA, IOTA))
EXTRA_GOALS = (Prod("_", IOTA, PROP), SymApp("psub", (IOTA, OTHER_PREDICATES[0])), Var("ghost"))


def wrong_goal(rng: random.Random, m: Term, goal: Term) -> tuple[Term, Term]:
    others = [g for g in GOAL_POOL + list(EXTRA_GOALS) if not alpha_eq(g, goal)]
    return m, rng.choice(others)


def swapped_subterms(rng: random.Random, m: Term, goal: Term) -> tuple[Term, Term]:
    found = positions(BASE_CTX, m)
    path, opened, _, _ = rng.choice(found)
    _, _, _, other = rng.choice(found)  # may mention binders opened elsewhere
    return replace_at(m, path, opened, other), goal


def swapped_certificate(rng: random.Random, m: Term, goal: Term) -> tuple[Term, Term]:
    proofs = [(p, o) for p, o, _, s in positions(BASE_CTX, m) if isinstance(s, Var) and s.name in PROOFS]
    if not proofs:
        return wrong_goal(rng, m, goal)
    path, opened = rng.choice(proofs)
    return replace_at(m, path, opened, Var(rng.choice(PROOFS))), goal


def domain_mismatch(rng: random.Random, m: Term, goal: Term) -> tuple[Term, Term]:
    binders = [(p, o) for p, o, _, s in positions(BASE_CTX, m) if isinstance(s, Abs)]
    if not binders:
        return wrong_goal(rng, m, goal)
    path, opened = rng.choice(binders)
    return replace_at(m, path + (0,), opened, rng.choice(DOMAINS)), goal


def other_predicate(rng: random.Random, m: Term, goal: Term) -> tuple[Term, Term]:
    """A pair built for one predicate, against a psub of another: either the
    pair's predicate or the goal's changes."""
    pairs = [(p, o) for p, o, _, s in positions(BASE_CTX, m) if isinstance(s, SymApp) and s.sym == "pair"]
    if not pairs or rng.random() < 0.3:
        if alpha_eq(goal, PSUB_P):
            return m, SymApp("psub", (IOTA, rng.choice(OTHER_PREDICATES)))
        return wrong_goal(rng, m, goal)
    path, opened = rng.choice(pairs)
    return replace_at(m, path + (1,), opened, rng.choice(OTHER_PREDICATES + (PQ,))), goal


MUTATIONS = {
    "wrong_goal": wrong_goal,
    "swapped_subterms": swapped_subterms,
    "swapped_certificate": swapped_certificate,
    "domain_mismatch": domain_mismatch,
    "other_predicate": other_predicate,
}


@st.composite
def mutated_judgment(draw) -> tuple[Term, Term]:
    m, goal = TermGen(draw(st.integers(0, 2**32 - 1))).some_term(draw(st.integers(1, 5)))
    mutate = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))]
    return mutate(random.Random(draw(st.integers(0, 2**32 - 1))), m, goal)


def _verdict(check) -> bool:
    """True when check passes, False when it raises a diagnostic; a run out
    of fuel discards the example."""
    try:
        check()
    except FuelError:
        reject()
    except CheckError:
        return False
    return True


def pcert_accepts(m: Term, goal: Term) -> bool:
    def check():
        PCERT_KERNEL.sort_of(BASE_CTX, goal, FUEL)
        PCERT_KERNEL.check(BASE_CTX, m, goal, FUEL)

    return _verdict(check)


def lf_accepts(m: Term, goal: Term) -> bool:
    def check():
        ty = translate_type(BASE_CTX, goal)
        tm = translate_term(BASE_CTX, m)
        LF_KERNEL.sort_of(LF_CTX, ty, FUEL)
        LF_KERNEL.check(LF_CTX, tm, ty, FUEL)

    return _verdict(check)


@settings(max_examples=300, deadline=None)
@given(mutated_judgment())
def test_pcert_rejects_a_mutated_judgment_exactly_when_its_translation_is_rejected(judgment):
    m, goal = judgment
    assert pcert_accepts(m, goal) == lf_accepts(m, goal)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.sampled_from(GOAL_POOL))
def test_terms_pcert_tells_apart_stay_apart_after_translation(seed_a, seed_b, goal):
    a = TermGen(seed_a).term_of(goal, 4)
    b = TermGen(seed_b).term_of(goal, 4)
    try:
        if conv_pcert(BASE_CTX, a, b, FUEL):
            return
        translated = translate_term(BASE_CTX, a), translate_term(BASE_CTX, b)
        assert not convertible_lf(*translated, FUEL)
    except FuelError:
        reject()


# --- diagnostic kinds no command reaches on a checked file ---------------------
# Each is raised by an entry point that trusts its caller, which the CLI never
# hands such input; each is pinned here through both entry points that raise it.


def _diagnostic(call) -> str:
    with pytest.raises(CheckError) as err:
        call()
    return str(err.value.diagnostic)


def test_a_symbol_outside_the_signature_is_unknown():
    el = SymApp("El", (Var("x"),))  # an lf symbol, not a pcert one
    assert _diagnostic(lambda: PCERT_KERNEL.infer(BASE_CTX, el)) == "UnknownSymbol: unknown symbol 'El' in system pcert"
    assert _diagnostic(lambda: translate_term(BASE_CTX, el)) == "UnknownSymbol: symbol 'El' has no encoding"


def test_a_dangling_bound_variable_is_not_typable():
    for call in (lambda: PCERT_KERNEL.infer(BASE_CTX, Bound(0)), lambda: translate_term(BASE_CTX, Bound(0))):
        assert _diagnostic(call) == "NotTypable: dangling bound variable ^0"


def test_export_of_an_unknown_mode_or_a_pcert_sort_is_unchecked_input():
    assert _diagnostic(lambda: export_lambdapi((), mode="bogus")) == "UncheckedInput: unknown export mode 'bogus'"
    assert _diagnostic(lambda: LambdapiPrinter().term(PROP)) == "UncheckedInput: sort Prop has no Lambdapi syntax"
