"""Head-first conversion in both kernels, against normalize-and-compare.

`Kernel.convert` is checked against `genutil.normalize_and_compare` on
generated pcert terms and their types, and in the lf kernel on their
translations. The pairs are related by equational walks (convertible) or
drawn independently (mostly not). Head-first conversion must give the
oracle's verdict within the fuel the oracle spent. Proven pairs are
recorded per file and per kernel, at `convert`'s entry only.

On chains whose unfoldings share subterms, a repeated sub-comparison is
replayed from the memo of its `convertible` call: the fuel left and the
budgets at which fuel runs out must be those of `genutil.ref_convertible`,
which redoes every comparison, while the work done grows linearly. The
same holds for outermost `normalize`, which replays a repeated subterm,
against `genutil.ref_normalize`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    BASE_CTX,
    IOTA,
    QT,
    EquivalenceWalker,
    TermGen,
    canonical_fresh_names,
    lam,
    normalize_and_compare,
    ref_convertible,
    ref_normalize,
)
from pcert import rewrite
from pcert.diagnostics import FuelError
from pcert.kernel import Kernel
from pcert.lf import KERNEL as LF_KERNEL
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import Fuel, RuleSet, normalize
from pcert.terms import TYPE_, App, Context, SymApp, Term, Var, arrow
from pcert.translate import translate_term, translate_type

ORACLE_FUEL = 1_000_000
SEEDS = st.integers(0, 2**32 - 1)


def agree(kernel: Kernel, erase: bool, a: Term, b: Term) -> bool:
    """The oracle's verdict, once head-first conversion has matched it."""
    fuel = Fuel(ORACLE_FUEL)
    expected = normalize_and_compare(kernel.rules, a, b, fuel, erase)
    spent = ORACLE_FUEL - fuel.remaining
    # a fresh root context has no proven pairs: every step is paid for
    assert kernel.convert(Context(), a, b, Fuel(spent)) == expected
    return expected


def both_kernels(m: Term, n: Term) -> list[bool]:
    """Verdicts on (m, n) and on their types, in pcert and, translated, in lf."""
    ty_m, ty_n = PCERT_KERNEL.infer(BASE_CTX, m), PCERT_KERNEL.infer(BASE_CTX, n)
    lf_pairs = [
        (translate_term(BASE_CTX, m), translate_term(BASE_CTX, n)),
        (translate_type(BASE_CTX, ty_m), translate_type(BASE_CTX, ty_n)),
    ]
    return [agree(PCERT_KERNEL, True, m, n), agree(PCERT_KERNEL, True, ty_m, ty_n)] + [
        agree(LF_KERNEL, False, a, b) for a, b in lf_pairs
    ]


def independent_pair(seed: int) -> tuple[Term, Term]:
    gen = TermGen(seed)
    m, goal = gen.some_term(4)
    return m, gen.term_of(goal, 4)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, steps=st.integers(1, 4))
def test_walked_pairs_agree_with_the_oracle_in_both_kernels(seed, steps):
    m, _ = TermGen(seed).some_term(4)
    n = EquivalenceWalker(random.Random(seed)).walk(BASE_CTX, m, steps)
    assert all(both_kernels(m, n))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_independent_pairs_agree_with_the_oracle_in_both_kernels(seed):
    both_kernels(*independent_pair(seed))


def test_independent_pairs_are_mostly_not_convertible():
    verdicts = [both_kernels(*independent_pair(seed))[0] for seed in range(40)]
    assert 0 < verdicts.count(True) < verdicts.count(False)


IOTA, A = Var("iota"), Var("a")
REDEX = App(lam("x", IOTA, Var("x")), A)  # one beta step from a


def file_root() -> Context:
    return Context().declare("iota", TYPE_).declare("a", IOTA).declare("f", arrow(IOTA, IOTA))


def test_a_proven_pair_is_reused_only_under_its_own_root_and_kernel():
    root = file_root()
    assert PCERT_KERNEL.convert(root, REDEX, A, Fuel(1))
    # every view of the same table reuses it for free: a later declaration, a binder
    assert PCERT_KERNEL.convert(root.declare("b", IOTA).extend("y", IOTA), REDEX, A, Fuel(0))
    with pytest.raises(FuelError):  # another file's root
        PCERT_KERNEL.convert(file_root(), REDEX, A, Fuel(0))
    with pytest.raises(FuelError):  # the other kernel, same table
        LF_KERNEL.convert(root, REDEX, A, Fuel(0))


def test_only_whole_pairs_are_recorded_not_their_sub_comparisons():
    root = file_root()
    assert PCERT_KERNEL.convert(root, App(Var("f"), REDEX), App(Var("f"), A), Fuel(1))
    with pytest.raises(FuelError):
        PCERT_KERNEL.convert(root, REDEX, A, Fuel(0))


# --- chains whose unfoldings share subterms ----------------------------------


def _g(x: Term, y: Term) -> Term:
    return App(App(Var("g"), x), y)


def _proj(t: Term, cert: str) -> Term:
    qp = lam("x", IOTA, QT)  # a constant predicate: certificates never mention t
    return SymApp("fst", (IOTA, qp, SymApp("pair", (IOTA, qp, t, Var(cert)))))


def shared_chain(links: int, leaf: str = "a") -> tuple[Term, Term]:
    """The u/v chains of the `shared_defs` benchmark as terms: u(i+1) is
    (\\x. g x x) u(i), and v(i+1) reaches the same normal form through a
    projection out of a pair, at one of three places. Each link holds the
    link below it once, as one object; beta hands that object out twice,
    so a comparison meets the same pair of objects again and again."""
    x, y = Var("x"), Var("y")
    u, v = Var(leaf), _proj(Var(leaf), "hq")
    for i in range(links):
        cert = ("hq", "hq'")[i % 2]
        body = (_proj(_g(y, y), cert), _g(_proj(y, cert), y), _g(y, _proj(y, cert)))[i % 3]
        u = App(lam("x", IOTA, _g(x, x)), u)
        v = App(lam("y", IOTA, body), v)
    return u, v


def in_both_kernels(pairs: list[tuple[Term, Term]]) -> list[tuple[Kernel, Term, Term]]:
    """Each pair in pcert and, translated, in lf."""
    lf_pairs = [(translate_term(BASE_CTX, a), translate_term(BASE_CTX, b)) for a, b in pairs]
    return [(PCERT_KERNEL, a, b) for a, b in pairs] + [(LF_KERNEL, a, b) for a, b in lf_pairs]


def _outcome(decide, budget: int) -> tuple:
    """The verdict or normal form, or the partial term fuel ran out on
    (fresh names renumbered in both), and the fuel left."""
    fuel = Fuel(budget)
    try:
        return canonical_fresh_names(decide(fuel)), fuel.remaining
    except FuelError as err:
        return "out of fuel", canonical_fresh_names(err.diagnostic.subject), fuel.remaining


@pytest.mark.parametrize("links", [1, 2, 3, 4, 5])
def test_shared_chains_spend_the_reference_fuel_at_every_budget(links):
    u, v = shared_chain(links)
    w, _ = shared_chain(links, leaf="b")  # differs from v at the leaf only
    for t in (u, v, w):
        assert PCERT_KERNEL.infer(BASE_CTX, t) == IOTA
    verdicts = []
    for kernel, a, b in in_both_kernels([(u, v), (w, v)]):
        full = Fuel(ORACLE_FUEL)
        verdicts.append(ref_convertible(kernel.rules, a, b, full, kernel.irrelevant))
        spent = ORACLE_FUEL - full.remaining
        for budget in range(spent + 2):
            # a fresh root context: no whole pair is proven yet
            change = _outcome(lambda f: kernel.convert(Context(), a, b, f), budget)
            reference = _outcome(lambda f: ref_convertible(kernel.rules, a, b, f, kernel.irrelevant), budget)
            assert change == reference
            assert (change[0] == "out of fuel") == (budget < spent)
    assert verdicts == [True, False, True, False]


def _work(kernel: Kernel, a: Term, b: Term) -> tuple[int, int]:
    """Rule attempts made (outermost `match` calls) and fuel spent."""
    attempts = [0]
    original = rewrite.match

    def counted(pattern, subject, binding=None):
        if binding is None:
            attempts[0] += 1
        return original(pattern, subject, binding)

    fuel = Fuel(ORACLE_FUEL)
    rewrite.match = counted
    try:
        kernel.convert(Context(), a, b, fuel)
    finally:
        rewrite.match = original
    return attempts[0], ORACLE_FUEL - fuel.remaining


def test_shared_chains_take_work_linear_in_the_links_for_fuel_exponential_in_them():
    for short, long in zip(in_both_kernels([shared_chain(6)]), in_both_kernels([shared_chain(12)])):
        (attempts6, spent6), (attempts12, spent12) = _work(*short), _work(*long)
        assert 0 < attempts12 < 4 * attempts6
        assert 2**5 < spent12 / spent6 < 2**7


NORMALIZE_RULES = {PCERT_KERNEL: (RuleSet(), PCERT_KERNEL.rules), LF_KERNEL: (RuleSet(), LF_KERNEL.rules)}


@pytest.mark.parametrize("links", [1, 2, 3, 4, 5])
def test_shared_chains_normalize_with_the_reference_fuel_at_every_budget(links):
    for kernel, u, v in in_both_kernels([shared_chain(links)]):
        for rules in NORMALIZE_RULES[kernel]:
            for t in (u, v):
                full = Fuel(ORACLE_FUEL)
                ref_normalize(rules, t, full)
                spent = ORACLE_FUEL - full.remaining
                assert spent >= 2**links - 1  # u alone takes that many beta steps
                for budget in range(spent + 2):
                    change = _outcome(lambda f: normalize(rules, t, f), budget)
                    reference = _outcome(lambda f: ref_normalize(rules, t, f), budget)
                    assert change == reference
                    assert (change[0] == "out of fuel") == (budget < spent)


def _normalize_work(rules: RuleSet, t: Term) -> tuple[int, int]:
    """Beta steps executed (outermost `instantiate` calls from `rewrite`)
    and fuel spent."""
    calls = [0]
    original = rewrite.instantiate

    def counted(body, value):
        calls[0] += 1
        return original(body, value)

    fuel = Fuel(ORACLE_FUEL)
    rewrite.instantiate = counted
    try:
        normalize(rules, t, fuel)
    finally:
        rewrite.instantiate = original
    return calls[0], ORACLE_FUEL - fuel.remaining


def test_shared_chains_normalize_in_work_linear_in_the_links_for_fuel_exponential_in_them():
    for short, long in zip(in_both_kernels([shared_chain(6)]), in_both_kernels([shared_chain(12)])):
        kernel = short[0]
        for rules in NORMALIZE_RULES[kernel]:
            for t6, t12 in zip(short[1:], long[1:]):
                (work6, spent6), (work12, spent12) = _normalize_work(rules, t6), _normalize_work(rules, t12)
                assert 0 < work12 < 3 * work6
                assert 2**5 < spent12 / spent6 < 2**7
