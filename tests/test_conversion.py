"""Head-first conversion in both kernels, against normalize-and-compare.

`Kernel.convert` is checked against `genutil.normalize_and_compare` on
generated pcert terms and their types, and in the lf kernel on their
translations. The pairs are related by equational walks (convertible) or
drawn independently (mostly not). Head-first conversion must give the
oracle's verdict within the fuel the oracle spent. Proven pairs are
recorded per file and per kernel, at `convert`'s entry only.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from genutil import BASE_CTX, EquivalenceWalker, TermGen, normalize_and_compare
from pcert.diagnostics import FuelError
from pcert.kernel import Kernel
from pcert.lf import KERNEL as LF_KERNEL
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import Fuel
from pcert.terms import TYPE_, App, Context, Term, Var, arrow, lam
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
