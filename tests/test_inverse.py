"""The partial inverse translation and its round-trip guarantees."""

from __future__ import annotations

from genutil import BASE_CTX, TermGen, inverse_type
from pcert import check_file, conv_pcert, corpus_path, parse_file
from pcert.inverse import NotInImage, inverse_term
from pcert.lf import El, PROP_OBJ, Prf, TYPE_ENC
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import RuleSet, normalize
from pcert.terms import (
    Abs,
    App,
    Bound,
    Memo,
    Prod,
    Sort,
    SymApp,
    Var,
    alpha_eq,
)
from pcert.translate import translate_term, translate_type

BETA = RuleSet()


def test_prop_object_inverts_to_sort():
    assert inverse_term(PROP_OBJ) == Sort("Prop")


def test_quantifier_inverts_to_product():
    t = SymApp("fa", (Var("T"), Abs("x", El(Var("T")), App(Var("p"), Bound(0)))))
    got = inverse_term(t)
    assert got == Prod("x", Var("T"), App(Var("p"), Bound(0)))


def test_quantifier_ignores_binder_annotation():
    # the annotation slot is a wildcard: any annotation matches
    t = SymApp("fa", (Var("T"), Abs("x", Var("whatever"), App(Var("p"), Bound(0)))))
    assert inverse_term(t) == Prod("x", Var("T"), App(Var("p"), Bound(0)))


def test_quantifier_requires_abstraction_argument():
    got = inverse_term(SymApp("fa", (Var("T"), Var("p"))))
    assert isinstance(got, NotInImage)
    assert got.path == ()  # the whole node matches no clause
    assert got.subterm == SymApp("fa", (Var("T"), Var("p")))


def test_pair_prime_is_not_invertible():
    got = inverse_term(SymApp("pair'", (Var("t"), Var("p"), Var("m"))))
    assert isinstance(got, NotInImage)


def test_failure_path_is_leftmost_outermost():
    bad = SymApp("pair'", (Var("t"), Var("p"), Var("m")))
    got = inverse_term(App(Var("f"), SymApp("psub", (bad, Var("p")))))
    assert isinstance(got, NotInImage)
    assert got.path == ("arg", "psub.0")


def test_a_memo_shared_by_two_calls_keeps_successes_only():
    # a failure is found again by the call that meets it, at that call's path
    bad = SymApp("pair'", (Var("t"), Var("p"), Var("m")))
    good = SymApp("psub", (Var("T"), Var("p")))
    memo = Memo()
    first = inverse_term(App(good, bad), memo)
    second = inverse_term(App(bad, good), memo)
    assert (first.path, second.path) == (("arg",), ("fun",))
    assert inverse_term(good, memo) is inverse_term(App(good, Var("x")), memo).fun


def test_a_node_inverted_as_a_term_is_still_no_type():
    # `g a` inverts as a term but is no translated type, shared or not
    for shared in (True, False):
        t = App(Var("g"), Var("a"))
        annot = t if shared else App(Var("g"), Var("a"))
        got = inverse_term(App(App(Var("f"), t), Abs("h", annot, Bound(0))))
        assert isinstance(got, NotInImage), shared
        assert got.path == ("arg", "annot")


def test_inverse_type_el():
    assert inverse_type(El(Var("m"))) == Var("m")


def test_inverse_type_prf():
    assert inverse_type(Prf(PROP_OBJ)) == Sort("Prop")


def test_inverse_type_product_homomorphic():
    t = Prod("x", El(Var("A")), Prf(App(Var("p"), Bound(0))))
    assert inverse_type(t) == Prod("x", Var("A"), App(Var("p"), Bound(0)))


def test_inverse_type_encoded_sorts():
    assert inverse_type(TYPE_ENC) == Sort("Type")


def test_inverse_type_rejects_variables():
    assert isinstance(inverse_type(Var("x")), NotInImage)


def test_round_trip_is_exact_on_generated_terms():
    gen = TermGen(61)
    for _ in range(60):
        m, _ = gen.some_term(5)
        back = inverse_term(translate_term(BASE_CTX, m))
        assert not isinstance(back, NotInImage)
        # with argumentwise symbol translation the round trip is syntactic
        assert alpha_eq(back, m)
        # and in particular agrees up to beta, which is all the contract asks
        assert alpha_eq(normalize(BETA, back), normalize(BETA, m))


def test_round_trip_on_corpus_definitions():
    for name in ("prelude.pcert", "stacks.pcert", "bounded_lists.pcert", "even_numbers.pcert"):
        checked = check_file(parse_file(corpus_path(name).read_text(), name))
        ctx = checked.context
        for defname, (body, _) in checked.definitions.items():
            back = inverse_term(translate_term(ctx, body))
            assert not isinstance(back, NotInImage), (name, defname)
            assert alpha_eq(normalize(BETA, back), normalize(BETA, body)), (name, defname)


def test_type_round_trip_is_convertible():
    gen = TermGen(62)
    for _ in range(40):
        m, goal = gen.some_term(4)
        ty = PCERT_KERNEL.infer(BASE_CTX, m)
        back = inverse_type(translate_type(BASE_CTX, ty))
        assert not isinstance(back, NotInImage)
        assert conv_pcert(BASE_CTX, back, ty)
