"""The partial inverse translation and its round-trip guarantees."""

from __future__ import annotations

from genutil import BASE_CTX, TermGen, inverse_type, ref_inverse_term, ref_inverse_type
from hypothesis import given, settings, strategies as st
from pcert import check_file, conv_pcert, corpus_path, parse_file
from pcert.inverse import NotInImage, inverse_term
from pcert.lf import RULES_R, El, PROP_OBJ, Prf, TYPE_ENC
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import RuleSet, normalize
from pcert.terms import (
    Abs,
    App,
    Bound,
    Context,
    Memo,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    alpha_eq,
)
from pcert.translate import translate_term, translate_type

BETA = RuleSet()


def test_prop_object_inverts_to_sort():
    assert inverse_term(PROP_OBJ) == Sort("Prop")


def test_prop_annotation_inverts_to_sort():
    # el_prop rewrites the annotation El(prop) to Prop, which the inverse
    # reads as a type
    t = Abs("P", Sort("Prop"), Bound(0))
    encoded = normalize(RULES_R, translate_term(Context(), t))
    assert encoded.dom == SymApp("Prop")
    assert inverse_term(encoded) == t


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


# --- the failure path, built only on failure ------------------------------------

# Closed terms outside the image, one per way to leave it: a `pair'` normal
# form, a bare `Type`, `El`/`Prf` of a head with no encoding, a product head
# not applied to an abstraction, a sort.
OUT_OF_IMAGE = [
    SymApp("pair'", (Var("iota"), Var("P"), Var("a"))),
    TYPE_ENC,
    El(SymApp("pair'", (Var("iota"), Var("P"), Var("b")))),
    Prf(TYPE_ENC),
    El(Var("iota")),
    SymApp("fa", (Var("iota"), Var("P"))),
    SymApp("prop", (Var("a"),)),
    Sort("TYPE"),
]


def children(t: Term) -> tuple[Term, ...]:
    if type(t) is App:
        return (t.fun, t.arg)
    if type(t) is Abs:
        return (t.annot, t.body)
    if type(t) is Prod:
        return (t.dom, t.cod)
    if type(t) is SymApp:
        return t.args
    return ()


def rebuilt(t: Term, kids: list[Term]) -> Term:
    if type(t) is App:
        return App(*kids)
    if type(t) is Abs:
        return Abs(t.hint, *kids)
    if type(t) is Prod:
        return Prod(t.hint, *kids)
    return SymApp(t.sym, tuple(kids))


def plant(t: Term, where: int, bad: Term) -> Term:
    """t with its subterm number `where % size` (preorder) replaced by the
    closed term bad; every subterm off the path stays the same object."""
    size = [0]

    def count(s: Term) -> None:
        size[0] += 1
        for c in children(s):
            count(c)

    count(t)
    left = [where % size[0]]

    def go(s: Term) -> Term:
        if left[0] == 0:
            left[0] = -1
            return bad
        left[0] -= 1
        kids = list(children(s))
        for i, c in enumerate(kids):
            if left[0] < 0:
                break
            kids[i] = go(c)
        return rebuilt(s, kids) if kids else s

    return go(t)


def assert_same_outcome(got, want) -> None:
    if isinstance(want, NotInImage):
        assert isinstance(got, NotInImage), (got, want)
        assert got.path == want.path
        assert got.subterm is want.subterm
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    spots=st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(OUT_OF_IMAGE)), min_size=1, max_size=2),
)
def test_failure_paths_equal_the_eager_reference(seed, spots):
    gen = TermGen(seed)
    m, _ = gen.some_term(4)
    encoded = translate_term(BASE_CTX, m)
    ty = translate_type(BASE_CTX, PCERT_KERNEL.infer(BASE_CTX, m))
    broken, broken_ty = encoded, ty
    for where, bad in spots:
        broken, broken_ty = plant(broken, where, bad), plant(broken_ty, where, bad)
    assert_same_outcome(inverse_term(broken), ref_inverse_term(broken))
    assert_same_outcome(inverse_type(broken_ty), ref_inverse_type(broken_ty))
    # a memo that already holds the successes of the intact term skips the
    # subterms the two share, and still finds the first failure by its path
    memo = Memo()
    assert_same_outcome(inverse_term(encoded, memo), ref_inverse_term(encoded))
    assert_same_outcome(inverse_term(broken, memo), ref_inverse_term(broken))
    assert_same_outcome(inverse_term(App(encoded, broken), memo), ref_inverse_term(App(encoded, broken)))
