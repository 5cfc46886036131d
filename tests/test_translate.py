"""The forward translation: clause behavior, preservation properties, correctness."""

from __future__ import annotations

import random

from genutil import BASE_CTX, EquivalenceWalker, TermGen
from pcert import check_file, corpus_path, parse_file
from pcert.lf import El, KERNEL as LF_KERNEL, KIND_ENC, PROP_ENC, PROP_OBJ, Prf, RULES_R, TYPE_ENC
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import Fuel, convertible, normalize
from pcert.terms import (
    Abs,
    App,
    Bound,
    Context,
    Prod,
    Sort,
    SymApp,
    Var,
    alpha_eq,
    arrow,
    pi,
    substitute,
)
from pcert.translate import translate_ctx, translate_term, translate_type

PROP, TYPE = Sort("Prop"), Sort("Type")


def test_sorts_become_objects():
    assert translate_term(Context(), PROP) == PROP_OBJ


def test_quantified_proposition_uses_fa():
    ctx = Context().extend("T", TYPE).extend("eqT", arrow(Var("T"), arrow(Var("T"), PROP)))
    got = translate_term(ctx, pi("x", Var("T"), App(App(Var("eqT"), Var("x")), Var("x"))))
    expected = SymApp(
        "fa",
        (
            Var("T"),
            Abs("x", El(Var("T")), App(App(Var("eqT"), Bound(0)), Bound(0))),
        ),
    )
    assert got == expected


def test_subtype_symbols_translate_argumentwise():
    ctx = (
        Context()
        .extend("T", TYPE)
        .extend("p", arrow(Var("T"), PROP))
        .extend("m", SymApp("psub", (Var("T"), Var("p"))))
    )
    got = translate_term(ctx, SymApp("fst", (Var("T"), Var("p"), Var("m"))))
    assert got == SymApp("fst", (Var("T"), Var("p"), Var("m")))


def test_type_translation_wraps_el():
    ctx = Context().extend("T", TYPE)
    assert translate_type(ctx, Var("T")) == El(Var("T"))


def test_type_translation_of_kind_and_type():
    assert translate_type(Context(), Sort("Kind")) == KIND_ENC
    assert translate_type(Context(), TYPE) == TYPE_ENC


def test_type_translation_of_prop_normalizes_to_encoded_prop():
    got = translate_type(Context(), PROP)
    assert got == El(PROP_OBJ)
    assert normalize(RULES_R, got) == PROP_ENC


def test_proof_types_wrap_prf():
    ctx = Context().extend("Q", PROP)
    assert translate_type(ctx, Var("Q")) == Prf(Var("Q"))


def test_translate_ctx_empty():
    assert translate_ctx(Context()).entries == ()


def test_translate_ctx_telescope():
    ctx = Context().extend("T", TYPE).extend("p", arrow(Var("T"), PROP))
    got = translate_ctx(ctx)
    assert got.lookup("T") == TYPE_ENC
    # p's type must convert to the El/Prop chain the signature expects
    expected = Prod("x", El(Var("T")), PROP_ENC)
    assert convertible(RULES_R, got.lookup("p"), expected)
    LF_KERNEL.check_wf(got)


def test_translate_ctx_of_stacks_corpus_is_well_formed():
    checked = check_file(parse_file(corpus_path("stacks.pcert").read_text(), "stacks"))
    translated = translate_ctx(checked.context)
    LF_KERNEL.check_wf(translated)
    assert translated.lookup("stack") == TYPE_ENC
    # push : elt -> stack -> {s | nonempty s} becomes a two-step El chain
    push_ty = normalize(RULES_R, translated.lookup("push"))
    assert isinstance(push_ty, Prod) and push_ty.dom == El(Var("elt"))
    inner = push_ty.cod
    assert isinstance(inner, Prod) and inner.dom == El(Var("stack"))
    assert isinstance(inner.cod, SymApp) and inner.cod.sym == "El"
    assert inner.cod.args[0].sym == "psub"


def test_preservation_of_substitution():
    # translating after substitution equals substituting after translation
    gen = TermGen(51)
    iota = Var("iota")
    for _ in range(40):
        inner = BASE_CTX.extend("x", iota)
        m = gen.term_of(iota, 4, inner)
        n = gen.term_of(iota, 3)
        left = translate_term(BASE_CTX, substitute(m, ("x", n)))
        right = substitute(translate_term(inner, m), ("x", translate_term(BASE_CTX, n)))
        assert alpha_eq(left, right)


def test_preservation_of_equivalence_smoke():
    gen = TermGen(52)
    walker = EquivalenceWalker(random.Random(9))
    for _ in range(20):
        m, _ = gen.some_term(4)
        n = walker.walk(BASE_CTX, m, 3)
        assert PCERT_KERNEL.convert(BASE_CTX, m, n, Fuel())
        assert convertible(RULES_R, translate_term(BASE_CTX, m), translate_term(BASE_CTX, n))


def test_correctness_on_generated_judgments():
    gen = TermGen(53)
    enc_ctx = translate_ctx(BASE_CTX)
    LF_KERNEL.check_wf(enc_ctx)
    for _ in range(40):
        m, _ = gen.some_term(5)
        ty = PCERT_KERNEL.infer(BASE_CTX, m)
        encoded = translate_term(BASE_CTX, m)
        encoded_ty = LF_KERNEL.infer(enc_ctx, encoded)
        assert convertible(RULES_R, encoded_ty, translate_type(BASE_CTX, ty))


def test_translation_output_is_not_normalized():
    # El prop appears as such; normalization happens only in conversion
    got = translate_type(Context(), PROP)
    assert got == El(PROP_OBJ)
    assert got != PROP_ENC
