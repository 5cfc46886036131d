"""The framework kernel: encoding signature, rules, protection, conversion."""

from __future__ import annotations

import pytest

from genutil import BASE_CTX, TermGen
from pcert.diagnostics import CheckError, ProtectedError
from pcert.lf import (
    El,
    KERNEL,
    LF_SIGNATURE,
    PROP_ENC,
    PROP_OBJ,
    Prf,
    RULES_R,
    TYPE_ENC,
    assert_public,
    check_wf_lf,
    convertible_lf,
    infer_lf,
)
from pcert.rewrite import check_orthogonality
from pcert.terms import (
    Abs,
    App,
    Bound,
    Context,
    Prod,
    Sort,
    SymApp,
    Var,
    arrow,
    lam,
)
from pcert.translate import translate_ctx, translate_term

LF_TYPE, LF_KIND = Sort("TYPE"), Sort("KIND")

ARITIES = {
    "El": 1,
    "Prf": 1,
    "fa": 2,
    "impd": 2,
    "arrd": 2,
    "psub": 2,
    "pair": 4,
    "fst": 3,
    "snd": 3,
    "pair'": 3,
    "prop": 0,
    "type": 0,
    "Kind": 0,
    "Type": 0,
    "Prop": 0,
}


def lf_pred_ctx() -> Context:
    return (
        Context()
        .extend("t", TYPE_ENC)
        .extend("p", arrow(El(Var("t")), PROP_ENC))
    )


def test_signature_is_well_formed():
    KERNEL.validate_signature()


def test_signature_arities_and_protection():
    assert {name: LF_SIGNATURE.arity(name) for name in ARITIES} == ARITIES
    assert LF_SIGNATURE.protected_names() == frozenset({"pair'"})
    assert set(LF_SIGNATURE.names()) == set(ARITIES)


def test_rule_set_is_exactly_the_completed_system():
    t, p, q, u, m, h = (Var(n) for n in ("t", "p", "q", "u", "m", "h"))
    expected = {
        "pair_compress": (SymApp("pair", (t, p, m, h)), SymApp("pair'", (t, p, m))),
        "proj_pair": (
            SymApp("fst", (Var("t0"), Var("p0"), SymApp("pair'", (Var("t1"), Var("p1"), m)))),
            m,
        ),
        "el_prop": (El(PROP_OBJ), PROP_ENC),
        "prf_fa": (Prf(SymApp("fa", (t, p))), Prod("x", El(t), Prf(App(p, Bound(0))))),
        "el_arrd": (El(SymApp("arrd", (t, u))), Prod("x", El(t), El(App(u, Bound(0))))),
        "prf_impd": (Prf(SymApp("impd", (p, q))), Prod("h", Prf(p), Prf(App(q, Bound(0))))),
    }
    got = {r.name: (r.lhs, r.rhs) for r in RULES_R.rules}
    assert got == expected


def test_check_wf_accepts_el_prop_entry():
    check_wf_lf(Context().extend("t", El(PROP_OBJ)))


def test_check_wf_empty():
    check_wf_lf(Context())


def test_check_wf_rejects_proposition_object_as_type():
    ctx = lf_pred_ctx().extend("x", SymApp("fa", (Var("t"), Var("p"))))
    with pytest.raises(CheckError) as err:
        check_wf_lf(ctx)
    assert err.value.kind == "NotASort"


def test_infer_psub_yields_encoded_type():
    ctx = lf_pred_ctx()
    assert infer_lf(ctx, SymApp("psub", (Var("t"), Var("p")))) == TYPE_ENC


def test_infer_prop_object():
    assert infer_lf(Context(), PROP_OBJ) == TYPE_ENC


def test_infer_translated_even_pair():
    # the two-certificates example, translated and inferred
    pcert_ctx = (
        Context()
        .extend("nat", Sort("Type"))
        .extend("even", arrow(Var("nat"), Sort("Prop")))
        .extend("two", Var("nat"))
        .extend("h", App(Var("even"), Var("two")))
    )
    the_pair = SymApp("pair", (Var("nat"), Var("even"), Var("two"), Var("h")))
    enc_ctx = translate_ctx(pcert_ctx)
    check_wf_lf(enc_ctx)
    got = infer_lf(enc_ctx, translate_term(pcert_ctx, the_pair))
    assert got == El(SymApp("psub", (Var("nat"), Var("even"))))


def test_assert_public_rejects_protected_symbol():
    with pytest.raises(ProtectedError):
        assert_public(SymApp("pair'", (Var("nat"), Var("even"), Var("three"))))


def test_assert_public_accepts_pair():
    assert_public(SymApp("pair", (Var("t"), Var("p"), Var("m"), Var("h"))))


def test_assert_public_scans_under_binders():
    t = lam("x", Var("T"), SymApp("pair'", (Var("t"), Var("p"), Var("x"))))
    with pytest.raises(ProtectedError) as err:
        assert_public(t)
    assert err.value.path  # points inside the abstraction


def test_infer_lf_gates_user_input():
    ctx = lf_pred_ctx().extend("m", El(Var("t")))
    forged = SymApp("pair'", (Var("t"), Var("p"), Var("m")))
    with pytest.raises(ProtectedError):
        infer_lf(ctx, forged)
    # the same term is typable once the gate is bypassed internally
    assert KERNEL.infer(ctx, forged, public=False) == El(SymApp("psub", (Var("t"), Var("p"))))


def test_encoding_equations_hold_under_conversion():
    gen = TermGen(42)
    assert convertible_lf(El(PROP_OBJ), PROP_ENC)
    for _ in range(25):
        # a random encoded type and predicate over it
        t = translate_term(BASE_CTX, gen.rng.choice((Var("iota"), SymApp("psub", (Var("iota"), Var("P"))))))
        p = Abs("x", El(t), translate_term(BASE_CTX, gen.term_of(Sort("Prop"), 2)))
        u = Abs("x", El(t), t)
        # quantifier: Prf (fa t p) == !x: El t. Prf (p x)
        lhs = Prf(SymApp("fa", (t, p)))
        rhs = Prod("x", El(t), Prf(App(p, Bound(0))))
        assert convertible_lf(lhs, rhs)
        # dependent arrow: El (arrd t u) == !x: El t. El (u x)
        lhs = El(SymApp("arrd", (t, u)))
        rhs = Prod("x", El(t), El(App(u, Bound(0))))
        assert convertible_lf(lhs, rhs)
        # implication: Prf (impd P q) == !h: Prf P. Prf (q h)
        prop = translate_term(BASE_CTX, gen.term_of(Sort("Prop"), 2))
        qq = Abs("h", Prf(prop), prop)
        lhs = Prf(SymApp("impd", (prop, qq)))
        rhs = Prod("h", Prf(prop), Prf(App(qq, Bound(0))))
        assert convertible_lf(lhs, rhs)


def test_proof_irrelevance_realized():
    gen = TermGen(43)
    for _ in range(25):
        h0 = translate_term(BASE_CTX, gen.term_of(App(Var("P"), Var("a")), 3))
        h1 = translate_term(BASE_CTX, gen.term_of(App(Var("P"), Var("a")), 3))
        one = SymApp("pair", (Var("iota"), Var("P"), Var("a"), h0))
        two = SymApp("pair", (Var("iota"), Var("P"), Var("a"), h1))
        assert convertible_lf(one, two)


def test_projection_realized():
    gen = TermGen(44)
    for _ in range(25):
        m = translate_term(BASE_CTX, gen.term_of(Var("iota"), 3))
        h = translate_term(BASE_CTX, gen.term_of(App(Var("P"), Var("a")), 2))
        packed = SymApp("pair", (Var("iota"), Var("P"), m, h))
        projected = SymApp("fst", (Var("iota"), Var("P"), packed))
        assert convertible_lf(projected, m)


def test_rules_are_orthogonal():
    assert check_orthogonality(RULES_R).ok


def test_application_exposes_product_through_rules():
    # f : El (arrd nat (\_: El nat. nat)) applies only because the El
    # unfolds to a framework product during inference
    ctx = (
        Context()
        .extend("nat", TYPE_ENC)
        .extend("n", El(Var("nat")))
        .extend("f", El(SymApp("arrd", (Var("nat"), Abs("_", El(Var("nat")), Var("nat"))))))
    )
    check_wf_lf(ctx)
    # the inferred type is the instantiated codomain, unreduced
    assert convertible_lf(infer_lf(ctx, App(Var("f"), Var("n"))), El(Var("nat")))
