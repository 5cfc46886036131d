"""The subtyping kernel: well-formedness, inference, erasure, conversion."""

from __future__ import annotations

import random

import pytest

from genutil import BASE_CTX, EquivalenceWalker, TermGen, check_wf, lam, pi, positions, replace_at, validate_signature
from pcert.cli import main
from pcert.diagnostics import CheckError
from pcert.pcert import (
    KERNEL,
    PCERT_SIGNATURE,
    conv_pcert,
    pi_erase,
)
from pcert.terms import (
    Abs,
    App,
    Context,
    Sort,
    SymApp,
    Var,
    alpha_eq,
    arrow,
    instantiate,
)

PROP, TYPE, KIND = Sort("Prop"), Sort("Type"), Sort("Kind")


def fig_ctx() -> Context:
    # T: Type, p: T -> Prop, m: T, h: p m
    return (
        Context()
        .extend("T", TYPE)
        .extend("p", arrow(Var("T"), PROP))
        .extend("m", Var("T"))
        .extend("h", App(Var("p"), Var("m")))
    )


def even_ctx() -> Context:
    ctx = (
        Context()
        .extend("nat", TYPE)
        .extend("even", arrow(Var("nat"), PROP))
        .extend("two", Var("nat"))
        .extend("h", App(Var("even"), Var("two")))
        .extend("h'", App(Var("even"), Var("two")))
    )
    return ctx


def test_signature_is_well_formed():
    validate_signature(KERNEL)
    assert set(PCERT_SIGNATURE.names()) == {"psub", "pair", "fst", "snd"}
    assert [PCERT_SIGNATURE.get(s).arity for s in ("psub", "pair", "fst", "snd")] == [2, 4, 3, 3]


def test_check_wf_empty():
    check_wf(KERNEL, Context())


def test_check_wf_telescope_shape():
    check_wf(KERNEL, Context().extend("T", TYPE).extend("p", arrow(Var("T"), PROP)))


def test_check_wf_rejects_non_sort_type():
    ctx = Context().extend("x", lam("y", PROP, Var("y")))
    with pytest.raises(CheckError) as err:
        check_wf(KERNEL, ctx)
    assert err.value.kind == "NotASort"


def test_infer_prop_is_type():
    assert KERNEL.infer(Context(), PROP) == TYPE


def test_infer_kind_has_no_type():
    with pytest.raises(CheckError) as err:
        KERNEL.infer(Context(), KIND)
    assert err.value.kind == "SortKindHasNoType"


def test_infer_rejects_foreign_sorts():
    with pytest.raises(CheckError) as err:
        KERNEL.infer(Context(), Sort("TYPE"))
    assert err.value.kind == "SortKindHasNoType"


def test_infer_pair():
    ctx = fig_ctx()
    t = SymApp("pair", (Var("T"), Var("p"), Var("m"), Var("h")))
    assert KERNEL.infer(ctx, t) == SymApp("psub", (Var("T"), Var("p")))


def test_infer_identity_on_props():
    got = KERNEL.infer(Context(), lam("x", PROP, Var("x")))
    assert alpha_eq(got, pi("x", PROP, PROP))


def test_infer_snd_returns_unreduced_type():
    ctx = fig_ctx()
    the_pair = SymApp("pair", (Var("T"), Var("p"), Var("m"), Var("h")))
    got = KERNEL.infer(ctx, SymApp("snd", (Var("T"), Var("p"), the_pair)))
    expected = App(Var("p"), SymApp("fst", (Var("T"), Var("p"), the_pair)))
    assert alpha_eq(got, expected)


def test_infer_unbound_variable():
    with pytest.raises(CheckError) as err:
        KERNEL.infer(Context(), Var("ghost"))
    assert err.value.kind == "UnboundVariable"


def test_infer_not_a_function():
    with pytest.raises(CheckError) as err:
        KERNEL.infer(BASE_CTX, App(Var("a"), Var("b")))
    assert err.value.kind == "NotAFunction"


def test_infer_domain_mismatch():
    with pytest.raises(CheckError) as err:
        KERNEL.infer(BASE_CTX, App(Var("f"), Var("hq")))
    assert err.value.kind == "DomainMismatch"


def test_infer_illegal_product():
    # abstraction over all types would need a product starting at Kind
    with pytest.raises(CheckError) as err:
        KERNEL.infer(Context(), lam("T", TYPE, Var("T")))
    assert err.value.kind == "IllegalProduct"


@pytest.mark.parametrize(
    "source, pair, system",
    [
        ("symbol A : !T: Type. T;\n", "(Kind, Type)", "pcert"),
        ("definition d := \\T: Type. T;\n", "(Kind, Kind)", "pcert"),
        ("#MODE lf\nsymbol A : !T: TYPE. T;\n", "(KIND, TYPE)", "lf"),
        ("#MODE lf\ndefinition d := \\T: TYPE. T;\n", "(KIND, KIND)", "lf"),
    ],
    ids=["pcert-prod", "pcert-abs", "lf-prod", "lf-abs"],
)
def test_check_reports_the_sorts_of_an_illegal_product(source, pair, system, tmp_path, capsys):
    # the product and the abstraction rule share one side condition and one message
    path = tmp_path / "bad.pcert"
    path.write_text(source)
    assert main(["check", str(path)]) == 1
    line = source.count("\n")
    assert capsys.readouterr().err == f"{path}:{line}:1: IllegalProduct: no product rule for {pair} in system {system}\n"


def test_pi_erase_identifies_swapped_proofs():
    args = (Var("T"), Var("p"), Var("m"))
    assert alpha_eq(
        pi_erase(SymApp("pair", args + (Var("h0"),))),
        pi_erase(SymApp("pair", args + (Var("h1"),))),
    )


def test_pi_erase_is_identity_elsewhere():
    assert pi_erase(Var("x")) == Var("x")
    assert pi_erase(PROP) == PROP


def test_pi_erase_under_binders():
    t = lam("x", Var("T"), SymApp("pair", (Var("T"), Var("p"), Var("x"), Var("h"))))
    erased = pi_erase(t)
    assert isinstance(erased, Abs)
    body = erased.body
    assert isinstance(body, SymApp) and body.sym == "pair#" and len(body.args) == 3


def test_conv_projection_computes():
    ctx = fig_ctx()
    t = SymApp("fst", (Var("T"), Var("p"), SymApp("pair", (Var("T"), Var("p"), Var("m"), Var("h")))))
    assert conv_pcert(ctx, t, Var("m"))


def test_conv_even_number_pairs():
    ctx = even_ctx()
    t = SymApp("pair", (Var("nat"), Var("even"), Var("two"), Var("h")))
    t2 = SymApp("pair", (Var("nat"), Var("even"), Var("two"), Var("h'")))
    assert conv_pcert(ctx, t, t2)
    assert not alpha_eq(t, t2)


def test_conv_reflexive():
    gen = TermGen(31)
    for _ in range(20):
        m, _ = gen.some_term(4)
        assert conv_pcert(BASE_CTX, m, m)


def test_conv_is_equivalence_on_walked_terms():
    gen = TermGen(32)
    walker = EquivalenceWalker(random.Random(5))
    for _ in range(15):
        m, _ = gen.some_term(4)
        n = walker.walk(BASE_CTX, m, 3)
        k = walker.walk(BASE_CTX, n, 3)
        assert conv_pcert(BASE_CTX, m, n)
        assert conv_pcert(BASE_CTX, n, m)
        assert conv_pcert(BASE_CTX, m, k)  # transitivity through n


def test_subject_reduction_at_test_scale():
    gen = TermGen(33)
    walker = EquivalenceWalker(random.Random(6))
    checked = 0
    for _ in range(40):
        m, _ = gen.some_term(5)
        ty = KERNEL.infer(BASE_CTX, m)
        reduct = None
        for path, opened, _, sub in positions(BASE_CTX, m):
            if isinstance(sub, App) and isinstance(sub.fun, Abs):
                reduct = replace_at(m, path, opened, instantiate(sub.fun.body, sub.arg))
                break
        if reduct is None:
            continue
        ty2 = KERNEL.infer(BASE_CTX, reduct)
        assert conv_pcert(BASE_CTX, ty, ty2)
        checked += 1
    assert checked >= 10


def test_proof_component_blindness():
    gen = TermGen(34)
    for _ in range(30):
        proof1 = gen.term_of(App(Var("P"), Var("a")), 3)
        proof2 = gen.term_of(App(Var("P"), Var("a")), 3)
        one = SymApp("pair", (Var("iota"), Var("P"), Var("a"), proof1))
        two = SymApp("pair", (Var("iota"), Var("P"), Var("a"), proof2))
        assert conv_pcert(BASE_CTX, one, two)
        ty1 = KERNEL.infer(BASE_CTX, one)
        ty2 = KERNEL.infer(BASE_CTX, two)
        assert conv_pcert(BASE_CTX, ty1, ty2)


def test_product_injectivity_consequence():
    gen = TermGen(35)
    iota, P = Var("iota"), Var("P")
    for _ in range(20):
        body = gen.term_of(Sort("Prop"), 3)
        # convertible but syntactically different domains and codomains
        dom1 = SymApp("psub", (iota, P))
        dom2 = SymApp("psub", (iota, App(lam("q", arrow(iota, PROP), Var("q")), P)))
        wrapped_body = App(lam("z", PROP, Var("z")), body)
        left = pi("x", dom1, body)
        right = pi("x", dom2, wrapped_body)
        assert conv_pcert(BASE_CTX, left, right)
        assert conv_pcert(BASE_CTX, dom1, dom2)
        assert conv_pcert(BASE_CTX, body, wrapped_body)
        other = pi("x", dom1, App(P, Var("b")))
        if not conv_pcert(BASE_CTX, body, App(P, Var("b"))):
            assert not conv_pcert(BASE_CTX, left, other)


def test_infer_rejects_wrong_symbol_arity():
    with pytest.raises(CheckError) as err:
        KERNEL.infer(fig_ctx(), SymApp("fst", (Var("T"),)))
    assert err.value.kind == "ArityMismatch"
