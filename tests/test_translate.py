"""The forward translation: clause behavior, preservation properties, correctness.

The one-pass translation reads each type's sort off its translated head; it
is checked against `genutil.translate_by_kernel_sorts`, which asks the pcert
kernel for every sort, on generated terms, their types and every record of
the corpus.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from genutil import BASE_CTX, EquivalenceWalker, TermGen, check_wf, pi, substitute, translate_by_kernel_sorts
from pcert import CheckedFile, check_file, cli, corpus_path, parse_file, terms
from pcert.diagnostics import CheckError
from pcert.lf import El, KERNEL as LF_KERNEL, KIND_ENC, PROP_ENC, PROP_OBJ, Prf, RULES_R, TYPE_ENC
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import Fuel, convertible, normalize
from pcert.syntax import AssertConv, AssertJudgment, Definition, SymbolDecl
from pcert.terms import (
    Abs,
    App,
    Bound,
    Context,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    alpha_eq,
    arrow,
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
    check_wf(LF_KERNEL, got)


def test_translate_ctx_of_stacks_corpus_is_well_formed():
    checked = check_file(parse_file(corpus_path("stacks.pcert").read_text(), "stacks"))
    translated = translate_ctx(checked.context)
    check_wf(LF_KERNEL, translated)
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
    check_wf(LF_KERNEL, enc_ctx)
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


# --- one structural pass, checked against kernel-queried sorts -------------------

# Prop binders, type-level redexes, fst(Prop, ...) types and subtype domains:
# the places where a sort cannot be read off a type's syntax before translation.
BINDERS_SURFACE = """#MODE pcert
symbol iota : Type;
symbol a : iota;
symbol q : iota -> Prop;
symbol N : Prop -> Prop;
symbol m : {x: Prop | N x};
symbol hq : (\\x: iota. q x) a;
symbol hf : fst(Prop, \\x: Prop. N x, m);
symbol all : !P: Prop. P -> P;
symbol sub : !s: {x: iota | q x}. q (fst(iota, \\x: iota. q x, s));
definition id := \\P: Prop. \\h: P. h;
definition twice := \\P: Prop. !Q: Prop. P -> Q -> P;
definition pick := \\s: {x: iota | q x}. fst(iota, \\x: iota. q x, s);
definition use := \\h: (\\x: iota. q x) a. h;
definition k := \\P: Prop. \\R: iota -> Prop. !y: iota. R y -> P;
assert all : !P: Prop. P -> P;
assert sub : !s: {x: iota | q x}. q (pick s);
convertible pick (pair(iota, \\x: iota. q x, a, hq)), a;
"""


def checked_corpus() -> list[CheckedFile]:
    files = sorted(p for p in corpus_path("").iterdir() if p.name.endswith(".pcert"))
    assert files
    return [check_file(parse_file(p.read_text(), p.name)) for p in files] + [
        check_file(parse_file(BINDERS_SURFACE, "binders"))
    ]


def translated_positions(checked) -> list[tuple[Context, Term, bool]]:
    """(scope, term, is a type) for every position `pcert translate` translates."""
    out = []
    ctx = checked.context
    for record in checked.decls:
        match record.decl:
            case SymbolDecl(_, ty, _):
                out.append((ctx, ty, True))
            case Definition(_, body, _, _):
                out += [(ctx, body, False), (ctx, record.inferred, True)]
            case AssertJudgment(subject, ty, _):
                out += [(ctx, subject, False), (ctx, ty, True)]
            case AssertConv(a, b, _):
                out += [(ctx, a, False), (ctx, b, False)]
    return out


def agrees_with_the_oracle(ctx: Context, t: Term, as_type: bool) -> None:
    got = translate_type(ctx, t) if as_type else translate_term(ctx, t)
    assert got == translate_by_kernel_sorts(ctx, t, as_type), t


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_terms_and_types_translate_as_the_kernel_sorts_say(seed):
    m, _ = TermGen(seed).some_term(5)
    ty = PCERT_KERNEL.infer(BASE_CTX, m)
    agrees_with_the_oracle(BASE_CTX, m, False)
    agrees_with_the_oracle(BASE_CTX, ty, True)
    if isinstance(ty, Sort):  # m is itself a type
        agrees_with_the_oracle(BASE_CTX, m, True)


def test_corpus_records_translate_as_the_kernel_sorts_say():
    positions = [p for checked in checked_corpus() for p in translated_positions(checked)]
    assert len(positions) > 50
    for ctx, t, as_type in positions:
        agrees_with_the_oracle(ctx, t, as_type)


def test_binder_development_translates_and_rechecks(tmp_path):
    path = tmp_path / "binders.pcert"
    path.write_text(BINDERS_SURFACE)
    assert cli.main(["translate", str(path), "-o", str(tmp_path / "out.lf")]) == 0


def test_translation_opens_no_binder(monkeypatch):
    def fresh_name(hint="x"):
        raise AssertionError("translation opened a binder")

    files = checked_corpus()
    monkeypatch.setattr(terms, "fresh_name", fresh_name)
    for checked in files:
        assert cli._translate_decls(checked)


GHOST = Var("ghost")


@pytest.mark.parametrize(
    "ctx, t",
    [
        (Context(), Bound(0)),
        (Context(), GHOST),
        (Context(), Prod("x", GHOST, Bound(0))),
        (Context(), Abs("x", PROP, Bound(1))),
        (Context().extend("T", TYPE).extend("a", Var("T")), Var("a")),
        (Context().extend("Q", PROP), Prod("x", TYPE, Var("Q"))),
        (Context(), Sort("KIND")),
    ],
)
def test_ill_formed_types_fail_with_a_diagnostic(ctx, t):
    with pytest.raises(CheckError):
        translate_type(ctx, t)


@pytest.mark.parametrize(
    "t",
    [Bound(0), Abs("x", PROP, Bound(1)), Prod("x", GHOST, Bound(0)), Sort("Kind"), SymApp("El", (GHOST,))],
)
def test_ill_formed_terms_fail_with_a_diagnostic(t):
    with pytest.raises(CheckError):
        translate_term(Context(), t)


def test_a_bound_type_is_wrapped_by_its_own_binder_sort():
    # one `^0` object is the annotation under a binder of sort Prop and under
    # one whose annotation is no sort: the wrapper made for the first, Prf,
    # must not answer for the second, which has no type translation
    b0 = Bound(0)
    t = Abs("p", PROP, Abs("h", b0, Abs("y", Var("iota"), Abs("k", b0, b0))))
    with pytest.raises(CheckError) as err:
        translate_term(Context().extend("iota", TYPE), t)
    assert err.value.kind == "NotASort"
