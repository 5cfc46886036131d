"""The framework kernel: encoding signature, rules, protection, conversion."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from genutil import BASE_CTX, TermGen, check_wf, lam, validate_signature
from pcert.cli import main
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
    convertible_lf,
)
from pcert.rewrite import check_orthogonality
from pcert.syntax import AssertConv, AssertJudgment, Definition, SymbolDecl, parse_file
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
    substitute_parallel,
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
    validate_signature(KERNEL)


def test_signature_arities_and_protection():
    assert {name: LF_SIGNATURE.get(name).arity for name in ARITIES} == ARITIES
    assert LF_SIGNATURE.protected == frozenset({"pair'"})
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
    check_wf(KERNEL, Context().extend("t", El(PROP_OBJ)))


def test_check_wf_empty():
    check_wf(KERNEL, Context())


def test_check_wf_rejects_proposition_object_as_type():
    ctx = lf_pred_ctx().extend("x", SymApp("fa", (Var("t"), Var("p"))))
    with pytest.raises(CheckError) as err:
        check_wf(KERNEL, ctx)
    assert err.value.kind == "NotASort"


def test_infer_psub_yields_encoded_type():
    ctx = lf_pred_ctx()
    assert KERNEL.infer(ctx, SymApp("psub", (Var("t"), Var("p")))) == TYPE_ENC


def test_infer_prop_object():
    assert KERNEL.infer(Context(), PROP_OBJ) == TYPE_ENC


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
    check_wf(KERNEL, enc_ctx)
    got = KERNEL.infer(enc_ctx, translate_term(pcert_ctx, the_pair))
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


def test_kernel_types_pair_prime_internally():
    # the kernel holds no gate: user input is gated in check_file (see
    # test_protected_symbol_anywhere_in_an_lf_file_exits_four), and the
    # terms rewriting produces are typed like any other
    ctx = lf_pred_ctx().extend("m", El(Var("t")))
    forged = SymApp("pair'", (Var("t"), Var("p"), Var("m")))
    assert KERNEL.infer(ctx, forged) == El(SymApp("psub", (Var("t"), Var("p"))))


# --- the input gate, over generated lf files ----------------------------------

FORGED = "pair'(nat, even, three)"

GATE_PRELUDE = """#MODE lf
symbol nat : Type;
symbol three : El nat;
symbol even : El nat -> Prop;
definition d1 := three;
definition d2 := \\x: El nat. x;
"""

# Where the forged term goes: {} stands for a generated term that holds it.
GATE_POSITIONS = (
    "symbol s : {};",
    "definition s := {};",
    "definition s : {} := three;",
    "definition s := \\y: {}. three;",
    "assert {} : El nat;",
    "assert three : {};",
    "convertible {}, three;",
    "convertible three, {};",
)

_GATE_TREES = st.recursive(
    st.sampled_from(("nat", "three", "even", "d1", "d2", "y", FORGED)),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("app", "lam", "pi", "arrow", "psub")), inner, inner),
        st.tuples(st.sampled_from(("El", "Prf")), inner),
        st.tuples(st.just("fst"), inner, inner, inner),
        st.tuples(st.just("pair"), inner, inner, inner, inner),
    ),
    max_leaves=10,
)


def _surface(tree, hole: int) -> str:
    """Surface text of a generated tree, with leaf number `hole` (modulo the
    leaf count) replaced by the forged pair, so the text always holds one."""
    leaves: list[str] = []

    def collect(t) -> None:
        if isinstance(t, str):
            leaves.append(t)
        else:
            for child in t[1:]:
                collect(child)

    collect(tree)
    leaves[hole % len(leaves)] = FORGED
    queue = iter(leaves)

    def show(t) -> str:
        if isinstance(t, str):
            return next(queue)
        op, *args = t
        shown = [show(a) for a in args]
        match op:
            case "app":
                return f"({shown[0]} {shown[1]})"
            case "lam":
                return f"(\\y: {shown[0]}. {shown[1]})"
            case "pi":
                return f"(!y: {shown[0]}. {shown[1]})"
            case "arrow":
                return f"({shown[0]} -> {shown[1]})"
        return f"{op}({', '.join(shown)})"

    return show(tree)


def _oracle_message(text: str, path: str) -> str:
    """The gate as it ran before it moved into check_file: on each term of the
    last declaration, in checking order, after expanding defined names."""
    parsed = parse_file(text, path)
    expansions = {d.name: d.body for d in parsed.decls if isinstance(d, Definition)}
    decl = parsed.decls[-1]
    expansions.pop(getattr(decl, "name", None), None)
    match decl:
        case SymbolDecl(_, ty, _):
            terms = (ty,)
        case Definition(_, body, ty, _):
            terms = (body, ty)
        case AssertJudgment(subject, ty, _):
            terms = (subject, ty)
        case AssertConv(a, b, _):
            terms = (a, b)
    try:
        for term in terms:
            if term is not None:
                assert_public(substitute_parallel(term, expansions))
    except ProtectedError as err:
        return str(err.with_span(decl.span).diagnostic)
    raise AssertionError(f"the oracle let {text!r} through")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GATE_POSITIONS), _GATE_TREES, st.integers(0, 1 << 8))
def test_protected_symbol_anywhere_in_an_lf_file_exits_four(position, tree, hole):
    text = GATE_PRELUDE + position.format(_surface(tree, hole)) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "forged.lf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        expected = _oracle_message(text, path)
        for argv in (["check", path], ["export", path, "-o", os.path.join(tmp, "out.lp")]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 4, (argv[0], text, err.getvalue())
            assert err.getvalue() == expected + "\n"


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
    check_wf(KERNEL, ctx)
    # the inferred type is the instantiated codomain, unreduced
    assert convertible_lf(KERNEL.infer(ctx, App(Var("f"), Var("n"))), El(Var("nat")))
