"""Type checker for the dependently typed framework under the encoding theory.

Sorts TYPE/KIND only. The signature objectifies the other system's sorts
(Kind/Type/Prop as framework types, type/prop as their inhabitants), turns
encoded types and propositions back into framework types through El and Prf,
reifies the three product formers as fa/impd/arrd, and carries the subtype
symbols psub/pair/fst/snd plus the certificate-free pair' that orients proof
irrelevance as rewriting.

pair' is protected: it may not occur in user input, but rewriting is free to
introduce it during conversion.
"""

from __future__ import annotations

from .diagnostics import ProtectedError
from .kernel import Kernel, SystemConfig
from .rewrite import Fuel, RewriteRule, RuleSet, _as_fuel, convertible as _convertible
from .terms import (
    Abs,
    App,
    Bound,
    Context,
    LF_KIND,
    LF_TYPE,
    Prod,
    SigEntry,
    Signature,
    SymApp,
    Term,
    Var,
    arrow,
)

# Nullary encodings of the other system's sorts, and their inhabitants.
KIND_ENC = SymApp("Kind")
TYPE_ENC = SymApp("Type")
PROP_ENC = SymApp("Prop")
TYPE_OBJ = SymApp("type")
PROP_OBJ = SymApp("prop")

PAIR_PRIME = "pair'"


def El(t: Term) -> SymApp:
    return SymApp("El", (t,))


def Prf(p: Term) -> SymApp:
    return SymApp("Prf", (p,))


def _lf_signature() -> Signature:
    t, p, q, u, m = Var("t"), Var("p"), Var("q"), Var("u"), Var("m")
    ty_tel = ("t", TYPE_ENC)
    pred_tel = ("p", arrow(El(t), PROP_ENC))
    return Signature(
        {
            "Kind": SigEntry((), LF_TYPE, LF_KIND),
            "Type": SigEntry((), LF_TYPE, LF_KIND),
            "Prop": SigEntry((), LF_TYPE, LF_KIND),
            "type": SigEntry((), KIND_ENC, LF_TYPE),
            "prop": SigEntry((), TYPE_ENC, LF_TYPE),
            "El": SigEntry((("t", TYPE_ENC),), LF_TYPE, LF_KIND),
            "Prf": SigEntry((("p", PROP_ENC),), LF_TYPE, LF_KIND),
            "fa": SigEntry((ty_tel, pred_tel), PROP_ENC, LF_TYPE),
            "impd": SigEntry(
                (("p", PROP_ENC), ("q", arrow(Prf(p), PROP_ENC))),
                PROP_ENC,
                LF_TYPE,
            ),
            "arrd": SigEntry(
                (ty_tel, ("u", arrow(El(t), TYPE_ENC))),
                TYPE_ENC,
                LF_TYPE,
            ),
            "psub": SigEntry((ty_tel, pred_tel), TYPE_ENC, LF_TYPE),
            "pair": SigEntry(
                (ty_tel, pred_tel, ("m", El(t)), ("h", Prf(App(p, m)))),
                El(SymApp("psub", (t, p))),
                LF_TYPE,
            ),
            "fst": SigEntry(
                (ty_tel, pred_tel, ("m", El(SymApp("psub", (t, p))))),
                El(t),
                LF_TYPE,
            ),
            "snd": SigEntry(
                (ty_tel, pred_tel, ("m", El(SymApp("psub", (t, p))))),
                Prf(App(p, SymApp("fst", (t, p, m)))),
                LF_TYPE,
            ),
            PAIR_PRIME: SigEntry(
                (ty_tel, pred_tel, ("m", El(t))),
                El(SymApp("psub", (t, p))),
                LF_TYPE,
                protected=True,
            ),
        }
    )


LF_SIGNATURE = _lf_signature()


def _rules() -> RuleSet:
    t, p, q, u, m = Var("t"), Var("p"), Var("q"), Var("u"), Var("m")
    t0, p0, t1, p1, h = Var("t0"), Var("p0"), Var("t1"), Var("p1"), Var("h")
    return RuleSet(
        (
            RewriteRule(
                "pair_compress",
                SymApp("pair", (t, p, m, h)),
                SymApp(PAIR_PRIME, (t, p, m)),
            ),
            RewriteRule(
                "proj_pair",
                SymApp("fst", (t0, p0, SymApp(PAIR_PRIME, (t1, p1, m)))),
                m,
            ),
            RewriteRule("el_prop", El(PROP_OBJ), PROP_ENC),
            RewriteRule(
                "prf_fa",
                Prf(SymApp("fa", (t, p))),
                Prod("x", El(t), Prf(App(p, Bound(0)))),
            ),
            RewriteRule(
                "el_arrd",
                El(SymApp("arrd", (t, u))),
                Prod("x", El(t), El(App(u, Bound(0)))),
            ),
            RewriteRule(
                "prf_impd",
                Prf(SymApp("impd", (p, q))),
                Prod("h", Prf(p), Prf(App(q, Bound(0)))),
            ),
        ),
        beta_enabled=True,
    )


RULES_R = _rules()

LF_CONFIG = SystemConfig(
    name="lf",
    axioms={"TYPE": "KIND"},
    products={("TYPE", "TYPE"): "TYPE", ("TYPE", "KIND"): "KIND"},
    signature=LF_SIGNATURE,
    rules=RULES_R,
)


def assert_public(t: Term, sig: Signature = LF_SIGNATURE) -> None:
    """Reject terms that mention a protected symbol anywhere, binders included.

    Only user input goes through this gate; terms produced by rewriting
    during conversion never do.
    """
    protected = sig.protected_names()
    if not protected:
        return

    def walk(s: Term, path: tuple[str, ...]) -> None:
        match s:
            case SymApp(sym, args):
                if sym in protected:
                    raise ProtectedError(sym, path)
                for i, a in enumerate(args):
                    walk(a, path + (f"{sym}.{i}",))
            case App(f, a):
                walk(f, path + ("fun",))
                walk(a, path + ("arg",))
            case Abs(_, annot, body):
                walk(annot, path + ("annot",))
                walk(body, path + ("body",))
            case Prod(_, dom, cod):
                walk(dom, path + ("dom",))
                walk(cod, path + ("cod",))
            case _:
                pass

    walk(t, ())


class LfKernel(Kernel):
    def __init__(self):
        super().__init__(LF_CONFIG)

    def infer(self, ctx: Context, t: Term, fuel: Fuel | int | None = None, public: bool = True) -> Term:
        if public:
            assert_public(t, self.signature)
        return super().infer(ctx, t, fuel)


KERNEL = LfKernel()


def check_wf_lf(ctx: Context, fuel: Fuel | int | None = None) -> None:
    KERNEL.check_wf(ctx, fuel)


def infer_lf(ctx: Context, m: Term, fuel: Fuel | int | None = None) -> Term:
    return KERNEL.infer(ctx, m, fuel)


def convertible_lf(a: Term, b: Term, fuel: Fuel | int | None = None) -> bool:
    return _convertible(RULES_R, a, b, _as_fuel(fuel))
