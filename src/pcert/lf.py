"""Type checker for the dependently typed framework under the encoding theory.

Sorts TYPE/KIND only. The signature objectifies the other system's sorts
(Kind/Type/Prop as framework types, type/prop as their inhabitants), turns
encoded types and propositions back into framework types through El and Prf,
reifies the three product formers as fa/impd/arrd, and carries the subtype
symbols psub/pair/fst/snd plus the certificate-free pair' that orients proof
irrelevance as rewriting.

pair' is protected: it may not occur in user input, but rewriting is free to
introduce it during conversion. The protection is configuration, a flag on
the signature entry; `check_file` gates user input against it, and the
kernel itself is the generic one, typing pair' like any other symbol.
"""

from __future__ import annotations

from .diagnostics import ProtectedError
from .kernel import Kernel
from .rewrite import Fuel, RewriteRule, RuleSet, convertible as _convertible
from .terms import (
    Abs,
    App,
    Bound,
    LF_KIND,
    LF_TYPE,
    Memo,
    Prod,
    SigEntry,
    Signature,
    SymApp,
    Term,
    Var,
    arrow,
    ident,
)

# Nullary encodings of the other system's sorts, and their inhabitants.
KIND_ENC = SymApp("Kind")
TYPE_ENC = SymApp("Type")
PROP_ENC = SymApp("Prop")
TYPE_OBJ = SymApp("type")
PROP_OBJ = SymApp("prop")

PAIR_PRIME = "pair'"

# The symbol tables of the encoding: the subtype symbols keep their names
# across it, and a product goes to a head by the sorts of its domain and
# codomain.
SUBTYPE_SYMBOLS = frozenset(("psub", "pair", "fst", "snd"))
PRODUCT_HEADS = {("Type", "Type"): "arrd", ("Type", "Prop"): "fa", ("Prop", "Prop"): "impd"}


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
    )


RULES_R = _rules()


def assert_public(t: Term, sig: Signature = LF_SIGNATURE, clean: Memo | None = None) -> None:
    """Reject terms that mention a protected symbol anywhere, binders included.

    The error names the first occurrence in depth-first, left-to-right order
    by its path from the root. Only user input goes through this gate, in
    `check_file`. `clean` (a `terms.Memo`) holds the nodes already found
    free of protected symbols, which the walk skips and adds to, so a
    caller that hands one memo to every call walks each distinct node once.
    """
    protected = sig.protected
    if not protected:
        return
    found = _first_protected(t, protected, Memo() if clean is None else clean)
    if found is not None:
        sym, path = found
        raise ProtectedError(sym, tuple(reversed(path)))


def _first_protected(s: Term, protected: frozenset[str], clean: Memo) -> tuple[str, list[str]] | None:
    """The first protected symbol in s with its path from s reversed (built
    only when one is found), or None after adding s to clean."""
    cls = type(s)
    if cls is SymApp:
        if ident(s) in clean:
            return None
        sym = s.sym
        if sym in protected:
            return sym, []
        for i, a in enumerate(s.args):
            found = _first_protected(a, protected, clean)
            if found is not None:
                found[1].append(f"{sym}.{i}")
                return found
    elif cls is App or cls is Abs or cls is Prod:
        if ident(s) in clean:
            return None
        for label in _CHILDREN[cls]:  # the labels are the field names
            found = _first_protected(getattr(s, label), protected, clean)
            if found is not None:
                found[1].append(label)
                return found
    else:
        return None  # a leaf
    clean.put(ident(s), True, s)
    return None


_CHILDREN = {App: ("fun", "arg"), Abs: ("annot", "body"), Prod: ("dom", "cod")}


class LfKernel(Kernel):
    def __init__(self):
        super().__init__(
            "lf",
            axioms={"TYPE": "KIND"},
            products={("TYPE", "TYPE"): "TYPE", ("TYPE", "KIND"): "KIND"},
            signature=LF_SIGNATURE,
            rules=RULES_R,
        )


KERNEL = LfKernel()


def convertible_lf(a: Term, b: Term, fuel: Fuel | int | None = None) -> bool:
    """Library API: acceptance criteria 4, 5 and 8 decide lf conversion
    with it."""
    return _convertible(RULES_R, a, b, fuel)
