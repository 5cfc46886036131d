"""Type checker for simple type theory with predicate subtyping.

Sorts Prop/Type/Kind with the usual axioms and products, plus four symbols:

    psub(T, p)        the subtype of T carved out by predicate p
    pair(T, p, m, h)  an element m of T packaged with a certificate h of p m
    fst(T, p, m)      the element carried by m : psub(T, p)
    snd(T, p, m)      the certificate carried by m : psub(T, p)

Conversion is beta plus projection (fst of a pair computes to its element)
modulo proof irrelevance: two pairs that differ only in their certificate
are interchangeable. It is the generic kernel's head-first conversion with
beta+projection, configured to skip the certificate (fourth argument) of
`pair`, which is therefore never reduced or compared.
"""

from __future__ import annotations

from .kernel import Kernel
from .rewrite import Fuel, RewriteRule, RuleSet, _as_fuel
from .terms import (
    Abs,
    App,
    Context,
    KIND,
    PROP,
    Prod,
    SigEntry,
    Signature,
    SymApp,
    TYPE_,
    Term,
    Var,
    arrow,
)

# Erasure marker for pairs; '#' keeps it out of every signature and grammar.
ERASED_PAIR = "pair#"


def _pcert_signature() -> Signature:
    T, p, m, h = Var("T"), Var("p"), Var("m"), Var("h")
    t_tel = ("T", TYPE_)
    p_tel = ("p", arrow(T, PROP))
    return Signature(
        {
            "psub": SigEntry((t_tel, p_tel), TYPE_, KIND),
            "pair": SigEntry(
                (t_tel, p_tel, ("m", T), ("h", App(p, m))),
                SymApp("psub", (T, p)),
                TYPE_,
            ),
            "fst": SigEntry(
                (t_tel, p_tel, ("m", SymApp("psub", (T, p)))),
                T,
                TYPE_,
            ),
            "snd": SigEntry(
                (t_tel, p_tel, ("m", SymApp("psub", (T, p)))),
                App(p, SymApp("fst", (T, p, m))),
                PROP,
            ),
        }
    )


PCERT_SIGNATURE = _pcert_signature()

# Projection oriented left to right; with beta this is the computational
# fragment of the conversion. The certificate equation is not oriented here:
# conversion skips the certificate (`PcertKernel`).
PROJECTION_RULE = RewriteRule(
    "proj_pair",
    SymApp(
        "fst",
        (Var("t0"), Var("p0"), SymApp("pair", (Var("t1"), Var("p1"), Var("m"), Var("h")))),
    ),
    Var("m"),
)

BETA_PROJ = RuleSet((PROJECTION_RULE,))


def pi_erase(t: Term) -> Term:
    """Drop the certificate of every pair, marking the remaining triple.
    Conversion skips the certificate instead; the tests' normalize-and-compare
    oracle and the benchmark's tracer (perfbench/probes.py) use this."""
    cls = type(t)
    if cls is Abs or cls is Prod:
        return cls(t.hint, pi_erase(t.dom), pi_erase(t.body))
    match t:
        case SymApp("pair", (ty, p, m, _)):
            return SymApp(ERASED_PAIR, (pi_erase(ty), pi_erase(p), pi_erase(m)))
        case SymApp(sym, args):
            return SymApp(sym, tuple(pi_erase(a) for a in args))
        case App(f, a):
            return App(pi_erase(f), pi_erase(a))
        case _:
            return t


class PcertKernel(Kernel):
    def __init__(self):
        super().__init__(
            "pcert",
            axioms={"Prop": "Type", "Type": "Kind"},
            products={("Prop", "Prop"): "Prop", ("Type", "Type"): "Type", ("Type", "Prop"): "Prop"},
            signature=PCERT_SIGNATURE,
            rules=BETA_PROJ,
            irrelevant={"pair": 3},
        )


KERNEL = PcertKernel()


def conv_pcert(ctx: Context, a: Term, b: Term, fuel: Fuel | int | None = None) -> bool:
    """Complete only on terms typable in ctx; callers own that obligation.
    Library API: acceptance criterion 4 reads it."""
    return KERNEL.convert(ctx, a, b, _as_fuel(fuel))
