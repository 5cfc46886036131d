"""Partial inverse of the encoding, for round-trip checking.

Clause by clause: variables, applications and abstractions come back
homomorphically (binder annotations through the type inverse); the prop
object returns the Prop sort; fa/impd/arrd applied to an abstraction rebuild
the product, ignoring the abstraction's annotation; the four subtype symbols
come back with inverted arguments. Anything else is out of the image, and
the failure reports the leftmost-outermost subterm that matched no clause.

This is a left inverse of the translation up to beta only; nothing is
claimed in the other direction. In particular the certificate-free pair'
has no clause: its normal forms are deliberately not invertible.

A subterm met again is inverted once per memo, a `terms.Memo` keyed by
the subterm's identity and its role (term or type).
"""

from __future__ import annotations

from .record import Frozen, setters
from .terms import Abs, App, Bound, Memo, Prod, Sort, SymApp, Term, Var, ident


class NotInImage(Frozen):
    """Path (child labels from the root) to the offending subterm."""

    __slots__ = __match_args__ = ("path", "subterm")

    def __init__(self, path: tuple[str, ...], subterm: Term):
        _nii_path(self, path)
        _nii_subterm(self, subterm)

    def __str__(self) -> str:
        where = "/".join(self.path) if self.path else "root"
        return f"not in the image of the translation at {where}: {self.subterm!r}"


_nii_path, _nii_subterm = setters(NotInImage)


def inverse_term(m: Term, memo: Memo | None = None) -> Term | NotInImage:
    return _term(m, (), Memo() if memo is None else memo)


def _term(m: Term, path: tuple[str, ...], memo: Memo) -> Term | NotInImage:
    if type(m) is Var or type(m) is Bound:
        return m
    return _remembered(_invert_term, m, path, memo)


def _type(t: Term, path: tuple[str, ...], memo: Memo) -> Term | NotInImage:
    return _remembered(_invert_type, t, path, memo)


def _remembered(invert, t: Term, path: tuple[str, ...], memo: Memo) -> Term | NotInImage:
    """`invert(t, path, memo)`, remembered in memo by t and its role (the
    function, term or type inverse): a node can invert as a term and fail
    as a type, an application for one. A memo lives for one call, or for
    every call handed the same one (`pcert roundtrip` hands one to all the
    calls of a file). Only successes are kept, so a failure is found anew
    by each call that meets it, with that call's path; a hit is a subterm
    without failures, so the walk meets the same first failure either way."""
    key = (ident(t), invert)
    seen = memo.get(key)
    if seen is not None:
        return seen
    out = invert(t, path, memo)
    return out if isinstance(out, NotInImage) else memo.put(key, out, t)


def _invert_term(m: Term, path: tuple[str, ...], memo: Memo) -> Term | NotInImage:
    """`_term` at a node that is not a variable."""
    match m:
        case Abs(hint, annot, body):
            a = _type(annot, path + ("annot",), memo)
            if isinstance(a, NotInImage):
                return a
            b = _term(body, path + ("body",), memo)
            if isinstance(b, NotInImage):
                return b
            return Abs(hint, a, b)
        case App(f, x):
            fi = _term(f, path + ("fun",), memo)
            if isinstance(fi, NotInImage):
                return fi
            xi = _term(x, path + ("arg",), memo)
            if isinstance(xi, NotInImage):
                return xi
            return App(fi, xi)
        case SymApp("prop", ()):
            return Sort("Prop")
        case SymApp(("fa" | "impd" | "arrd") as head, (left, Abs(hint, _, body))):
            li = _term(left, path + (f"{head}.0",), memo)
            if isinstance(li, NotInImage):
                return li
            bi = _term(body, path + (f"{head}.1", "body"), memo)
            if isinstance(bi, NotInImage):
                return bi
            return Prod(hint, li, bi)
        case SymApp(("psub" | "pair" | "fst" | "snd") as head, args):
            out: list[Term] = []
            for i, a in enumerate(args):
                ai = _term(a, path + (f"{head}.{i}",), memo)
                if isinstance(ai, NotInImage):
                    return ai
                out.append(ai)
            return SymApp(head, tuple(out))
        case _:
            return NotInImage(path, m)


def _invert_type(t: Term, path: tuple[str, ...], memo: Memo) -> Term | NotInImage:
    """`_type` at a node not met before."""
    match t:
        case SymApp("Type", ()):
            return Sort("Type")
        case SymApp("Prop", ()):
            return Sort("Prop")
        case SymApp("El", (m,)):
            return _term(m, path + ("El.0",), memo)
        case SymApp("Prf", (p,)):
            return _term(p, path + ("Prf.0",), memo)
        case Prod(hint, dom, cod):
            d = _type(dom, path + ("dom",), memo)
            if isinstance(d, NotInImage):
                return d
            c = _type(cod, path + ("cod",), memo)
            if isinstance(c, NotInImage):
                return c
            return Prod(hint, d, c)
        case _:
            return NotInImage(path, t)
