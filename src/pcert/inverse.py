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
the subterm's identity and its role (term or type). No path is built on the
way down: a failure returns through its ancestors, which add their labels
to it, so the path of `NotInImage` costs only the inversions that fail.
"""

from __future__ import annotations

from .lf import PRODUCT_HEADS, SUBTYPE_SYMBOLS
from .record import Frozen, setters
from .terms import PROP, TYPE_, Abs, App, Bound, Memo, Prod, SymApp, Term, Var, ident, shown


class NotInImage(Frozen):
    """Path (child labels from the root) to the offending subterm."""

    __slots__ = __match_args__ = ("path", "subterm")

    def __init__(self, path: tuple[str, ...], subterm: Term):
        _nii_path(self, path)
        _nii_subterm(self, subterm)

    def __str__(self) -> str:
        where = "/".join(self.path) if self.path else "root"
        return f"not in the image of the translation at {where}: {shown(self.subterm)}"


_nii_path, _nii_subterm = setters(NotInImage)


def inverse_term(m: Term, memo: Memo | None = None) -> Term | NotInImage:
    return _reported(_term(m, Memo() if memo is None else memo))


class _Miss:
    """A subterm no clause matched, with the labels of its path, innermost
    first (see the module docstring)."""

    __slots__ = ("subterm", "labels")

    def __init__(self, subterm: Term):
        self.subterm, self.labels = subterm, []

    def at(self, *labels: str) -> _Miss:
        """The miss seen from the parent these labels lead down from."""
        self.labels.extend(reversed(labels))
        return self


def _reported(out: Term | _Miss) -> Term | NotInImage:
    if type(out) is _Miss:
        return NotInImage(tuple(reversed(out.labels)), out.subterm)
    return out


_PRODUCT_HEADS = frozenset(PRODUCT_HEADS.values())
_TYPE_ROLE = "type"  # the second half of a type inverse's memo key


def _term(m: Term, memo: Memo) -> Term | _Miss:
    """The term inverse of m. A successful inverse is remembered in memo by
    m's identity alone (the type inverse keys by a pair). A memo lives for
    one call, or for every call handed the same one (`pcert roundtrip`
    hands one to all the calls of a file). Only successes are kept, so a
    failure is found anew by each call that meets it, with that call's
    path; a hit is a subterm without failures, so the walk meets the same
    first failure either way."""
    cls = type(m)
    if cls is Var or cls is Bound:
        return m
    seen = memo.get(ident(m))
    if seen is not None:
        return seen
    if cls is SymApp:
        sym, args = m.sym, m.args
        if sym in SUBTYPE_SYMBOLS:
            out_args: list[Term] = []
            for i, a in enumerate(args):
                ai = _term(a, memo)
                if type(ai) is _Miss:
                    return ai.at(f"{sym}.{i}")
                out_args.append(ai)
            out = SymApp(sym, tuple(out_args))
        elif sym in _PRODUCT_HEADS and len(args) == 2 and type(args[1]) is Abs:
            left, scope = args
            li = _term(left, memo)
            if type(li) is _Miss:
                return li.at(f"{sym}.0")
            bi = _term(scope.body, memo)
            if type(bi) is _Miss:
                return bi.at(f"{sym}.1", "body")
            out = Prod(scope.hint, li, bi)
        elif sym == "prop" and not args:
            out = PROP
        else:
            return _Miss(m)
    elif cls is App:
        fi = _term(m.fun, memo)
        if type(fi) is _Miss:
            return fi.at("fun")
        xi = _term(m.arg, memo)
        if type(xi) is _Miss:
            return xi.at("arg")
        out = App(fi, xi)
    elif cls is Abs:
        a = _type(m.annot, memo)
        if type(a) is _Miss:
            return a.at("annot")
        b = _term(m.body, memo)
        if type(b) is _Miss:
            return b.at("body")
        out = Abs(m.hint, a, b)
    else:
        return _Miss(m)
    return memo.put(ident(m), out, m)


def _type(t: Term, memo: Memo) -> Term | _Miss:
    """The type inverse of t, remembered as `_term` remembers, under a key of
    its own: a node can invert as a term and fail as a type, an application
    for one."""
    cls = type(t)
    if cls is not SymApp and cls is not Prod:
        return _Miss(t)
    key = (ident(t), _TYPE_ROLE)
    seen = memo.get(key)
    if seen is not None:
        return seen
    if cls is SymApp:
        sym, args = t.sym, t.args
        if len(args) == 1 and (sym == "El" or sym == "Prf"):
            out = _term(args[0], memo)
            if type(out) is _Miss:
                return out.at(f"{sym}.0")
        elif sym == "Type" and not args:
            out = TYPE_
        elif sym == "Prop" and not args:
            out = PROP
        else:
            return _Miss(t)
    else:
        d = _type(t.dom, memo)
        if type(d) is _Miss:
            return d.at("dom")
        c = _type(t.cod, memo)
        if type(c) is _Miss:
            return c.at("cod")
        out = Prod(t.hint, d, c)
    return memo.put(key, out, t)
