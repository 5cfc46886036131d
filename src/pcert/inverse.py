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

The source walk. A caller that holds the term it translated hands it in
as `source`, and the inverse walks it beside the encoded term. Wherever a
clause would rebuild exactly the source node (the same constructor, the
same hint, symbol or sort, and children that came back as the source
node's own children, by identity), it returns the source node itself;
elsewhere it builds its own node, and below a node whose shape differs
from the clause's it walks without a source. So an exact round trip hands
back the very term it started from, and `pcert roundtrip` finds it in its
normalization memo at the root. The result equals the source-less one
all the same: a source node is returned only where it is equal, child by
child, to the node the clause would build, and `==` ignores hints anyway.
A leaf comes back as the encoded term's own leaf, which for a translation
is the source's (`Var` and `Bound` translate to themselves). A memo hit
counts only if it is the source node itself, or no source is given; any
other hit is walked again beside its source, so which source an entry was
made beside changes no result's value, only which object it is.
"""

from __future__ import annotations

from operator import is_

from .lf import PRODUCT_HEADS, SUBTYPE_SYMBOLS
from .record import Frozen, setters
from .terms import PROP, TYPE_, Abs, App, Bound, Memo, Prod, Sort, SymApp, Term, Var, ident, shown


class NotInImage(Frozen):
    """Path (child labels from the root) to the offending subterm."""

    __slots__ = __match_args__ = ("path", "subterm")

    def __init__(self, path: tuple[str, ...], subterm: Term):
        """Made only for a term out of the image, which a correct
        translation never hands `roundtrip` (tests/test_inverse.py)."""
        _nii_path(self, path)
        _nii_subterm(self, subterm)

    def __str__(self) -> str:
        """What `roundtrip` reports for a term out of the image."""
        where = "/".join(self.path) if self.path else "root"
        return f"not in the image of the translation at {where}: {shown(self.subterm)}"


_nii_path, _nii_subterm = setters(NotInImage)


def inverse_term(m: Term, memo: Memo | None = None, source: Term | None = None) -> Term | NotInImage:
    """The inverse of m, walked beside `source`, the term m translates, when
    one is given (see the module docstring)."""
    return _reported(_term(m, Memo() if memo is None else memo, source))


class _Miss:
    """A subterm no clause matched, with the labels of its path, innermost
    first (see the module docstring)."""

    __slots__ = ("subterm", "labels")

    def __init__(self, subterm: Term):
        """Made only for a term out of the image, as `NotInImage` is."""
        self.subterm, self.labels = subterm, []

    def at(self, *labels: str) -> _Miss:
        """The miss seen from the parent these labels lead down from; reached
        only below a miss."""
        self.labels.extend(reversed(labels))
        return self


def _reported(out: Term | _Miss) -> Term | NotInImage:
    if type(out) is _Miss:
        return NotInImage(tuple(reversed(out.labels)), out.subterm)
    return out


_PRODUCT_HEADS = frozenset(PRODUCT_HEADS.values())
_TYPE_ROLE = "type"  # the second half of a type inverse's memo key


def _sort(sort: Term, source: Term | None) -> Term:
    """The sort constant an encoded sort inverts to, or the source's own
    sort node when it has that tag. Reached by a definition body that holds
    a sort, which no generated input writes (tests/test_inverse.py)."""
    return source if type(source) is Sort and source.tag == sort.tag else sort


def _term(m: Term, memo: Memo, source: Term | None = None) -> Term | _Miss:
    """The term inverse of m, walked beside `source` (see the module
    docstring). A successful inverse is remembered in memo by m's identity
    alone (the type inverse keys by a pair). A memo lives for one call, or
    for every call handed the same one (`pcert roundtrip` hands one to all
    the calls of a file). Only successes are kept, so a failure is found
    anew by each call that meets it, with that call's path; a hit is a
    subterm without failures, so the walk meets the same first failure
    either way. A hit is taken when no source is given or when it is the
    source itself; otherwise the node is walked again beside its source and
    its entry replaced."""
    cls = type(m)
    if cls is Var or cls is Bound:
        return m
    seen = memo.get(ident(m))
    if seen is not None and (source is None or seen is source):
        return seen
    kind = type(source)
    if cls is SymApp:
        sym, args = m.sym, m.args
        if sym in SUBTYPE_SYMBOLS:
            kids = source.args if kind is SymApp and source.sym == sym and len(source.args) == len(args) else None
            out_args: list[Term] = []
            for i, a in enumerate(args):
                ai = _term(a, memo, None if kids is None else kids[i])
                if type(ai) is _Miss:
                    return ai.at(f"{sym}.{i}")
                out_args.append(ai)
            if kids is not None and all(map(is_, out_args, kids)):
                out = source
            else:
                out = SymApp(sym, tuple(out_args))
        elif sym in _PRODUCT_HEADS and len(args) == 2 and type(args[1]) is Abs:
            left, scope = args
            dom, cod = (source.dom, source.body) if kind is Prod else (None, None)
            li = _term(left, memo, dom)
            if type(li) is _Miss:
                return li.at(f"{sym}.0")
            bi = _term(scope.body, memo, cod)
            if type(bi) is _Miss:
                return bi.at(f"{sym}.1", "body")
            hint = scope.hint
            out = source if li is dom and bi is cod and source.hint == hint else Prod(hint, li, bi)
        elif sym == "prop" and not args:
            out = _sort(PROP, source)
        else:
            return _Miss(m)
    elif cls is App:
        fun, arg = (source.fun, source.arg) if kind is App else (None, None)
        fi = _term(m.fun, memo, fun)
        if type(fi) is _Miss:
            return fi.at("fun")
        xi = _term(m.arg, memo, arg)
        if type(xi) is _Miss:
            return xi.at("arg")
        out = source if fi is fun and xi is arg else App(fi, xi)
    elif cls is Abs:
        annot, body = (source.annot, source.body) if kind is Abs else (None, None)
        a = _type(m.annot, memo, annot)
        if type(a) is _Miss:
            return a.at("annot")
        b = _term(m.body, memo, body)
        if type(b) is _Miss:
            return b.at("body")
        hint = m.hint
        out = source if a is annot and b is body and source.hint == hint else Abs(hint, a, b)
    else:
        return _Miss(m)
    return memo.put(ident(m), out, m)


def _type(t: Term, memo: Memo, source: Term | None = None) -> Term | _Miss:
    """The type inverse of t, walked and remembered as `_term` walks and
    remembers, under a key of its own: a node can invert as a term and fail
    as a type, an application for one."""
    cls = type(t)
    if cls is not SymApp and cls is not Prod:
        return _Miss(t)
    key = (ident(t), _TYPE_ROLE)
    seen = memo.get(key)
    if seen is not None and (source is None or seen is source):
        return seen
    if cls is SymApp:
        sym, args = t.sym, t.args
        if len(args) == 1 and (sym == "El" or sym == "Prf"):
            out = _term(args[0], memo, source)
            if type(out) is _Miss:
                return out.at(f"{sym}.0")
        elif sym == "Type" and not args:
            out = _sort(TYPE_, source)
        elif sym == "Prop" and not args:
            out = _sort(PROP, source)
        else:
            return _Miss(t)
    else:
        dom, cod = (source.dom, source.body) if type(source) is Prod else (None, None)
        d = _type(t.dom, memo, dom)
        if type(d) is _Miss:
            return d.at("dom")
        c = _type(t.cod, memo, cod)
        if type(c) is _Miss:
            return c.at("cod")
        hint = t.hint
        out = source if d is dom and c is cod and source.hint == hint else Prod(hint, d, c)
    return memo.put(key, out, t)
