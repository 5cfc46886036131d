"""Shared term language for both systems.

Terms are immutable. Binders are represented locally nameless: occurrences of
a bound variable are `Bound` indices counting enclosing binders, while the
binder itself keeps a display hint that is excluded from comparison. As a
consequence structural equality (`==`) *is* alpha-equivalence, and the
auto-generated hashes respect it.

Free variables (`Var`) are named and refer to context entries or to rewrite
pattern variables. Public API terms are expected to be locally closed: every
`Bound` index points at an enclosing binder of the same term.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Union

from .diagnostics import DUPLICATE_NAME, fail

Term = Union["Sort", "Var", "Bound", "App", "Abs", "Prod", "SymApp"]


@dataclass(frozen=True)
class Sort:
    tag: str  # "Prop" | "Type" | "Kind" | "TYPE" | "KIND"

    def __repr__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Bound:
    index: int

    def __repr__(self) -> str:
        return f"^{self.index}"


@dataclass(frozen=True)
class App:
    fun: Term
    arg: Term

    def __repr__(self) -> str:
        return f"({self.fun!r} {self.arg!r})"


@dataclass(frozen=True)
class Abs:
    hint: str = field(compare=False)
    annot: Term
    body: Term

    def __repr__(self) -> str:
        return f"(\\{self.hint}: {self.annot!r}. {self.body!r})"


@dataclass(frozen=True)
class Prod:
    hint: str = field(compare=False)
    dom: Term
    cod: Term

    def __repr__(self) -> str:
        return f"(!{self.hint}: {self.dom!r}. {self.cod!r})"


@dataclass(frozen=True)
class SymApp:
    sym: str
    args: tuple[Term, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.sym
        return f"{self.sym}({', '.join(map(repr, self.args))})"


PROP = Sort("Prop")
TYPE_ = Sort("Type")
KIND = Sort("Kind")
LF_TYPE = Sort("TYPE")
LF_KIND = Sort("KIND")

_fresh_counter = itertools.count(1)


def fresh_name(hint: str = "x") -> str:
    """A name no surface identifier can collide with ('#' is unlexable)."""
    base = hint.split("#", 1)[0] or "x"
    return f"{base}#{next(_fresh_counter)}"


def free_vars(t: Term) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case Abs(_, annot, body) | Prod(_, annot, body):
            return free_vars(annot) | free_vars(body)
        case SymApp(_, args):
            out: set[str] = set()
            for a in args:
                out |= free_vars(a)
            return out
        case _:
            return set()


def substitute_parallel(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneously replace free variables; values must be locally closed."""
    if not mapping:
        return t
    match t:
        case Var(name):
            return mapping.get(name, t)
        case App(fun, arg):
            return App(substitute_parallel(fun, mapping), substitute_parallel(arg, mapping))
        case Abs(hint, annot, body):
            return Abs(hint, substitute_parallel(annot, mapping), substitute_parallel(body, mapping))
        case Prod(hint, dom, cod):
            return Prod(hint, substitute_parallel(dom, mapping), substitute_parallel(cod, mapping))
        case SymApp(sym, args):
            return SymApp(sym, tuple(substitute_parallel(a, mapping) for a in args))
        case _:
            return t


def substitute(body: Term, binding: tuple[str, Term]) -> Term:
    """Capture-avoiding single substitution of a named free variable."""
    name, value = binding
    return substitute_parallel(body, {name: value})


def alpha_eq(a: Term, b: Term) -> bool:
    """True iff a and b differ only in bound-variable names."""
    return a == b


def instantiate(body: Term, value: Term, depth: int = 0) -> Term:
    """Replace Bound(depth) by a locally closed value, closing the binder."""
    match body:
        case Bound(k):
            if k == depth:
                return value
            if k > depth:
                return Bound(k - 1)
            return body
        case Var() | Sort():
            return body
        case App(fun, arg):
            return App(instantiate(fun, value, depth), instantiate(arg, value, depth))
        case Abs(hint, annot, inner):
            return Abs(hint, instantiate(annot, value, depth), instantiate(inner, value, depth + 1))
        case Prod(hint, dom, cod):
            return Prod(hint, instantiate(dom, value, depth), instantiate(cod, value, depth + 1))
        case SymApp(sym, args):
            return SymApp(sym, tuple(instantiate(a, value, depth) for a in args))
    raise TypeError(f"not a term: {body!r}")


def abstract_var(t: Term, name: str, depth: int = 0) -> Term:
    """Turn free occurrences of a named variable into Bound(depth)."""
    match t:
        case Var(n):
            return Bound(depth) if n == name else t
        case Bound(k):
            return Bound(k + 1) if k >= depth else t
        case Sort():
            return t
        case App(fun, arg):
            return App(abstract_var(fun, name, depth), abstract_var(arg, name, depth))
        case Abs(hint, annot, body):
            return Abs(hint, abstract_var(annot, name, depth), abstract_var(body, name, depth + 1))
        case Prod(hint, dom, cod):
            return Prod(hint, abstract_var(dom, name, depth), abstract_var(cod, name, depth + 1))
        case SymApp(sym, args):
            return SymApp(sym, tuple(abstract_var(a, name, depth) for a in args))
    raise TypeError(f"not a term: {t!r}")


def lam(name: str, annot: Term, body: Term) -> Abs:
    """Abstraction from named syntax: closes `name` in `body`."""
    return Abs(name, annot, abstract_var(body, name))


def pi(name: str, dom: Term, cod: Term) -> Prod:
    return Prod(name, dom, abstract_var(cod, name))


def arrow(dom: Term, cod: Term) -> Prod:
    """Non-dependent product; the binder is unused in the codomain."""
    return Prod("_", dom, abstract_var(cod, fresh_name("_unused")))


def open_term(hint: str, body: Term) -> tuple[Var, Term]:
    """Open a binder body with a fresh variable; inverse of lam/pi closing."""
    v = Var(fresh_name(hint))
    return v, instantiate(body, v)


def is_nondependent(cod: Term) -> bool:
    """True when a product codomain never uses its binder."""

    def uses(t: Term, depth: int) -> bool:
        match t:
            case Bound(k):
                return k == depth
            case App(fun, arg):
                return uses(fun, depth) or uses(arg, depth)
            case Abs(_, annot, body) | Prod(_, annot, body):
                return uses(annot, depth) or uses(body, depth + 1)
            case SymApp(_, args):
                return any(uses(a, depth) for a in args)
            case _:
                return False

    return not uses(cod, 0)


class _Table:
    """Append-only declarations shared by every context view built on it."""

    __slots__ = ("names", "types", "index", "lock", "proven")

    def __init__(self, entries: tuple[tuple[str, Term], ...] = ()):
        self.names = [n for n, _ in entries]
        self.types = [ty for _, ty in entries]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.lock = threading.Lock()
        self.proven: dict[object, set[tuple[Term, Term]]] = {}

    def push(self, depth: int, name: str, ty: Term) -> bool:
        """Append a row at `depth` if that is the tip; False if it is not."""
        with self.lock:  # two views at the tip may race for it
            if depth != len(self.names):
                return False
            self.index[name] = depth
            self.names.append(name)
            self.types.append(ty)
            return True


class Context:
    """Ordered variable declarations; names are pairwise distinct.

    A context is a view: the first `depth` rows of a table shared by every
    context that grew from the same root, followed by a short tuple of
    binders opened inside a term. The table maps each name to its row, so
    `lookup` scans only the binders and then probes one dict, rejecting rows
    at or past the depth (names declared after this view was taken).

    Two ways to grow, because the two kinds of entry have different
    lifetimes. `declare` is for file-level declarations, each of which every
    later declaration sees: it appends a row to the shared table in O(1).
    `extend` is for binders, opened and dropped again while walking a term:
    it leaves the table alone and copies only the short binder tuple. Both
    raise DuplicateName on a name already in scope. A `declare` on a view
    below the table's tip, or one holding binders, copies its entries into a
    fresh table first, so views taken earlier never see the new row. Rows
    below a view's depth never change, so views are immutable values; only
    the claim on the tip takes the table's lock.

    Contexts compare and hash by identity: equal entries built separately
    are different keys.
    """

    __slots__ = ("_table", "_depth", "_binders")

    def __init__(self, table: _Table | None = None, depth: int = 0, binders: tuple[tuple[str, Term], ...] = ()):
        self._table = _Table() if table is None else table
        self._depth = depth
        self._binders = binders

    @property
    def entries(self) -> tuple[tuple[str, Term], ...]:
        table, depth = self._table, self._depth
        return tuple(zip(table.names[:depth], table.types[:depth])) + self._binders

    def declare(self, name: str, ty: Term) -> Context:
        if self.lookup(name) is not None:
            raise fail(DUPLICATE_NAME, f"variable {name!r} already declared")
        table, depth = self._table, self._depth
        if self._binders or not table.push(depth, name, ty):
            table, depth = _Table(self.entries), len(self)
            table.push(depth, name, ty)
        return Context(table, depth + 1)

    def extend(self, name: str, ty: Term) -> Context:
        if self.lookup(name) is not None:
            raise fail(DUPLICATE_NAME, f"variable {name!r} already declared")
        return Context(self._table, self._depth, self._binders + ((name, ty),))

    def prefix(self, depth: int) -> Context:
        """The first `depth` entries, as a view sharing this context's table."""
        if not 0 <= depth <= len(self):
            raise ValueError(f"prefix depth {depth} outside 0..{len(self)}")
        if depth <= self._depth:
            return Context(self._table, depth)
        return Context(self._table, self._depth, self._binders[: depth - self._depth])

    def lookup(self, name: str) -> Term | None:
        for n, ty in reversed(self._binders):
            if n == name:
                return ty
        table = self._table
        row = table.index.get(name)
        if row is not None and row < self._depth:
            return table.types[row]
        return None

    def proven(self, owner: object) -> set[tuple[Term, Term]]:
        """The conversions `owner` (a kernel) has proven under this table.

        Every view grown from one root shares the set, and a new root or a
        copied table starts empty, so a record never outlives the file that
        made it or reaches another owner.
        """
        return self._table.proven.setdefault(owner, set())

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return self._depth + len(self._binders)

    def __repr__(self) -> str:
        return ", ".join(f"{n}: {ty!r}" for n, ty in self.entries) or "<empty>"


@dataclass(frozen=True)
class SigEntry:
    """Typing of one fixed-arity symbol: telescope, result type, result sort.

    Telescope types may mention earlier telescope variables only; the result
    sort is the sort of the result type under the telescope.
    """

    telescope: tuple[tuple[str, Term], ...]
    result: Term
    sort: Sort
    protected: bool = False

    @property
    def arity(self) -> int:
        return len(self.telescope)


class Signature:
    """Finite mapping from symbol names to their typing entries."""

    def __init__(self, entries: dict[str, SigEntry]):
        self._entries = dict(entries)

    def __contains__(self, sym: str) -> bool:
        return sym in self._entries

    def __getitem__(self, sym: str) -> SigEntry:
        return self._entries[sym]

    def get(self, sym: str) -> SigEntry | None:
        return self._entries.get(sym)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self):
        return self._entries.items()

    def arity(self, sym: str) -> int:
        return self._entries[sym].arity

    def protected_names(self) -> frozenset[str]:
        return frozenset(n for n, e in self._entries.items() if e.protected)
