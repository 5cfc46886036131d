"""Shared term language for both systems.

Terms are immutable. Binders are represented locally nameless: occurrences of
a bound variable are `Bound` indices counting enclosing binders, while the
binder itself keeps a display hint that is excluded from comparison. As a
consequence structural equality (`==`) *is* alpha-equivalence. A composite
node (`App`, `Abs`, `Prod`, `SymApp`) computes its structural hash on first
use, from its children's hashes and without the hint, and keeps it on the
node, so hashing a term that shares subterms takes time in its distinct
nodes. The two binders, abstraction and product, have one layout
(`_Binder`), so a walk that treats them alike states one binder case.

Free variables (`Var`) are named and refer to context entries or to rewrite
pattern variables. Public API terms are expected to be locally closed: every
`Bound` index points at an enclosing binder of the same term.

Substitution keeps sharing: `instantiate`, `abstract_var` and
`substitute_parallel` return a node itself, not a copy, when nothing beneath
it changed, so a value substituted for many occurrences stays one object.
`==` stops at object identity and remembers, for one comparison, the pairs
of nodes it has proven equal, so it compares two such terms in time linear
in their shared size. Nothing depends on identity for its meaning; results
are equal either way. Every cache that outlives one call is a `Memo`, or a
dict whose values hold the nodes its keys were made from, which costs no
call to make (the parser's intern table, `Records.proven_args` and
`Records.results`).

Dispatch. The walks that every command runs (the kernels, reduction,
substitution, the input gate, translation, the inverse and the printer)
tell a node's kind by `type(t) is ...`, the most frequent kind first, not
by a `match` on class patterns, which costs several times more per node; a
walk of one term returns at a leaf (`Var` and `Bound`, and `Sort` but in
the inverse) before any memo key is made; and translation and the printer
walk a symbol's arguments by a loop, not a generator expression, which would
add a frame per argument. A memoized walk is one function: its leaves, then
the memo lookup, then the rules, then the filing of the entry. So a node
costs one call and a level of nesting one frame, and the node's kind is
told once. The walks over a file's declarations (`checker.check_file`,
the translation of checked records in `cli`, and the printer's
`Printer.decl`) tell a declaration's kind the same way, by type tests and
attribute reads, not by class patterns.
"""

from __future__ import annotations

import itertools
import threading
from operator import attrgetter, is_
from typing import Union

from .diagnostics import DUPLICATE_NAME, fail
from .record import Frozen, setters

Term = Union["Sort", "Var", "Bound", "App", "Abs", "Prod", "SymApp"]


class _Leaf(Frozen):
    """Base of the leaves: `==` and hash over the one field `_value` reads;
    the hash is that of the 1-tuple."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value(self) == other._value(other)

    def __hash__(self) -> int:
        return hash((self._value(self),))


class Sort(_Leaf):
    __slots__ = __match_args__ = ("tag",)  # "Prop" | "Type" | "Kind" | "TYPE" | "KIND"
    _value = attrgetter("tag")

    def __init__(self, tag: str):
        _sort_tag(self, tag)

    def __repr__(self) -> str:
        """The debugging surface, as each node's `__repr__` is."""
        return self.tag


class Var(_Leaf):
    __slots__ = __match_args__ = ("name",)
    _value = attrgetter("name")

    def __init__(self, name: str):
        _var_name(self, name)

    def __repr__(self) -> str:
        return self.name


class Bound(_Leaf):
    __slots__ = __match_args__ = ("index",)
    _value = attrgetter("index")

    def __init__(self, index: int):
        _bound_index(self, index)

    def __repr__(self) -> str:
        return f"^{self.index}"


(_sort_tag,), (_var_name,), (_bound_index,) = setters(Sort), setters(Var), setters(Bound)


class _Node(Frozen):
    """Base of the composite nodes: `==` is alpha-equivalence (`_equal`),
    and the hash of the fields `_key` names is kept (see the module
    docstring)."""

    __slots__ = ("_hash",)  # not a field: the hash once computed, else None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented
        return _equal(self, other, None)

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _keep_hash(self)

    def __repr__(self) -> str:
        """The debugging surface: the term's text, cut short."""
        return shown(self, None)


def _keep_hash(node: _Node) -> int:
    h = hash(node._key(node))
    _node_hash(node, h)
    return h


class App(_Node):
    __slots__ = __match_args__ = ("fun", "arg")
    _key = attrgetter("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        _app_fun(self, fun)
        _app_arg(self, arg)
        _node_hash(self, None)


class _Binder(_Node):
    """Base of `Abs` and `Prod`: a display hint, the type of the bound
    variable (`dom`) and the scope it binds in (`body`). Each subclass also
    names two slots by their role, `Abs.annot` for `dom` and `Prod.cod` for
    `body`; an alias is the slot's own descriptor, so reading it costs what
    reading the slot does. A walk that treats both binders alike reads `dom`
    and `body` and rebuilds with `cls(hint, dom, body)`, `cls` the node's
    type."""

    __slots__ = ("hint", "dom", "body")
    _key = attrgetter("dom", "body")

    def __init__(self, hint: str, dom: Term, body: Term):
        _binder_hint(self, hint)
        _binder_dom(self, dom)
        _binder_body(self, body)
        _node_hash(self, None)


class Abs(_Binder):
    __slots__ = ()
    __match_args__ = ("hint", "annot", "body")
    annot = _Binder.dom


class Prod(_Binder):
    __slots__ = ()
    __match_args__ = ("hint", "dom", "cod")
    cod = _Binder.body


class SymApp(_Node):
    __slots__ = __match_args__ = ("sym", "args")
    _key = attrgetter("sym", "args")

    def __init__(self, sym: str, args: tuple[Term, ...] = ()):
        _symapp_sym(self, sym)
        _symapp_args(self, args)
        _node_hash(self, None)


(_node_hash,) = setters(_Node)
_app_fun, _app_arg = setters(App)
_binder_hint, _binder_dom, _binder_body = setters(_Binder)
_symapp_sym, _symapp_args = setters(SymApp)


def _equal(a: Term, b: Term, proven: set[tuple[int, int]] | None) -> bool:
    """`a == b` for terms that are not one object. Child pairs that are one
    object are equal unseen; other composite pairs are looked up in and
    added to `proven`, the pairs (by id: both terms stay alive meanwhile)
    this comparison has proven equal, so each is walked once. The outermost
    pair, which cannot recur beneath itself, passes None and makes the set
    only when it descends."""
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is SymApp:
        if a.sym != b.sym or len(a.args) != len(b.args):
            return False
    else:
        if cls is App:
            x, y, u, v = a.fun, b.fun, a.arg, b.arg
        elif cls is Prod or cls is Abs:
            x, y, u, v = a.dom, b.dom, a.body, b.body
        else:
            return a == b
        if x is y and u is v:
            return True
    key = None
    if proven is None:
        proven = set()
    else:
        key = (id(a), id(b))
        if key in proven:
            return True
    if cls is SymApp:
        for x, y in zip(a.args, b.args):
            if x is not y and not _equal(x, y, proven):
                return False
    elif (x is not y and not _equal(x, y, proven)) or (u is not v and not _equal(u, v, proven)):
        return False
    if key is not None:
        proven.add(key)
    return True


SHOWN = 500  # the most characters of one term that a diagnostic prints


def shown(t: Term, limit: int | None = SHOWN) -> str:
    """`repr(t)`, cut after `limit` characters and then ended by `…` (None:
    never cut). One walk over an explicit stack, which stops at the cut: a
    term that shares subterms prints as a tree, so its text can be
    exponentially longer than the term."""
    parts: list[str] = []
    size = 0
    todo: list = [t]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is str:
            part = t
        elif cls is App:
            todo += (")", t.arg, " ", t.fun)
            part = "("
        elif cls is Abs or cls is Prod:
            todo += (")", t.body, ". ", t.dom)
            part = f"(\\{t.hint}: " if cls is Abs else f"(!{t.hint}: "
        elif cls is SymApp:
            part, args = t.sym, t.args
            if args:
                todo.append(")")
                for a in reversed(args[1:]):
                    todo += (a, ", ")
                todo.append(args[0])
                part += "("
        else:
            part = repr(t)
        parts.append(part)
        size += len(part)
        if limit is not None and size > limit:
            return "".join(parts)[:limit] + "…"
    return "".join(parts)


PROP = Sort("Prop")
TYPE_ = Sort("Type")
KIND = Sort("Kind")
LF_TYPE = Sort("TYPE")
LF_KIND = Sort("KIND")
SORTS = {sort.tag: sort for sort in (PROP, TYPE_, KIND, LF_TYPE, LF_KIND)}  # the sort constants by tag

_fresh_counter = itertools.count(1)


def fresh_name(hint: str = "x") -> str:
    """A name no surface identifier can collide with ('#' is unlexable)."""
    base = hint.split("#", 1)[0] or "x"
    return f"{base}#{next(_fresh_counter)}"


# The part of a `Memo` key that stands for a node: its identity. It is the
# builtin, so a lookup `memo.get(ident(t))` makes no Python-level call.
ident = id


class Memo(dict):
    """A cache keyed by node identity that may outlive the call that fills
    it. Look entries up with the dict's own methods, by keys made with
    `ident`; store them with `put`, which holds the nodes a key was made
    from for as long as the memo lives, so no other node can take their
    ids and hit an entry that is not its own. Each memo is created where
    its lifetime starts (a file, a command, a printed file) and handed
    down. A walk that caches only for one call keys by the ids of subterms
    of its argument, which lives for the call, and needs no `Memo`."""

    __slots__ = ("_held",)

    def __init__(self):
        self._held: list[Term] = []

    def put(self, key, value, *nodes: Term):
        """Store value under key, made with `ident` from nodes; returns value."""
        self[key] = value
        self._held.extend(nodes)  # the nodes, not their tuple: one object fewer
        return value


_NO_NAMES: frozenset[str] = frozenset()


def free_names(t: Term, memo: Memo) -> frozenset[str]:
    """The names of the free variables of t, kept in `memo` by t's identity:
    the calls handed one memo visit each distinct node once between them.
    The package's one free-variable walk."""
    cls = type(t)
    if cls is Var:
        return frozenset((t.name,))
    if cls is Sort or cls is Bound:
        return _NO_NAMES
    out = memo.get(ident(t))
    if out is not None:
        return out
    if cls is App:
        out = free_names(t.fun, memo) | free_names(t.arg, memo)
    elif cls is SymApp:
        out = _NO_NAMES
        for a in t.args:
            out = out | free_names(a, memo)
    else:
        out = free_names(t.dom, memo) | free_names(t.body, memo)
    memo[ident(t)] = out  # `put`, inlined: one call fewer per node
    memo._held.append(t)
    return out


def loose_bounds(t: Term, memo: Memo) -> int:
    """The indices of the `Bound`s of t that no binder inside t binds, as a
    bit mask (bit k for index k), kept in `memo` under `~ident(t)`, which
    no other kind of entry uses. A product's codomain uses its binder when
    bit 0 of its mask is set, so a printer reads each arrow's dependence,
    and the kernel whether a binder body or a codomain needs opening, from
    one walk of the file's distinct nodes, not one walk per binder."""
    cls = type(t)
    if cls is Bound:
        return 1 << t.index
    if cls is Var or cls is Sort:
        return 0
    key = ~ident(t)
    out = memo.get(key)
    if out is not None:
        return out
    # a child's kind is tested before recursing, so a leaf costs no call
    out = 0
    if cls is App:
        children = (t.fun, t.arg)
    elif cls is SymApp:
        children = t.args
    else:
        children = (t.dom,)
        body = t.body
        kind = type(body)
        if kind is Bound:
            out = 1 << body.index >> 1
        elif kind is not Var and kind is not Sort:
            out = loose_bounds(body, memo) >> 1
    for a in children:
        kind = type(a)
        if kind is Bound:
            out |= 1 << a.index
        elif kind is not Var and kind is not Sort:
            out |= loose_bounds(a, memo)
    memo[key] = out  # `put`, inlined: one call fewer per node
    memo._held.append(t)
    return out


def substitute_parallel(t: Term, mapping: dict[str, Term], memo: Memo | None = None) -> Term:
    """Simultaneously replace free variables; values must be locally closed.

    With a `memo`, each composite node's result is kept by the node's
    identity, so a node met again, in this call or a later one handed the
    same memo, is substituted once. An entry stays right for every later
    call whose mapping gives the names beneath the node the same values.
    """
    if not mapping:
        return t
    cls = type(t)
    if cls is Var:
        return mapping.get(t.name, t)
    if cls is Sort or cls is Bound:
        return t
    if memo is not None:
        out = memo.get(ident(t))
        if out is not None:
            return out
    if cls is App:
        fun, arg = substitute_parallel(t.fun, mapping, memo), substitute_parallel(t.arg, mapping, memo)
        out = t if fun is t.fun and arg is t.arg else App(fun, arg)
    elif cls is Abs or cls is Prod:
        dom, body = substitute_parallel(t.dom, mapping, memo), substitute_parallel(t.body, mapping, memo)
        out = t if dom is t.dom and body is t.body else cls(t.hint, dom, body)
    elif cls is SymApp:
        args = []
        for a in t.args:
            args.append(substitute_parallel(a, mapping, memo))
        out = t if all(map(is_, args, t.args)) else SymApp(t.sym, tuple(args))
    else:
        raise TypeError(f"not a term: {t!r}")
    return out if memo is None else memo.put(ident(t), out, t)


def substituted_equals(t: Term, mapping: dict[str, Term], other: Term) -> bool:
    """`substitute_parallel(t, mapping) == other`, decided without building
    the substitution: t and other are walked side by side and mapping is
    read at each free variable of t, whose value is compared with `==`. t
    is walked as a tree, so it should be small, as a telescope's types are."""
    cls = type(t)
    if cls is Var:
        value = mapping.get(t.name, t)
        return value is other or value == other
    if cls is not type(other):
        return False
    if cls is App:
        return substituted_equals(t.fun, mapping, other.fun) and substituted_equals(t.arg, mapping, other.arg)
    if cls is Abs or cls is Prod:
        return substituted_equals(t.dom, mapping, other.dom) and substituted_equals(t.body, mapping, other.body)
    if cls is SymApp:
        if t.sym != other.sym or len(t.args) != len(other.args):
            return False
        for a, b in zip(t.args, other.args):
            if not substituted_equals(a, mapping, b):
                return False
        return True
    return t is other or t == other


def alpha_eq(a: Term, b: Term) -> bool:
    """True iff a and b differ only in bound-variable names: `a == b`.
    Library API: the acceptance criteria compare terms with it."""
    return a == b


def instantiate(body: Term, value: Term, bounds: Memo | None = None) -> Term:
    """Replace Bound(0) by a locally closed value, closing the binder.

    For one call, a subterm found unchanged is remembered with the least
    depth it was found unchanged at, so a closed subterm met again, such as
    an expanded definition under a binder, is walked once. A changed
    subterm is rebuilt at each occurrence, so the result is made of the
    very objects a tree walk makes.

    `bounds` is a table of `loose_bounds` masks (`Records.bounds`). A
    subterm whose mask is in it and has no index at or above the depth it
    is met at is handed back unwalked: it holds no `Bound` the walk would
    replace or lower, so the walk would hand back the very same object.
    """
    return _instantiate(body, value, 0, None, bounds)


def _instantiate(
    body: Term, value: Term, depth: int, same: dict[int, int] | None, bounds: Memo | None = None
) -> Term:
    cls = type(body)
    if cls is Var or cls is Sort:
        return body
    if cls is Bound:
        k = body.index
        if k == depth:
            return value
        return Bound(k - 1) if k > depth else body
    key = None
    mask = None if bounds is None else bounds.get(~ident(body))
    if mask is not None:
        if not mask >> depth:
            return body
    elif same is None:  # the first node without a mask on this path starts the table
        same = {}
    else:
        key = id(body)
        least = same.get(key)
        if least is not None and least <= depth:
            return body
    if cls is App:
        fun = _instantiate(body.fun, value, depth, same, bounds)
        arg = _instantiate(body.arg, value, depth, same, bounds)
        out = body if fun is body.fun and arg is body.arg else App(fun, arg)
    elif cls is Abs or cls is Prod:
        dom = _instantiate(body.dom, value, depth, same, bounds)
        inner = _instantiate(body.body, value, depth + 1, same, bounds)
        out = body if dom is body.dom and inner is body.body else cls(body.hint, dom, inner)
    elif cls is SymApp:
        args = []
        for a in body.args:
            args.append(_instantiate(a, value, depth, same, bounds))
        out = body if all(map(is_, args, body.args)) else SymApp(body.sym, tuple(args))
    else:
        raise TypeError(f"not a term: {body!r}")
    if out is body and key is not None:
        same[key] = depth
    return out


def abstract_var(t: Term, name: str) -> Term:
    """The body of a binder over t: free occurrences of `name` become
    `Bound` indices that point at it. For one call, results are memoized by
    the identity of the subterm and its binder depth, so the work is linear
    in the distinct subterms of t and the result keeps t's sharing (a normal
    form's, say, where beta handed one argument object to every occurrence
    of its variable).
    """
    return _abstract(t, name, 0, {})


def _abstract(t: Term, name: str, depth: int, memo: dict[tuple[int, int], Term]) -> Term:
    cls = type(t)
    if cls is Var:
        return Bound(depth) if t.name == name else t
    if cls is Bound:
        return Bound(t.index + 1) if t.index >= depth else t
    if cls is Sort:
        return t
    key = (id(t), depth)
    out = memo.get(key)
    if out is not None:
        return out
    if cls is App:
        fun, arg = _abstract(t.fun, name, depth, memo), _abstract(t.arg, name, depth, memo)
        out = t if fun is t.fun and arg is t.arg else App(fun, arg)
    elif cls is Abs or cls is Prod:
        dom, body = _abstract(t.dom, name, depth, memo), _abstract(t.body, name, depth + 1, memo)
        out = t if dom is t.dom and body is t.body else cls(t.hint, dom, body)
    elif cls is SymApp:
        args = [_abstract(a, name, depth, memo) for a in t.args]
        out = t if all(map(is_, args, t.args)) else SymApp(t.sym, tuple(args))
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[key] = out
    return out


def arrow(dom: Term, cod: Term) -> Prod:
    """Non-dependent product; the binder is unused in the codomain."""
    return Prod("_", dom, abstract_var(cod, fresh_name("_unused")))


def open_term(hint: str, body: Term, bounds: Memo | None = None) -> tuple[Var, Term]:
    """Open a binder body with a fresh variable; inverse of closing a
    binder with `abstract_var`. `bounds` as for `instantiate`."""
    v = Var(fresh_name(hint))
    return v, instantiate(body, v, bounds)


class Records:
    """What one owner (a kernel) has established under one table, so for one
    file: the pairs it has proven convertible, the argument conversions
    its inference rules have proven, by identity (`proven_args`: a key
    made of the `ident`s of an application's argument type and domain, or
    of a symbol and the `ident`s of the argument's type and the earlier
    arguments, to the nodes that keep those ids alive), the symbols'
    result types (`results`: a key made of the symbol and the `ident`s of
    the arguments the result mentions, to the result, which holds those
    arguments; see `kernel` for both), its inference, conversion and head
    normal form memos, `bounds`, which holds the `loose_bounds` of what it
    has inferred (which `instantiate` reads) and the `free_names` of the
    pairs it proves under a binder (which `Context.mentions_binder` reads),
    and `free`, the steps spent so far on proven conversions whose pair
    mentions no binder (read only as a difference around one term's
    inference, so a conversion outside an inference moves no redo cost).
    Every view grown from one root shares them, and a new root or a copied
    table starts empty, so a record never outlives the file that made it or
    reaches another owner."""

    __slots__ = ("proven", "proven_args", "results", "inferred", "converted", "heads", "bounds", "free")

    def __init__(self):
        self.proven: set[tuple[Term, Term]] = set()
        self.proven_args: dict[tuple, tuple[Term, Term]] = {}
        self.results: dict[tuple, Term] = {}
        self.inferred = Memo()
        self.converted = Memo()
        self.heads = Memo()
        self.bounds = Memo()
        self.free = 0


class _Table:
    """Append-only declarations shared by every context view built on it."""

    __slots__ = ("names", "types", "index", "lock", "records")

    def __init__(self, entries: tuple[tuple[str, Term], ...] = ()):
        self.names = [n for n, _ in entries]
        self.types = [ty for _, ty in entries]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.lock = threading.Lock()
        self.records: dict[object, Records] = {}


class Context:
    """Ordered variable declarations; names are pairwise distinct.

    A context is a view: the first `rows` rows of a table shared by every
    context that grew from the same root, followed by a short tuple of
    `binders` opened inside a term (both read-only). `lookup` scans only the
    binders and then probes the table's index, rejecting rows at or past
    `rows` (names declared after this view was taken).

    `declare` adds a file-level declaration, which every later declaration
    sees, by appending a row to the shared table in O(1); on a view below
    the table's tip, or one holding binders, it copies the entries into a
    fresh table first, so views taken earlier never see the new row.
    `extend` opens a binder and copies only the binder tuple. Both raise
    DuplicateName on a name already in scope. Rows below a view's `rows`
    never change, so views are immutable values; only the claim on the tip
    takes the table's lock. Contexts compare and hash by identity.
    """

    __slots__ = ("_table", "rows", "binders")

    def __init__(self, table: _Table | None = None, rows: int = 0, binders: tuple[tuple[str, Term], ...] = ()):
        self._table = _Table() if table is None else table
        self.rows = rows
        self.binders = binders

    @property
    def entries(self) -> tuple[tuple[str, Term], ...]:
        """Every entry, rows then binders: what `declare` copies below the
        tip, and what `__iter__` and the repr read."""
        table, depth = self._table, self.rows
        return tuple(zip(table.names[:depth], table.types[:depth])) + self.binders

    def declare(self, name: str, ty: Term) -> Context:
        table, depth = self._table, self.rows
        with table.lock:  # two views at the tip may race for it
            if not self.binders and depth == len(table.names):
                # at the tip, the view holds every row the index names
                if name in table.index:
                    raise fail(DUPLICATE_NAME, f"variable {name!r} already declared")
                table.index[name] = depth
                table.names.append(name)
                table.types.append(ty)
                return Context(table, depth + 1)
        if self.lookup(name) is not None:
            raise fail(DUPLICATE_NAME, f"variable {name!r} already declared")
        return Context(_Table(self.entries + ((name, ty),)), len(self) + 1)

    def extend(self, name: str, ty: Term) -> Context:
        if self.lookup(name) is not None:
            raise fail(DUPLICATE_NAME, f"variable {name!r} already declared")
        return Context(self._table, self.rows, self.binders + ((name, ty),))

    def lookup(self, name: str) -> Term | None:
        for n, ty in reversed(self.binders):
            if n == name:
                return ty
        table = self._table
        row = table.index.get(name)
        if row is not None and row < self.rows:
            return table.types[row]
        return None

    def records(self, owner: object) -> Records:
        """The records of `owner` (a kernel) under this view's table."""
        records = self._table.records.get(owner)
        if records is None:  # setdefault: two threads may miss at once
            records = self._table.records.setdefault(owner, Records())
        return records

    def mentions_binder(self, memo: Memo, *terms: Term) -> bool:
        """Whether terms mention a binder of this view, from the `free_names`
        kept in memo (the kernel hands it `Records.bounds`)."""
        if not self.binders:
            return False
        binders = dict(self.binders)
        for t in terms:
            if not free_names(t, memo).isdisjoint(binders):
                return True
        return False

    def __iter__(self):
        """Library API: `translate.translate_ctx` walks a context's entries."""
        return iter(self.entries)

    def __len__(self) -> int:
        """Read by `declare` below the tip, which no command reaches."""
        return self.rows + len(self.binders)

    def __repr__(self) -> str:
        """The debugging surface."""
        return ", ".join(f"{n}: {ty!r}" for n, ty in self.entries) or "<empty>"


class SigEntry(Frozen):
    """Typing of one fixed-arity symbol: telescope, result type, result sort.

    Telescope types may mention earlier telescope variables only; the result
    sort is the sort of the result type under the telescope.
    """

    __slots__ = __match_args__ = ("telescope", "result", "sort", "protected")

    def __init__(self, telescope: tuple[tuple[str, Term], ...], result: Term, sort: Sort, protected: bool = False):
        _entry_telescope(self, telescope)
        _entry_result(self, result)
        _entry_sort(self, sort)
        _entry_protected(self, protected)

    @property
    def arity(self) -> int:
        return len(self.telescope)


_entry_telescope, _entry_result, _entry_sort, _entry_protected = setters(SigEntry)


class Signature:
    """Finite mapping from symbol names to their typing entries.
    `protected` is the set of names of the protected entries, which the
    input gate reads on every call; `result_args` maps a name to the
    positions of the telescope variables its result type mentions, whose
    arguments decide the result."""

    def __init__(self, entries: dict[str, SigEntry]):
        self._entries = dict(entries)
        self.protected = frozenset(n for n, e in self._entries.items() if e.protected)
        self.result_args: dict[str, tuple[int, ...]] = {}
        memo = Memo()
        for name, entry in self._entries.items():
            mentioned = free_names(entry.result, memo)
            self.result_args[name] = tuple(i for i, (x, _) in enumerate(entry.telescope) if x in mentioned)

    def get(self, sym: str) -> SigEntry | None:
        return self._entries.get(sym)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self):
        return self._entries.items()
