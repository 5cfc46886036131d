"""Substitution, alpha-equivalence (`==`), free variables and contexts."""

from __future__ import annotations

import ast
import gc
import random
import sys
import threading
import time
from pathlib import Path

from genutil import (
    BASE_CTX,
    IOTA,
    EquivalenceWalker,
    TermGen,
    calls_made,
    positions,
    doubling_chain_source,
    lam,
    pi,
    ref_equal,
    ref_hash,
    ref_instantiate,
    ref_is_nondependent,
    ref_loose_bounds,
    ref_substitute_parallel,
    rehinted,
    substitute,
    replace_at,
)
import pytest
from hypothesis import given, settings, strategies as st
from pcert import terms
from pcert.cli import main
from pcert.diagnostics import DUPLICATE_NAME, CheckError
from pcert.lf import LF_SIGNATURE
from pcert.pcert import BETA_PROJ, KERNEL as PCERT_KERNEL, PCERT_SIGNATURE
from pcert.rewrite import normalize
from pcert.terms import (
    Abs,
    App,
    Bound,
    Context,
    Memo,
    Prod,
    Sort,
    SymApp,
    Term,
    Var,
    abstract_var,
    alpha_eq,
    free_names,
    ident,
    instantiate,
    loose_bounds,
    substitute_parallel,
)

PROP = Sort("Prop")
T = Var("T")


def test_substitute_variable_hit():
    assert substitute(Var("x"), ("x", PROP)) == PROP


def test_substitute_renames_on_capture():
    # \y: T. x  with  x := y  must not capture the free y
    body = lam("y", T, Var("x"))
    out = substitute(body, ("x", Var("y")))
    assert alpha_eq(out, Abs("fresh", T, Var("y")))
    # the binder no longer binds the substituted occurrence
    assert out != lam("y", T, Var("y"))


def test_substitute_leaves_bound_occurrences():
    redex = App(lam("x", T, Var("x")), Var("x"))
    out = substitute(redex, ("x", Var("m")))
    assert out == App(lam("x", T, Var("x")), Var("m"))


def test_substitute_fresh_variable_is_identity():
    gen = TermGen(11)
    for _ in range(60):
        t, _ = gen.some_term(4)
        assert alpha_eq(substitute(t, ("nowhere", PROP)), t)


def test_substitution_composition_law():
    # t{x:=u}{y:=v} == t{y:=v}{x:=u{y:=v}} when x not free in v and x != y
    gen = TermGen(12)
    rng = random.Random(3)
    for _ in range(60):
        ctx = BASE_CTX.extend("x", Var("iota")).extend("y", Var("iota"))
        t = gen.term_of(Var("iota"), 4, ctx)
        u = gen.term_of(Var("iota"), 3, BASE_CTX.extend("y", Var("iota")))
        v = gen.term_of(Var("iota"), 3, BASE_CTX)
        assert "x" not in free_names(v, Memo())
        left = substitute(substitute(t, ("x", u)), ("y", v))
        right = substitute(substitute(t, ("y", v)), ("x", substitute(u, ("y", v))))
        assert alpha_eq(left, right)


def test_alpha_eq_ignores_binder_names():
    assert alpha_eq(lam("x", PROP, Var("x")), lam("y", PROP, Var("y")))


def test_alpha_eq_compares_annotations():
    assert not alpha_eq(lam("x", PROP, Var("x")), lam("x", Sort("Type"), Var("x")))


def test_alpha_eq_is_syntactic_on_pair_proofs():
    base = (Var("t"), Var("p"), Var("m"))
    one = SymApp("pair", base + (Var("h"),))
    other = SymApp("pair", base + (Var("h2"),))
    assert not alpha_eq(one, other)
    assert alpha_eq(one, SymApp("pair", base + (Var("h"),)))


def test_alpha_eq_equivalence_and_congruence():
    gen = TermGen(13)
    for _ in range(40):
        t, _ = gen.some_term(4)
        s, _ = gen.some_term(4)
        assert alpha_eq(t, t)
        assert alpha_eq(t, s) == alpha_eq(s, t)
        # congruence: equal parts build equal wholes
        assert alpha_eq(App(t, s), App(t, s))
        assert alpha_eq(lam("w", t, s), lam("v", t, s))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_alpha_eq_answers_structural_equality_on_generated_pairs(seed):
    """`==` and `hash` against a tree walk over the compared fields."""
    gen = TermGen(seed)
    m, goal = gen.some_term(5)
    walker = EquivalenceWalker(random.Random(seed))
    found = [m]
    for _ in range(3):  # each step of an equational walk
        stepped = walker.step(BASE_CTX, found[-1])
        if stepped is None:
            break
        found.append(stepped)
    found += [gen.term_of(goal, 4), PCERT_KERNEL.infer(BASE_CTX, m)]
    # normal forms share subterms; rebuilt copies and renamed binders do not
    found += [normalize(BETA_PROJ, t) for t in found]
    found += [ref_substitute_parallel(t, {"#unused": PROP}) for t in found] + [rehinted(t) for t in found]
    found += [lam("w", IOTA, t) for t in found[:4]] + [lam("v", IOTA, t) for t in found[:4]]
    # near misses: one symbol or variable renamed, everything else shared
    for path, opened, _, sub in positions(BASE_CTX, m):
        if isinstance(sub, SymApp):
            found.append(replace_at(m, path, opened, SymApp(sub.sym + "'", sub.args)))
        elif isinstance(sub, Var):
            found.append(replace_at(m, path, opened, Var(sub.name + "'")))
    for a in found:
        assert hash(a) == ref_hash(a)
        for b in found:
            equal = ref_equal(a, b)
            assert (a == b) == equal and (a != b) != equal and alpha_eq(a, b) == equal


def _doubling(links: int, leaf: str = "a") -> Term:
    """g t t nested `links` deep over one object per level: 2^links leaves
    as a tree."""
    t = Var(leaf)
    for _ in range(links):
        t = App(App(Var("g"), t), t)
    return t


def test_alpha_eq_on_shared_terms_takes_work_linear_in_their_depth(monkeypatch):
    calls = [0]
    original = terms._equal

    def counted(a, b, proven):
        calls[0] += 1
        return original(a, b, proven)

    monkeypatch.setattr(terms, "_equal", counted)
    for links in (10, 20, 40):  # a tree walk would visit 2^40 leaves
        calls[0] = 0
        assert _doubling(links) == _doubling(links)
        assert _doubling(links) != _doubling(links, leaf="b")
        assert 0 < calls[0] <= 10 * links + 10


def test_equality_allocates_nothing_when_the_outermost_nodes_tell(monkeypatch):
    made = [0]

    def counted_set(*args):
        made[0] += 1
        return set(*args)

    monkeypatch.setattr(terms, "set", counted_set, raising=False)
    t = _doubling(3)
    assert t == t and not t != t
    assert t != Var("a") and Var("a") != t and t != PROP and t != "a"
    assert t != Abs("x", t, t) and Prod("x", t, t) != Abs("x", t, t)
    assert SymApp("s", (t,)) != SymApp("r", (t,)) and SymApp("s", (t,)) != SymApp("s", (t, t))
    assert App(t.fun, t.arg) == t and Abs("x", t, t) == Abs("y", t, t)  # children are one object each
    assert made[0] == 0
    assert _doubling(3) == t and made[0] == 1  # one set for the whole comparison


def test_free_vars():
    assert free_names(lam("x", T, Var("x")), Memo()) == {"T"}
    assert free_names(Var("x"), Memo()) == {"x"}
    assert free_names(PROP, Memo()) == set()
    assert free_names(pi("x", Var("A"), App(Var("x"), Var("y"))), Memo()) == {"A", "y"}


def test_context_rejects_duplicates():
    ctx = Context().extend("x", PROP)
    try:
        ctx.extend("x", PROP)
    except Exception as err:
        assert "x" in str(err)
    else:
        raise AssertionError("duplicate declaration accepted")


def test_declare_on_an_earlier_view_leaves_later_views_alone():
    base = Context().declare("a", PROP)
    later = base.declare("b", T)
    assert base.lookup("b") is None
    branch = base.declare("b", PROP)  # base is no longer the tip
    assert branch.lookup("b") == PROP and later.lookup("b") == T
    assert branch.entries == (("a", PROP), ("b", PROP))


class _YieldingList(list):
    """A row list whose length check hands the interpreter to another thread,
    widening the window between testing for the tip and appending to it."""

    def __len__(self) -> int:
        n = super().__len__()
        time.sleep(1e-4)
        return n


def test_declare_from_threads_racing_for_the_tip():
    workers, rounds = 4, 100
    bases = [Context().declare("a", PROP) for _ in range(rounds)]
    for base in bases:
        base._table.names = _YieldingList(base._table.names)
    got: list[list[Context | None]] = [[None] * rounds for _ in range(workers)]
    barrier = threading.Barrier(workers, timeout=30)

    def work(k: int) -> None:
        for r, base in enumerate(bases):
            barrier.wait()  # all workers declare on the same tip at once
            got[k][r] = base.declare(f"t{k}", Var(f"ty{k}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(workers):
        # each result holds the base and its own row, never another worker's
        assert all(c is not None and c.entries == (("a", PROP), (f"t{k}", Var(f"ty{k}"))) for c in got[k])


NAMES = "abcdefghij"
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("declare", "extend", "lookup")),
        st.integers(0, 1 << 16),  # which view to act on
        st.sampled_from(NAMES),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_context_views_agree_with_a_list_of_pairs(ops):
    """Differential test against the plain model: a context is a list of
    (name, type) pairs with distinct names, lookup finds the pair by name."""
    views = [(Context(), [])]
    for step, (op, pick, name) in enumerate(ops):
        ctx, model = views[pick % len(views)]
        ty = Var(f"ty{step}")  # a type per step, so lookup shows which entry it found
        if op == "lookup":
            assert ctx.lookup(name) == dict(model).get(name)
        else:
            clash = name in dict(model)
            try:
                grown = getattr(ctx, op)(name, ty)
            except CheckError as err:
                assert clash and err.diagnostic.kind == DUPLICATE_NAME
            else:
                assert not clash
                views.append((grown, model + [(name, ty)]))
        # every view, also one taken before later declarations, still
        # resolves exactly its own entries
        for view, entries in views:
            assert view.entries == tuple(entries)
            assert list(view) == entries
            assert len(view) == len(entries)
            for n in NAMES:
                assert view.lookup(n) == dict(entries).get(n)


# --- substitution keeps sharing ----------------------------------------------

CLOSED = SymApp("pair", (T, Var("p"), Abs("y", T, App(Var("f"), Bound(0))), Var("h")))


def test_instantiate_returns_unchanged_nodes_themselves():
    assert instantiate(CLOSED, PROP) is CLOSED
    body = App(App(CLOSED, Bound(0)), Prod("z", CLOSED, Bound(1)))
    out = instantiate(body, Var("v"))
    assert out == App(App(CLOSED, Var("v")), Prod("z", CLOSED, Var("v")))
    assert out.fun.fun is CLOSED and out.arg.dom is CLOSED
    # a binder whose body mentions only its own variable is left as it is
    inner = Abs("w", T, Bound(0))
    assert instantiate(App(inner, Bound(0)), PROP).fun is inner
    # indices past the instantiated one still move down by one
    assert instantiate(App(Bound(0), Abs("w", Bound(2), Bound(1))), PROP) == App(PROP, Abs("w", Bound(1), PROP))


@st.composite
def shared_terms(draw) -> Term:
    """A term built bottom-up from a pool, so that subterms recur as one
    object; leaves include loose `Bound` indices."""
    pool: list[Term] = [Bound(0), Bound(1), Bound(2), Var("a"), Var("f"), PROP]
    for _ in range(draw(st.integers(1, 14))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from(("app", "abs", "prod", "sym")))
        if kind == "app":
            node = App(draw(pick), draw(pick))
        elif kind == "abs":
            node = Abs("x", draw(pick), draw(pick))
        elif kind == "prod":
            node = Prod("y", draw(pick), draw(pick))
        else:
            node = SymApp("pair", tuple(draw(pick) for _ in range(draw(st.integers(0, 3)))))
        pool.append(node)
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(shared_terms(), st.integers(0, 2), st.sampled_from((Var("v"), App(Var("f"), Var("a")), PROP)))
def test_instantiate_and_is_nondependent_agree_with_tree_walks(body, depth, value):
    # `instantiate` is `_instantiate` at depth 0; deeper, as under binders
    out = terms._instantiate(body, value, depth, None)
    expected = ref_instantiate(body, value, depth)
    assert out == expected and repr(out) == repr(expected)
    mask = loose_bounds(body, Memo())
    assert mask == ref_loose_bounds(body)
    assert (not mask & 1) == ref_is_nondependent(body)  # bit 0: the binder's index
    # an unchanged subterm stays the very object wherever it occurs, and a
    # changed one is rebuilt at each occurrence, as a tree walk rebuilds it
    unchanged = terms._instantiate(body, value, depth, None) is body
    out = terms._instantiate(App(body, body), value, depth, None)
    assert (out.fun is body) == (out.fun is out.arg) == unchanged


def _children_at(t: Term, depth: int) -> list[tuple[Term, int]]:
    """t's children, each with the binder depth it is met at."""
    if type(t) is App:
        return [(t.fun, depth), (t.arg, depth)]
    if type(t) in (Abs, Prod):
        return [(t.dom, depth), (t.body, depth + 1)]
    if type(t) is SymApp:
        return [(a, depth) for a in t.args]
    return []


def assert_masks_change_nothing(body: Term, value: Term, depth: int) -> None:
    """`instantiate` handed the `loose_bounds` masks of body's nodes gives
    what it gives without them, and hands back the very object at every
    node whose mask has no index at or above the depth the node is met at."""
    masks = Memo()
    loose_bounds(body, masks)
    plain = terms._instantiate(body, value, depth, None)
    masked = terms._instantiate(body, value, depth, None, masks)
    assert masked == plain and repr(masked) == repr(plain)
    if depth == 0:
        assert terms.instantiate(body, value, masks) == plain
    todo = [(body, masked, depth)]  # a node of body, the node at its place in masked
    while todo:
        node, out, at = todo.pop()
        if type(node) in (Var, Sort, Bound):
            continue
        if not loose_bounds(node, masks) >> at:
            assert out is node
            continue
        todo += [(n, o, d) for (n, d), (o, _) in zip(_children_at(node, at), _children_at(out, at))]


@settings(max_examples=300, deadline=None)
@given(shared_terms(), st.integers(0, 2), st.sampled_from((Var("v"), App(Var("f"), Var("a")), PROP)))
def test_instantiate_with_masks_agrees_with_instantiate_without(body, depth, value):
    assert_masks_change_nothing(body, value, depth)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_instantiate_with_masks_agrees_on_the_binder_bodies_of_generated_terms(seed):
    gen = TermGen(seed)
    bodies = []
    for _ in range(4):
        todo = [gen.some_term(5)[0]]
        while todo:
            t = todo.pop()
            if type(t) in (Abs, Prod):
                bodies.append(t.body)
            todo += [child for child, _ in _children_at(t, 0)]
    for body in bodies:
        for depth in (0, 1):
            assert_masks_change_nothing(body, Var("v"), depth)


# --- the kernel's telescope matcher ----------------------------------------------


def _telescope_types() -> list[tuple[Term, tuple[str, ...]]]:
    """Each telescope type and result type of both signatures, with the
    telescope variables it may mention."""
    out = []
    for signature in (PCERT_SIGNATURE, LF_SIGNATURE):
        for _, entry in signature.items():
            names = tuple(x for x, _ in entry.telescope)
            out += [(ty, names[:i]) for i, (_, ty) in enumerate(entry.telescope)]
            out.append((entry.result, names))
    return out


TELESCOPE_TYPES = _telescope_types()


def near_misses(t: Term):
    """Terms one edit away from t: one more `El` around it or around a
    subterm, a symbol or variable renamed, arguments swapped, a binder of
    the other kind, another sort or index."""
    yield SymApp("El", (t,))
    cls = type(t)
    if cls is SymApp:
        yield SymApp(t.sym + "'", t.args)
        if len(t.args) > 1:
            yield SymApp(t.sym, t.args[1:] + t.args[:1])
        for i, a in enumerate(t.args):
            yield from (SymApp(t.sym, t.args[:i] + (e,) + t.args[i + 1 :]) for e in near_misses(a))
    elif cls is App:
        yield App(t.arg, t.fun)
        yield from (App(e, t.arg) for e in near_misses(t.fun))
        yield from (App(t.fun, e) for e in near_misses(t.arg))
    elif cls is Abs or cls is Prod:
        yield (Prod if cls is Abs else Abs)(t.hint, t.dom, t.body)
        yield from (cls(t.hint, e, t.body) for e in near_misses(t.dom))
        yield from (cls(t.hint, t.dom, e) for e in near_misses(t.body))
    elif cls is Var:
        yield Var(t.name + "'")
    elif cls is Sort:
        yield Sort("Type" if t.tag == "Prop" else "Prop")
    else:
        yield Bound(t.index + 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TELESCOPE_TYPES), st.integers(0, 2**32 - 1), st.data())
def test_substituted_equals_is_substitute_then_compare(typed, seed, data):
    ty, names = typed
    gen = TermGen(seed)
    # a small pool, so one value may stand for several telescope variables
    pool = [gen.some_term(3)[0], gen.some_term(2)[0], IOTA, PROP]
    binding = {x: data.draw(st.sampled_from(pool)) for x in names}
    exact = substitute_parallel(ty, binding)
    rotated = {x: pool[(pool.index(v) + 1) % len(pool)] for x, v in binding.items()}
    candidates = [exact, ref_substitute_parallel(ty, binding), rehinted(exact), substitute_parallel(ty, rotated)]
    other = data.draw(st.sampled_from(candidates + list(near_misses(exact))))
    found = terms.substituted_equals(ty, binding, other)
    assert found == (substitute_parallel(ty, binding) == other)
    assert found == ref_equal(ref_substitute_parallel(ty, binding), other)


def _binder_over_doubling_calls(command: str, links: int, tmp_path) -> int:
    """Python calls made while `command` runs on a binder whose annotation
    holds the expanded doubling definition d<links>, after a first run of
    the same file has made every call that only a first run makes."""
    src = tmp_path / f"d{links}.pcert"
    src.write_text(doubling_chain_source(links) + "symbol P : iota -> Prop;\n"
                   f"assert (\\h: P d{links}. h) : P d{links} -> P d{links};\n")
    argv = [command, str(src), *(["-o", str(tmp_path / "out")] if command == "export" else []), "--fuel", "0"]
    assert main(argv) == 0
    return calls_made(lambda: main(argv))


@pytest.mark.parametrize("command", ["check", "export"])
def test_a_binder_over_an_expanded_definition_costs_linear_work(command, tmp_path, capsys):
    # a tree walk of the body by `instantiate` and `is_nondependent` costs
    # 4x per two links: 4 142/16 438/65 598 calls of the two for check
    counts = [_binder_over_doubling_calls(command, links, tmp_path) for links in (10, 12, 14)]
    assert counts[2] - counts[1] == counts[1] - counts[0], counts


def test_abstract_var_returns_unchanged_nodes_themselves():
    assert abstract_var(CLOSED, "x") is CLOSED
    out = abstract_var(SymApp("g", (CLOSED, Var("x"))), "x")
    assert out == SymApp("g", (CLOSED, Bound(0)))
    assert out.args[0] is CLOSED


def test_substitute_parallel_returns_unchanged_nodes_themselves():
    assert substitute_parallel(CLOSED, {"x": PROP}) is CLOSED
    out = substitute_parallel(Abs("y", CLOSED, App(Var("x"), CLOSED)), {"x": PROP})
    assert out == Abs("y", CLOSED, App(PROP, CLOSED))
    assert out.annot is CLOSED and out.body.arg is CLOSED
    value = App(Var("f"), Var("a"))
    shared = substitute_parallel(App(Var("x"), Var("x")), {"x": value})
    assert shared.fun is value and shared.arg is value


# --- identity memos ---------------------------------------------------------


class _Forgetful(Memo):
    """A memo that does not hold its nodes: the control of the test below."""

    def put(self, key, value, *nodes):
        self[key] = value
        return value


def dead_id_taken(memo: Memo) -> bool:
    """Store entries for nodes that then die, then build fresh nodes until
    one takes the id of a dead one. The fresh nodes stay alive, so each
    takes a block of its own; the allocator hands out the freed blocks
    after some thousands of them (about 21 000 on CPython 3.11 when the
    whole suite runs first)."""
    leaf = Var("x")  # shared, so that only the nodes come and go
    nodes = [App(leaf, leaf) for _ in range(200)]
    for node in nodes:
        memo.put(ident(node), True, node)
    del nodes, node
    gc.collect()
    fresh = []
    for _ in range(100_000):
        fresh.append(App(leaf, leaf))
        if ident(fresh[-1]) in memo:
            return True
    return False


def ref_repr(t: Term) -> str:
    """`repr` as each composite node wrote it, by recursion."""
    match t:
        case App(f, a):
            return f"({ref_repr(f)} {ref_repr(a)})"
        case Abs(hint, annot, body):
            return f"(\\{hint}: {ref_repr(annot)}. {ref_repr(body)})"
        case Prod(hint, dom, cod):
            return f"(!{hint}: {ref_repr(dom)}. {ref_repr(cod)})"
        case SymApp(sym, args) if args:
            return f"{sym}({', '.join(map(ref_repr, args))})"
        case SymApp(sym, _):
            return sym
    return repr(t)  # a leaf


@settings(max_examples=200, deadline=None)
@given(shared_terms(), st.integers(0, 60))
def test_a_term_is_shown_as_its_tree_and_cut_after_the_limit(t, limit):
    text = ref_repr(t)
    assert repr(t) == terms.shown(t, None) == text
    assert terms.shown(t, limit) == (text if len(text) <= limit else text[:limit] + "…")


def test_a_memo_holds_the_nodes_its_keys_were_made_from():
    assert dead_id_taken(_Forgetful())  # without holding, ids come back
    assert not dead_id_taken(Memo())


# Where a node's identity may be read: `terms`, which owns `Memo` and
# `ident`, and the parser's interning methods, whose table values keep the
# children whose ids their keys hold alive.
_ID_ALLOWED = {"syntax.py": {"_Parser.app", "_Parser.binder", "_Parser.sym"}}


def test_only_terms_and_the_parser_table_read_node_identities():
    found = []
    for path in sorted(Path(terms.__file__).parent.glob("*.py")):
        if path.name == "terms.py":
            continue
        allowed = _ID_ALLOWED.get(path.name, set())

        def visit(node: ast.AST, scope: str) -> None:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Name) and node.id == "id" and scope not in allowed:
                found.append(f"{path.name}:{node.lineno} in {scope or 'module'}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert not found, "key caches with terms.Memo and terms.ident: " + ", ".join(found)
