"""Inference replays a repeated subterm from the file's memo at the fuel a redo
would spend, and shared terms are walked once per distinct subterm.

The reference is `genutil.ref_infer`, inference as it was before the memo:
every occurrence is inferred again, and a conversion proven earlier in the
file is free. Checking a file through either must give the same verdict,
the same diagnostic, the same partial term and the same fuel left, at every
budget. The every-budget harness (`outcome`, `fuel_needed`,
`assert_same_at_every_budget`, `CHAINS`) takes the reference as an
argument, so `test_conversion_replay` runs it with `reference_conversion`.
"""

from __future__ import annotations

import contextlib
import itertools

import pytest
from genutil import (
    BASE_CTX,
    BASE_SURFACE,
    GOAL_POOL,
    TermGen,
    canonical_fresh_names,
    doubling_chain_source,
    ref_instantiate,
    ref_is_nondependent,
    reference_inference,
)
from hypothesis import HealthCheck, given, settings, strategies as st
from pcert import check_file, checker, cli, inverse, kernel, parse_file, terms, translate
from pcert.diagnostics import UNBOUND_VARIABLE, CheckError, FuelError
from pcert.kernel import Kernel
from pcert.lf import KERNEL as LF_KERNEL
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import Fuel
from pcert.syntax import ParsedFile, print_file, print_term
from pcert.terms import TYPE_, Abs, App, Bound, Context, Prod, SymApp, Term, Var, alpha_eq
from test_cli import shared_chain_source

# Conversions under a binder that spend steps and mention the binder: a
# replay of `h` must charge them, because a redo opens a fresh variable and
# so finds no proven pair to reuse. `h` is then used again and again.
BINDER_DEFS = """symbol hP : !x: iota. P x;
definition h := \\x: iota. pair(iota, P, x, (\\q: P ((\\y: iota. y) x). q) (hP x));
definition hh := \\z: iota. fst(iota, P, h z);
assert g (hh a) (fst(iota, P, h a)) : iota;
assert snd(iota, P, h b) : P b;
definition twice := g (hh a) (hh (f b));
"""


def outcome(parsed: ParsedFile, budget: int, reference=None) -> tuple:
    """Verdict, diagnostic, partial term and fuel left of checking parsed on
    one budget shared by every declaration, inside `reference()`, a context
    manager such as `reference_inference` or `reference_conversion`, when
    one is given."""
    fuel = Fuel(budget)
    try:
        with reference() if reference else contextlib.nullcontext():
            check_file(parsed, fuel)
    except CheckError as err:
        subject = err.diagnostic.subject  # a term, or None
        partial = None if subject is None else canonical_fresh_names(subject)
        return err.kind, str(err.diagnostic), partial, fuel.remaining
    return "ok", "", None, fuel.remaining


def fuel_needed(parsed: ParsedFile, reference) -> int:
    fuel = Fuel(None)
    with reference():
        check_file(parsed, fuel)
    return fuel.spent


def translated(text: str) -> str:
    checked = check_file(parse_file(text, "src.pcert"), 0)
    return print_file(ParsedFile("lf", tuple(cli._translate_decls(checked)), "src.pcert"))


def assert_same_at_every_budget(text: str, name: str, reference) -> None:
    """Checking text has the outcome it has inside `reference()` at every
    budget, up to one past the fuel the reference needs."""
    parsed = parse_file(text, name)
    for budget in range(fuel_needed(parsed, reference) + 2):
        assert outcome(parsed, budget) == outcome(parsed, budget, reference), (name, budget)


CHAINS = [("uv", n, "#MODE pcert\n" + shared_chain_source(n)) for n in range(1, 6)]
CHAINS += [("doubling", n, doubling_chain_source(n)) for n in (1, 3, 6)]


@pytest.mark.parametrize(("family", "links", "text"), CHAINS, ids=[f"{f}{n}" for f, n, _ in CHAINS])
def test_replay_spends_the_fuel_of_inferring_again_at_every_budget(family, links, text):
    assert_same_at_every_budget(text, f"{family}{links}.pcert", reference_inference)
    assert_same_at_every_budget(translated(text), f"{family}{links}.lf", reference_inference)


def test_the_binder_conversions_spend_fuel_and_are_replayed():
    text = BASE_SURFACE + BINDER_DEFS
    parsed = parse_file(text, "binders.pcert")
    assert fuel_needed(parsed, reference_inference) > 0
    assert_same_at_every_budget(text, "binders.pcert", reference_inference)
    assert_same_at_every_budget(translated(text), "binders.lf", reference_inference)


def wide_lf_source(n: int) -> str:
    """The shape of `translate`'s output on a wide context: one function
    symbol of type `El(arrd(...))` applied to many constants, and `Prf(P cN)`
    asserted for many `cN`. Each use of `g` or `P` needs the head normal form
    of its type, which the kernel reduces once and then replays."""
    lines = [
        "#MODE lf",
        "symbol T : Type;",
        "symbol P : El(arrd(T, \\_: El(T). prop));",
        "symbol g : El(arrd(T, \\_: El(T). arrd(T, \\_': El(T). T)));",
    ]
    lines += [f"symbol c{i} : El(T);" for i in range(n)]
    lines += [f"symbol h{i} : Prf(P c{i});" for i in range(n)]
    lines += [f"assert g c{i} c{(i + 1) % n} : El(T);" for i in range(n)]
    lines += [f"assert h{i} : Prf(P c{i});" for i in range(n)]
    lines += [f"symbol k{i} : Prf(P (g c{i} c0));" for i in range(n)]
    return "\n".join(lines) + "\n"


def test_function_types_replay_their_head_normal_forms_at_every_budget(monkeypatch):
    # some budget must run out inside a head normal form that the memo
    # holds, where the replay cannot be charged and reduces again for real
    replayable_when_out = []
    head = kernel.whnf_replayed

    def spied(rules, t, fuel, heads):
        try:
            return head(rules, t, fuel, heads)
        except FuelError:
            replayable_when_out.append(terms.ident(t) in heads)
            raise

    monkeypatch.setattr(kernel, "whnf_replayed", spied)
    assert_same_at_every_budget(wide_lf_source(6), "wide.lf", reference_inference)
    assert True in replayable_when_out


def termgen_development(seed: int, count: int) -> str:
    """Definitions generated over the base context and the earlier
    definitions, so that later bodies expand earlier ones."""
    gen = TermGen(seed)
    ctx = BASE_CTX
    lines = []
    for i in range(count):
        goal = gen.rng.choice(GOAL_POOL)
        body = gen.term_of(goal, 4, ctx)
        lines.append(f"definition d{i} := {print_term(body)};")
        ctx = ctx.declare(f"d{i}", goal)
    return BASE_SURFACE + BINDER_DEFS + "\n".join(lines) + "\n"


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), count=st.integers(2, 6))
def test_replay_matches_the_reference_on_generated_developments(seed, count):
    text = termgen_development(seed, count)
    for source in (text, translated(text)):
        parsed = parse_file(source, "gen")
        needed = fuel_needed(parsed, reference_inference)
        budgets = sorted({0, 1, needed // 3, needed // 2, needed - 1, needed, needed + 1} - {-1})
        for budget in budgets:
            assert outcome(parsed, budget) == outcome(parsed, budget, reference_inference), (seed, count, budget)


# --- the identity answers against their misses -------------------------------------
# Four answers skip work by object identity: the inference rules' proven
# argument conversions (`Records.proven_args`), the symbol rule's result types
# (`Records.results`), `instantiate`'s unwalked subterms, and the
# translation's shared `El`/`Prf` wrappers. Forced to miss, every one of them
# must leave the check as it was.


class _Forgetful(dict):
    """A `Records.proven_args` or `Records.results` that keeps nothing, so
    every argument conversion but of one object to itself goes through
    `convert` again, and every result type is substituted again."""

    __slots__ = ()

    def __contains__(self, key) -> bool:
        return False

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value) -> None:
        pass


class _RecordsThatMiss(terms.Records):
    __slots__ = ()

    def __init__(self):
        super().__init__()
        self.proven_args, self.results = _Forgetful(), _Forgetful()


class _NoWrappers(terms.Memo):
    """A translation memo that never finds a wrapper it filed: the
    wrappers' keys are its only negative ints (`~ident`)."""

    __slots__ = ()

    def get(self, key, default=None):
        return default if type(key) is int and key < 0 else dict.get(self, key, default)


def _walked(body: Term, value: Term, depth: int) -> Term:
    """`terms._instantiate` without its masks: the tree walk
    `ref_instantiate`, then each subterm of the result that equals the one
    of body at its place handed back as that very object, as a walk that
    compares what it rebuilt would hand it back."""
    return _kept(ref_instantiate(body, value, depth), body)


def _kept(out: Term, body: Term) -> Term:
    if out == body:
        return body
    cls = type(body)
    if cls is App:
        return App(_kept(out.fun, body.fun), _kept(out.arg, body.arg))
    if cls is Abs or cls is Prod:
        return cls(out.hint, _kept(out.dom, body.dom), _kept(out.body, body.body))
    if cls is SymApp:
        return SymApp(out.sym, tuple(map(_kept, out.args, body.args)))
    return out  # a `Bound` replaced or lowered


@contextlib.contextmanager
def identity_answers(hit: bool):
    """Inside the block, with hit False, each identity answer misses."""
    with pytest.MonkeyPatch.context() as patch:
        if not hit:
            patch.setattr(terms, "Records", _RecordsThatMiss)
            patch.setattr(terms, "_instantiate", _walked)
            patch.setattr(cli, "Memo", _NoWrappers)
        yield


def per_declaration_outcome(parsed: ParsedFile, budget: int) -> tuple:
    """Verdict, diagnostic text, each declaration's fuel spent and left,
    and the fresh names drawn, of checking parsed with `budget` steps per
    declaration."""
    made = []

    class Recorded(Fuel):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checker, "Fuel", Recorded)
        patch.setattr(terms, "_fresh_counter", itertools.count(1))
        try:
            check_file(parsed, budget)
            verdict = "ok", ""
        except CheckError as err:
            verdict = err.kind, str(err.diagnostic)
        return verdict, [(f.spent, f.remaining) for f in made], next(terms._fresh_counter)


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_the_identity_answers_change_no_outcome_at_any_budget(seed):
    text = termgen_development(seed, 5)
    checked = check_file(parse_file(text, "gen.pcert"), 0)
    sources = {}
    for hit in (True, False):
        with identity_answers(hit):
            decls = tuple(cli._translate_decls(checked))
        lf = ParsedFile("lf", decls, "gen.lf")
        sources[hit] = [parse_file(text, "gen.pcert"), lf, parse_file(print_file(lf), "gen.lf")]
    assert print_file(sources[True][1]) == print_file(sources[False][1])
    for with_hits, with_misses in zip(sources[True], sources[False]):
        passed = False
        budget = 1
        while not passed:
            with identity_answers(True):
                hits = per_declaration_outcome(with_hits, budget)
            with identity_answers(False):
                misses = per_declaration_outcome(with_misses, budget)
            assert hits == misses, (seed, budget)
            passed = hits[0][0] == "ok"
            budget += 1


def test_an_argument_conversion_is_reused_only_for_the_same_earlier_arguments():
    # `P` is a predicate on T; passed to psub over T its conversion is
    # proven and filed, and passed over U it must be tried again, and fail
    text = """#MODE lf
symbol T : Type;
symbol U : Type;
symbol P : El(arrd(T, \\_: El(T). prop));
definition s := psub(T, P);
definition s2 := psub(U, P);
"""
    with pytest.raises(CheckError) as err:
        check_file(parse_file(text, "p.lf"))
    assert err.value.kind == "DomainMismatch"
    assert "argument P of 'psub'" in str(err.value.diagnostic)


def test_an_application_conversion_is_reused_only_for_the_same_domain():
    # `c` fits the domain `f`'s type reduces to, a proven conversion filed
    # under `c`'s type and that domain; `k`'s domain is another type, so
    # `k c` must fail
    text = """#MODE lf
symbol T : Type;
symbol U : Type;
symbol c : El(T);
symbol f : El(arrd(T, \\_: El(T). T));
symbol k : El(arrd(U, \\_: El(U). U));
definition x := f c;
definition y := k c;
"""
    with pytest.raises(CheckError) as err:
        check_file(parse_file(text, "a.lf"))
    assert err.value.kind == "DomainMismatch"
    assert "does not match domain El(U)" in str(err.value.diagnostic)


def test_a_result_type_is_shared_only_for_the_same_arguments_it_mentions():
    # `pair`'s result `El(psub(t, p))` mentions its first two arguments: the
    # pair over `Q`, met first, must not lend its type to the pair over `P`
    text = """#MODE lf
symbol T : Type;
symbol P : El(arrd(T, \\_: El(T). prop));
symbol Q : El(arrd(T, \\_: El(T). prop));
symbol c : El(T);
symbol hp : Prf(P c);
symbol hq : Prf(Q c);
definition q := pair(T, Q, c, hq);
definition bad := fst(T, Q, pair(T, P, c, hp));
"""
    with pytest.raises(CheckError) as err:
        check_file(parse_file(text, "r.lf"))
    assert err.value.kind == "DomainMismatch"
    assert "argument pair(T, P, c, hp) of 'fst'" in str(err.value.diagnostic)


def test_a_replay_under_an_earlier_view_still_raises_unbound_variable():
    early = Context().declare("iota", TYPE_)
    full = early.declare("a", Var("iota"))
    term = App(Abs("x", Var("iota"), Bound(0)), Var("a"))
    assert PCERT_KERNEL.infer(full, term) == Var("iota")
    with pytest.raises(CheckError) as err:
        PCERT_KERNEL.infer(early, term)
    assert err.value.kind == UNBOUND_VARIABLE


def test_binders_named_by_the_caller_are_never_replayed():
    # the caller may bind one name to different types in two views of one
    # table, so inference under a context holding binders files no entry
    root = Context().declare("iota", TYPE_).declare("Q", terms.PROP)
    term = SymApp("psub", (Var("y"), Abs("z", Var("y"), Var("Q"))))
    assert PCERT_KERNEL.infer(root.extend("y", TYPE_), term) == TYPE_
    with pytest.raises(CheckError):
        PCERT_KERNEL.infer(root.extend("y", Var("iota")), term)


# Inference files an entry only under no binder, so no key mentions a fresh
# name; an entry under an opened binder could never be replayed.
FILED = [(f"termgen{seed}", termgen_development(seed, 6)) for seed in (1, 7, 42)]
FILED += [(f"uv{n}", "#MODE pcert\n" + shared_chain_source(n)) for n in (1, 4)]
FILED += [(f"doubling{n}", doubling_chain_source(n)) for n in (1, 6)]


@pytest.mark.parametrize(("name", "text"), FILED, ids=[name for name, _ in FILED])
def test_no_inference_entry_is_keyed_by_a_fresh_name(name, text):
    for source, owner in ((text, PCERT_KERNEL), (translated(text), LF_KERNEL)):
        memo = check_file(parse_file(source, name), 0).context.records(owner).inferred
        keys = [t for t in memo._held if terms.ident(t) in memo]
        assert keys, name
        assert not [t for t in keys if any("#" in v for v in terms.free_names(t, terms.Memo()))], name


@pytest.mark.parametrize("mode", ["pcert", "lf"])
def test_a_body_that_ignores_its_binder_is_typed_in_the_outer_context(mode):
    # strengthening: `g zzz` does not mention x, so it is inferred, and fails,
    # under the declarations alone
    text = {
        "pcert": "symbol T : Type;\nsymbol g : T -> T;\ndefinition d := \\x: T. g zzz;\n",
        "lf": "#MODE lf\nsymbol T : Type;\nsymbol g : El(T) -> El(T);\ndefinition d := \\x: El(T). g zzz;\n",
    }[mode]
    with pytest.raises(CheckError) as err:
        check_file(parse_file(text, f"d.{mode}"))
    assert err.value.kind == UNBOUND_VARIABLE
    assert err.value.diagnostic.context.binders == ()
    assert [n for n, _ in err.value.diagnostic.context] == ["T", "g"]


# Constant abstractions and non-dependent arrows, and one abstraction whose
# body uses its binder (`i`'s x); `bad` fails inside two binders, the outer
# one unused, with a diagnostic that prints a fresh name.
UNUSED_BINDERS = {
    "pcert": """symbol T : Type;
symbol U : Type;
symbol c : T;
symbol P : T -> Prop;
definition k := \\z: T. c;
symbol h : T -> U -> T;
definition i := \\x: T. \\y: U. x;
assert \\w: T. P c : T -> Prop;
""",
    "lf": """#MODE lf
symbol T : Type;
symbol U : Type;
symbol c : El(T);
symbol P : El(T) -> Prop;
definition k := \\z: El(T). c;
symbol h : El(T) -> El(U) -> El(T);
definition i := \\x: El(T). \\y: El(U). x;
assert \\w: El(T). P c : El(T) -> Prop;
""",
}
BAD_UNDER_TWO_BINDERS = {
    "pcert": "definition bad := \\x: T. \\y: U. fst(T, P, y);\n",
    "lf": "definition bad := \\x: El(T). \\y: El(U). fst(T, P, y);\n",
}
BAD_LINE = {
    "pcert": "bad.pcert:9:1: DomainMismatch: argument y#10 of 'fst' has type U, expected psub(T, P)\n",
    "lf": "bad.lf:10:1: DomainMismatch: argument y#10 of 'fst' has type El(U), expected El(psub(T, P))\n",
}


@pytest.mark.parametrize("mode", ["pcert", "lf"])
def test_a_binder_its_body_ignores_is_neither_opened_nor_closed(mode, monkeypatch, tmp_path, capsys):
    opened, closed = [], []
    open_term, abstract_var = kernel.open_term, kernel.abstract_var

    def spy_open(hint, body):
        assert not ref_is_nondependent(body), (hint, body)
        v, out = open_term(hint, body)
        opened.append(v.name)
        return v, out

    def spy_close(t, name):
        closed.append(name)
        return abstract_var(t, name)

    monkeypatch.setattr(kernel, "open_term", spy_open)
    monkeypatch.setattr(kernel, "abstract_var", spy_close)
    monkeypatch.setattr(terms, "_fresh_counter", itertools.count(1))
    check_file(parse_file(UNUSED_BINDERS[mode], f"ok.{mode}"))
    assert [name.split("#")[0] for name in opened] == ["x"]
    assert closed == opened  # only a binder that was opened is closed
    # every binder still draws its name, as one that opens its body does
    assert next(terms._fresh_counter) == 9
    path = tmp_path / f"bad.{mode}"
    path.write_text(UNUSED_BINDERS[mode] + BAD_UNDER_TWO_BINDERS[mode])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(terms, "_fresh_counter", itertools.count(1))
    assert cli.main(["check", path.name]) == cli.EXIT_TYPE_ERROR
    assert capsys.readouterr().err == BAD_LINE[mode]


# --- scaling guards: count the work, do not time it --------------------------------


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def counting_memo(calls: list[int]) -> type[terms.Memo]:
    """A `Memo` that adds one to calls[0] per `put`. A memoized walk files
    one entry through `put` per miss, so the puts of the walk's own memo
    count the nodes it works out anew, and none of its hits."""

    class Counted(terms.Memo):
        __slots__ = ()

        def put(self, key, value, *nodes):
            calls[0] += 1
            return terms.Memo.put(self, key, value, *nodes)

    return Counted


def count_puts(monkeypatch, owner) -> list[int]:
    """Count the `put`s of every memo that the module `owner` makes as
    `Memo()` from now on (see `counting_memo`)."""
    calls = [0]
    monkeypatch.setattr(owner, "Memo", counting_memo(calls))
    return calls


def infer_calls(calls: list[int], sources) -> list[int]:
    out = []
    for text in sources:
        calls[0] = 0
        check_file(parse_file(text), 0)
        out.append(calls[0])
    return out


def test_inference_is_linear_in_the_links_of_shared_chains(monkeypatch):
    calls = count_calls(monkeypatch, Kernel, "_infer")
    doubling = infer_calls(calls, [doubling_chain_source(n) for n in (5, 10, 15)])
    assert doubling[2] - doubling[1] == doubling[1] - doubling[0]
    uv = infer_calls(calls, ["#MODE pcert\n" + shared_chain_source(n) for n in (8, 12, 16)])
    assert uv[2] - uv[1] == uv[1] - uv[0]


def lambda_source(depth: int, dependent: bool) -> str:
    head = "symbol iota : Type;\nsymbol a : iota;\nsymbol P : iota -> Prop;\nsymbol hP : !x: iota. P x;\n"
    binders = "".join(f"\\x{i}: iota. " for i in range(depth))
    return f"{head}definition d := {binders}{'hP x0' if dependent else 'a'};\n"


@pytest.mark.parametrize("dependent", [False, True])
def test_inference_work_is_at_most_quadratic_in_lambda_depth(monkeypatch, dependent):
    infers = count_calls(monkeypatch, Kernel, "_infer")
    instantiations = count_calls(monkeypatch, terms, "instantiate")
    work = []
    for depth in (40, 80):
        instantiations[0] = 0
        work.append((infer_calls(infers, [lambda_source(depth, dependent)])[0], instantiations[0]))
    assert work[1][0] <= 4 * work[0][0]
    assert work[1][1] <= 4.5 * work[0][1]  # cubic growth would give 8


def test_translation_and_inversion_are_linear_on_doubling_chains(monkeypatch):
    translations = count_calls(monkeypatch, translate, "_term")
    inversions = count_calls(monkeypatch, inverse, "_term")
    counts = []
    for links in (10, 20, 30):
        checked = check_file(parse_file(doubling_chain_source(links)), 0)
        body = checked.decls[-1].decl.body  # 2^links leaves, links + 1 distinct subterms
        translations[0] = inversions[0] = 0
        assert alpha_eq(inverse.inverse_term(translate.translate_term(checked.context, body)), body)
        counts.append((translations[0], inversions[0]))
    for i in (0, 1):
        assert counts[2][i] - counts[1][i] == counts[1][i] - counts[0][i]


def wide_under_lambdas(depth: int, width: int) -> Term:
    """`\\x: iota. g w (g x (\\x: iota. g w (g x (... x))))`, depth
    binders deep, where w is one closed term of width distinct nodes."""
    w: Term = Var("a")
    for _ in range(width):
        w = App(Var("f"), w)
    body: Term = Bound(0)
    for _ in range(depth):
        body = Abs("x", Var("iota"), App(App(Var("g"), w), App(App(Var("g"), Bound(0)), body)))
    return body


def test_a_closed_subterm_is_translated_once_at_any_binder_depth(monkeypatch):
    translations = count_puts(monkeypatch, translate)  # translate_term's own memo
    counts = []
    for depth, width in ((20, 20), (40, 40)):
        translations[0] = 0
        translate.translate_term(BASE_CTX, wide_under_lambdas(depth, width))
        counts.append(translations[0])
    # linear in depth + width; a memo keyed by every enclosing binder's
    # sort translates w once per depth, and would give 4x
    assert counts[1] <= 2 * counts[0] + 2


def test_a_shared_open_subterm_is_translated_by_the_sort_of_its_binder():
    # one object under binders of different sorts: its product is arrd
    # over a type and impd over a proposition
    shared = terms.Prod("_", Bound(0), Bound(1))
    term = App(Abs("A", TYPE_, shared), Abs("A", terms.PROP, shared))
    out = translate.translate_term(BASE_CTX, term)
    assert (out.fun.body.sym, out.arg.body.sym) == ("arrd", "impd")
