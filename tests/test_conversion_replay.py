"""Conversion replays a repeated sub-comparison from the file's memo at the
fuel a redo would spend, terms keep their hashes, and the input boundary
walks each distinct node once.

The reference is `genutil.reference_conversion`: `check_file` with a fresh
sub-comparison memo per conversion, as before the memo lived for the file.
Checking a file through either must give the same verdict, the same
diagnostic, the same partial term and the same fuel left, at every budget.
Work is counted, never timed.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from genutil import (
    BASE_CTX,
    BASE_SURFACE,
    GOAL_POOL,
    EquivalenceWalker,
    TermGen,
    canonical_fresh_names,
    doubling_chain_source,
    ref_substitute_parallel,
    reference_conversion,
    rehinted,
)
from hypothesis import HealthCheck, given, settings, strategies as st
from pcert import checker, cli, lf, parse_file, rewrite, terms
from pcert.checker import check_file
from pcert.diagnostics import CheckError, ProtectedError
from pcert.lf import LF_SIGNATURE, assert_public
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.rewrite import Fuel, convertible
from pcert.syntax import ParsedFile, print_term
from pcert.terms import Abs, App, Memo, Prod, SymApp, Term, Var
from test_cli import shared_chain_source
from test_replay import BINDER_DEFS, count_puts, counting_memo, translated


def outcome(parsed: ParsedFile, budget: int, reference: bool) -> tuple:
    """Verdict, diagnostic, partial term and fuel left of checking parsed on
    one budget shared by every declaration."""
    fuel = Fuel(budget)
    try:
        with reference_conversion() if reference else contextlib.nullcontext():
            check_file(parsed, fuel)
    except CheckError as err:
        subject = err.diagnostic.subject  # a term, or None
        partial = None if subject is None else canonical_fresh_names(subject)
        return err.kind, str(err.diagnostic), partial, fuel.remaining
    return "ok", "", None, fuel.remaining


def fuel_needed(parsed: ParsedFile) -> int:
    fuel = Fuel(None)
    with reference_conversion():
        check_file(parsed, fuel)
    return fuel.spent


def assert_same_at_every_budget(text: str, name: str) -> None:
    parsed = parse_file(text, name)
    for budget in range(fuel_needed(parsed) + 2):
        assert outcome(parsed, budget, False) == outcome(parsed, budget, True), (name, budget)


CHAINS = [("uv", n, "#MODE pcert\n" + shared_chain_source(n)) for n in range(1, 6)]
CHAINS += [("doubling", n, doubling_chain_source(n)) for n in (1, 3, 6)]


@pytest.mark.parametrize(("family", "links", "text"), CHAINS, ids=[f"{f}{n}" for f, n, _ in CHAINS])
def test_file_wide_conversion_replay_spends_the_fuel_of_redoing_at_every_budget(family, links, text):
    assert_same_at_every_budget(text, f"{family}{links}.pcert")
    assert_same_at_every_budget(translated(text), f"{family}{links}.lf")


def test_certificates_under_binders_are_replayed_at_the_same_fuel():
    text = BASE_SURFACE + BINDER_DEFS
    assert_same_at_every_budget(text, "binders.pcert")
    assert_same_at_every_budget(translated(text), "binders.lf")


def convertible_development(seed: int, count: int) -> str:
    """Generated definitions, each asserted convertible with a twin reached
    by conversion-preserving steps (beta, projections, swapped pair
    certificates), so later assertions re-compare earlier pairs."""
    gen = TermGen(seed)
    walker = EquivalenceWalker(gen.rng)
    ctx = BASE_CTX
    lines = []
    for i in range(count):
        goal = gen.rng.choice(GOAL_POOL)
        body = gen.term_of(goal, 4, ctx)
        lines.append(f"definition d{i} := {print_term(body)};")
        twin = walker.walk(ctx, body, 8)
        ctx = ctx.declare(f"d{i}", goal)
        lines.append(f"convertible d{i}, {print_term(twin)};")
    return BASE_SURFACE + BINDER_DEFS + "\n".join(lines) + "\n"


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), count=st.integers(2, 5))
def test_conversion_replay_matches_the_reference_on_generated_developments(seed, count):
    text = convertible_development(seed, count)
    for source in (text, translated(text)):
        parsed = parse_file(source, "gen")
        needed = fuel_needed(parsed)
        budgets = sorted({0, 1, needed // 3, needed // 2, needed - 1, needed, needed + 1} - {-1})
        for budget in budgets:
            assert outcome(parsed, budget, False) == outcome(parsed, budget, True), (seed, count, budget)


def test_a_direct_call_without_a_memo_starts_afresh_and_a_shared_one_replays(monkeypatch):
    calls = count_puts(monkeypatch, rewrite)  # the memo `convertible` makes or is handed
    checked = check_file(parse_file("#MODE pcert\n" + shared_chain_source(3)), 0)
    a, b = checked.decls[-1].decl.a, checked.decls[-1].decl.b
    runs = []
    memo = rewrite.Memo()
    for shared in (None, None, memo, memo):
        fuel, calls[0] = Fuel(None), 0
        assert convertible(PCERT_KERNEL.rules, a, b, fuel, PCERT_KERNEL.irrelevant, shared)
        runs.append((calls[0], fuel.spent))
    assert runs[0] == runs[1] == runs[2]
    assert runs[3] == (0, runs[0][1])  # replayed whole, charged the same steps


# --- work counts ------------------------------------------------------------------


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_conversion_puts(monkeypatch) -> list[int]:
    """Count the `put`s of the conversion memo of every `Records` made from
    now on: one per sub-comparison `check_file` works out anew."""
    calls = [0]
    counted_memo = counting_memo(calls)

    class Counted(terms.Records):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.converted = counted_memo()

    monkeypatch.setattr(terms, "Records", Counted)
    return calls


def test_conversion_work_is_linear_in_the_links_of_shared_chains(monkeypatch):
    calls = count_conversion_puts(monkeypatch)
    # the chain's text repeats every six links
    for lf_mode in (False, True):
        counts = []
        for links in (6, 12, 18):
            text = "#MODE pcert\n" + shared_chain_source(links)
            parsed = parse_file(translated(text) if lf_mode else text)
            calls[0] = 0
            check_file(parsed, 0)
            counts.append(calls[0])
        assert counts[2] - counts[1] == counts[1] - counts[0], (lf_mode, counts)


def test_the_boundary_walks_each_distinct_node_once(monkeypatch):
    gates = count_calls(monkeypatch, lf, "_first_protected")
    expansions = count_calls(monkeypatch, terms, "substitute_parallel")
    counts = []
    for links in (4, 8, 12):  # the printed translation has 2^links leaves
        parsed = parse_file(translated(doubling_chain_source(links)))
        gates[0] = expansions[0] = 0
        check_file(parsed, 0)
        counts.append((gates[0], expansions[0]))
    for i in (0, 1):
        assert counts[2][i] - counts[1][i] == counts[1][i] - counts[0][i]


def doubling_dag(levels: int) -> Term:
    t: Term = Var("a")
    for _ in range(levels):
        t = App(App(Var("g"), t), t)
    return t


def test_hashing_a_doubling_dag_computes_each_node_hash_once(monkeypatch):
    computed = count_calls(monkeypatch, terms, "_keep_hash")
    for levels in (10, 40):
        computed[0] = 0
        t = doubling_dag(levels)  # 2^levels leaves, 2 * levels composite nodes
        hash(t)
        assert computed[0] == 2 * levels
        hash(t)
        assert computed[0] == 2 * levels


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hashes_follow_equality_on_copies_built_apart(seed):
    t, _ = TermGen(seed).some_term(5)
    copy = ref_substitute_parallel(t, {"#absent": Var("z")})  # every node rebuilt
    other = rehinted(t)
    assert copy == t and other == t
    # hash the copies first, so that each computes its own cached hashes
    assert hash(copy) == hash(other) == hash(t)
    assert hash(App(t, copy)) == hash(App(other, t))


def two_chains_source(links: int, mode: str) -> str:
    """d(i+1) := g d(i) d(i) and e(i+1) := g e(i) e(i), then `convertible
    d(links), e(links)`: two equal expansions with 2^links leaves each that
    share no composite node."""
    sort = "Type" if mode == "pcert" else "TYPE"
    lines = [f"#MODE {mode}", f"symbol iota : {sort};", "symbol a : iota;", "symbol g : iota -> iota -> iota;"]
    for c in "de":
        lines.append(f"definition {c}0 := a;")
        lines += [f"definition {c}{i + 1} := g {c}{i} {c}{i};" for i in range(links)]
    lines.append(f"convertible d{links}, e{links};")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["pcert", "lf"])
def test_equal_chains_built_apart_compare_in_work_linear_in_their_links(mode, monkeypatch):
    walked = count_calls(monkeypatch, terms, "_equal")
    counts = []
    for links in (10, 20, 30, 40):  # a tree walk would visit 2^40 leaves per side
        walked[0] = 0
        fuel = Fuel(None)
        checked = check_file(parse_file(two_chains_source(links, mode)), fuel)
        counts.append(walked[0])
        assert fuel.spent == 0  # as when `==` walked trees
        a, b = checked.decls[-1].decl.a, checked.decls[-1].decl.b
        assert a is not b and a.fun is not b.fun
        walked[0] = 0
        assert checker.KERNELS[mode].convert(checked.context, a, b, fuel)
        assert fuel.spent == 0 and 0 < walked[0] <= 4 * links + 4
    assert counts[3] - counts[2] == counts[2] - counts[1] == counts[1] - counts[0], counts


def test_the_gate_skips_clean_nodes_and_reports_the_same_first_occurrence():
    shared = SymApp("pair", (Var("t"), Var("p"), Var("m"), Var("h")))
    forged = SymApp("pair'", (Var("t"), Var("p"), Var("m")))
    later = App(Abs("x", shared, App(shared, forged)), forged)
    with pytest.raises(ProtectedError) as fresh:
        assert_public(later, LF_SIGNATURE)
    clean = Memo()
    assert_public(App(shared, shared), LF_SIGNATURE, clean)
    assert id(shared) in clean
    with pytest.raises(ProtectedError) as memoized:
        assert_public(later, LF_SIGNATURE, clean)
    assert memoized.value.path == fresh.value.path == ("fun", "body", "arg")
    assert str(memoized.value) == str(fresh.value)


# --- roundtrip: one normalization memo per command --------------------------------


def roundtrip_outcomes(path: str, budgets: range) -> list[tuple[int, str]]:
    out = []
    for budget in budgets:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["roundtrip", path, "--fuel", str(budget)])
        out.append((code, err.getvalue()))
    return out


def beta_chain_source(links: int) -> str:
    """u(i+1) := (\\x: iota. g x x) u(i): checking spends no fuel, and the
    normal form of u(links) takes 2^links - 1 beta steps, those of u(links - 1)
    twice over."""
    lines = ["#MODE pcert", "symbol iota : Type;", "symbol a : iota;", "symbol g : iota -> iota -> iota;"]
    lines.append("definition u0 := a;")
    lines += [f"definition u{i + 1} := (\\x: iota. g x x) u{i};" for i in range(links)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("links", [3, 5])
def test_roundtrip_with_one_normalization_memo_matches_a_memo_per_call(links, tmp_path, monkeypatch):
    path = tmp_path / "in.pcert"
    path.write_text(beta_chain_source(links))
    budgets = range(0, 2**links + 2)
    shared = roundtrip_outcomes(str(path), budgets)
    original = rewrite.normalize

    def per_call(rules, t, fuel=None, strategy="outermost", memo=None):
        return original(rules, t, fuel, strategy)

    monkeypatch.setattr(cli, "normalize", per_call)
    assert shared == roundtrip_outcomes(str(path), budgets)
    assert [code for code, _ in shared] == [0] + [3] * (2**links - 2) + [0] * 3
