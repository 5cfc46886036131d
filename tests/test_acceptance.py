"""Acceptance criteria for the whole toolkit.

Each criterion runs at its stated size and tolerance (all are exact: 100%
pass rates, zero violations) and prints one PASS/FAIL line. Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

from __future__ import annotations

import functools
import random
import tempfile
from pathlib import Path

from genutil import BASE_CTX, BASE_SURFACE, EquivalenceWalker, TermGen, lam
from pcert import check_file, conv_pcert, corpus_path, parse_file
from pcert.cli import main as cli
from pcert.diagnostics import FuelError
from pcert.inverse import NotInImage, inverse_term
from pcert.lf import El, KERNEL as LF_KERNEL, PROP_ENC, PROP_OBJ, Prf, RULES_R, TYPE_ENC, convertible_lf
from pcert.rewrite import Fuel, check_orthogonality, normalize
from pcert.syntax import print_file, print_term
from pcert.terms import (
    Abs,
    App,
    Bound,
    Prod,
    Sort,
    SymApp,
    Var,
    alpha_eq,
)
from pcert.pcert import KERNEL as PCERT_KERNEL
from pcert.translate import translate_ctx, translate_term

CORPUS_PCERT = ("stacks.pcert", "bounded_lists.pcert", "even_numbers.pcert", "prelude.pcert")


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} FAIL: {title}")
                raise
            print(f"criterion {number} PASS: {title}")

        return run

    return decorate


def _generated_files(count: int = 200, per_file: int = 20, seed: int = 101) -> list[Path]:
    """Write `count` generated well-typed definitions into surface files."""
    gen = TermGen(seed)
    tmp = Path(tempfile.mkdtemp(prefix="pcert-acceptance-"))
    paths = []
    bodies = []
    for i in range(count):
        term, _ = gen.some_term(6)
        bodies.append(f"definition g{i % per_file} := {print_term(term)};")
        if len(bodies) == per_file:
            path = tmp / f"generated_{i // per_file}.pcert"
            path.write_text(BASE_SURFACE + "\n".join(bodies) + "\n")
            paths.append(path)
            bodies = []
    assert not bodies
    return paths


GENERATED_FILES = _generated_files()


@criterion(1, "corpus developments check in pcert mode")
def test_criterion_1_corpus_soundness():
    for name in CORPUS_PCERT:
        assert cli(["check", str(corpus_path(name))]) == 0, name


@criterion(2, "translation of corpus plus 200 generated terms re-checks in lf mode")
def test_criterion_2_correctness_at_desk_scale():
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [corpus_path(name) for name in CORPUS_PCERT] + GENERATED_FILES
        for i, path in enumerate(inputs):
            out = Path(tmp) / f"out_{i}.lf"
            assert cli(["translate", str(path), "-o", str(out)]) == 0, str(path)
            assert cli(["check", str(out)]) == 0, str(path)


@criterion(3, "round trip through the encoding recovers every definition body")
def test_criterion_3_round_trip_recovery():
    not_in_image = 0
    for path in [corpus_path(name) for name in CORPUS_PCERT] + GENERATED_FILES:
        assert cli(["roundtrip", str(path)]) == 0, str(path)
        checked = check_file(parse_file(Path(path).read_text(), str(path)))
        for _, (body, _) in checked.definitions.items():
            if isinstance(inverse_term(translate_term(checked.context, body)), NotInImage):
                not_in_image += 1
    assert not_in_image == 0


@criterion(4, "200 equational walks preserve conversion in both systems")
def test_criterion_4_preservation_of_equivalence():
    gen = TermGen(102)
    walker = EquivalenceWalker(random.Random(103))
    done = 0
    while done < 200:
        m, _ = gen.some_term(5)
        steps = walker.rng.randint(1, 5)
        n = walker.walk(BASE_CTX, m, steps)
        if alpha_eq(m, n):
            continue  # no step applied; draw another seed
        assert conv_pcert(BASE_CTX, m, n)
        assert convertible_lf(translate_term(BASE_CTX, m), translate_term(BASE_CTX, n))
        done += 1


@criterion(5, "lists with distinct certificates are convertible after encoding")
def test_criterion_5_proof_irrelevance_end_to_end():
    source = corpus_path("bounded_lists.pcert").read_text()
    checked = check_file(parse_file(source, "bounded_lists"))
    l1, _ = checked.definitions["l1"]
    l2, _ = checked.definitions["l2"]
    assert not alpha_eq(l1, l2)  # they carry the distinct axioms p1 and p2
    assert "p1" in repr(l1) and "p2" in repr(l2)
    enc1 = translate_term(checked.context, l1)
    enc2 = translate_term(checked.context, l2)
    assert convertible_lf(enc1, enc2)


@criterion(6, "certificate-free pairs are rejected at the gate, certified ones pass")
def test_criterion_6_protected_symbol():
    assert cli(["check", str(corpus_path("even_pair_forged.lf"))]) == 4
    assert cli(["check", str(corpus_path("even_pair.lf"))]) == 0
    with tempfile.TemporaryDirectory() as tmp:
        header = (
            "#MODE lf\n"
            "symbol nat : Type;\n"
            "symbol three : El nat;\n"
            "symbol even : El nat -> Prop;\n"
        )
        forged = Path(tmp) / "forged.lf"
        forged.write_text(header + "definition bad := pair' nat even three;\n")
        assert cli(["check", str(forged)]) == 4
        certified = Path(tmp) / "certified.lf"
        certified.write_text(
            header
            + "symbol h3 : Prf (even three);\n"
            + "definition good := pair nat even three h3;\n"
        )
        assert cli(["check", str(certified)]) == 0


@criterion(7, "rules are orthogonal and 1000 normalizations agree across strategies")
def test_criterion_7_orthogonality_and_confluence_smoke():
    report = check_orthogonality(RULES_R)
    assert report.ok, str(report)
    gen = TermGen(104)
    exhausted = 0
    for _ in range(1000):
        t, _ = gen.some_term(6)
        enc = translate_term(BASE_CTX, t)
        try:
            outer = normalize(RULES_R, enc, Fuel(10_000), strategy="outermost")
            inner = normalize(RULES_R, enc, Fuel(10_000), strategy="innermost")
        except FuelError:
            exhausted += 1
            continue
        assert alpha_eq(outer, inner)
    assert exhausted == 0


@criterion(8, "the six conversion equations hold at 50 random typed instances each")
def test_criterion_8_conversion_equation_suite():
    gen = TermGen(105)
    iota, P = Var("iota"), Var("P")
    enc_ctx = translate_ctx(BASE_CTX)

    def typed_lf(term):
        LF_KERNEL.infer(enc_ctx, term)
        return term

    def random_encoded_type():
        choice = gen.rng.choice((iota, SymApp("psub", (iota, P))))
        return translate_term(BASE_CTX, choice)

    def random_encoded_prop():
        return translate_term(BASE_CTX, gen.term_of(Sort("Prop"), 2))

    for _ in range(50):
        # interpretation of the reified proposition sort, under random wrapping
        wrapped = PROP_OBJ
        for _ in range(gen.rng.randint(0, 3)):
            wrapped = App(Abs("z", TYPE_ENC, Bound(0)), wrapped)
        assert convertible_lf(typed_lf(El(PROP_OBJ)), PROP_ENC)
        assert convertible_lf(typed_lf(El(wrapped)), PROP_ENC)
        # quantifier interpretation
        t = random_encoded_type()
        p = Abs("x", El(t), random_encoded_prop())
        assert convertible_lf(
            typed_lf(Prf(SymApp("fa", (t, p)))), Prod("x", El(t), Prf(App(p, Bound(0))))
        )
        # implication interpretation
        prop = random_encoded_prop()
        q = Abs("h", Prf(prop), random_encoded_prop())
        assert convertible_lf(
            typed_lf(Prf(SymApp("impd", (prop, q)))), Prod("h", Prf(prop), Prf(App(q, Bound(0))))
        )
        # dependent arrow interpretation
        u = Abs("x", El(t), random_encoded_type())
        assert convertible_lf(
            typed_lf(El(SymApp("arrd", (t, u)))), Prod("x", El(t), El(App(u, Bound(0))))
        )
        # certificate irrelevance in the source system
        h0 = gen.term_of(App(P, Var("a")), 3)
        h1 = gen.term_of(App(P, Var("a")), 3)
        one = SymApp("pair", (iota, P, Var("a"), h0))
        two = SymApp("pair", (iota, P, Var("a"), h1))
        PCERT_KERNEL.infer(BASE_CTX, one)
        PCERT_KERNEL.infer(BASE_CTX, two)
        assert conv_pcert(BASE_CTX, one, two)
        # projection in the source system
        expanded_p = App(lam("q", Prod("_", iota, Sort("Prop")), Var("q")), P)
        packed = SymApp("pair", (iota, P, Var("a"), gen.term_of(App(P, Var("a")), 2)))
        projected = SymApp("fst", (iota, expanded_p, packed))
        PCERT_KERNEL.infer(BASE_CTX, projected)
        assert conv_pcert(BASE_CTX, projected, Var("a"))
        assert conv_pcert(BASE_CTX, SymApp("fst", (iota, P, packed)), Var("a"))


@criterion(9, "printing is a stable right inverse of parsing on the corpus")
def test_criterion_9_parser_round_trip():
    names = CORPUS_PCERT + ("even_pair.lf", "even_pair_forged.lf")
    for name in names:
        source = corpus_path(name).read_text()
        first = parse_file(source, name)
        printed = print_file(first)
        second = parse_file(printed, name)
        assert first.decls == second.decls, name
        assert print_file(second) == printed, name
