"""Elaboration records: what check_file hands to translate, roundtrip and export."""

from __future__ import annotations

import pytest

from genutil import calls_made, names_unknown, parse_file_unmemoized
from pcert import Definition, ParsedFile, SymbolDecl, check_file, cli, corpus_path, free_vars, parse_file
from pcert.diagnostics import PROTECTED_SYMBOL, CheckError
from pcert.lexer import repeated_groups, scan
from pcert.pcert import PcertKernel
from pcert.syntax import print_file


def test_records_scope_and_expansion_over_the_corpus():
    pcert_files = sorted(p for p in corpus_path("").iterdir() if p.name.endswith(".pcert"))
    assert pcert_files
    for path in pcert_files:
        parsed = parse_file(path.read_text(), path.name)
        checked = check_file(parsed)
        assert len(checked.decls) == len(parsed.decls)
        declared: list = []
        for record in checked.decls:
            # a record mentions only symbols declared before it: reading it
            # under the file's context resolves each name as its scope did,
            # and no defined name survives expansion
            terms = [getattr(record.decl, f) for f in record.decl.__match_args__ if f not in ("name", "span")]
            terms.append(record.inferred)
            for term in terms:
                if term is not None:
                    assert free_vars(term) <= {name for name, _ in declared}, (path.name, record.decl)
            match record.decl:
                case SymbolDecl(name, ty, _):
                    declared.append((name, ty))
                case Definition():
                    assert record.inferred is not None
        assert tuple(declared) == checked.context.entries


def test_translation_reads_the_record_instead_of_inferring_again(monkeypatch, tmp_path):
    # once check_file has returned, translate, roundtrip and export take every
    # type and sort they need from its records: a further pcert inference,
    # sort query or check is a bug
    checked = {"done": False}
    original_check_file = cli.check_file

    def check_file_then_close(*args, **kwargs):
        result = original_check_file(*args, **kwargs)
        checked["done"] = True
        return result

    def closed_after_check(name):
        original = getattr(PcertKernel, name)

        def guarded(self, *args, **kwargs):
            assert not checked["done"], f"pcert {name} after check_file returned"
            return original(self, *args, **kwargs)

        return guarded

    monkeypatch.setattr(cli, "check_file", check_file_then_close)
    for name in ("infer", "sort_of", "check"):
        monkeypatch.setattr(PcertKernel, name, closed_after_check(name))
    pcert_files = sorted(p for p in corpus_path("").iterdir() if p.name.endswith(".pcert"))
    assert pcert_files
    for path in pcert_files:
        for argv in (
            ["translate", str(path), "-o", str(tmp_path / "out.lf")],
            ["roundtrip", str(path)],
            ["export", str(path), "-o", str(tmp_path / "out.lp")],
        ):
            checked["done"] = False
            assert cli.main(argv) == 0, (path.name, argv[0])
            assert checked["done"], (path.name, argv[0])


def _calls_to_parse_and_check(text: str) -> int:
    """Python-level calls made by `parse_file` and `check_file` on text."""
    return calls_made(lambda: check_file(parse_file(text)))


_LF_P = "symbol P : El(arrd(T, \\_: El(T). prop));\n"

# Most Python calls one more trivial unit of declarations may cost to parse
# and check: a pcert symbol of a declared type (37 before the per-declaration
# floor was cut, 23 before a file that names no definition or protected
# symbol skipped the expansion and the gate), the lf symbol `translate`'s
# re-check reads for it (44, then 28), and a constant with a certificate of
# a predicate on it, in pcert and as the re-check reads it (66 and 163
# before the lf kernel replayed the head normal form of `P`'s type). Then
# 21, 25, 61 and 130 before spans were resolved on demand and a lone
# variable skipped `parse_app` and `parse_atom`, and a lone atom `parse_app`.
# The pairs then took 57 and 124 before inference filed memo entries only
# under no binder and kept no ledger of binder levels. All four then took
# 18, 21, 55 and 119, and a constant abstraction over a fresh symbol 65,
# before inference answered a bound variable and a sort inline, matched
# symbol arguments against the telescope in place and left a binder its
# body ignores closed. All five then took 15, 17, 45, 110 and 45 before
# inference kept its memo and its rules in one function, and the pairs 42
# and 105 before inference reached conversion through `Kernel.convert` alone.
FLOOR_CALLS = {
    "pcert": ("symbol T : Type;\n", "symbol c{0} : T;\n", 14),
    "lf": ("#MODE lf\nsymbol T : Type;\n", "symbol c{0} : El(T);\n", 18),
    "pcert_pair": ("symbol T : Type;\nsymbol P : T -> Prop;\n", "symbol c{0} : T;\nsymbol h{0} : P c{0};\n", 43),
    "lf_pair": ("#MODE lf\nsymbol T : Type;\n" + _LF_P, "symbol c{0} : El(T);\nsymbol h{0} : Prf(P c{0});\n", 106),
    "pcert_lambda": ("symbol T : Type;\n", "symbol c{0} : T;\ndefinition k{0} := \\x: T. c{0};\n", 47),
}


@pytest.mark.parametrize("mode", sorted(FLOOR_CALLS))
def test_a_trivial_declaration_costs_a_handful_of_calls(mode):
    head, unit, most = FLOOR_CALLS[mode]
    texts = [head + "".join(unit.format(i) for i in range(n)) for n in (200, 400, 600)]
    _calls_to_parse_and_check(texts[0])  # the first check hashes module constants once per process
    counts = [_calls_to_parse_and_check(text) for text in texts]
    per_decl, rem = divmod(counts[1] - counts[0], 200)
    assert counts[2] - counts[1] == counts[1] - counts[0] and rem == 0, counts
    assert per_decl <= most, counts


# --- the walks a file's names let check_file skip ------------------------------------

# `pair'` and the defined name `dee` occur only inside a repeated group, whose
# repeats in lf text the lexer makes group tokens: the parser recalls their
# nodes, so the names reach the file's `mentioned` from the first occurrence
# alone. pcert text is read without group tokens.
PROTECTED_IN_GROUP = """#MODE lf
symbol iota : Type;
symbol P : El iota -> Prop;
symbol apple : El iota;
symbol forget : El (psub(iota, P)) -> El iota;
definition e := forget (forget (pair'(iota, P, apple)));
assert forget (forget (pair'(iota, P, apple))) : El iota;
"""
DEFINED_IN_GROUP = """symbol iota : Type;
symbol apple : iota;
symbol glue : iota -> iota -> iota;
definition dee := glue apple apple;
definition e := glue (glue dee (glue apple apple)) (glue dee (glue apple apple));
assert glue (glue dee (glue apple apple)) apple : iota;
"""
DEFINED_IN_GROUP_LF = """#MODE lf
symbol iota : Type;
symbol apple : El iota;
symbol glue : El iota -> El iota -> El iota;
definition dee := glue apple apple;
definition e := glue (glue dee (glue apple apple)) (glue dee (glue apple apple));
assert glue (glue dee (glue apple apple)) apple : El iota;
"""


def test_a_protected_symbol_only_in_group_tokens_is_still_gated(tmp_path):
    assert scan(PROTECTED_IN_GROUP, repeated_groups(PROTECTED_IN_GROUP))[2]
    parsed = parse_file(PROTECTED_IN_GROUP)
    assert "pair'" in parsed.mentioned
    # a caller cannot hand in names: a file built in code takes every walk
    assert names_unknown(parsed).mentioned is None
    with pytest.raises(TypeError):
        ParsedFile(parsed.mode, parsed.decls, parsed.path, frozenset())
    reports = []
    for source in (parsed, names_unknown(parsed), parse_file_unmemoized(PROTECTED_IN_GROUP)):
        with pytest.raises(CheckError) as err:
            check_file(source)
        reports.append((err.value.kind, str(err.value.diagnostic), err.value.diagnostic.span))
    assert reports[0][0] == PROTECTED_SYMBOL
    assert reports[0] == reports[1] == reports[2]
    path = tmp_path / "forged.lf"
    path.write_text(PROTECTED_IN_GROUP)
    assert cli.main(["check", str(path)]) == cli.EXIT_PROTECTED


@pytest.mark.parametrize("text", [DEFINED_IN_GROUP, DEFINED_IN_GROUP_LF], ids=["pcert", "lf"])
def test_a_definition_named_only_in_group_tokens_is_still_expanded(text):
    assert scan(text, repeated_groups(text))[2]
    parsed = parse_file(text)
    checked = check_file(parsed)
    assert checked.decls == check_file(parse_file_unmemoized(text)).decls
    assert checked.decls == check_file(names_unknown(parsed)).decls
    for record in checked.decls[4:]:  # every use of `dee` was expanded
        terms = [getattr(record.decl, f) for f in record.decl.__match_args__ if f not in ("name", "span")]
        assert "dee" not in free_vars(*(t for t in terms if t is not None)), record.decl


def test_a_file_that_names_no_definition_is_checked_as_one_that_does():
    # the definitions of `translate`'s output are never named again, so its
    # re-check records no expansion and walks no term for one
    text = print_file(ParsedFile("lf", tuple(cli._translate_decls(check_file(parse_file(DEFINED_IN_GROUP))))))
    parsed = parse_file(text)
    assert not {"dee", "e"} & parsed.mentioned
    assert check_file(parsed).decls == check_file(names_unknown(parsed)).decls
