"""Elaboration records: what check_file hands to translate, roundtrip and export."""

from __future__ import annotations

import pytest

from genutil import calls_made
from pcert import Definition, SymbolDecl, check_file, cli, corpus_path, free_vars, parse_file
from pcert.pcert import PcertKernel


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


# Most Python calls one more trivial declaration may cost to parse and check:
# a pcert symbol of a declared type (37 before the per-declaration floor was
# cut), and the lf symbol `translate`'s re-check reads for it (44 before).
FLOOR_CALLS = {"pcert": ("symbol T : Type;\n", "T", 24), "lf": ("#MODE lf\nsymbol T : Type;\n", "El(T)", 28)}


@pytest.mark.parametrize("mode", sorted(FLOOR_CALLS))
def test_a_trivial_declaration_costs_a_handful_of_calls(mode):
    head, ty, most = FLOOR_CALLS[mode]
    counts = [
        _calls_to_parse_and_check(head + "".join(f"symbol c{i} : {ty};\n" for i in range(n))) for n in (200, 400, 600)
    ]
    per_decl, rem = divmod(counts[1] - counts[0], 200)
    assert counts[2] - counts[1] == counts[1] - counts[0] and rem == 0, counts
    assert per_decl <= most, counts
