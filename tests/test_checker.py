"""Elaboration records: what check_file hands to translate, roundtrip and export."""

from __future__ import annotations

from dataclasses import fields

from pcert import Definition, SymbolDecl, check_file, corpus_path, free_vars, parse_file


def test_records_scope_and_expansion_over_the_corpus():
    pcert_files = sorted(p for p in corpus_path("").iterdir() if p.name.endswith(".pcert"))
    assert pcert_files
    for path in pcert_files:
        parsed = parse_file(path.read_text(), path.name)
        checked = check_file(parsed)
        assert len(checked.decls) == len(parsed.decls)
        declared: list = []
        defined: set[str] = set()
        symbols = [(d.name, d.type) for d in (r.decl for r in checked.decls) if isinstance(d, SymbolDecl)]
        for record in checked.decls:
            # in scope: exactly the symbols declared before it, and a lookup
            # through the view never resolves a symbol declared later
            scope = checked.scope(record.depth)
            assert scope.entries == tuple(declared), path.name
            for name, ty in declared:
                assert scope.lookup(name) == ty, (path.name, name)
            for name, _ in symbols[len(declared) :]:
                assert scope.lookup(name) is None, (path.name, name)
            terms = [getattr(record.decl, f.name) for f in fields(record.decl) if f.name not in ("name", "span")]
            for term in terms:
                if term is not None:
                    assert not free_vars(term) & defined, (path.name, record.decl)
            match record.decl:
                case SymbolDecl(name, ty, _):
                    declared.append((name, ty))
                case Definition(name, _, _, _):
                    assert record.inferred is not None
                    defined.add(name)
        assert tuple(declared) == checked.context.entries
