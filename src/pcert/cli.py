"""Command-line front door.

    pcert check FILE [--fuel N]
    pcert translate FILE -o OUT [--fuel N]
    pcert roundtrip FILE [--fuel N]
    pcert export FILE -o OUT [--signature] [--fuel N]

Exit codes: 0 ok, 1 type error, 2 parse error (including wrong mode),
3 resource bound: fuel or depth (input nested deeper than the interpreter's
recursion limit), 4 protected-symbol violation, 5 round-trip failure.
Diagnostics go to stderr, artifacts to stdout or the -o path. PCERT_FUEL
overrides the default fuel; --fuel overrides both; 0 means unlimited, which
is dangerous because termination of the rewrite systems is not established.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import diagnostics as dk
from .checker import CheckedFile, check_file
from .diagnostics import CheckError
from .export import export_lambdapi
from .inverse import NotInImage, inverse_term
from .rewrite import DEFAULT_FUEL, RuleSet, normalize
from .syntax import (
    AssertConv,
    AssertJudgment,
    Declaration,
    Definition,
    ParsedFile,
    SymbolDecl,
    parse_file,
    print_file,
)
from .translate import translate_term, translate_type

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_RESOURCE = 3
EXIT_PROTECTED = 4
EXIT_ROUNDTRIP = 5

_PARSE_KINDS = {dk.PARSE_ERROR, dk.ARITY_MISMATCH, dk.WRONG_MODE}

BETA_ONLY = RuleSet()


def _exit_code(err: CheckError) -> int:
    if err.kind in (dk.FUEL_EXHAUSTED, dk.DEPTH_EXCEEDED):
        return EXIT_RESOURCE
    if err.kind == dk.PROTECTED_SYMBOL:
        return EXIT_PROTECTED
    if err.kind in _PARSE_KINDS:
        return EXIT_PARSE_ERROR
    return EXIT_TYPE_ERROR


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise CheckError(dk.Diagnostic(dk.PARSE_ERROR, f"{path}: not UTF-8 (byte {err.start})"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load(path: str) -> ParsedFile:
    return parse_file(_read(path), path)


def _translate_decls(checked: CheckedFile, fuel: int | None) -> list[Declaration]:
    """Translate a checked pcert development declaration by declaration."""
    out: list[Declaration] = []
    for record in checked.decls:
        ctx = checked.scope(record.depth)
        match record.decl:
            case SymbolDecl(name, ty, span):
                out.append(SymbolDecl(name, translate_type(ctx, ty, fuel), span))
            case Definition(name, body, _, span):
                body = translate_term(ctx, body, fuel)
                out.append(Definition(name, body, translate_type(ctx, record.inferred, fuel), span))
            case AssertJudgment(subject, ty, span):
                out.append(AssertJudgment(translate_term(ctx, subject, fuel), translate_type(ctx, ty, fuel), span))
            case AssertConv(a, b, span):
                out.append(AssertConv(translate_term(ctx, a, fuel), translate_term(ctx, b, fuel), span))
    return out


def cmd_check(path: str, fuel: int | None) -> int:
    check_file(_load(path), fuel)
    return EXIT_OK


def cmd_translate(path: str, out: str | None, fuel: int | None) -> int:
    parsed = _load(path)
    if parsed.mode != "pcert":
        raise CheckError(dk.Diagnostic(dk.WRONG_MODE, f"translate expects a pcert file, got mode {parsed.mode!r}"))
    checked = check_file(parsed, fuel)
    translated = ParsedFile("lf", tuple(_translate_decls(checked, fuel)), parsed.path)
    text = print_file(translated)
    # machine-checked correctness: the printed output must reparse and pass
    # the lf kernel before anything is written
    check_file(parse_file(text, f"{path}:translated"), fuel)
    _emit(text, out)
    return EXIT_OK


def cmd_roundtrip(path: str, fuel: int | None) -> int:
    parsed = _load(path)
    if parsed.mode != "pcert":
        raise CheckError(dk.Diagnostic(dk.WRONG_MODE, f"roundtrip expects a pcert file, got mode {parsed.mode!r}"))
    checked = check_file(parsed, fuel)
    failures: list[str] = []
    for record in checked.decls:
        if not isinstance(record.decl, Definition):
            continue
        name, body = record.decl.name, record.decl.body
        encoded = translate_term(checked.scope(record.depth), body, fuel)
        back = inverse_term(encoded)
        if isinstance(back, NotInImage):
            failures.append(f"{name}: {back}")
            continue
        if normalize(BETA_ONLY, back, fuel) != normalize(BETA_ONLY, body, fuel):
            failures.append(f"{name}: beta-normal forms differ after the round trip")
    if failures:
        for line in failures:
            print(f"roundtrip failure: {line}", file=sys.stderr)
        return EXIT_ROUNDTRIP
    return EXIT_OK


def cmd_export(path: str | None, out: str | None, signature: bool, fuel: int | None) -> int:
    if signature:
        _emit(export_lambdapi((), mode="signature"), out)
        return EXIT_OK
    if path is None:
        raise CheckError(dk.Diagnostic(dk.PARSE_ERROR, "export needs an input file unless --signature is given"))
    parsed = _load(path)
    checked = check_file(parsed, fuel)
    if parsed.mode == "pcert":
        decls = _translate_decls(checked, fuel)
    else:
        decls = list(parsed.decls)
    _emit(export_lambdapi(decls, mode="development"), out)
    return EXIT_OK


def _fuel_value(args: argparse.Namespace) -> int:
    fuel, source = args.fuel, "--fuel"
    if fuel is None:
        env, source = os.environ.get("PCERT_FUEL"), "PCERT_FUEL"
        if env is None:
            return DEFAULT_FUEL
        try:
            fuel = int(env)
        except ValueError:
            raise CheckError(dk.Diagnostic(dk.PARSE_ERROR, f"PCERT_FUEL must be an integer, got {env!r}"))
    if fuel < 0:
        raise CheckError(dk.Diagnostic(dk.PARSE_ERROR, f"{source} must not be negative, got {fuel}"))
    return fuel


# Built on the first call of main, not at import. Building costs more than
# parsing, so later calls in one process reuse the parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, output: bool = False, file_optional: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if file_optional:
            p.add_argument("file", nargs="?", default=None, help="input file (#MODE pcert or #MODE lf)")
        else:
            p.add_argument("file", help="input file (#MODE pcert or #MODE lf)")
        p.add_argument("--fuel", type=int, default=None, help="rewrite budget; 0 means unlimited")
        if output:
            p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        return p

    add("check", "parse and type check every declaration")
    add("translate", "translate a pcert file into a checked lf file", output=True)
    add("roundtrip", "translate, invert and compare each definition body", output=False)
    export = add("export", "write Lambdapi output", output=True, file_optional=True)
    export.add_argument("--signature", action="store_true", help="emit the encoding signature instead")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fuel = _fuel_value(args)
        if args.command == "check":
            return cmd_check(args.file, fuel)
        if args.command == "translate":
            return cmd_translate(args.file, args.output, fuel)
        if args.command == "roundtrip":
            return cmd_roundtrip(args.file, fuel)
        return cmd_export(args.file, args.output, args.signature, fuel)
    except RecursionError:
        # the stack is unwound by now, so reporting needs no depth of its own
        limit = sys.getrecursionlimit()
        message = f"input nested deeper than the recursion limit ({limit}) allows"
        err = CheckError(dk.Diagnostic(dk.DEPTH_EXCEEDED, message))
        print(err.diagnostic, file=sys.stderr)
        return _exit_code(err)
    except CheckError as err:
        print(err.diagnostic, file=sys.stderr)
        return _exit_code(err)
    except OSError as err:
        print(err, file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
