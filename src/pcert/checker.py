"""Declaration-by-declaration checking of parsed files.

A file is one context: symbol declarations extend it in order, definitions
are checked and then expanded transparently into every later declaration
(the kernels have no delta reduction), assertions run against the mode's
kernel. This is the one boundary between user input and the kernels: every
term of a declaration passes the protected-symbol gate of the kernel's
signature once, as written and before any kernel call, so rewriting alone
may introduce a protected symbol. Expansions need no second walk: each was
gated when its definition was, and expanding only replaces variable leaves.
The gate and the expansion each keep a `terms.Memo` for the file, so each
walks a distinct parsed node once per file.

Names. A parsed file knows the names its terms mention
(`ParsedFile.mentioned`), and two walks are skipped by them. The gate is
skipped when no protected symbol of the signature is among them, and a
definition is recorded for expansion only when its name is, so a file that
names no definition, such as the output of `pcert translate`, expands
nothing. This is sound because every node of a parse, a node recalled for a
repeated group included, was built once through the parser's intern table,
which the names are read off, so a name the table does not hold occurs in
none of the file's terms: the gate could find no protected symbol and the
expansion no variable to replace. A file built in code has no names (None)
and takes both walks.

Checking yields one elaboration record per declaration: the declaration
with every defined name expanded and, for a definition, the inferred type of
its body (an annotated body is inferred once, by `check` after the
annotation's sort). A record is read under the file's context: a declaration
is admitted only if every name it mentions was declared before it, and names
are unique, so later entries never change what it refers to. Translation,
round trip and export read these records without checking again: this module
is the only place definitions are expanded and typability is established.
Expansion hands one object to every use of a definition, so the kernels'
memos (see `kernel`) replay it at each later use.
"""

from __future__ import annotations

from . import diagnostics as dk
from .diagnostics import CheckError, fail
from .kernel import Kernel
from .lf import KERNEL as LF_KERNEL, assert_public
from .pcert import KERNEL as PCERT_KERNEL
from .record import Frozen, Record, setters
from .rewrite import Fuel, _as_fuel
from .syntax import (
    AssertConv,
    AssertJudgment,
    Declaration,
    Definition,
    ParsedFile,
    SymbolDecl,
)
from .terms import Context, Memo, Term, substitute_parallel

KERNELS: dict[str, Kernel] = {"pcert": PCERT_KERNEL, "lf": LF_KERNEL}


class Elaborated(Frozen):
    """A declaration with every defined name expanded, and a definition
    body's inferred type."""

    __slots__ = __match_args__ = ("decl", "inferred")

    def __init__(self, decl: Declaration, inferred: Term | None = None):
        _elab_decl(self, decl)
        _elab_inferred(self, inferred)


_elab_decl, _elab_inferred = setters(Elaborated)


class CheckedFile(Record):
    __slots__ = __match_args__ = ("mode", "context", "decls")

    def __init__(self, mode: str, context: Context, decls: tuple[Elaborated, ...]):
        self.mode = mode
        self.context = context
        self.decls = decls

    @property
    def definitions(self) -> dict[str, tuple[Term, Term]]:
        """Definition name -> (expanded body, its checked type), in file order.
        Library API: acceptance criteria 3 and 5 read it; the commands walk
        `decls`."""
        return {
            r.decl.name: (r.decl.body, r.decl.type if r.decl.type is not None else r.inferred)
            for r in self.decls
            if isinstance(r.decl, Definition)
        }


def check_file(parsed: ParsedFile, fuel: Fuel | int | None = None) -> CheckedFile:
    """Check every declaration of a file in order; see the module docstring.

    A declaration whose terms come out of the gate and the expansion as the
    very objects that were parsed (it mentions no definition) keeps its
    parsed record: only a changed term makes a new one. `fuel` is coerced
    once: a `Fuel` is shared by the whole file, an int or None gives each
    declaration a fresh budget of that size."""
    kernel = KERNELS[parsed.mode]
    signature = kernel.signature
    ctx = Context()
    records: list[Elaborated] = []
    names: set[str] = set()
    expansions: dict[str, Term] = {}
    shared = fuel if isinstance(fuel, Fuel) else None
    limit = _as_fuel(fuel).remaining
    # the file's boundary memos: nodes found free of protected symbols, and
    # expansions. An expansion stays right as `expansions` grows: a
    # declaration is admitted only if every name it mentions was declared
    # before it, and a file stops at its first failure, so a name in an
    # expanded node never gains an expansion later
    gated, expanded = Memo(), Memo()
    mentioned = parsed.mentioned
    gate = mentioned is None or not signature.protected.isdisjoint(mentioned)

    def prepare(t: Term) -> Term:
        if gate:
            assert_public(t, signature, gated)
        # definition bodies are already fully expanded, so one parallel pass
        # replaces every defined name
        return substitute_parallel(t, expansions, expanded) if expansions else t

    for decl in parsed.decls:
        budget = shared if shared is not None else Fuel(limit)
        inferred = None
        cls = type(decl)
        try:
            if cls is SymbolDecl:
                name = decl.name
                if name in names:
                    raise fail(dk.DUPLICATE_NAME, f"{name!r} declared twice")
                ty = prepare(decl.type)
                kernel.sort_of(ctx, ty, budget)
                ctx = ctx.declare(name, ty)
                names.add(name)
                if ty is not decl.type:
                    decl = SymbolDecl(name, ty, decl.span)
            elif cls is Definition:
                name, ty = decl.name, decl.type
                if name in names:
                    raise fail(dk.DUPLICATE_NAME, f"{name!r} declared twice")
                body = prepare(decl.body)
                if ty is None:
                    inferred = kernel.infer(ctx, body, budget)
                else:
                    ty = prepare(ty)
                    kernel.sort_of(ctx, ty, budget)
                    inferred = kernel.check(ctx, body, ty, budget)
                if mentioned is None or name in mentioned:
                    expansions[name] = body
                names.add(name)
                if body is not decl.body or ty is not decl.type:
                    decl = Definition(name, body, ty, decl.span)
            elif cls is AssertJudgment:
                subject, ty = prepare(decl.subject), prepare(decl.type)
                kernel.sort_of(ctx, ty, budget)
                kernel.check(ctx, subject, ty, budget)
                if subject is not decl.subject or ty is not decl.type:
                    decl = AssertJudgment(subject, ty, decl.span)
            elif cls is AssertConv:
                a, b = prepare(decl.a), prepare(decl.b)
                kernel.infer(ctx, a, budget)
                kernel.infer(ctx, b, budget)
                if not kernel.convert(ctx, a, b, budget):
                    raise fail(
                        dk.NOT_CONVERTIBLE,
                        "terms are not convertible",
                        context=ctx,
                        subject=a,
                    )
                if a is not decl.a or b is not decl.b:
                    decl = AssertConv(a, b, decl.span)
        except CheckError as err:
            raise err.with_span(decl.span) if decl.span is not None else err
        records.append(Elaborated(decl, inferred))
    return CheckedFile(parsed.mode, ctx, tuple(records))
