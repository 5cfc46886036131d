"""Declaration-by-declaration checking of parsed files.

A file is one context: symbol declarations extend it in order, definitions
are checked and then expanded transparently into every later declaration
(the kernels have no delta reduction), assertions run against the mode's
kernel. In lf mode every declaration passes the protected-symbol gate
before any checking happens; this is the only place that gate runs.

Checking yields one elaboration record per declaration: the declaration
with every defined name expanded, how many context entries were in scope
when it was checked, and, for a definition, the inferred type of its body.
Translation, round trip and export read these records; this module is the
only place definitions are expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagnostics as dk
from .diagnostics import CheckError, fail
from .kernel import Kernel
from .lf import KERNEL as LF_KERNEL, assert_public
from .pcert import KERNEL as PCERT_KERNEL
from .rewrite import Fuel, _as_fuel
from .syntax import (
    AssertConv,
    AssertJudgment,
    Declaration,
    Definition,
    ParsedFile,
    SymbolDecl,
)
from .terms import Context, Term, substitute_parallel

KERNELS: dict[str, Kernel] = {"pcert": PCERT_KERNEL, "lf": LF_KERNEL}


@dataclass(frozen=True)
class Elaborated:
    decl: Declaration  # every defined name expanded
    depth: int  # context entries in scope when the declaration was checked
    inferred: Term | None = None  # a definition body's inferred type


@dataclass
class CheckedFile:
    mode: str
    context: Context
    decls: tuple[Elaborated, ...]

    def scope(self, depth: int) -> Context:
        return Context(self.context.entries[:depth])

    @property
    def definitions(self) -> dict[str, tuple[Term, Term]]:
        """Definition name -> (expanded body, its checked type), in file order."""
        return {
            r.decl.name: (r.decl.body, r.decl.type if r.decl.type is not None else r.inferred)
            for r in self.decls
            if isinstance(r.decl, Definition)
        }


def check_file(parsed: ParsedFile, fuel: Fuel | int | None = None) -> CheckedFile:
    kernel = KERNELS[parsed.mode]
    gate = parsed.mode == "lf"
    ctx = Context()
    records: list[Elaborated] = []
    names: set[str] = set()
    expansions: dict[str, Term] = {}

    def prepare(t: Term) -> Term:
        # definition bodies are already fully expanded, so one parallel pass
        # replaces every defined name
        out = substitute_parallel(t, expansions)
        if gate:
            assert_public(out)
        return out

    for decl in parsed.decls:
        budget = _as_fuel(fuel)  # fresh per declaration unless a Fuel is shared
        depth = len(ctx)
        inferred = None
        try:
            match decl:
                case SymbolDecl(name, ty, span):
                    if name in names:
                        raise fail(dk.DUPLICATE_NAME, f"{name!r} declared twice")
                    ty = prepare(ty)
                    kernel.sort_of(ctx, ty, budget)
                    ctx = ctx.extend(name, ty)
                    names.add(name)
                    decl = SymbolDecl(name, ty, span)
                case Definition(name, body, ty, span):
                    if name in names:
                        raise fail(dk.DUPLICATE_NAME, f"{name!r} declared twice")
                    body = prepare(body)
                    inferred = kernel.infer(ctx, body, budget)
                    if ty is not None:
                        ty = prepare(ty)
                        kernel.sort_of(ctx, ty, budget)
                        kernel.check(ctx, body, ty, budget)
                    expansions[name] = body
                    names.add(name)
                    decl = Definition(name, body, ty, span)
                case AssertJudgment(subject, ty, span):
                    subject, ty = prepare(subject), prepare(ty)
                    kernel.sort_of(ctx, ty, budget)
                    kernel.check(ctx, subject, ty, budget)
                    decl = AssertJudgment(subject, ty, span)
                case AssertConv(a, b, span):
                    a, b = prepare(a), prepare(b)
                    kernel.infer(ctx, a, budget)
                    kernel.infer(ctx, b, budget)
                    if not kernel.convert(ctx, a, b, budget):
                        raise fail(
                            dk.NOT_CONVERTIBLE,
                            "terms are not convertible",
                            context=ctx,
                            subject=a,
                        )
                    decl = AssertConv(a, b, span)
        except CheckError as err:
            raise err.with_span(decl.span) if decl.span is not None else err
        records.append(Elaborated(decl, depth, inferred))
    return CheckedFile(parsed.mode, ctx, tuple(records))
