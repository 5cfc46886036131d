"""Structured errors shared by the parser, the kernels and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

# Failure kinds. Parse-level kinds map to CLI exit code 2, the resource bounds
# FUEL_EXHAUSTED and DEPTH_EXCEEDED to 3, PROTECTED_SYMBOL to 4; everything
# else is a type error (exit code 1).
PARSE_ERROR = "ParseError"
ARITY_MISMATCH = "ArityMismatch"
DUPLICATE_NAME = "DuplicateName"
UNBOUND_VARIABLE = "UnboundVariable"
UNKNOWN_SYMBOL = "UnknownSymbol"
SORT_HAS_NO_TYPE = "SortKindHasNoType"
NOT_A_FUNCTION = "NotAFunction"
NOT_A_SORT = "NotASort"
DOMAIN_MISMATCH = "DomainMismatch"
TYPE_MISMATCH = "TypeMismatch"
ILLEGAL_PRODUCT = "IllegalProduct"
FUEL_EXHAUSTED = "FuelExhausted"
DEPTH_EXCEEDED = "DepthExceeded"
PROTECTED_SYMBOL = "ProtectedSymbol"
NOT_TYPABLE = "NotTypable"
NOT_CONVERTIBLE = "NotConvertible"
UNCHECKED_INPUT = "UncheckedInput"
WRONG_MODE = "WrongMode"


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass
class Diagnostic:
    """A failure report: what went wrong, where, and on which judgment."""

    kind: str
    message: str
    span: SourceSpan | None = None
    context: object | None = None  # the Context under which the check ran
    subject: object | None = None  # the term under check

    def __str__(self) -> str:
        loc = f"{self.span}: " if self.span is not None else ""
        return f"{loc}{self.kind}: {self.message}"


class CheckError(Exception):
    """Raised by every operation that can fail with a Diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic

    @property
    def kind(self) -> str:
        return self.diagnostic.kind

    def with_span(self, span: SourceSpan) -> CheckError:
        if self.diagnostic.span is None:
            self.diagnostic.span = span
        return self


class FuelError(CheckError):
    """Rewrite budget ran out; carries the partially reduced term."""

    def __init__(self, partial: object = None):
        super().__init__(
            Diagnostic(
                FUEL_EXHAUSTED,
                "rewrite fuel exhausted before reaching a normal form",
                subject=partial,
            )
        )


class ProtectedError(CheckError):
    def __init__(self, symbol: str, path: tuple[str, ...]):
        where = "/".join(path) if path else "root"
        super().__init__(
            Diagnostic(
                PROTECTED_SYMBOL,
                f"protected symbol {symbol!r} may not appear in user input (at {where})",
            )
        )
        self.symbol = symbol
        self.path = path


class SurfaceError(CheckError):
    """Parse-level failure (bad token, bad declaration, bad symbol arity)."""

    def __init__(self, message: str, span: SourceSpan | None = None, kind: str = PARSE_ERROR):
        super().__init__(Diagnostic(kind, message, span=span))


def fail(kind: str, message: str, *, context: object = None, subject: object = None) -> CheckError:
    return CheckError(Diagnostic(kind, message, context=context, subject=subject))
