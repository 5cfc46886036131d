"""Structured errors shared by the parser, the kernels and the CLI."""

from __future__ import annotations

from .record import Frozen, Record, setters

# Failure kinds; `cli._exit_code` maps each to the command's exit code.
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


class SourceSpan(Frozen):
    """A place in a file. A span from `span_at` finds its fields when one
    is first read (see `lexer.Source`)."""

    __match_args__ = ("file", "line", "column", "length")
    __slots__ = (*__match_args__, "_source", "_token")

    def __init__(self, file: str, line: int, column: int, length: int = 1):
        """For tests and tooling: the parser makes its spans with `span_at`."""
        _span_file(self, file)
        _span_line(self, line)
        _span_column(self, column)
        _span_length(self, length)

    def __getattr__(self, name: str) -> object:
        # reached only for an unset slot: a field of a span from `span_at`,
        # read for the first time
        if name not in SourceSpan.__match_args__:
            raise AttributeError(name)
        for set_field, value in zip(_SPAN_FIELDS, self._source.locate(self._token)):
            set_field(self, value)
        return getattr(self, name)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


_span_file, _span_line, _span_column, _span_length, _span_source, _span_token = setters(SourceSpan)
_SPAN_FIELDS = (_span_file, _span_line, _span_column, _span_length)
_new = object.__new__


def span_at(source: object, token: int) -> SourceSpan:
    """The span of token `token` of `source`, a `lexer.Source`, whose
    `locate` gives the fields when one is first read."""
    span = _new(SourceSpan)
    _span_source(span, source)
    _span_token(span, token)
    return span


class Diagnostic(Record):
    """A failure report: what went wrong, where, and on which judgment.

    `context` is the Context under which the check ran, `subject` the term
    under check. Mutable: `CheckError.with_span` fills the span in."""

    __slots__ = __match_args__ = ("kind", "message", "span", "context", "subject")

    def __init__(
        self,
        kind: str,
        message: str,
        span: SourceSpan | None = None,
        context: object | None = None,
        subject: object | None = None,
    ):
        self.kind = kind
        self.message = message
        self.span = span
        self.context = context
        self.subject = subject

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
    """Parse-level failure (bad token, bad declaration, bad symbol arity).
    Its text is made only when asked for, so its span resolves only if
    read."""

    def __init__(self, message: str, span: SourceSpan | None = None, kind: str = PARSE_ERROR):
        """Raised by malformed text only, which no generated input is."""
        self.diagnostic = Diagnostic(kind, message, span=span)

    def __str__(self) -> str:
        """For a library caller; `cli.main` prints the diagnostic itself."""
        return str(self.diagnostic)


def fail(kind: str, message: str, *, context: object = None, subject: object = None) -> CheckError:
    return CheckError(Diagnostic(kind, message, context=context, subject=subject))
