"""Dual-kernel proof checker for predicate subtyping with proof irrelevance.

One kernel checks a small extension of simple type theory whose subtype
members carry explicit certificates; the other checks a dependently typed
logical framework equipped with a rewrite theory that encodes the first
system. A type-directed translation maps checked developments from the
former into the latter, a partial inverse maps them back, and a small
declaration language plus CLI tie everything together.
"""

from __future__ import annotations

from importlib import resources

from .checker import CheckedFile, check_file
from .diagnostics import CheckError, Diagnostic, SourceSpan
from .inverse import NotInImage, inverse_term
from .lf import LF_SIGNATURE, RULES_R, assert_public, convertible_lf
from .pcert import BETA_PROJ, PCERT_SIGNATURE, conv_pcert, pi_erase
from .rewrite import (
    DEFAULT_FUEL,
    Fuel,
    OrthogonalityReport,
    RewriteRule,
    RuleSet,
    check_orthogonality,
    convertible,
    match,
    normalize,
    whnf,
)
from .syntax import (
    AssertConv,
    AssertJudgment,
    Declaration,
    Definition,
    ParsedFile,
    SymbolDecl,
    parse_file,
    parse_term,
    print_file,
    print_term,
)
from .terms import (
    Abs,
    App,
    Bound,
    Context,
    Prod,
    Signature,
    Sort,
    SymApp,
    Term,
    Var,
    alpha_eq,
    free_names,
)
from .export import export_lambdapi
from .translate import translate_ctx, translate_term, translate_type


def corpus_path(name: str):
    """Path to a bundled corpus file, e.g. corpus_path('stacks.pcert').
    Library API: the acceptance criteria read the corpus through it."""
    return resources.files(__package__) / "corpus" / name

