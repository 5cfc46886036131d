"""Line counts of the package's modules.

    python tests/linecount.py [DIR]

Prints, for each module of DIR (default: src/pcert) and in total, its
`wc -l` lines and its code lines: the lines that hold a Python token other
than a comment, outside docstrings, found with `tokenize` and `ast`. A
script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docstrings = docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pcert"
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<20} {wc:>6} {code:>6}")
    print(f"{'total':<20} {total_wc:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
