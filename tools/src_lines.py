"""Physical and code lines of each module of src/rbns/, and the totals.

    python3 tools/src_lines.py [SRC_DIR]

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indentation); blank lines, comment lines and the lines of
module, class and function docstrings (found with ``ast``) are left out.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src", "rbns")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> None:
    src = argv[0] if argv else DEFAULT_SRC
    total_lines = total_code = 0
    print(f"{'module':<20}{'lines':>8}{'code':>8}")
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines += lines
        total_code += code
        print(f"{name:<20}{lines:>8}{code:>8}")
    print(f"{'total':<20}{total_lines:>8}{total_code:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
