"""Physical and code-only lines of each module of ``src/somkit``, and their total.

Usage: python3 tools/line_count.py [DIRECTORY]

A code-only line holds a token other than a comment, a docstring or a line
end; a string or other token over several lines counts on each of them. A
docstring is the string statement that opens a module, class or function
body. The counts use the standard ``tokenize`` and ``ast`` modules only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "somkit"
# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def count_lines(source: str) -> tuple[int, int]:
    """Physical and code-only lines of ``source``."""
    docstrings = set()  # the lines of the docstrings' string tokens
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = [0, 0]
    print(f"{'module':<16} {'physical':>8} {'code':>8}")
    for path in sorted(src.glob("*.py")):
        physical, code = count_lines(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{path.name:<16} {physical:>8} {code:>8}")
    print(f"{'total':<16} {total[0]:>8} {total[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
