"""Count the code lines of src/banded_darboux, per module and in total.

    python tests/code_lines.py

A code line holds a token of Python code: blank lines, comment-only lines
and the lines of a docstring (the first statement of a module, class or
function, when it is a string) are not counted. A statement that spans
several lines counts each of them. Standard library only; not collected
by pytest.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "banded_darboux"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> int:
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
