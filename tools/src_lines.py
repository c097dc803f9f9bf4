"""Print the code lines and AST statements of ``src/gibbsgap``, per module and in total.

A code line is a non-blank line that is neither a ``#`` comment nor part of a
docstring (the first string statement of a module, class or function body).
AST statements are the ``ast.stmt`` nodes of each module, docstrings included.

    python3 tools/src_lines.py [SRC_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(text: str) -> set[int]:
    """The lines whose only token is a comment."""
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return comments - code


def count(path: Path) -> tuple[int, int]:
    """``(code lines, AST statements)`` of one module."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    skip = _docstring_lines(tree) | _comment_lines(text)
    lines = sum(1 for i, line in enumerate(text.splitlines(), 1) if line.strip() and i not in skip)
    return lines, sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else _ROOT / "src" / "gibbsgap"
    total = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'stmts':>6}")
    for path in sorted(src.glob("*.py")):
        lines, stmts = count(path)
        total[0] += lines
        total[1] += stmts
        print(f"{path.name:<16} {lines:>6} {stmts:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
