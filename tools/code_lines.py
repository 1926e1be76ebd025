"""Code lines of src/qformlab by an AST count, per module and in total.

A code line is a line spanned by an AST statement or expression that is
neither blank nor comment-only and lies outside every module, class and
function docstring.  Run from anywhere: python tools/code_lines.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qformlab"

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    tree = ast.parse(source)
    spanned, docstrings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = source.splitlines()
    return sum(
        1 for n in spanned - docstrings
        if lines[n - 1].strip() and not lines[n - 1].lstrip().startswith("#")
    )


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%-16s %5d" % (path.name, count))
    print("%-16s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
