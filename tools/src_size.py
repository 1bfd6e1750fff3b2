"""Print the size of the tribell package: physical lines and code lines.

A code line is a non-blank line outside comments and docstrings.  Run from
the repository root, or pass the package directory:

    python tools/src_size.py [src/tribell]
"""

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: Path) -> tuple:
    """(physical lines, code lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    docstrings = _docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)
    return len(lines), code


def main(argv: list) -> int:
    package = Path(argv[0] if argv else "src/tribell")
    total_physical = total_code = 0
    for path in sorted(package.glob("*.py")):
        physical, code = sizes(path)
        total_physical += physical
        total_code += code
        print(f"{physical:6d} {code:6d}  {path}")
    print(f"{total_physical:6d} {total_code:6d}  total (physical, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
