"""Count the source lines of the twophoton package.

    python3 tools/loc.py [directory]

For each .py file under the directory (default: src/twophoton next to this
script's parent) and in total, prints the non-blank lines that are not
comments, counted two ways: with docstrings, and without the lines that
module, class and function docstrings span. Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(with docstrings, without docstrings) non-blank, non-comment lines."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code = [number for number, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith("#")]
    return len(code), sum(1 for number in code if number not in docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "twophoton"
    totals = [0, 0]
    print(f"{'file':<24}{'with docstrings':>17}{'without':>9}")
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<24}{counts[0]:>17}{counts[1]:>9}")
    print(f"{'total':<24}{totals[0]:>17}{totals[1]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
