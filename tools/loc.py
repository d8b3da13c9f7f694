"""Count the source lines of the twophoton package.

    python3 tools/loc.py [directory]

For each .py file under the directory (default: src/twophoton next to this
script's parent) and in total, prints the non-blank lines that are not
comments, counted two ways: with docstrings, and without the lines that
module, class and function docstrings span; and the number of public
names, the length of the module's literal __all__ ("-" without one).
Standard library only.
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


def _public_names(tree: ast.Module) -> int | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return len(ast.literal_eval(node.value))
    return None


def count(path: Path) -> tuple[int, int, int | None]:
    """(with docstrings, without docstrings) non-blank, non-comment lines,
    and len(__all__), None when the module assigns no __all__."""
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = _docstring_lines(tree)
    code = [number for number, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith("#")]
    return (len(code), sum(1 for number in code if number not in docstrings),
            _public_names(tree))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "twophoton"
    totals = [0, 0, 0]
    print(f"{'file':<24}{'with docstrings':>17}{'without':>9}{'__all__':>9}")
    for path in sorted(root.glob("*.py")):
        with_doc, without, public = count(path)
        totals = [t + c for t, c in zip(totals, (with_doc, without, public or 0))]
        print(f"{path.name:<24}{with_doc:>17}{without:>9}"
              f"{'-' if public is None else public:>9}")
    print(f"{'total':<24}{totals[0]:>17}{totals[1]:>9}{totals[2]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
