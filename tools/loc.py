"""Count the source lines of the twophoton package.

    python3 tools/loc.py [directory]

For each .py file under the directory (default: src/twophoton next to this
script's parent) and in total, prints the non-blank lines that are not
comments, counted two ways: with docstrings, and without the lines that
module, class and function docstrings span; and the number of public
names, the length of the module's literal __all__ ("-" without one).
Then it counts the options a user can set: the config keys of
scenario._SCHEMA, each key of a one-of group counted, and the `--` flags
cli._build_parser adds. Standard library only.
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


def _assigned(tree: ast.Module, name: str) -> ast.expr | None:
    """The value of the module-level assignment to `name`, if any."""
    return next((node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == name for target in node.targets)),
                None)


def _public_names(tree: ast.Module) -> int | None:
    names = _assigned(tree, "__all__")
    return None if names is None else len(ast.literal_eval(names))


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


def config_keys(path: Path) -> int:
    """Keys of the _SCHEMA dict in scenario.py, a one-of group (a tuple,
    literal or named) counting each of its keys."""
    tree = ast.parse(path.read_text())
    total = 0
    for section in _assigned(tree, "_SCHEMA").values:
        for key in section.keys:
            value = ast.literal_eval(_assigned(tree, key.id) if isinstance(key, ast.Name)
                                     else key)
            total += len(value) if isinstance(value, tuple) else 1
    return total


def _flags(node: ast.AST, times: int = 1) -> int:
    # add_argument("--...") calls under node, each counted once per pass of
    # the literal-tuple for loops around it
    if isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
        times *= len(node.iter.elts)
    found = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "add_argument" and bool(node.args) \
        and isinstance(node.args[0], ast.Constant) \
        and str(node.args[0].value).startswith("--")
    return times * found + sum(_flags(child, times) for child in ast.iter_child_nodes(node))


def cli_flags(path: Path) -> int:
    """`--` options _build_parser in cli.py adds, over all subcommands."""
    tree = ast.parse(path.read_text())
    return _flags(next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                       and node.name == "_build_parser"))


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
    print(f"config keys {config_keys(root / 'scenario.py')}")
    print(f"CLI flags {cli_flags(root / 'cli.py')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
