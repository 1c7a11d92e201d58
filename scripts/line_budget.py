#!/usr/bin/env python3
"""Print, as CSV, the lines of each src/pelltrib module outside its module,
class and function docstrings, and their total, the figure the package's
line budget counts:

    python scripts/line_budget.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pelltrib"


def code_lines(source: str) -> int:
    """The number of lines of source outside module, class and function docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()) - len(docs)


def main() -> int:
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    print("module,lines")
    for name, lines in counts.items():
        print(f"{name},{lines}")
    print(f"total,{sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
