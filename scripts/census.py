"""Size census of the package source: lines and defaulted parameters.

Lines are counted as `cat src/rumkit/*.py | wc -l` counts them (newlines).
Defaulted parameters are len(args.defaults) plus the non-None kw_defaults of
every function and lambda in an ast.walk of each src/rumkit/*.py.

Usage: python scripts/census.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rumkit"


def main():
    lines = defaults = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                defaults += len(args.defaults)
                defaults += sum(d is not None for d in args.kw_defaults)
    print(f"src lines: {lines}")
    print(f"defaulted parameters: {defaults}")


if __name__ == "__main__":
    main()
