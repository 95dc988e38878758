"""Size census of the package source: lines, defaulted parameters, CLI options.

Lines are counted as `cat src/rumkit/*.py | wc -l` counts them (newlines).
Defaulted parameters are len(args.defaults) plus the non-None kw_defaults of
every function and lambda in an ast.walk of each src/rumkit/*.py. CLI options
are the actions other than --help of each subcommand of rumkit.cli's
build_parser(), summed over the subcommands (an option that two commands
declare counts twice).

Usage: python scripts/census.py
"""

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rumkit"


def cli_options() -> int:
    sys.path.insert(0, str(SRC.parent))
    from rumkit.cli import build_parser

    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sum(
        not isinstance(a, argparse._HelpAction)
        for p in commands.choices.values()
        for a in p._actions
    )


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
    print(f"CLI options: {cli_options()}")


if __name__ == "__main__":
    main()
