"""Size census of the package source: lines, defaulted parameters, CLI
options, dataclass constructor fields, private reads from outside.

Lines are counted as `cat src/rumkit/*.py | wc -l` counts them (newlines).
Defaulted parameters are len(args.defaults) plus the non-None kw_defaults of
every function and lambda in an ast.walk of each src/rumkit/*.py. CLI options
are the actions other than --help of each subcommand of rumkit.cli's
build_parser(), summed over the subcommands (an option that two commands
declare counts twice). Dataclass constructor fields are the annotated class
attributes of every @dataclass class in src/rumkit/*.py, except those
declared with init=False. Private reads from outside are the loaded
attributes of every src/rumkit/*.py whose name has one leading underscore
(`obj._name`, not `obj.__name`) on an object other than a bare `self` or
`cls`: one module or class reaching into another's internals.

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


def _is_dataclass(node) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def _init_field(stmt) -> bool:
    """Whether a class-body statement is a field the constructor takes."""
    if not isinstance(stmt, ast.AnnAssign):
        return False
    value = stmt.value
    return not (
        isinstance(value, ast.Call)
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


def _private_read(node) -> bool:
    """Whether an AST node loads obj._name from an obj other than self or cls."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )


def main():
    lines = defaults = fields = private = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                defaults += len(args.defaults)
                defaults += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(map(_init_field, node.body))
            private += _private_read(node)
    print(f"src lines: {lines}")
    print(f"defaulted parameters: {defaults}")
    print(f"CLI options: {cli_options()}")
    print(f"dataclass constructor fields: {fields}")
    print(f"private reads from outside: {private}")


if __name__ == "__main__":
    main()
