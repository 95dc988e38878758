"""Print every statement of src/rumkit that a run of the tests never executes.

Runs pytest over tests/ in this process under a sys.settrace tracer. The
tracer returns None for every frame whose code lies outside src/rumkit, so
numpy's and pytest's own frames are not traced line by line. Standard library
only: no coverage package is needed.

A statement is executable when the compiled module has bytecode on a line of
its header (decorators included, a compound statement's body excluded), and
it ran when a line event fired on one of those lines. Docstrings and other
statements without bytecode are never listed. Code that runs only in a child
process, such as the tests' `python -m rumkit.cli` subprocesses, is not seen.

Usage: python scripts/coverage_gaps.py [PYTEST_ARGS...]
Prints `file:line  source` for each statement that never ran, after pytest's
own output, and exits with pytest's exit code.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rumkit"


def code_lines(code) -> set:
    """The lines that a code object, or any code nested in it, has bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, header lines) of every statement in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = node.end_lineno
            if isinstance(body, list) and body:  # a compound statement's header
                end = max(node.lineno, body[0].lineno - 1)
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield node.lineno, range(start, end + 1)


def main(argv) -> int:
    prefix = str(SRC) + os.sep
    hit = set()

    def lines(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC.parent))
    import pytest

    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        executable = code_lines(compile(text, str(path), "exec"))
        ran = {line for name, line in hit if name == str(path)}
        for first, header in sorted(statements(ast.parse(text)), key=lambda s: s[0]):
            if executable.intersection(header) and not ran.intersection(header):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}  {source[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
