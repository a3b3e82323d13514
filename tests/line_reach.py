"""List the src/ statements that the Tier-1 suite never executes.

Run from the repository root (pytest does not collect this file):

    python3 tests/line_reach.py [extra pytest arguments]

A ``sys.settrace`` line tracer, installed before the package is imported,
records every line executed in ``src/asyncsgd`` while the Tier-1 suite
runs in this process (no coverage package is needed).  A statement counts
as executable when its own lines (the header of a compound statement)
carry bytecode, so docstrings and ``nonlocal`` declarations do not count;
the ``if __name__ == "__main__":`` guard and its body do not count either.
The script prints each unreached statement as ``file:line: source`` and
then the total.  It exits with pytest's status if a test fails, else with
1 if any statement is unreached, else 0.  Tracing makes the suite several
times slower.
"""
from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "asyncsgd") + os.sep

executed: dict = {}


def _local(frame, event, _arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, _event, _arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PACKAGE):
        return None
    executed.setdefault(filename, set())
    return _local


def _code_lines(code) -> set:
    """Every line that carries bytecode in `code` and its nested code."""
    lines = {line for _s, _e, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _main_guard(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__")


def _own_lines(node) -> range:
    """The lines of a statement minus those of the statements it holds."""
    first = min((n.lineno for n in getattr(node, "decorator_list", ())),
                default=node.lineno)
    children = [child for name in ("body", "orelse", "finalbody", "handlers")
                for child in getattr(node, name, ())
                if isinstance(child, ast.stmt)]
    end = min((c.lineno for c in children), default=node.end_lineno + 1)
    return range(first, max(end, node.lineno + 1))


def unreached(path: str) -> list:
    """(line, source) of each executable statement of `path` not executed."""
    with open(path) as fh:
        source = fh.read()
    bytecode = _code_lines(compile(source, path, "exec"))
    hit = executed.get(path, set())
    text = source.splitlines()
    out = []

    def visit(nodes):
        for node in nodes:
            if not isinstance(node, ast.stmt) or _main_guard(node):
                continue
            own = set(_own_lines(node)) & bytecode
            if own and not own & hit:
                out.append((node.lineno, text[node.lineno - 1].strip()))
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, ()))
            for handler in getattr(node, "handlers", ()):
                visit(handler.body)

    visit(ast.parse(source).body)
    return sorted(out)


def main(argv: list) -> int:
    import pytest  # before tracing: the tracer only watches the package

    # import the package from this checkout, under the path PACKAGE names
    sys.path.insert(0, os.path.dirname(PACKAGE.rstrip(os.sep)))
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              os.path.join(ROOT, "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        for line, text in unreached(os.path.join(PACKAGE, name)):
            print(f"src/asyncsgd/{name}:{line}: {text}")
            total += 1
    print(f"{total} unreached src/ statements (pytest exit status {status})")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
