"""List every statement of the library that no tier-1 test executes.

    python3 .github/scripts/unexecuted.py

Runs the tier-1 suite in this process with ``--hypothesis-seed=0`` under
``trace.Trace(count=1)`` and reads the statements of ``src/hardylab/*.py``
from their syntax trees, docstrings excluded.  A simple statement counts
as executed when any of its lines ran; a compound one (``def``, ``if``,
``for``, ``with``, ``try``, ...) when a line of its header, decorators
included, ran or any statement inside it did.  Prints each statement that
no test executes as ``file:line: source line``, and exits 1 if there is
any or if the suite fails.
"""

import ast
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
LIBRARY = ROOT / "src" / "hardylab"


def _is_docstring(node: ast.stmt, body: list) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node: ast.AST):
    """The statement lists directly inside a statement or module."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, None) or []
    for handler in getattr(node, "handlers", []):
        yield handler.body
    for case in getattr(node, "cases", []):
        yield case.body


def _first_line(node: ast.stmt) -> int:
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators])


def unexecuted(path: Path, ran: set) -> list:
    """Line numbers of the statements of ``path`` that never ran."""
    missed = []

    def visit(node: ast.stmt) -> bool:
        """Whether ``node`` ran; records every statement inside it that did not."""
        inner = [child for body in _children(node) for child in body
                 if not _is_docstring(child, body)]
        below = [visit(child) for child in inner]
        if inner:  # a compound statement's header ends before its first child
            last = min(_first_line(child) for child in inner) - 1
        else:
            last = node.end_lineno
        ok = any(line in ran for line in range(_first_line(node), last + 1)) or any(below)
        if not ok:
            missed.append(node.lineno)
        return ok

    module = ast.parse(path.read_text(), filename=str(path))
    for body in _children(module):
        for node in body:
            if not _is_docstring(node, body):
                visit(node)
    return sorted(missed)


def main() -> int:
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                          "--hypothesis-seed=0", str(ROOT / "tests")])
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    total = 0
    for path in sorted(LIBRARY.glob("*.py")):
        lines = path.read_text().splitlines()
        for line in unexecuted(path, ran.get(path.resolve(), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            total += 1
    print(f"{total} library statements unexecuted; tests exit status {int(status)}")
    return 1 if total or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
