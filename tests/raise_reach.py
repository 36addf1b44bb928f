"""List each `raise` in src/banded_darboux that no tier-1 test reaches.

    python tests/raise_reach.py [PYTEST ARGS]

Runs pytest on tests/ (or on PYTEST ARGS) in this process under a
sys.settrace line tracer restricted to the package's files, then prints
one `file:line` per raise statement whose first line never ran, and the
count. Exit status 1 when any raise statement is unreached, or when pytest
itself fails. Standard library and pytest only; not collected by pytest,
and several times slower than tier-1.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "banded_darboux"
sys.path.insert(0, str(ROOT / "src"))

raises = {
    (str(path), node.lineno)
    for path in sorted(PACKAGE.glob("*.py"))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.Raise)
}
files = {name for name, _ in raises}
reached = set()


def _lines(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename in files else None


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    try:
        args = sys.argv[1:] or [str(ROOT / "tests")]
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    missed = sorted(raises - reached)
    for name, line in missed:
        print(f"{Path(name).relative_to(ROOT)}:{line}")
    print(f"{len(missed)} of {len(raises)} raise statements not reached")
    sys.exit(1 if missed or code != 0 else 0)
