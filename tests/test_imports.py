"""Every imported name is read somewhere in its module.

No lint tool is a dependency of this project, so the check is a scan of each
module's syntax tree with the standard library's `ast`. The package's
`__init__.py` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos")
EXEMPT = {Path("src", "banded_darboux", "__init__.py")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, including those inside quoted annotations
    such as -> "LinearFunctional"."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def unused_imports(root: Path) -> list[str]:
    """`path:line: name` for every imported name its module never reads."""
    found = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            relative = path.relative_to(root)
            if relative in EXEMPT:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            read = _read_names(tree)
            for name, line in _imported_names(tree).items():
                if name not in read:
                    found.append(f"{relative}:{line}: {name}")
    return found


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports(ROOT) == []
