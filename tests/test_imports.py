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
    such as -> "LambdaLadder"."""
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


PACKAGE = ROOT / "src" / "banded_darboux"


def _definitions(tree: ast.Module):
    """(qualified name, name, line) of each module-level function, class or
    non-dunder name an assignment binds, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id, name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def _reads(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names and attributes loaded under `node`, skipping a read of X made
    inside a definition named X (a recursive call, a classmethod's cls()).
    Quoted annotations such as -> "LambdaLadder" count as reads."""
    read = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        read.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read.add(node.attr)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for annotation in filter(None, _annotations(ast.Module([node], []))):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    quoted = ast.parse(sub.value, mode="eval")
                    read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for child in ast.iter_child_nodes(node):
        read |= _reads(child, inside)
    return read - inside


def unreached_definitions(package: Path) -> list[str]:
    """`module:line: name` for every function, class, method or
    module-level name of the package that no module of the package reads,
    `__init__.py`'s re-exports aside."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }
    read = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            read |= _reads(tree)
    return [
        f"{path.name}:{line}: {qualified}"
        for path, tree in trees.items()
        for qualified, name, line in _definitions(tree)
        if name not in read
    ]


def test_every_package_definition_is_read_in_the_package():
    """What src/ defines, src/ uses: the five commands reach it, or it is
    test-only and belongs in tests/helpers.py. That covers module-level
    names too, such as a constant only the tests read.

    The match is by bare name, so a member that shares its name with one
    that is read elsewhere (a `from_json_dict` beside the one the CLI calls,
    a `value` beside `LambdaLadder.value`, a `passed` on one record beside
    `TheoremCertificate.passed`) is out of this test's reach. The complement
    is a run-time check: wrap every function and method of the package, run
    the five commands (and `transform --j 1`) on configs that end in each of
    the exits 0-3, and list the members no command called.
    """
    assert unreached_definitions(PACKAGE) == []


def test_the_guard_sees_module_level_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "READ = 1\nUNREAD, (PAIR, _HIDDEN) = 2, (3, 4)\nTYPED: int = 5\n"
        "__version__ = '0'\nprint(READ, PAIR)\n"
    )
    (tmp_path / "b.py").write_text("from .a import TYPED\nprint(TYPED)\n")
    assert unreached_definitions(tmp_path) == ["a.py:2: UNREAD", "a.py:2: _HIDDEN"]
