import ast
import importlib
import pkgutil
from pathlib import Path

import kernelbandits


def test_every_public_name_exists():
    # a stale __init__ import fails at import time; a stale __all__ entry
    # fails only on "from module import *", so check each one here
    modules = [kernelbandits] + [
        importlib.import_module(f"kernelbandits.{info.name}")
        for info in pkgutil.iter_modules(kernelbandits.__path__)
    ]
    listed = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            listed += 1
    assert listed > 0


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (scope-insensitive)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    # no linter is configured; deleted public names would otherwise leave
    # stale imports behind.  __init__.py imports are re-exports.
    roots = [Path(kernelbandits.__path__[0]), Path(__file__).resolve().parent]
    paths = [p for root in roots for p in sorted(root.glob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 10
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


# Public names whose only callers are tests, kept on purpose.
_TEST_ONLY_PUBLIC = {
    "configure_bandit": "paper construction: the bandit schedule from an eigendecay profile",
    "theorem_regret_bound": "paper construction: the regret bound the theorems state",
    "quadratic_adversary": "paper construction: the (A, b) adversary of quadratic losses",
    "surrogate_membership": "paper construction: the convex reparametrized constraint set",
    "basis_to_json": "documented persistence format of a proxy basis",
    "basis_from_json": "documented persistence format of a proxy basis",
    "parse_trace": "reader of the CSV that emit_trace writes",
}


def _statement_references(path: Path) -> list[tuple[str | None, set[str]]]:
    """For each top-level statement, the name it defines (if any) and the
    names it reads as variables or attributes; strings do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(getattr(stmt, "name", None),
             {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)})
            for stmt in tree.body]


def test_public_names_have_a_non_test_caller():
    # a name in __all__ must be read by the package or the benchmark outside
    # its own definition; __init__.py re-exports and tests do not count
    package = Path(kernelbandits.__path__[0])
    bench = Path(__file__).resolve().parent.parent / "bench"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted(p for p in bench.glob("*.py")
                               if not p.name.startswith("test_"))
    references = [entry for path in callers for entry in _statement_references(path)]
    public = [name for path in modules
              for name in getattr(importlib.import_module(f"kernelbandits.{path.stem}"),
                                  "__all__", ())]
    assert len(public) > 50
    uncalled = [name for name in public if name not in _TEST_ONLY_PUBLIC
                and not any(name in names for own, names in references if own != name)]
    assert uncalled == []
    assert set(_TEST_ONLY_PUBLIC) <= set(public)
