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
