import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import kernelbandits


def test_every_public_name_exists():
    # a stale __all__ entry fails only on "from module import *", so check
    # each one here
    modules = [importlib.import_module(f"kernelbandits.{info.name}")
               for info in pkgutil.iter_modules(kernelbandits.__path__)]
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
    # stale imports behind
    roots = [Path(kernelbandits.__path__[0]), Path(__file__).resolve().parent]
    paths = [p for root in roots for p in sorted(root.glob("*.py"))]
    assert len(paths) > 10
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


def test_the_package_entry_imports_nothing():
    # callers import each name from its module, so __init__.py keeps no
    # re-export list to drift from the modules' __all__
    path = Path(kernelbandits.__path__[0]) / "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_the_walk_and_the_draw_have_one_owner():
    # the block size of every schedule walk is read only in kernels.py, and
    # the raw 64-bit stream only in rng.py, so each is decided in one place
    owners = {"_LOSS_BLOCK_ROWS": "kernels.py", "random_raw": "rng.py"}
    readers = {name: set() for name in owners}
    for path in sorted(Path(kernelbandits.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            for name in names & owners.keys():
                readers[name].add(path.name)
    assert readers == {name: {owner} for name, owner in owners.items()}


def test_no_module_sums_floats_with_sum_or_fsum():
    """The package never names the built-in ``sum``, ``math.fsum``,
    ``math.sumprod`` or ``math.fma``.

    CPython 3.12 made ``sum`` of floats compensated (Neumaier), so the same
    ``sum`` gives other bits on 3.12 than on 3.10 and 3.11, which the
    package also supports, and ``fsum`` rounds once where a loop rounds at
    every add.  ``sumprod`` (3.12+) adds its products in extended precision
    and ``fma`` (3.13+) rounds x * y + z once, so either one would give other
    bits than the loop's product and add, and exists only on some supported
    versions.  The same seed gives the same bits (``rng.py``) on every
    supported Python only while float sums are explicit left-to-right loops
    or numpy reductions.  Names count, not only calls: a ``sumprod`` bound
    to a local name or imported is still a ``sumprod``.
    """
    refused = {"fsum", "sumprod", "fma"}
    found = []
    for path in sorted(Path(kernelbandits.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = {node.id} & (refused | {"sum"})
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & refused
            elif isinstance(node, ast.alias):
                names = {node.name} & refused
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names]
    assert found == []


# Public names whose only callers are tests, kept on purpose.
_TEST_ONLY_PUBLIC = {
    "configure_bandit": ("paper construction: the bandit schedule from an eigendecay "
                         "profile; a caller would need a --params choice next to 'paper'"),
    "quadratic_adversary": "paper construction: the (A, b) adversary of quadratic losses",
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


def _modules_and_callers() -> tuple[list[Path], list[Path]]:
    """The package's modules, and the files whose calls count as non-test:
    those modules plus the benchmark's non-test files."""
    package = Path(kernelbandits.__path__[0])
    bench = Path(__file__).resolve().parent.parent / "bench"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted(p for p in bench.glob("*.py")
                               if not p.name.startswith("test_"))
    return modules, callers


def _public_objects(modules: list[Path]) -> dict[str, object]:
    objects = {}
    for path in modules:
        module = importlib.import_module(f"kernelbandits.{path.stem}")
        for name in getattr(module, "__all__", ()):
            objects[name] = getattr(module, name)
    return objects


def _attribute_reads(path: Path, classes: set[str]) -> list[tuple[tuple[str, str] | None,
                                                                   set[str]]]:
    """Attribute names a file reads, grouped by owner: (class, method) for a
    function defined directly in a class body, None for everything else.  A
    read through one of ``classes`` by name is recorded as "Class.attr"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parts = []
    for stmt in tree.body:
        body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for node in body:
            own = ((stmt.name, node.name) if isinstance(stmt, ast.ClassDef)
                   and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    through = getattr(sub.value, "id", None)
                    names.add(f"{through}.{sub.attr}" if through in classes else sub.attr)
            parts.append((own, names))
    return parts


def _public_members(modules: list[Path], classes: set[str]) -> list[tuple[str, str]]:
    """(class, name) of each method or property a public class defines in its
    own body; dunders are exempt."""
    members = []
    for path in modules:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in classes:
                members += [(stmt.name, node.name) for node in stmt.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    return members


def test_public_names_have_a_non_test_caller():
    # a name in __all__ must be read by the package or the benchmark outside
    # its own definition; tests do not count.  So must each method and
    # property of a public class, by attribute name: a read of another
    # attribute with the same name counts too, unless it is read through
    # another public class by name (WeightState.uniform is not
    # DiscreteDistribution.uniform).
    modules, callers = _modules_and_callers()
    references = [entry for path in callers for entry in _statement_references(path)]
    objects = _public_objects(modules)
    public = list(objects)
    assert len(public) > 50
    uncalled = [name for name in public if name not in _TEST_ONLY_PUBLIC
                and not any(name in names for own, names in references if own != name)]
    assert uncalled == []
    assert set(_TEST_ONLY_PUBLIC) <= set(public)
    classes = {name for name, obj in objects.items() if inspect.isclass(obj)}
    reads = [entry for path in callers for entry in _attribute_reads(path, classes)]
    members = _public_members(modules, classes)
    assert len(members) > 10
    unread = [f"{cls}.{name}" for cls, name in members
              if not any(name in names or f"{cls}.{name}" in names
                         for own, names in reads if own != (cls, name))]
    assert unread == []


# Defaulted parameters that no non-test call sets, kept on purpose.
_TEST_ONLY_PARAMETERS = {
    "main(argv)": "tests drive the CLI in-process; the console script passes none",
    "run_cg(a1)": "the start point on a UnitBall, which no harness path plays yet",
}


def _settable_parameters(obj) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter or dataclass field
    that has a default, i.e. that a caller may leave unset."""
    if dataclasses.is_dataclass(obj) and isinstance(obj, type):
        fields = [f for f in dataclasses.fields(obj) if f.init]
        return [(f.name, i) for i, f in enumerate(fields)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING]
    if inspect.isfunction(obj):
        params = list(inspect.signature(obj).parameters.values())
        return [(p.name, i if p.kind is p.POSITIONAL_OR_KEYWORD else None)
                for i, p in enumerate(params) if p.default is not p.empty]
    return []


def _calls(path: Path) -> list[tuple[str, int, set[str]]]:
    """(callee name, positional count, keyword names) of every call in a file;
    ``cls(...)`` inside a class body calls that class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in ast.walk(cls):
            owner[node] = cls.name

    def name_of(node):
        if isinstance(node, ast.Name):
            return owner.get(node, node.id) if node.id == "cls" else node.id
        return node.attr if isinstance(node, ast.Attribute) else None

    return [(name_of(node.func), len(node.args),
             {kw.arg for kw in node.keywords if kw.arg is not None})
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_public_parameters_have_a_non_test_setter():
    # a parameter or dataclass field with a default, on a name in __all__,
    # must be set by some call in the package or the benchmark, by keyword
    # or by enough positional arguments; otherwise only tests can reach the
    # code it selects.  Allow-listed functions are skipped whole.
    modules, callers = _modules_and_callers()
    calls = [call for path in callers for call in _calls(path)]
    scanned, unset = set(), []
    for name, obj in _public_objects(modules).items():
        if name in _TEST_ONLY_PUBLIC:
            continue
        for param, position in _settable_parameters(obj):
            scanned.add(f"{name}({param})")
            if not any(callee == name and (param in keywords or (
                    position is not None and positional > position))
                    for callee, positional, keywords in calls):
                unset.append(f"{name}({param})")
    # the scan reads dataclass fields and function parameters alike
    assert {"KernelSpec(sigma)", "d_optimal_design(tol)"} <= scanned
    assert sorted(set(unset) - set(_TEST_ONLY_PARAMETERS)) == []
    assert set(_TEST_ONLY_PARAMETERS) <= set(unset)
