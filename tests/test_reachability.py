"""Every module under ``src/repro`` is reached from an entry point.

An ``ast`` import walk starts from the command line (``repro.cli``,
``repro.__main__``) and from every ``repro`` import in ``scripts/``,
``benchmarks/`` and ``perfbench/``.  Tests, examples and docs are not
roots: a module only they import is an island and should be deleted.

Walk rules:

* every import in a reached module counts, including imports inside
  functions (lazy imports);
* ``from pkg import name`` follows ``name`` to the module that defines it,
  through the re-exports of package ``__init__`` files, so a re-export
  alone does not keep a module alive;
* a name defined in a package ``__init__`` itself (such as
  ``repro.partition.PARTITIONERS``) may use anything that ``__init__``
  imports, so it reaches every module the ``__init__`` imports;
* ``import pkg`` of a package reaches its whole ``__init__``.
"""

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("scripts", "benchmarks", "perfbench")
ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _module_files() -> Dict[str, pathlib.Path]:
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()
_TREES: Dict[str, ast.Module] = {}


def _tree(module: str) -> ast.Module:
    if module not in _TREES:
        _TREES[module] = ast.parse(MODULES[module].read_text())
    return _TREES[module]


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _absolute(module: Optional[str], node: ast.ImportFrom) -> str:
    """The absolute module name of a (possibly relative) ``from`` import."""
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _imports(tree: ast.AST, module: Optional[str] = None
             ) -> Iterator[Tuple[str, Optional[str], Optional[str]]]:
    """``(source module, imported name, bound name)`` for every import.

    ``import a.b`` yields ``("a.b", None, None)``; a star import yields
    the name ``"*"``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, None
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                yield source, alias.name, alias.asname or alias.name


def _defines(tree: ast.Module, name: str) -> bool:
    """Whether ``name`` is bound at module level other than by import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            return True
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if any(isinstance(n, ast.Name) and n.id == name
                   for n in ast.walk(target)):
                return True
    return False


class _Walk:
    def __init__(self) -> None:
        self.reached: Set[str] = set()
        self._todo: List[str] = []

    def _run_init(self, module: str) -> None:
        """Mark ``module`` and the packages containing it as run, without
        walking them: running an ``__init__`` uses none of its names."""
        parts = module.split(".")
        self.reached.update(".".join(parts[:i])
                            for i in range(1, len(parts) + 1))

    def reach(self, module: str) -> None:
        """Mark ``module`` as used and queue its imports for the walk."""
        if module not in self.reached:
            self._todo.append(module)
        self._run_init(module)

    def follow(self, source: str, name: Optional[str]) -> None:
        """Resolve ``from source import name`` (or ``import source`` when
        ``name`` is None); imports from outside ``repro`` are ignored."""
        if source not in MODULES:
            return
        if name is None or name == "*":
            self.reach(source)
        elif f"{source}.{name}" in MODULES:
            self.reach(f"{source}.{name}")
        elif not _is_package(source) or _defines(_tree(source), name):
            self.reach(source)
        else:
            # A package re-export: follow the name to where it comes from.
            self._run_init(source)
            found = False
            for inner, imported, bound in _imports(_tree(source), source):
                if bound == name or imported == "*":
                    self.follow(inner, imported if imported != "*" else name)
                    found = True
            if not found:
                self.reach(source)

    def run(self) -> Set[str]:
        while self._todo:
            module = self._todo.pop()
            for source, name, _ in _imports(_tree(module), module):
                self.follow(source, name)
        return self.reached


def reachable_modules() -> Set[str]:
    walk = _Walk()
    for module in ENTRY_MODULES:
        walk.reach(module)
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for source, name, _ in _imports(ast.parse(path.read_text())):
                walk.follow(source, name)
    return walk.run()


def test_walk_resolves_reexports_and_package_definitions():
    walk = _Walk()
    walk.follow("repro", "load_dataset")      # repro -> graphs -> datasets
    walk.run()
    assert {"repro", "repro.graphs", "repro.graphs.datasets",
            "repro.graphs.features"} <= walk.reached
    assert "repro.core" not in walk.reached   # re-exported, never used
    walk = _Walk()
    walk.follow("repro.partition", "PARTITIONERS")
    walk.run()
    assert "repro.partition.spectral" in walk.reached


def test_every_module_is_reached_from_an_entry_point():
    missing = sorted(set(MODULES) - reachable_modules())
    assert not missing, (
        "modules not reached from repro.cli, repro.__main__ or any repro "
        "import in scripts/, benchmarks/ or perfbench/: "
        + ", ".join(missing))
