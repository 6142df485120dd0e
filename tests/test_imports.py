"""Every name a library module imports, and every private name it defines,
is used in that module.

No linter ships with the toolchain, so this walks each module's syntax tree:
an import or a private helper left behind by a deletion fails here. `__init__`
re-exports what it imports and `__future__` imports are directives, so both
are skipped by the import check; what `__init__` re-exports is checked
against README's Library-use block instead.
"""

import ast
import re
from pathlib import Path

import pytest

import saea.errors
from _helpers import ERROR_CLASSES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "saea"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .metrics import mape, rmse\nnp.sqrt(rmse)\n"
    assert unused_imports(source) == ["mape", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphaned_private_names(source: str) -> list[str]:
    """Module-level `_name`s (not dunders) that no other top-level statement
    of the module reads."""
    body = ast.parse(source).body
    reads = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in body
    ]
    orphans = []
    for i, stmt in enumerate(body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        else:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        for name in defined:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for j, r in enumerate(reads) if j != i):
                orphans.append(name)
    return sorted(orphans)


def test_orphaned_private_names_are_found():
    source = (
        "_LIMIT = 3\n_USED: int = 1\n__all__ = []\n"
        "def _helper(x):\n    return _helper(x - 1) if x else _USED\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _LIMIT\n"
    )
    # a call from inside its own definition is not a use
    assert orphaned_private_names(source) == ["_Unused", "_helper"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    assert orphaned_private_names(path.read_text(encoding="utf-8")) == []


def from_import_names(source: str, keep) -> set[str]:
    """Names bound by the `from ... import` statements for which keep(node)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and keep(node)
        for alias in node.names
    }


def test_package_exports_what_the_readme_library_block_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, flags=re.S)
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    exported = from_import_names(init, lambda node: node.level == 1)
    assert exported == from_import_names(block, lambda node: node.module == "saea")


def test_errors_defines_the_five_classes_the_readme_names():
    defined = {name: obj for name, obj in vars(saea.errors).items() if isinstance(obj, type)}
    assert sorted(defined) == sorted(ERROR_CLASSES)
    assert all(issubclass(cls, saea.errors.SaeaError) for cls in defined.values())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (paragraph,) = re.findall(r"\*\*Errors\.\*\*(.*?)\n## ", readme, flags=re.S)
    assert all(f"`{name}`" in paragraph for name in ERROR_CLASSES)
