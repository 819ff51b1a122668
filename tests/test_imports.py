"""No module of src/ipsforge imports a private (underscore-prefixed) ipsforge
module or name from another module. The kernel module ``_kernel`` is the
one exception, and ``_kernel.py`` itself may import the kernel it re-exports.
Every name a module imports is used in it, unless the module exports it in
``__all__`` or is ``_kernel.py``, whose imports are its re-exports.
The package holds Python source only: no generated or compiled files."""

import ast
from pathlib import Path

import pytest

import ipsforge

SRC = Path(__file__).resolve().parent.parent / "src" / "ipsforge"
ALLOWED = {"_kernel"}
KERNEL_BACKENDS = {"_gfcore_py"}


def private_imports(source: str, filename: str) -> list[str]:
    """The private ipsforge modules and names that source imports."""
    allowed = ALLOWED | (KERNEL_BACKENDS if filename == "_kernel.py" else set())
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["ipsforge"] if node.level else []) + (node.module or "").split(".")
            base = [part for part in base if part]
            paths = [base + [alias.name] for alias in node.names]
        else:
            continue
        for path in paths:
            if path[0] == "ipsforge" and any(
                    part.startswith("_") and part not in allowed for part in path[1:]):
                found.append(".".join(path))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text(), path.name) == []


def test_private_imports_are_found():
    source = ("from ipsforge.mvpoly import _pack, Poly\n"
              "from ipsforge import _gfcore_py, _kernel as kn\n"
              "import ipsforge._gfcore\n"
              "from . import _kernel\n"
              "from .gf import _least_root\n")
    assert private_imports(source, "mvpoly.py") == [
        "ipsforge.mvpoly._pack", "ipsforge._gfcore_py", "ipsforge._gfcore",
        "ipsforge.gf._least_root"]
    assert private_imports(source, "_kernel.py") == [
        "ipsforge.mvpoly._pack", "ipsforge._gfcore", "ipsforge.gf._least_root"]


def unused_imports(source: str, filename: str) -> list[str]:
    """The names that source binds by import and never refers to, apart
    from __future__ features and the names it lists in __all__."""
    if filename == "_kernel.py":
        return []
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), path.name) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, re as regex\n"
              "import ipsforge.gf\n"
              "from ipsforge.mvpoly import Poly, collect\n"
              "from ipsforge._kernel import vmul\n"
              "__all__ = ['vmul']\n"
              "def f(x: Poly):\n"
              "    return ipsforge.gf.field_spec(2, 1), os.sep\n")
    assert unused_imports(source, "mvpoly.py") == ["regex", "collect"]
    assert unused_imports(source, "_kernel.py") == []


def test_package_holds_python_source_only():
    assert [path.name for path in SRC.iterdir()
            if path.is_file() and path.suffix != ".py"] == []
    assert ipsforge.kernel_backend() == "python"
