"""Every ``__all__`` name resolves, every import and private module name is used, and the
version is stated once."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import slantsurf

MODULES = ["slantsurf", *(f"slantsurf.{m.name}" for m in pkgutil.iter_modules(slantsurf.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in getattr(module, "__all__", ()) if n not in namespace] == []


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_detects_a_stray_name():
    source = "import os, sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", sorted(
    p for p in Path(slantsurf.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_name`` that no module of ``sources`` reads.

    A read is a loaded name, an attribute, or a ``from ... import`` of the name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_unread_private_names_detects_a_dead_helper():
    sources = {
        "a": "_KEEP = 1\n_DROP, _USED = 2, 3\ndef _helper():\n    return _KEEP\n"
             "def _orphan():\n    pass\nclass _Stray:\n    pass\n",
        "b": "import a\nfrom a import _USED\nprint(a._helper(), _USED)\n",
    }
    assert unread_private_names(sources) == ["a._DROP", "a._orphan", "a._Stray"]


def test_every_private_module_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(slantsurf.__file__).parent.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_distribution_version_is_tool_version():
    """pyproject.toml states no version; setuptools reads ``surface_io.TOOL_VERSION``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    module, _, name = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert (module, name) == ("slantsurf.surface_io", "TOOL_VERSION")
    assert importlib.import_module(module).TOOL_VERSION == slantsurf.__version__
