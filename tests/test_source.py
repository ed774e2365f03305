"""Source checks that no installed linter makes: every name a module of the
package imports is used in it (``__init__`` re-exports, so it is left out),
and every private module-level name is read by some module of the
package."""

import ast
from pathlib import Path

import pytest

import amdet

MODULES = sorted(p for p in Path(amdet.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names the source imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom .errors import DataError, build\n"
              "build(os.path.sep, np)\n")
    assert unused_imports(source) == ["DataError"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every private (one leading underscore) function,
    class or constant defined at module level in sources (module -> source)
    that no source reads, sorted."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_package_reads_every_private_name():
    package = Path(amdet.__file__).parent
    assert unread_private_names({p.stem: p.read_text() for p in
                                 sorted(package.glob("*.py"))}) == []


def test_unread_private_names_finds_a_helper_nothing_calls():
    sources = {
        "a": ("_LIMIT = 3\n_OLD, _PAIR = 1, 2\n\n"
              "def _resolved(g):\n    return g\n\n"
              "class _Node:\n    pass\n\n"
              "def public():\n    return _LIMIT + _Node.x\n"),
        "b": "from .a import _PAIR\n\ndef __getattr__(name):\n    pass\n",
    }
    assert unread_private_names(sources) == ["a._OLD", "a._resolved"]
