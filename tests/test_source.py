"""Source checks that no installed linter makes: every name a module of the
package imports is used in it (``__init__`` re-exports, so it is left out)."""

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
