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



def _writes_a_file(call: ast.Call) -> bool:
    """Whether call writes a file: ``write_bytes``, ``write_text``,
    ``tofile``, ``os.replace``, ``np.save*`` (or ``numpy.save*``), or an
    ``open`` (builtin or method) whose mode writes or is not a literal."""
    func = call.func
    if isinstance(func, ast.Name):
        name, mode_at = func.id, 1          # open(path, mode)
    elif isinstance(func, ast.Attribute):
        name, mode_at = func.attr, 0        # path.open(mode)
        owner = getattr(func.value, "id", None)
        if (name in ("write_bytes", "write_text", "tofile")
                or (owner == "os" and name == "replace")
                or (owner in ("np", "numpy") and name.startswith("save"))):
            return True
    else:
        return False
    modes = call.args[mode_at:mode_at + 1] + [
        kw.value for kw in call.keywords if kw.arg == "mode"]
    return name == "open" and any(
        not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
        for m in modes)


def file_writes(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(module, line) of every call in sources (module -> source) that
    writes a file, outside ``replace_files`` in module ``data``, sorted."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = {id(node) for fn in tree.body
                   if module == "data" and isinstance(fn, ast.FunctionDef)
                   and fn.name == "replace_files" for node in ast.walk(fn)}
        found += [(module, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and _writes_a_file(node)]
    return sorted(found)


def test_only_replace_files_writes_files():
    """Every artifact is written to a temporary and renamed into place; a
    write anywhere else could leave a half-written file."""
    package = Path(amdet.__file__).parent
    assert file_writes({p.stem: p.read_text() for p in
                        sorted(package.glob("*.py"))}) == []


def test_file_writes_finds_each_kind_of_write():
    writes = ("p.write_bytes(b)\np.write_text(s)\na.tofile(f)\n"
              "os.replace(a, b)\nnp.save(f, a)\nnumpy.savez(f, a=a)\n"
              "open(f, 'w')\nopen(f, mode='ab')\np.open('r+')\n"
              "open(f, mode)\n")
    reads = ("open(f)\nopen(f, 'rb')\np.open()\np.open(mode='r')\n"
             "s.replace('a', 'b')\nnp.load(f)\np.read_bytes()\n")
    sources = {
        "data": ("def replace_files(p, b):\n    p.write_bytes(b)\n"
                 "    os.replace(p, p)\n\n\ndef other(p, b):\n"
                 "    p.write_bytes(b)\n"),
        "a": writes + reads,
    }
    assert file_writes(sources) == [("a", line) for line in range(1, 11)] + [
        ("data", 7)]
