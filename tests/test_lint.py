"""Static checks on the package source, with `ast` only."""

import ast
import pathlib

import destcalc

SRC = pathlib.Path(destcalc.__file__).parent


def unread_imports(source):
    """Names a module imports (`from __future__` aside) that it never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unread_imports_are_found():
    src = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unread_imports(src) == [(2, "os"), (3, "c")]


def test_every_import_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    unread = {p.name: unread_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: u for name, u in unread.items() if u} == {}
