"""Static checks on the package source, with `ast` only."""

import ast
import pathlib
import re

import destcalc

SRC = pathlib.Path(destcalc.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


# Top-level names nothing under `src/destcalc/` reads, each with the file
# outside it that does.
ENTRY_POINTS = {
    "harness.scan_balance": "perfbench/tracer.py",
    "harness.decode_tree": "perfbench/tracer.py",
    "machine.run_term": "perfbench/tracer.py",
    "prelude.prelude_path": "perfbench/tracer.py",
    # test support that ships with the package
    "oracle.oracle_declarative_check": "tests/test_acceptance.py",
    "harness.encode_list": "tests/test_acceptance.py",
    "harness.encode_unit_tree": "tests/test_acceptance.py",
    "harness.bfs_relabel": "tests/test_acceptance.py",
    "harness.random_list": "tests/test_acceptance.py",
    "harness.random_tree": "tests/test_acceptance.py",
    "harness.random_queue_ops": "tests/test_acceptance.py",
    "syntax._TERM_TYPES": "tests/conftest.py",
}

def _defined(tree):
    """(name, statement) for each top-level function, class and assigned name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        yield n.id, stmt


def _reads(node):
    """The names a statement reads: loaded names, attribute names, names it
    imports, and the names inside string annotations ("Term")."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)
        for ann in (getattr(n, "annotation", None), getattr(n, "returns", None)):
            for c in ast.walk(ann) if ann is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    yield from _reads(ast.parse(c.value, mode="eval"))


def unread_definitions(sources, entry_points=()):
    """`module.name` of each top-level definition in `sources` (module name ->
    text) that no other top-level statement of any of them reads, dunder names
    and `entry_points` aside."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    readers = {}  # name -> the statements that read it
    for tree in trees.values():
        for stmt in tree.body:
            for name in _reads(stmt):
                readers.setdefault(name, set()).add(stmt)
    return sorted(
        "%s.%s" % (m, name)
        for m, tree in trees.items()
        for name, stmt in _defined(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and "%s.%s" % (m, name) not in entry_points
        and not readers.get(name, set()) - {stmt}
    )


def test_unread_definitions_are_found():
    sources = {
        "a": "X = 1\nY: int = 2\n\ndef f():\n    return f()\n\nclass C:\n    k: 'D'\n\n"
             "def g():\n    return b.h\n\ndef kept():\n    pass\n",
        "b": "from a import C\n\ndef h():\n    pass\n\nclass D:\n    pass\n\n__version__ = '1'\n",
    }
    # f reads only itself; h is read as an attribute, C by an import, D in a
    # string annotation
    assert unread_definitions(sources, {"a.kept"}) == ["a.X", "a.Y", "a.f", "a.g"]


def test_every_definition_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources, ENTRY_POINTS) == []
    # and no entry is stale: each is unread inside the package, and its reader names it
    assert unread_definitions(sources) == sorted(ENTRY_POINTS)
    for entry, reader in ENTRY_POINTS.items():
        name = entry.split(".")[1]  # called, or wrapped by its name in a string
        assert re.search(r"\b%s\b" % name, (ROOT / reader).read_text(encoding="utf-8")), entry


def recursion_limit_calls(source):
    """Lines that call `setrecursionlimit`, as `sys.setrecursionlimit` or imported bare."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Attribute) and node.func.attr == "setrecursionlimit"
             or isinstance(node.func, ast.Name) and node.func.id == "setrecursionlimit"))


def test_recursion_limit_calls_are_found():
    src = ("import sys\nfrom sys import setrecursionlimit\nsys.setrecursionlimit(10**5)\n"
           "setrecursionlimit(99)\nsys.getrecursionlimit()\n")
    assert recursion_limit_calls(src) == [3, 4]


def test_nothing_raises_the_recursion_limit():
    # deep inputs must run at the default limit, in the package and in its tests
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) >= 20
    calls = {str(p.relative_to(ROOT)): recursion_limit_calls(p.read_text(encoding="utf-8"))
             for p in files}
    assert {p: lines for p, lines in calls.items() if lines} == {}
