"""Code that only the tests use lives in ``tests/``, not in ``src/``."""

import ast
from pathlib import Path

import hyperideal

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperideal"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(node):
    """The functions and classes in the body of ``node``, and the methods of
    those classes, dunders excluded."""
    for item in node.body:
        if isinstance(item, DEFINITIONS) and not (item.name.startswith("__") and item.name.endswith("__")):
            yield item
            if isinstance(item, ast.ClassDef):
                yield from _definitions(item)


def _references(path):
    """(name, line) of every name, attribute and identifier string in the
    file: the span table of ``perfbench/spans.py`` names what it traces."""
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)
        if isinstance(name, str) and name.isidentifier():
            yield name, node.lineno


def _unused(public):
    """The public (or private) definitions of the package, as "file:line
    name", that are named nowhere outside their own definition in ``src/``,
    ``perfbench/`` or ``benchmarks/``; a public name in ``hyperideal.__all__``
    counts as used."""
    assert (PACKAGE / "__init__.py").is_file()
    refs = {}
    for top in (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks"):
        for path in top.rglob("*.py"):
            for name, line in _references(path):
                refs.setdefault(name, []).append((path, line))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _definitions(ast.parse(path.read_text()))
        if node.name.startswith("_") != public
        and node.name not in hyperideal.__all__ and all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in refs.get(node.name, ()))
    ]


def test_every_public_name_in_src_is_exported_or_used_outside_the_tests():
    """Each public function, class and method of the package is in
    ``hyperideal.__all__`` or is named outside its own definition in
    ``src/``, ``perfbench/`` or ``benchmarks/``."""
    assert _unused(public=True) == []


def test_every_private_name_in_src_is_used_outside_the_tests():
    """Each private function and class of the package, and each method of
    any class, private classes included, is named outside its own
    definition in ``src/``, ``perfbench/`` or ``benchmarks/``."""
    assert _unused(public=False) == []
