"""Code that only the tests use lives in ``tests/``, not in ``src/``."""

import ast
from pathlib import Path

import hyperideal

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperideal"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(node):
    """The public functions and classes in the body of ``node``, and the
    public methods of those classes."""
    for item in node.body:
        if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
            yield item
            if isinstance(item, ast.ClassDef):
                yield from _public_definitions(item)


def _references(path):
    """(name, line) of every name, attribute and identifier string in the
    file: the span table of ``perfbench/spans.py`` names what it traces."""
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)
        if isinstance(name, str) and name.isidentifier():
            yield name, node.lineno


def test_every_public_name_in_src_is_exported_or_used_outside_the_tests():
    """Each public function, class and method of the package is in
    ``hyperideal.__all__`` or is named outside its own definition in
    ``src/``, ``perfbench/`` or ``benchmarks/``."""
    assert (PACKAGE / "__init__.py").is_file()
    refs = {}
    for top in (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks"):
        for path in top.rglob("*.py"):
            for name, line in _references(path):
                refs.setdefault(name, []).append((path, line))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _public_definitions(ast.parse(path.read_text()))
        if node.name not in hyperideal.__all__ and all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in refs.get(node.name, ()))
    ]
    assert unused == []
