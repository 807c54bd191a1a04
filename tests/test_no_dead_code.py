"""The package keeps only what a run executes.

A top-level function or class, or a method, of ``src/elastica`` that
nothing in the package references is code no run executes: a test oracle
belongs in tests/oracles.py, where it cannot change together with the code
it checks.  A name counts as referenced when some module of the package
reads it as a name, an attribute or an imported name.  Allowed besides:
dunders, the public names of ``elastica.__all__``, and every name the
benchmark under perfbench/ references, which it imports or patches by name
(also as a string).
"""

import ast
from pathlib import Path

import elastica

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "elastica"
PERFBENCH = ROOT / "perfbench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """(name, line) of every top-level function and class and of every
    method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield item.name, item.lineno


def references(tree, strings=False):
    """Every name ``tree`` reads: names, attributes and imported names,
    and with ``strings`` every string constant that is an identifier."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def unreferenced():
    """``module:line name`` of every definition nothing references."""
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    used = set(elastica.__all__)
    for tree in trees.values():
        used |= references(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= references(parse(path), strings=True)
    return [f"{module}:{line} {name}" for module, tree in trees.items()
            for name, line in definitions(tree)
            if name not in used
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_referenced():
    unused = unreferenced()
    assert not unused, "referenced by nothing in src:\n" + "\n".join(unused)


def test_the_scan_sees_every_kind_of_definition():
    tree = ast.parse("class A:\n    def used(self): pass\n"
                     "    def unused(self): pass\n"
                     "def f(): pass\n"
                     "def g(): return A().used()\n")
    assert sorted(definitions(tree)) == [("A", 1), ("f", 4), ("g", 5),
                                         ("unused", 3), ("used", 2)]
    assert {"A", "used"} <= references(tree)
    assert not {"f", "g", "unused"} & references(tree)
    assert "f" in references(ast.parse("x = 'f'"), strings=True)
    assert "f" not in references(ast.parse("x = 'f'"))
