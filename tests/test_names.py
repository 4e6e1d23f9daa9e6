"""Every module-level function and class in the package is used.

A name counts as used when some other code in ``src/matsemi`` names it
(a load of the name or an attribute of that name; docstrings, comments
and import lines do not count) or when ``matsemi._EXPORTS`` lists it.
A definition naming itself, as a recursive function does, does not count.
Dunder names (the package's ``__getattr__`` and ``__dir__``) are hooks
the interpreter calls, and are exempt.
"""

import ast
from pathlib import Path

import matsemi

SRC = Path(__file__).resolve().parents[1] / "src" / "matsemi"


def _uses(node: ast.AST, skip: ast.AST) -> set[str]:
    """The names loaded and attributes read in node, outside skip."""
    names: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return names


def _unused_names() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    exported = {name for names in matsemi._EXPORTS.values()
                for name in names}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name in exported or node.name.startswith("__"):
                continue
            if not any(node.name in _uses(t, node) for t in trees.values()):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_module_level_name_is_used_or_exported():
    assert _unused_names() == []


def test_uses_ignore_docstrings_imports_and_self_reference():
    tree = ast.parse('''
from .exact import gone
def f(n):
    """Calls g and gone."""
    return f(n - 1)  # g
def h():
    return f(0) + k.g
''')
    f, h = tree.body[1], tree.body[2]
    assert "f" not in _uses(f, f)
    assert not {"g", "gone"} & _uses(tree, h)
    assert {"f", "k", "g"} <= _uses(h, None)
