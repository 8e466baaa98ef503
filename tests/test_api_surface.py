"""The public API of ``mac`` has callers: no public helper that nothing calls.

Every public top-level function and class, and every public method, under
``src/mac`` must be referenced by name somewhere in ``src/`` or
``perfbench/`` outside its own definition. A reference is a ``Name``, an
``Attribute`` (its ``attr``) or an import alias. Matching is by name only,
so a name used anywhere counts for every definition that carries it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees():
    files = sorted((ROOT / "src" / "mac").rglob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in files}


def _references(tree):
    """(name, node) for every reference in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node
            if node.asname:
                yield node.asname, node


def _public_definitions(tree):
    """(qualified name, node) of public top-level functions and classes and
    of the public methods of top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_is_referenced_outside_its_definition():
    trees = _trees()
    refs: dict[str, list] = {}  # name -> [(file, id of the referencing node)]
    for path, tree in trees.items():
        for name, node in _references(tree):
            refs.setdefault(name, []).append((path, id(node)))
    unused = []
    for path, tree in trees.items():
        if path.is_relative_to(ROOT / "perfbench"):
            continue
        for qualname, node in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(other != path or ref not in inside
                       for other, ref in refs.get(node.name, ())):
                unused.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert not unused, "public names nothing references: " + ", ".join(unused)
