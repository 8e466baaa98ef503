"""The public API of ``mac`` has callers: no public helper that nothing calls.

Every public top-level function and class, and every public method, under
``src/mac`` must be referenced somewhere in ``src/`` or ``perfbench/``
outside its own definition. A reference is a ``Name``, an ``Attribute``
(its ``attr``) or an import alias.

A module-level function counts as referenced only through its own module:
as an attribute of that module (``tz.matmul``, ``mac.ssd.kernel``), through a
``from … import`` of it, or as a bare name inside its own module. So
``np.log`` is no reference to ``mac.tensor.log``. Classes and methods are
matched by name alone, so a name used anywhere counts for every class or
method that carries it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees():
    files = sorted((ROOT / "src" / "mac").rglob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in files}


def _module_names(tree) -> dict[str, str]:
    """Local name -> the module it is bound to by an import in the tree."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[-1]] = alias.name.split(".")[-1]
    return out


def _references(tree):
    """(name, module or None, node) for every reference in the tree. The
    module is the one the reference reaches the name through: the module of
    an attribute's owner or of a ``from … import``; None for a bare name."""
    modules = _module_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, None, node
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            yield node.attr, modules.get(owner, owner), node
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                yield alias.name, source, alias
                if alias.asname:
                    yield alias.asname, source, alias


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


def _counts(path, is_function: bool, inside: set, ref_path, module, ref) -> bool:
    """Whether a reference counts for a definition in ``path`` whose nodes'
    ids are ``inside``."""
    if ref_path == path and ref in inside:
        return False
    if not is_function:
        return True
    if module is None:
        return ref_path == path
    return module == path.stem


def test_every_public_name_is_referenced_outside_its_definition():
    trees = _trees()
    refs: dict[str, list] = {}  # name -> [(file, module or None, id of the node)]
    for path, tree in trees.items():
        for name, module, node in _references(tree):
            refs.setdefault(name, []).append((path, module, id(node)))
    unused = []
    for path, tree in trees.items():
        if path.is_relative_to(ROOT / "perfbench"):
            continue
        for qualname, node in _public_definitions(tree):
            is_function = "." not in qualname and not isinstance(node, ast.ClassDef)
            inside = {id(n) for n in ast.walk(node)}
            if not any(_counts(path, is_function, inside, other, module, ref)
                       for other, module, ref in refs.get(node.name, ())):
                unused.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert not unused, "public names nothing references: " + ", ".join(unused)
