"""Every public class and function, and every public method and property of
a public class, is used by the system, not only by tests."""

import ast
import inspect
import types
from pathlib import Path

import rookideal

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rookideal"


def _sources() -> list[Path]:
    """The package modules but __init__.py, the scripts and the benchmark
    harness (its own tests left out)."""
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += [f for f in sorted((ROOT / "perfbench").glob("*.py")) if not f.name.startswith("test_")]
    return files


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names and attribute names read anywhere in the tree, leaving out
    the subtree ``skip``; imports are not uses."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _definition(tree: ast.AST, name: str, within: str | None = None) -> ast.AST:
    """The module-level class or function ``name``, or with ``within`` the
    method ``name`` of the module-level class ``within``."""
    body = tree.body
    if within is not None:
        body = _definition(tree, within).body
    return next(
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    )


def _is_used(name: str, home: Path, trees: dict, within: str | None = None) -> bool:
    """Whether ``name`` is read in any source; in its home module the
    definition itself, a recursive call in it included, is no use."""
    for path, tree in trees.items():
        skip = _definition(tree, name, within) if path.resolve() == home else None
        if name in _names_used(tree, skip):
            return True
    return False


def _public_members(cls) -> list[str]:
    """The public methods and properties a class defines itself."""
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (property, classmethod, staticmethod, types.FunctionType))
    ]


def _unused_public_names() -> list[str]:
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in _sources()}
    unused = []
    for name in rookideal.__all__:
        obj = getattr(rookideal, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        home = Path(inspect.getsourcefile(obj)).resolve()
        if not _is_used(name, home, trees):
            unused.append(name)
        if inspect.isclass(obj):
            for member in _public_members(obj):
                if not _is_used(member, home, trees, within=name):
                    unused.append(f"{name}.{member}")
    return unused


def test_every_public_class_and_function_is_used_outside_the_tests():
    assert _unused_public_names() == []


def test_public_members_are_scanned():
    # the scan sees methods, properties and class methods, and not fields or
    # private helpers
    members = _public_members(rookideal.SimplicialComplex)
    assert {"is_void", "dim", "facet_masks", "from_facets"} <= set(members)
    assert "facets" not in members and "vertices" not in members
    assert all(not name.startswith("_") for name in _public_members(rookideal.Monomial))
