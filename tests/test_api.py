"""Every public class and function is used by the system, not only by tests."""

import ast
import inspect
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


def _unused_public_names() -> list[str]:
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in _sources()}
    unused = []
    for name in rookideal.__all__:
        obj = getattr(rookideal, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        home = Path(inspect.getsourcefile(obj)).resolve()
        found = False
        for path, tree in trees.items():
            skip = None
            if path.resolve() == home:
                # the definition itself, a recursive call in it included, is no use
                skip = next(
                    node
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                )
            if name in _names_used(tree, skip):
                found = True
                break
        if not found:
            unused.append(name)
    return unused


def test_every_public_class_and_function_is_used_outside_the_tests():
    assert _unused_public_names() == []
