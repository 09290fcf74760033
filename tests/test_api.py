"""Every public class and function, and every public method and property of
a public class, is used by the system, not only by tests.

A class or function is used where a system source names it. A property is
used where any attribute of its name is read. A method is used only where a
system source calls an attribute of its name (``x.name(...)``) or reads it
through its class (``key=Monomial.sort_key``), so a method that shares its
name with a field of another class (``BettiTable.reg()`` and
``InvariantReport.reg``) is not used where only that field is read. Dunders
are not scanned: the operators that call them cannot be told apart by
name."""

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


def _names_used(tree: ast.AST, skip: ast.AST | None = None, method_of: str | None = None) -> set[str]:
    """The names and attribute names read anywhere in the tree, leaving out
    the subtree ``skip``; imports are not uses. With ``method_of`` (a class
    name) only attribute names count, and only where they are called or
    read through that class."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            if method_of is None:
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            through_class = isinstance(node.value, ast.Name) and node.value.id == method_of
            if method_of is None or through_class:
                used.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            used.add(node.func.attr)
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


def _is_used(
    name: str, home: Path, trees: dict, within: str | None = None, method: bool = False
) -> bool:
    """Whether ``name`` is read in any source; in its home module the
    definition itself, a recursive call in it included, is no use. A
    ``method`` of the class ``within`` must be called or read through it."""
    for path, tree in trees.items():
        skip = _definition(tree, name, within) if path.resolve() == home else None
        if name in _names_used(tree, skip, within if method else None):
            return True
    return False


def _public_members(cls) -> dict:
    """The public methods and properties a class defines itself, by name."""
    return {
        name: member
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (property, classmethod, staticmethod, types.FunctionType))
    }


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
            for member, value in _public_members(obj).items():
                method = not isinstance(value, property)
                if not _is_used(member, home, trees, within=name, method=method):
                    unused.append(f"{name}.{member}")
    return unused


def test_every_public_class_and_function_is_used_outside_the_tests():
    assert _unused_public_names() == []


def test_public_members_are_scanned():
    # the scan sees methods, properties and class methods, and not fields or
    # private helpers
    members = _public_members(rookideal.SimplicialComplex)
    assert {"is_void", "facet_masks", "from_facets"} <= set(members)
    assert "facets" not in members and "vertices" not in members
    assert all(not name.startswith("_") for name in _public_members(rookideal.Monomial))


def test_a_method_is_used_only_where_called_or_read_through_its_class():
    tree = ast.parse("depth = rep.depth\nt.reg()\nsorted(gens, key=Monomial.sort_key)\nx.lcm")
    assert _names_used(tree, method_of="Monomial") == {"reg", "sort_key"}


# The one helper for the set bits of a mask is monomials._bits. These hot
# loops peel lowest bits by hand, since a generator call per bit was measured
# slower there (see ROADMAP, "Measured and not worth doing").
_HAND_ROLLED_BIT_LOOPS = {
    "monomials._bits",
    "betti._strong_core",
    "betti._sphere_dimension",
    "complexes._minimal_transversals",
    "homology._members",
    "homology.FaceSets.__init__",
    "homology._boundary_column",
}


def _peels_lowest_bits(node: ast.AST) -> bool:
    """Whether the subtree holds x & -x for a name x."""
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.BitAnd)
        and isinstance(n.right, ast.UnaryOp)
        and isinstance(n.right.op, ast.USub)
        and isinstance(n.left, ast.Name)
        and isinstance(n.right.operand, ast.Name)
        and n.left.id == n.right.operand.id
        for n in ast.walk(node)
    )


def _lowest_bit_loops(tree: ast.AST, scope: str) -> set[str]:
    """The qualified names (module.Class.function) of the functions and
    methods under ``scope`` whose body holds a while loop that peels lowest
    bits."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= _lowest_bit_loops(node, f"{scope}.{node.name}")
        else:
            if isinstance(node, ast.While) and _peels_lowest_bits(node):
                found.add(scope)
            found |= _lowest_bit_loops(node, scope)
    return found


def test_lowest_bits_are_peeled_by_hand_only_in_the_measured_hot_loops():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _lowest_bit_loops(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert found == _HAND_ROLLED_BIT_LOOPS
