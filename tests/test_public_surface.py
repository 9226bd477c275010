"""The library's public surface is what its readers read: every name in a
module's ``__all__``, and every name ``dhym/__init__.py`` imports, is read
by ``src/`` outside its own definition, or by ``perfbench/`` or ``tools/``.
The tests are no reader, so a public name that only a test calls cannot
come back unnoticed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dhym"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
# Kept without a reader: the surface a priori bounds det F / det v < 1 and
# tr(v^-1 F)/2 < |tan theta|/2, the 2x2 counterpart of the
# ``kym_ndim.apriori_verify`` that perfbench runs, which acceptance
# criterion 04 checks its solutions against.
UNREAD_ON_PURPOSE = {"surface_apriori_check"}
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]


def public_names():
    """(module, name) of every ``__all__`` entry and every name the package
    ``__init__`` imports."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                yield from ((path.stem, elt.value) for elt in node.value.elts)
            elif path.stem == "__init__" and isinstance(node, ast.ImportFrom):
                yield from ((path.stem, alias.name) for alias in node.names)


def bindings(tree):
    """The names of a file that stand for library names, and those that
    stand for library modules: its own top-level functions and classes,
    and what it imports from ``dhym`` (relatively, inside the package)."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "dhym"):
            for alias in node.names:
                is_module = node.module in (None, "dhym") and alias.name in MODULES
                (modules if is_module else names).add(alias.asname or alias.name)
    names.update(node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return names, modules


def reads(path):
    """The library names a file reads: a bound name it loads, or an
    attribute of a library module, outside the top-level function or class
    of that name."""
    tree = ast.parse(path.read_text())
    names, modules = bindings(tree)
    found = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                here.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                here.add(node.attr)
        found |= here - {getattr(stmt, "name", None)}
    return found


def test_every_public_name_is_read():
    read = set().union(*(reads(path) for path in READERS))
    # the scan sees the reads it is here for: the CLI's, perfbench's and a harness's
    assert {"torus_constant_phase", "solve", "det_bound_verify", "abreu_operator_divergence_form", "_pcg"} <= read
    # an exemption goes once its name has a reader
    assert not UNREAD_ON_PURPOSE & read
    unread = sorted((module, name) for module, name in set(public_names()) if name not in read | UNREAD_ON_PURPOSE)
    assert not unread
