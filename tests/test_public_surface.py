"""The library's public surface is what its readers read.  A name is public
when the leading underscore says so: every top-level function, class and
assignment of a module under ``dhym/`` whose name has no leading
underscore, and every name ``dhym/__init__.py`` imports (the library API
the README shows).  Each is read by ``src/`` outside its own definition, or
by ``perfbench/`` or ``tools/``, as that module's name: a reader's own
``main`` is not ``cli.main``.  The tests are no reader, so a public name
that only a test calls cannot come back unnoticed.  The underscore is the
one record of the surface: no module keeps an ``__all__`` list beside it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dhym"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
# Kept without a reader: the surface a priori bounds det F / det v < 1 and
# tr(v^-1 F)/2 < |tan theta|/2, the 2x2 counterpart of the
# ``kym_ndim.apriori_verify`` that perfbench runs, which acceptance
# criterion 04 checks its solutions against.
UNREAD_ON_PURPOSE = {("core_geometry", "surface_apriori_check")}
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]


def defined(stmt):
    """The names a top-level statement binds: a function's or class's, or
    the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def reexports():
    """Each name the package ``__init__`` imports, with the module it comes
    from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name: node.module for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def public_names():
    """(module, name) of every top-level name without a leading underscore,
    and of every name the package ``__init__`` imports."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            yield from ((path.stem, name) for name in defined(stmt) if not name.startswith("_"))
    yield from ((module, name) for name, module in reexports().items())


def bindings(path, tree):
    """The names of a file that stand for library names, each with the
    module that defines it, and the names that stand for library modules:
    what the file imports from ``dhym`` (relatively, inside the package),
    and a module's own top-level functions, classes and assignments."""
    names, modules, package = {}, {}, reexports()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "dhym"):
            module = (node.module or "dhym").split(".")[-1]
            for alias in node.names:
                if module == "dhym" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = package.get(alias.name) if module == "dhym" else module
    if path.parent == PACKAGE:
        names.update((name, path.stem) for stmt in tree.body for name in defined(stmt))
    return names, modules


def reads(path):
    """The library names a file reads, as (module, name): a bound name it
    loads, or an attribute of a library module, outside the top-level
    statement that defines that name."""
    tree = ast.parse(path.read_text())
    names, modules = bindings(path, tree)
    found = set()
    for stmt in tree.body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                here.add((names[node.id], node.id))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                here.add((modules[node.value.id], node.attr))
        found |= here - {(path.stem, name) for name in defined(stmt)}
    return found


def test_every_public_name_is_read():
    read = set().union(*(reads(path) for path in READERS))
    # the scan sees the reads it is here for: the CLI's, perfbench's and a harness's
    assert {
        ("core_geometry", "torus_constant_phase"),
        ("ode_solver", "solve"),
        ("kym_ndim", "det_bound_verify"),
        ("kym_ndim", "abreu_operator_divergence_form"),
        ("spectral", "_pcg"),
        ("cli", "SCHEMAS"),
        ("cli", "main"),
    } <= read
    # an exemption goes once its name has a reader
    assert not UNREAD_ON_PURPOSE & read
    assert not sorted(set(public_names()) - read - UNREAD_ON_PURPOSE)


def test_no_module_keeps_an_all_list():
    # ``__all__`` would be a second record of the surface, which the
    # underscore already gives and which drifts from it
    kept = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "__all__"
    ]
    assert not kept
