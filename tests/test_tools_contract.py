"""The harnesses in ``tools/`` reach into ``src/`` by module attributes,
private ones included, and the tests never run them: a rename or deletion
in the library must not leave one of them reading a name that is gone."""

import ast
from pathlib import Path

from dhym import cli, linearized_ops

TOOLS = Path(__file__).resolve().parents[1] / "tools"
# the names the harnesses bind the library modules to
MODULES = {"lo": linearized_ops, "linearized_ops": linearized_ops, "cli": cli}


def attribute_reads():
    """(file, module name, attribute) of every ``module.attribute`` in
    ``tools/*.py`` whose module is one of MODULES, stores included: a
    harness that wraps a function assigns the name it read."""
    for path in sorted(TOOLS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
                yield path.name, node.value.id, node.attr


def test_every_name_the_harnesses_read_exists():
    reads = list(attribute_reads())
    # the scan sees the reads it is here for
    names = {attr for _, _, attr in reads}
    assert {"_pcg", "_solve_elliptic", "_CHUNK_POINTS", "_lincond_rhs", "_tangent", "_nyquist_penalty"} <= names
    assert {"apply_L", "main"} <= names
    missing = [(file, module, attr) for file, module, attr in reads if not hasattr(MODULES[module], attr)]
    assert not missing
