"""``tools/net_loc.py::code_lines``, the count every line-of-code figure of
``src/`` rests on, on a fixed snippet."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "net_loc.py"
SPEC = importlib.util.spec_from_file_location("net_loc", PATH)
net_loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(net_loc)

# code lines: 4 (import), 7 (X), 11-12 (the def's continued signature),
# 15-16 (a parenthesized continuation), 17-18 (a backslash continuation),
# 19-20 (a string that is an operand, not a docstring), 21 (return)
SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line
X = 1
"""The attribute docstring of X."""


def f(a,
      b):
    """Function docstring."""

    total = (a +
             b)  # continued
    total += \\
        len(os.sep)
    label = """not a
docstring"""
    return total, label
'''


def test_code_lines_of_fixed_snippet():
    assert net_loc.code_lines(SNIPPET) == 11


def test_comments_blanks_and_docstrings_do_not_count():
    padded = SNIPPET.replace("X = 1\n", 'X = 1\n\n# more comment\n"""More docstring."""\n\n')
    assert net_loc.code_lines(padded) == 11
    assert net_loc.code_lines('"""Only a docstring."""\n# and a comment\n') == 0
