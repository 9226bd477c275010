"""Code lines of ``src/`` at two revisions, per file and in total.

Run from the repository root::

    python3 tools/net_loc.py BASE            # BASE against the working tree
    python3 tools/net_loc.py BASE HEAD       # two git revisions

A line counts when a token other than a comment starts or continues on it,
and it is not part of a docstring: a string standing alone as a statement
(module, class and function docstrings, and attribute docstrings).  Blank,
comment-only and docstring lines are not code, so deleting or adding them
moves no count.  Files are read with ``git show`` (or from disk for the
working tree); only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

SRC = "src"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def sources(rev: str | None) -> dict[str, str]:
    """Path to text of every ``.py`` file under ``src/`` at ``rev``, or in
    the working tree when ``rev`` is None."""
    if rev is None:
        return {str(p): p.read_text() for p in sorted(Path(SRC).rglob("*.py"))}
    names = _git("ls-tree", "-r", "--name-only", rev, "--", SRC).split()
    return {name: _git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("head", nargs="?", help="git revision (default: the working tree)")
    args = parser.parse_args(argv)
    old = {name: code_lines(text) for name, text in sources(args.base).items()}
    new = {name: code_lines(text) for name, text in sources(args.head).items()}
    head = args.head or "worktree"
    width = max(map(len, old.keys() | new.keys()), default=4)
    print(f"{'file':<{width}} {args.base[:10]:>10} {head[:10]:>10} {'delta':>6}")
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, 0), new.get(name, 0)
        print(f"{name:<{width}} {a:>10} {b:>10} {b - a:>+6}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<{width}} {a:>10} {b:>10} {b - a:>+6}")


if __name__ == "__main__":
    main()
