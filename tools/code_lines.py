"""Count the lines and the code lines of the package source.

Usage (from the repository root)::

    python3 tools/code_lines.py [DIR]

``DIR`` defaults to ``src/pcr3bp``.  For each ``.py`` file under it, and
for their total, prints the lines and the code lines: lines that hold a
token other than a comment, with the docstrings of the module, its
classes and its functions left out.  Blank lines, comment lines and
docstring lines are not code lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "pcr3bp"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The lines and the code lines of one source file."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(root: str = str(DEFAULT)) -> int:
    total = [0, 0]
    for path in sorted(Path(root).rglob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{total[0]:6d} {total[1]:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
