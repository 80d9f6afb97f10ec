"""Count the source lines of ``src/geokb`` without ``corpus.py``.

Prints, per module and then in total, its lines (as ``wc -l`` counts them)
and its code lines: lines that hold a token, without comments, blank lines
and docstrings, so that a docstring edit alone does not move them.  Run it
from anywhere as ``python tools/code_lines.py``; it gates nothing.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geokb"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple[int, int]:
    """The lines and the code lines of a module's text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {n for t in tokens if t.type not in LAYOUT for n in range(t.start[0], t.end[0] + 1)}
    return text.count("\n"), len(lines - docstrings)


def main() -> None:
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "corpus.py":
            continue
        lines, code = count(path.read_text(encoding="utf-8"))
        print(f"{lines:6} {code:6} src/geokb/{path.name}")
        totals[0] += lines
        totals[1] += code
    print(f"{totals[0]:6} {totals[1]:6} total")


if __name__ == "__main__":
    main()
