"""Line counts of the package source, for the size figures in ROADMAP.md.

Run from the repository root::

    python tests/line_counts.py [SRC_DIR]

It prints, per file of ``src/cherednik`` (or SRC_DIR) and in total, the file
lines, the code lines and the docstring lines.  Code lines are the lines
that hold a token of a statement, found with ``tokenize``, less the lines
of the module, class and function docstrings, found with ``ast``; so
comments, blank lines and docstrings do not count.  The file's name does
not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value,
                                                          ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(source: str) -> tuple[int, int, int]:
    """(file lines, code lines, docstring lines) of one source file."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs), len(docs)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0] if argv else
                        pathlib.Path(__file__).resolve().parent.parent
                        / "src" / "cherednik")
    total = [0, 0, 0]
    print(f"{'file':<20}{'lines':>8}{'code':>8}{'docs':>8}")
    for path in sorted(root.glob("*.py")):
        row = counts(path.read_text(encoding="utf-8"))
        total = [t + v for t, v in zip(total, row)]
        print(f"{path.name:<20}{row[0]:>8,}{row[1]:>8,}{row[2]:>8,}")
    print(f"{'total':<20}{total[0]:>8,}{total[1]:>8,}{total[2]:>8,}")


if __name__ == "__main__":
    main(sys.argv[1:])
