"""Split the lines of every module in src/kgstab into code, docstring,
comment and blank lines, and print the counts per module with a total.

A docstring is the leading string statement of a module, class or function
body; every line it spans counts as docstring.  A comment line holds a
comment and no code; a line with code and a trailing comment is code.

Run from anywhere: ``python tools/src_lines.py``.  Standard library only.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kgstab"
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def docstring_lines(tree):
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source):
    """(code, docstring, comment, blank) line counts of ``source``."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = [0, 0, 0, 0]
    for number in range(1, len(source.splitlines()) + 1):
        if number in docs:
            counts[1] += 1
        elif number in code:
            counts[0] += 1
        elif number in comments:
            counts[2] += 1
        else:
            counts[3] += 1
    return counts


def main():
    rows = [(path.name, split(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", [sum(c[i] for _, c in rows) for i in range(4)]))
    print(f"{'module':<14}{'code':>7}{'docstring':>11}{'comment':>9}"
          f"{'blank':>7}")
    for name, (code, doc, comment, blank) in rows:
        print(f"{name:<14}{code:>7}{doc:>11}{comment:>9}{blank:>7}")


if __name__ == "__main__":
    main()
