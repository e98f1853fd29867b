"""Split the lines of every module in src/kgstab into code, docstring,
comment and blank lines, and print the counts per module with a total.

A docstring is the leading string statement of a module, class or function
body; every line it spans counts as docstring.  A comment line holds a
comment and no code; a line with code and a trailing comment is code.

Run from anywhere: ``python tools/src_lines.py``.  With ``--against REV``
it prints each count at git revision REV beside the working tree's, with the
change: ``python tools/src_lines.py --against HEAD~1``.  Standard library
only.
"""

import argparse
import ast
import io
import pathlib
import subprocess
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kgstab"
_CATEGORIES = ("code", "docstring", "comment", "blank")
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


def tree_sources():
    """{module name: source} of the working tree's src/kgstab."""
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def revision_sources(rev):
    """{module name: source} of src/kgstab at git revision ``rev``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:src/kgstab").split()
    return {name: git("show", f"{rev}:src/kgstab/{name}")
            for name in names if name.endswith(".py")}


def with_total(sources):
    """[(module, counts)] in name order, then ("total", column sums)."""
    rows = [(name, split(sources[name])) for name in sorted(sources)]
    return rows + [("total", [sum(c[i] for _, c in rows) for i in range(4)])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision to compare the working tree with")
    args = parser.parse_args()
    tree = dict(with_total(tree_sources()))
    if args.against is None:
        print(f"{'module':<14}" + "".join(f"{c:>11}" for c in _CATEGORIES))
        for name, counts in tree.items():
            print(f"{name:<14}" + "".join(f"{n:>11}" for n in counts))
        return
    try:
        old = dict(with_total(revision_sources(args.against)))
    except subprocess.CalledProcessError as err:
        parser.error(err.stderr.strip())
    print(f"{'':<14}" + "".join(f"{c:>20}" for c in _CATEGORIES))
    print(f"{'module':<14}" + f"{'REV':>8}{'tree':>6}{'delta':>6}" * 4)
    zero = [0, 0, 0, 0]
    names = sorted((set(tree) | set(old)) - {"total"}) + ["total"]
    for name in names:
        before, after = old.get(name, zero), tree.get(name, zero)
        print(f"{name:<14}" + "".join(f"{b:>8}{a:>6}{a - b:>+6}"
                                      for b, a in zip(before, after)))


if __name__ == "__main__":
    main()
