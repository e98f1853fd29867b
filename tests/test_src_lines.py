import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_SOURCE = '''\
"""A module docstring
over two lines."""

# a comment line
x = 1  # code with a trailing comment


def f():
    """One line."""
    return [x,
            2]
'''


def test_split_counts_each_kind_of_line():
    # code: x = 1, def f, and the two lines of the return; docstrings: the
    # module's two lines and f's one; one comment line; three blank lines
    assert src_lines.split(_SOURCE) == [4, 3, 1, 3]


def test_with_total_sums_the_modules_in_name_order():
    rows = src_lines.with_total({"b.py": "y = 2\n", "a.py": _SOURCE})
    assert rows == [("a.py", [4, 3, 1, 3]), ("b.py", [1, 0, 0, 0]),
                    ("total", [5, 3, 1, 3])]
