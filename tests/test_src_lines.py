"""The code-line count of tools/src_lines.py and the table it prints, on small synthetic checkouts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import src_lines  # noqa: E402

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment beside code counts


# a comment line does not
class Box:
    """A class docstring."""

    size = 1

    def area(self):
        """A function docstring,
        over two lines."""
        text = """a multi-line string
        that is not a docstring"""
        return math.pi * self.size, text
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, size, def, the two lines of the string, return
    assert src_lines.code_lines(SOURCE) == 7
    assert src_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_table_compares_two_checkouts(tmp_path, capsys):
    for side, modules in (("parent", {"a.py": SOURCE, "gone.py": "x = 1\n"}),
                          ("change", {"a.py": SOURCE + "\ny = 2\n", "new.py": "# prose only\n"})):
        pkg = tmp_path / side / "src" / "rosenpencil"
        pkg.mkdir(parents=True)
        for name, text in modules.items():
            (pkg / name).write_text(text)
    parent, change = (src_lines.count(tmp_path / side) for side in ("parent", "change"))
    assert parent == {"a.py": (7, 18), "gone.py": (1, 1)}
    assert change == {"a.py": (8, 20), "new.py": (0, 1)}
    rows = [line.split() for line in src_lines.table(parent, change)]
    assert rows == [
        ["module", "parent", "change", "diff"],
        ["a.py", "7", "8", "+1"],
        ["gone.py", "1", "0", "-1"],
        ["new.py", "0", "0", "+0"],
        ["code", "lines", "8", "8", "+0"],
        ["physical", "lines", "19", "21", "+2"],
    ]
    assert src_lines.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in src_lines.table(parent, change))
