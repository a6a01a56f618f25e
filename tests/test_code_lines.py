import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
        that is code"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of the assigned string, the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split() for ln in lines] == [
        ["7", str(tmp_path / "a.py")], ["2", str(tmp_path / "pkg" / "b.py")], ["9", "total"],
    ]


def test_default_is_the_package(capsys):
    code_lines.main([])
    counts = dict(reversed(ln.split()) for ln in capsys.readouterr().out.splitlines())
    assert Path(next(iter(counts))).name == "__init__.py"
    assert sum(int(n) for m, n in counts.items() if m != "total") == int(counts["total"]) > 0
