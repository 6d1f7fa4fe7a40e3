"""The code-line counter `tools/code_lines.py` on a small fixture."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# counted: the import, `def area`, the three lines of the return
# expression, `class Box`, both lines of `label` and the `join` statement
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide the code


# a comment line
def area(r):
    """A one-line docstring."""
    return math.pi * (
        r * r
    )


class Box:
    """A class docstring,
    over three lines.
    """

    label = """a multi-line string
that is not a docstring"""
    "".join("ab")
'''


def test_counts_code_tokens_only():
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = [\n    x,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["9", str(tmp_path / "a.py")],
        ["4", str(tmp_path / "b.py")],
        ["13", "total"],
    ]


def test_usage_and_missing_paths_exit_2(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    for argv, code in [(["--help"], 0), ([str(tmp_path / "a.py"), str(tmp_path / "missing.py")], 2)]:
        with pytest.raises(SystemExit) as exc:
            code_lines.main(argv)
        assert exc.value.code == code
    out, err = capsys.readouterr()
    assert out.startswith("usage: code_lines.py")
    assert err.splitlines()[-1].endswith(f"no such file or directory: {tmp_path / 'missing.py'}")
    # a missing path stops the count before any file is read
    assert "total" not in out
