"""Tests for ``benchmarks/code_size.py``, the code-line counter."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "code_size.py"


@pytest.fixture(scope="module")
def code_size():
    spec = importlib.util.spec_from_file_location("code_size", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
two lines."""

# a comment

import os  # trailing comments do not hide code


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string that is
        data, not a docstring"""
        return text


def bare():
    x = 1
    """A second statement string is code, not a docstring."""
    return x
'''


class TestCountSource:
    def test_excludes_blanks_comments_and_docstrings(self, code_size):
        code, physical = code_size.count_source(SOURCE)
        # import, class, def method, text = (2 lines), return text,
        # def bare, x = 1, the non-docstring string, return x.
        assert code == 10
        assert physical == len(SOURCE.splitlines())

    def test_comment_only_edit_changes_nothing(self, code_size):
        commented = SOURCE.replace("import os", "# more\n# comments\nimport os")
        assert code_size.count_source(commented)[0] == code_size.count_source(SOURCE)[0]


def test_main_summarises_a_tree(code_size, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert code_size.main([str(tmp_path / "pkg"), "--files"]) == 0
    out = capsys.readouterr().out.splitlines()
    physical = len(SOURCE.splitlines()) + 1
    assert out[-1] == f"code lines: 11  physical lines: {physical}  files: 2"
    assert out[0].split()[0] == "10"  # largest file first
