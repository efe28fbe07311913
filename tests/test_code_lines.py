"""``benchmarks/code_lines.py``: which lines of a source file count as code."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import os  # a trailing comment does not hide code

    # a comment-only line


    class Thing:
        """Class docstring."""

        def method(self):
            """Method docstring,

            with a blank line inside.
            """
            text = """a multi-line string
    that is not a docstring
    counts line by line"""
            return text


    async def fetch():
        """One-line docstring."""
        return os.sep
    '''
)


def test_docstrings_comments_and_blanks_are_excluded():
    # import, class, def, text (3 lines), return, async def, return
    assert code_lines.count_code_lines(SOURCE) == 9


def test_a_string_expression_after_the_first_statement_is_not_a_docstring():
    source = 'x = 1\n"""not a docstring:\nit follows a statement"""\n'
    assert code_lines.count_code_lines(source) == 3


def test_main_prints_per_file_counts_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "1", "10"]
    assert lines[-1].split()[1] == "total"
