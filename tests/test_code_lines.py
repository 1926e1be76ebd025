import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment
x = (1 +
     2)


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return [
            # a comment inside a statement
            x,
        ]
'''


def test_counts_statement_lines_only():
    # code: the two lines of x = ..., class C, def f and the three
    # list lines that are not a comment
    assert code_lines.code_lines(SNIPPET) == 7


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [name for name, _ in rows]
    assert names[-1] == "total" and "quadforms.py" in names
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
