"""Every `$ qformlab ...` example in README.md prints what the README shows.

Each example line is run through `cli.main` in-process, and its stdout is
compared with the lines printed under it in the README, up to the next
blank line, example or code fence.  A trailing `| head -N` keeps the
first N lines of stdout.  The Library section's Python block is run the
same way, and its stdout is compared with the fenced block after it.
"""

import re
import shlex
from pathlib import Path

import pytest

from qformlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, head line count or None, expected stdout lines) per example."""
    lines = README.read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("$ qformlab "):
            continue
        command, _, pipe = line[2:].partition(" | ")
        head = None
        if pipe:
            m = re.fullmatch(r"head -(\d+)", pipe.strip())
            if m is None:
                raise ValueError("unsupported pipe in README example: %r" % line)
            head = int(m.group(1))
        expected = []
        for text in lines[i + 1:]:
            if not text or text.startswith(("```", "$ ")):
                break
            expected.append(text)
        out.append((shlex.split(command)[1:], head, expected))
    return out


EXAMPLES = _examples()


def _python_example():
    """(source, expected stdout lines) of the README's Python block: the
    lines inside the ```python fence, and those of the next fenced block."""
    lines = README.read_text().splitlines()
    start = lines.index("```python") + 1
    end = lines.index("```", start)
    shown = lines.index("```", end + 1) + 1
    return "\n".join(lines[start:end]), lines[shown:lines.index("```", shown)]


def test_readme_examples_are_found():
    # rep-count, eta-expand, eisenstein, basis verify, derive-table | head
    assert len(EXAMPLES) >= 5
    assert all(expected for _, _, expected in EXAMPLES)


@pytest.mark.parametrize(
    "argv, head, expected", EXAMPLES, ids=[" ".join(argv) for argv, _, _ in EXAMPLES]
)
def test_readme_example_prints_what_the_readme_shows(capsys, argv, head, expected):
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    assert got[:head] == expected


def test_readme_python_block_prints_what_the_readme_shows(capsys):
    source, expected = _python_example()
    assert expected
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == expected
