"""README's ``chebgamma eval`` and ``chebgamma series`` examples, run through
``cli.main``: each block's output lines must be what the command prints."""

import re
import shlex
from pathlib import Path

import pytest

from chebgamma.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
RUNNABLE = ("eval", "series")


def _examples():
    """(argv, expected output lines) for every runnable example."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S):
        command = None
        for line in block.splitlines():
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                command = argv[1:] if argv[:1] == ["chebgamma"] and argv[1] in RUNNABLE else None
                if command is not None:
                    examples.append((command, []))
            elif command is not None:
                examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_shows_an_example_of_each_runnable_command():
    assert {argv[0] for argv, _ in EXAMPLES} == set(RUNNABLE)


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_prints_what_readme_shows(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
