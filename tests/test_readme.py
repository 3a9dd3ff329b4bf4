"""Run every ``cimatrix`` example in the README's ``sh`` blocks, and hold
the README's list of public names to ``cimatrix.__all__``.

Each command runs in process through ``cimatrix.cli.main``.  It must exit
0, or N where its comment says ``exits N``, and print the ``# `` lines
shown under it: in order from the first line of stdout, where a line
ending in ``...`` matches any line with that prefix and a line ``...``
ends the comparison.
"""

import os
import re
import shlex

import pytest

import cimatrix
from cli_corpus import run

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) of each ``cimatrix`` line."""
    examples: list[tuple[str, list[str]]] = []
    shown = None  # output lines of the example being read
    in_sh = False
    with open(README) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("```"):
                in_sh, shown = line == "```sh", None
            elif in_sh and line.startswith("cimatrix "):
                shown = []
                examples.append((line, shown))
            elif shown is not None and line.startswith("# "):
                shown.append(line[2:])
            else:
                shown = None
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(command, shown):
    argv = shlex.split(command, comments=True)[1:]
    stated = re.search(r"#.*\bexits (\d)\b", command)
    code, out, err = run(argv)
    assert code == (int(stated.group(1)) if stated else 0), err
    printed = out.splitlines()
    for i, expected in enumerate(shown):
        if expected == "...":
            break
        assert i < len(printed), f"missing line {expected!r}"
        if expected.endswith("..."):
            assert printed[i].startswith(expected[:-3])
        else:
            assert printed[i] == expected


def test_readme_lists_the_public_names():
    # The sentence gives the count; the bullet list below it, up to the
    # first blank line, gives the names in backticks.
    with open(README) as f:
        text = f.read()
    stated = re.search(r"The top level exports exactly these (\d+) names[^\n]*\n\n(.*?)\n\n",
                       text, re.DOTALL)
    assert stated, "README states no count of public names"
    assert int(stated.group(1)) == len(cimatrix.__all__)
    assert set(re.findall(r"`(\w+)`", stated.group(2))) == set(cimatrix.__all__)
