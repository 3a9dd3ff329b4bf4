"""Run every ``cimatrix`` example in the README's ``sh`` blocks and its
Library example, and hold the README's list of public names to
``cimatrix.__all__``.

Each command runs in process through ``cimatrix.cli.main``.  It must exit
0, or N where its comment says ``exits N``, and print the ``# `` lines
shown under it: in order from the first line of stdout, where a line
ending in ``...`` matches any line with that prefix and a line ``...``
ends the comparison.
"""

import os
import re
import shlex
from fractions import Fraction

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


def test_readme_library_example():
    # The one ``python`` block runs in a fresh namespace; its comments state
    # the values checked here.
    with open(README) as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    ns: dict = {}
    exec(blocks[0], ns)
    m, nodes = ns["m"], ns["nodes"]
    assert m.entries == ((6, 3, 2), (5, 4, 3), (1, 1, 1))
    assert all(type(x) is Fraction for row in m.entries for x in row)
    for det in (ns["det_closed_form"](nodes), ns["det_bareiss"](m)):
        assert det == 2 and type(det) is Fraction
    assert ns["det_cofactor"](ns["symbolic_ci_matrix"](3)) == ns["vandermonde_product"](3)
    assert ns["verify_suite"](4).passed
    residual = ns["vandermonde_duality_residual"](nodes)
    assert residual.max_offdiag == 0 and residual.max_diag_rel == 0


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
