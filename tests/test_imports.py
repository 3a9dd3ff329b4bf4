"""Every name that a module of ``cimatrix`` imports is read in that module.

No linter runs on the package, so this reads each module with ``ast``: a
name bound by an import must be read somewhere in the module, or listed in
its ``__all__``.  ``from __future__`` imports bind no name.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cimatrix")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))

# The one import kept unread: the tracing table of perfbench/spans.py rebinds
# ``vandermonde_product`` in ``cimatrix.verifier`` and refuses a traced run
# when that call site is missing.
KEPT = {("verifier.py", "vandermonde_product")}


def unread_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_the_guard_reads_the_whole_package():
    assert "verifier.py" in MODULES and "__init__.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    with open(os.path.join(PACKAGE, module)) as f:
        unread = unread_imports(f.read())
    assert [name for name in unread if (module, name) not in KEPT] == []


def test_the_guard_sees_an_unread_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nprint(b)\n"
    assert unread_imports(source) == ["os", "d"]
    assert unread_imports("import os.path\n__all__ = ['path']\nos.sep\n") == []
