"""The names the traced benchmark rebinds must exist in the package.

``perfbench/spans.py`` rebinds each function it times at the call sites it
lists, and fails the traced run if a layer has none left.  This test reads
that table (without changing it) so that renaming or deleting a traced
function fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cimatrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return False
    return hasattr(owner, attribute)


@pytest.mark.parametrize("name,sites", _spans.SPAN_SITES + _spans.COUNT_SITES,
                         ids=lambda value: value if isinstance(value, str) else "")
def test_every_traced_layer_has_a_call_site(name, sites):
    assert any(_resolves(module, path) for module, path in sites), name


def test_every_public_name_resolves():
    assert len(cimatrix.__all__) == len(set(cimatrix.__all__))
    for name in cimatrix.__all__:
        assert hasattr(cimatrix, name), name
