"""The names the traced benchmark rebinds must exist in the package, and
the package must call through them.

``perfbench/spans.py`` rebinds each function it times at the call sites it
lists, and fails the traced run if a layer has none left.  These tests read
that table (without changing it) so that renaming or deleting a traced
function fails here, not only in a benchmark run, and so does a caller that
binds a traced function by name where the table does not rebind it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cimatrix
import cimatrix.cli
import cimatrix.multipoly
import cimatrix.verifier
from conftest import reference_checks

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


# The layers the traced ``exact`` workload reports, one request being
# ``det --oracle bareiss`` then ``gen --out json`` on the same nodes.
EXACT_LAYERS = (
    "cli.main",
    "matrix.build_ci_matrix",
    "symfunc.elem_sym_all",
    "symfunc.elem_sym_leave_one_out",
    "matrix.det_closed_form",
    "matrix.det_bareiss",
    "scalars.rational_from_string",
    "scalars.rational_to_string",
    "cli.MatrixDocument.from_matrix",
    "cli.MatrixDocument.to_json",
)


def test_a_traced_exact_request_reaches_every_layer(capsys):
    tracer = _spans.Tracer()
    tracer.request = 0
    saved = _spans.install(tracer)
    try:
        # ``cimatrix.cli.main`` is looked up here, after the rebinding, as
        # the serving process does.
        for argv in (["det", "--mu", "1/2,-3/7,5,22/9", "--oracle", "bareiss"],
                     ["gen", "--mu", "1/2,-3/7,5,22/9", "--out", "json"]):
            assert cimatrix.cli.main(argv) == 0
    finally:
        _spans.restore(saved)
    capsys.readouterr()
    reached = {record[0] for record in tracer.spans}
    assert [layer for layer in EXACT_LAYERS if layer not in reached] == []
    counts = tracer.counts[0]
    assert counts["scalars.exact_div.calls"] > 0
    assert counts["matrix.det_bareiss.result_bits"] > 0
    # Every original is back.
    for restored in (cimatrix.cli.main, cimatrix.matrix.det_bareiss, cimatrix.matrix.exact_div):
        assert not hasattr(restored, "__wrapped__")


# The layers the traced ``symbolic_verify`` workload reports, one request
# being ``verify --max-n 7 --cap 7 --json``.
SYMBOLIC_LAYERS = (
    "cli.main",
    "matrix.symbolic_ci_matrix",
    "matrix.build_ci_matrix",
    "matrix.det_closed_form",
    "multipoly.MultiPoly.mul",
    "multipoly.MultiPoly.substitute",
    "verifier.determinant_identity",
    "verifier.homogeneity",
    "verifier.row_degrees",
    "verifier.equal_columns",
    "verifier.first_node_zero_block",
    "verifier.duality",
)


def test_a_traced_verify_request_reaches_every_layer(capsys):
    tracer = _spans.Tracer()
    tracer.request = 0
    saved = _spans.install(tracer)
    try:
        assert cimatrix.cli.main(["verify", "--max-n", "7", "--cap", "7", "--json"]) == 0
    finally:
        _spans.restore(saved)
    capsys.readouterr()
    reached = {record[0] for record in tracer.spans}
    assert [layer for layer in SYMBOLIC_LAYERS if layer not in reached] == []
    # The suite proves each size from the matrix: the n!-term expansion, and
    # the term count taken from it, are never reached.
    assert "matrix.det_cofactor" not in reached
    assert "multipoly.det_terms.n7" not in tracer.counts.get(0, {})
    for restored in (cimatrix.cli.main, cimatrix.matrix.det_cofactor,
                     cimatrix.verifier.det_closed_form,
                     cimatrix.multipoly.MultiPoly.identify_variables):
        assert not hasattr(restored, "__wrapped__")


def test_a_traced_reference_reaches_the_identification_and_the_closed_form():
    # No verifier path identifies variables or factors an expansion any more;
    # the test-side reference checks do both, through the traced call sites:
    # they expand a perturbed matrix, identify every column pair and compare
    # the first-node factorization.
    n = 4
    matrix = cimatrix.matrix.symbolic_ci_matrix(n)
    rows = [list(row) for row in matrix.entries]
    rows[2][1] = rows[2][1] + cimatrix.multipoly.variables(n)[2]
    perturbed = cimatrix.matrix.CIMatrix(n, matrix.nodes, tuple(map(tuple, rows)))
    tracer = _spans.Tracer()
    tracer.request = 0
    saved = _spans.install(tracer)
    try:
        checks = reference_checks(perturbed)
    finally:
        _spans.restore(saved)
    assert checks["equal-columns(1,2)"].witness == (
        "determinant nonzero after identification; columns 1 and 2 differ after identification")
    reached = {record[0] for record in tracer.spans}
    assert {"multipoly.MultiPoly.identify_variables", "matrix.det_closed_form",
            "matrix.det_cofactor"} <= reached
    for restored in (cimatrix.matrix.det_closed_form, cimatrix.matrix.det_cofactor,
                     cimatrix.multipoly.MultiPoly.identify_variables):
        assert not hasattr(restored, "__wrapped__")


# The layers the traced ``float_logdet`` workload reports, one request being
# ``closed_form_logdet``, ``build_ci_matrix`` and ``lu_logdet`` on the same
# float nodes.
FLOAT_LAYERS = (
    "matrix.closed_form_logdet",
    "matrix.build_ci_matrix",
    "symfunc.leave_one_out_table_float",
    "matrix.lu_logdet",
)


def test_a_traced_float_request_reaches_every_layer():
    nodes = cimatrix.cli.draw_bench_nodes(16, 1)
    tracer = _spans.Tracer()
    tracer.request = 0
    saved = _spans.install(tracer)
    try:
        # Looked up on ``cimatrix`` after the rebinding, as the serving
        # process does.
        assert cimatrix.closed_form_logdet(nodes)[0] == 1
        cimatrix.lu_logdet(cimatrix.build_ci_matrix(nodes))
    finally:
        _spans.restore(saved)
    reached = {record[0] for record in tracer.spans}
    assert [layer for layer in FLOAT_LAYERS if layer not in reached] == []
    for restored in (cimatrix.closed_form_logdet, cimatrix.build_ci_matrix, cimatrix.lu_logdet,
                     cimatrix.matrix.leave_one_out_table_float):
        assert not hasattr(restored, "__wrapped__")
