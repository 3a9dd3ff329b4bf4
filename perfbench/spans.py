"""Spans and counters for the traced run.

Only a traced serving process installs these.  ``install`` rebinds each listed
function, in the module that calls it, to a wrapper that records a span:
name, start, end, parent span and request id; ``restore`` puts the
originals back, so traced and untraced rounds can alternate in one
process.  Spans stay in memory until the process ends and reports them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from fractions import Fraction

# (metric name, call sites as (module, attribute path)).  A call site is
# the name the caller looks up, so rebinding it catches every call made
# through that module.  The serving process itself calls through
# ``cimatrix`` and ``cimatrix.cli``, looked up on every request.
SPAN_SITES = (
    ("cli.main", (("cimatrix.cli", "main"),)),
    ("matrix.closed_form_logdet", (("cimatrix", "closed_form_logdet"), ("cimatrix.cli", "closed_form_logdet"))),
    ("matrix.lu_logdet", (("cimatrix", "lu_logdet"), ("cimatrix.cli", "lu_logdet"))),
    ("symfunc.leave_one_out_table_float", (("cimatrix.matrix", "leave_one_out_table_float"),)),
    ("symfunc.elem_sym_all", (("cimatrix.matrix", "elem_sym_all"), ("cimatrix.symfunc", "elem_sym_all"))),
    ("symfunc.elem_sym_leave_one_out", (("cimatrix.matrix", "elem_sym_leave_one_out"),)),
    ("matrix.build_ci_matrix", (("cimatrix", "build_ci_matrix"), ("cimatrix.cli", "build_ci_matrix"),
                                ("cimatrix.matrix", "build_ci_matrix"), ("cimatrix.verifier", "build_ci_matrix"))),
    ("matrix.det_closed_form", (("cimatrix.cli", "det_closed_form"), ("cimatrix.matrix", "det_closed_form"),
                                ("cimatrix.verifier", "det_closed_form"))),
    ("matrix.det_bareiss", (("cimatrix.matrix", "det_bareiss"),)),
    ("matrix.det_cofactor", (("cimatrix.verifier", "det_cofactor"), ("cimatrix.matrix", "det_cofactor"))),
    ("matrix.symbolic_ci_matrix", (("cimatrix.verifier", "symbolic_ci_matrix"),)),
    ("multipoly.vandermonde_product", (("cimatrix.verifier", "vandermonde_product"),)),
    ("multipoly.MultiPoly.mul", (("cimatrix.multipoly", "MultiPoly.__mul__"),
                                 ("cimatrix.multipoly", "MultiPoly.__rmul__"))),
    ("multipoly.MultiPoly.identify_variables", (("cimatrix.multipoly", "MultiPoly.identify_variables"),)),
    ("multipoly.MultiPoly.substitute", (("cimatrix.multipoly", "MultiPoly.substitute"),)),
    ("scalars.rational_from_string", (("cimatrix.cli", "rational_from_string"),
                                      ("cimatrix.multipoly", "rational_from_string"))),
    ("scalars.rational_to_string", (("cimatrix.cli", "rational_to_string"), ("cimatrix.verifier", "rational_to_string"),
                                    ("cimatrix.multipoly", "rational_to_string"))),
    ("verifier.determinant_identity", (("cimatrix.verifier", "verify_determinant_identity"),)),
    ("verifier.homogeneity", (("cimatrix.verifier", "verify_homogeneity"),)),
    ("verifier.row_degrees", (("cimatrix.verifier", "verify_row_degrees"),)),
    ("verifier.equal_columns", (("cimatrix.verifier", "verify_equal_column_vanish"),)),
    ("verifier.first_node_zero_block", (("cimatrix.verifier", "verify_first_node_zero_block"),)),
    ("verifier.duality", (("cimatrix.verifier", "verify_duality_probe"),)),
    ("cli.MatrixDocument.from_matrix", (("cimatrix.cli", "MatrixDocument.from_matrix"),)),
    ("cli.MatrixDocument.to_json", (("cimatrix.cli", "MatrixDocument.to_json"),)),
)

# Counted, not timed: one span per Bareiss division would dwarf the work.
COUNT_SITES = (
    ("scalars.exact_div.calls", (("cimatrix.matrix", "exact_div"),)),
)


def _result_bits(tracer: "Tracer", result) -> None:
    value = Fraction(result)
    tracer.add("matrix.det_bareiss.result_bits", abs(value.numerator).bit_length()
               + value.denominator.bit_length())


def _det_terms(tracer: "Tracer", result) -> None:
    if getattr(result, "nvars", None) == 7:
        tracer.maximum("multipoly.det_terms.n7", len(result.terms))


AFTER = {"matrix.det_bareiss": _result_bits, "matrix.det_cofactor": _det_terms}


def traced_round(number: int) -> bool:
    """Whether round ``number`` of a traced run is traced: rounds 1, 2, 5,
    6, ...  Each pair (0, 1), (2, 3), ... holds one round of each mode, the
    traced one second and first in turn, so drift over the run falls on
    both modes alike and the pair's ratio gives the tracing overhead."""
    return number % 4 in (1, 2)


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[int, dict[str, float]] = {}
        self.request = -1
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        counts = self.counts.setdefault(self.request, {})
        counts[name] = counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        counts = self.counts.setdefault(self.request, {})
        counts[name] = max(counts.get(name, value), value)

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span per call; ``after`` sees the result
        once the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper


def _rebind(module_name: str, path: str, wrap, saved: list) -> bool:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attribute):
        return False
    raw = inspect.getattr_static(owner, attribute)
    saved.append((owner, attribute, raw))
    if isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attribute, wrap(getattr(owner, attribute)))
    return True


def install(tracer: Tracer) -> list:
    """Rebind every listed call site; return what ``restore`` needs.  A layer
    whose function exists at none of its sites cannot be measured, which is
    an error."""
    saved: list = []
    missing = []
    for name, sites in SPAN_SITES:
        after = AFTER.get(name)
        found = [_rebind(m, p, lambda fn, name=name, after=after: tracer.span(name, fn, after), saved)
                 for m, p in sites]
        if not any(found):
            missing.append(name)
    for name, sites in COUNT_SITES:
        if not any([_rebind(m, p, lambda fn, name=name: tracer.counter(name, fn), saved) for m, p in sites]):
            missing.append(name)
    if missing:
        restore(saved)
        raise RuntimeError(f"no call site left to trace for {', '.join(missing)}")
    return saved


def restore(saved: list) -> None:
    """Put back the originals that ``install`` replaced."""
    for owner, attribute, raw in reversed(saved):
        setattr(owner, attribute, raw)
