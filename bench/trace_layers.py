"""Spans and work counters around gainline's layers, patched in from outside.

gainline's modules bind each other's functions with ``from .x import y``, so
a function is reachable under several names (``spectral.fourier`` is
``representation.fourier``).  ``install`` therefore replaces the function in
every ``gainline.*`` namespace that holds it; methods are replaced on their
class.  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, request]`` with ``parent`` the index of
the enclosing span (-1 at the top).  Spans and counters stay in memory until
``dump``.  Work done only to count (the ``nnz`` scan) is recorded as a
``trace.count`` span, so it is subtracted from its parent's self time.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

#: (module, attribute) of every span; the metric prefix is ``module.attribute``
#: with ``__init__`` shortened to ``init``.
SPANS = [
    ("cli", "main"),
    ("group", "build_group"),
    ("group", "center"),
    ("graph", "graph_from_dict"),
    ("graph", "line_graph"),
    ("algebra", "CGMatrix.__init__"),
    ("algebra", "CGMatrix.scalar_mul"),
    ("gain", "gain_from_dict"),
    ("gain", "gain_adjacency"),
    ("gain", "s_laplacian"),
    ("gain", "balance_witness"),
    ("gain", "switching_to"),
    ("gain", "gain_to_dict"),
    ("phase", "gain_line"),
    ("phase", "recognize_gain_line"),
    ("phase", "phase_to_dict"),
    ("representation", "representation_from_dict"),
    ("representation", "fourier"),
    ("representation", "hermitian_spectrum"),
    ("spectral", "gainline_obstruction"),
]


def span_name(module, attr):
    return f"{module}.{attr.replace('__init__', 'init')}"


SPAN_NAMES = [span_name(m, a) for m, a in SPANS]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # request id -> Counter
        self.request = None
        self.current = Counter()
        self._stack = []
        self._undo = []
        self._fourier_results = {}  # id -> result, within one request
        # Bare list cells keep the per-call cost of the eq and mul counters low.
        self._cells = {"group.eq.calls": [0], "group.mul.calls": [0]}

    def begin(self, request):
        self._flush()
        self.request = request
        self.current = self.counts[request] = Counter()
        self._fourier_results = {}

    def _flush(self):
        """Move the hot-path call counts into the current request's counters."""
        for key, cell in self._cells.items():
            self.current[key] += cell[0]
            cell[0] = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                tracer._count_outside_layers(after, result)
            return result

        return wrapper

    def _count_outside_layers(self, count, result):
        t0 = perf_counter()
        count(result)
        self.spans.append(["trace.count", t0, perf_counter(),
                           self._stack[-1] if self._stack else -1, self.request])

    def _cg_counts(self, matrix):
        self.current["algebra.entries"] += matrix.rows * matrix.cols
        self.current["algebra.nnz"] += sum(
            1 for row in matrix.entries for entry in row if entry.coeffs)

    def _line_counts(self, data):
        self.current["graph.line_graph.line_edges"] += data.line.m

    def _fourier_after(self, result):
        self._fourier_results[id(result)] = result

    def _spectrum_wrapper(self, fn):
        inner = self._span("representation.hermitian_spectrum", fn)
        tracer = self

        def wrapper(M, *args, **kwargs):
            data = getattr(M, "data", M)
            tracer.current["representation.eig_dim"] += len(data)
            if tracer._fourier_results.pop(id(M), None) is not None:
                tracer.current["representation.fourier.used"] += 1
            return inner(M, *args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "gainline" and not modname.startswith("gainline."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import importlib

        import gainline

        after = {"graph.line_graph": self._line_counts,
                 "gain.gain_adjacency": self._cg_counts,
                 "gain.s_laplacian": self._cg_counts,
                 "representation.fourier": self._fourier_after}
        for module, attr in SPANS:
            name = span_name(module, attr)
            mod = importlib.import_module(f"gainline.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._replace_method(cls, meth,
                                     self._span(name, cls.__dict__[meth]))
                continue
            fn = getattr(mod, attr)
            if name == "representation.hermitian_spectrum":
                wrapper = self._spectrum_wrapper(fn)
            else:
                wrapper = self._span(name, fn, after.get(name))
            self._replace_everywhere(fn, wrapper)
        FiniteGroup = gainline.group.FiniteGroup
        eq, eq_calls = FiniteGroup.__eq__, self._cells["group.eq.calls"]
        mul, mul_calls = FiniteGroup.mul, self._cells["group.mul.calls"]

        def counted_eq(group, other):
            eq_calls[0] += 1
            return eq(group, other)

        def counted_mul(group, g, h):
            mul_calls[0] += 1
            return mul(group, g, h)

        self._replace_method(FiniteGroup, "__eq__", counted_eq)
        self._replace_method(FiniteGroup, "mul", counted_mul)
        GPhase = gainline.phase.GPhase
        to_cg = GPhase.to_cg_matrix
        tracer = self

        def to_cg_matrix(phase):
            matrix = to_cg(phase)
            tracer._count_outside_layers(tracer._cg_counts, matrix)
            return matrix

        self._replace_method(GPhase, "to_cg_matrix", to_cg_matrix)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def dump(self):
        self._flush()
        return {"spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()}}
