"""The benchmark tracer patches gainline from outside, by name.  Every name it
reaches must still resolve, or a traced run breaks when a member is deleted."""

import importlib
import importlib.util
from pathlib import Path

import gainline

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "trace_layers.py"


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    trace_layers = load_trace_layers()
    assert trace_layers.SPANS
    for module, attr in trace_layers.SPANS:
        mod = importlib.import_module(f"gainline.{module}")
        if "." in attr:  # a method, replaced on its class
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (module, attr)
        else:
            assert callable(getattr(mod, attr, None)), (module, attr)
    # read or replaced by the tracer's counters
    assert isinstance(vars(gainline.CGMatrix)["entries"], property)
    for cls, name in ((gainline.GPhase, "to_cg_matrix"), (gainline.FiniteGroup, "__eq__"),
                      (gainline.FiniteGroup, "mul")):
        assert callable(vars(cls).get(name)), (cls, name)

