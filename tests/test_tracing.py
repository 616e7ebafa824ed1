"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` replaces library functions by name where their
callers look them up. A traced name that is deleted or moved would
otherwise show only when a traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from fsmcheck import Component

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_name():
    spans = load_spans()
    lib = SimpleNamespace(**{
        module: importlib.import_module("fsmcheck._core" if module == "core" else f"fsmcheck.{module}")
        for module, _, _ in spans.TARGETS
    })
    originals = {
        (module, attr): getattr(getattr(lib, module), attr) for module, attr, _ in spans.TARGETS
    }
    tracer = spans.Tracer(lib)
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            assert getattr(getattr(lib, module), attr) is not fn, (module, attr)
        c = Component.build("C", "s0", [("s0", "a", "x", "s0")])
        assert lib.conform.check_trace_inclusion(c, c).passed
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(getattr(lib, module), attr) is fn, (module, attr)
    # trace inclusion runs the one subset-pair search
    assert tracer.counts["conform.check_trace_inclusion.calls"] == 1
    assert tracer.counts["core.cioco_bfs.calls"] == 1
    assert tracer.counts["core.inclusion_bfs.calls"] == 0
    assert tracer.counts["conform.explored_pairs"] == 1
