"""Every entry point perfbench's layer table wraps still exists.

``perfbench/layers.py`` wraps named functions of the simulator with
``Tracer.wrap``, which reads ``owner.__dict__[attr]``: renaming or
moving any of them (``PsiSystem.tick``, ``Host.step``, ``Host._record``,
``fleetres.dump_envelope``, ...) would crash every traced benchmark run
with a ``KeyError``. This test runs ``install`` against a stub tracer
that checks each wrapped name instead of wrapping it.
"""

import importlib.util
import inspect
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


class CheckingTracer:
    """Stands in for ``spans.Tracer``: checks names, wraps nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, on_exit=None):
        where = getattr(owner, "__name__", repr(owner))
        assert attr in owner.__dict__, f"{where}.{attr} is gone"
        assert inspect.isfunction(owner.__dict__[attr]), (
            f"{where}.{attr} is not a plain function"
        )
        self.wrapped.append((where, attr))


def load_layers(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(PERFBENCH, "layers.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop("spans", None)  # imported by layers.py; keep it local
    return module


def test_every_wrapped_entry_point_exists(monkeypatch):
    layers = load_layers(monkeypatch)
    tracer = CheckingTracer()
    layers.install(tracer, layers.Counters())
    for hook in [("PsiSystem", "tick"), ("Host", "step"),
                 ("Host", "_record"), ("Host", "snapshot"),
                 ("repro.core.fleetres", "dump_envelope")]:
        assert hook in tracer.wrapped
