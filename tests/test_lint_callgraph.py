"""Unit tests for the project call-graph resolution layer."""

import ast
from pathlib import Path
from textwrap import dedent

from repro.lint.callgraph import (
    ModuleResolver,
    build_call_graph,
    build_project_index,
    module_name_for,
)

REPO = Path(__file__).resolve().parents[1]


def _index(**modules):
    files = [
        (f"{name}.py", ast.parse(dedent(src)))
        for name, src in modules.items()
    ]
    return build_project_index(files)


A = """
    def helper(x_bytes):
        return x_bytes


    class Recorder:
        def __init__(self, capacity_bytes):
            self.capacity_bytes = capacity_bytes

        def record(self, value):
            return value
"""

B = """
    from a import Recorder, helper


    def use():
        r = Recorder(10)
        r.record(1)
        return helper(2)
"""


def test_module_name_follows_packages():
    assert module_name_for(REPO / "src/repro/sim/host.py") == "repro.sim.host"
    assert module_name_for(REPO / "src/repro/lint/__init__.py") == "repro.lint"
    # benchmarks/ is not a package: the file imports as a bare module.
    assert module_name_for(REPO / "benchmarks/bench_common.py") == "bench_common"
    # The fixture package root sits under a non-package directory.
    assert (
        module_name_for(REPO / "tests/lint_fixtures/flowpkg/convert.py")
        == "flowpkg.convert"
    )


def test_cross_module_calls_resolve():
    edges = build_call_graph(_index(a=A, b=B))
    assert edges["b.use"] == {
        "a.Recorder.__init__",
        "a.Recorder.record",
        "a.helper",
    }


def test_reexport_chain_resolves():
    e = "from a import helper\n"
    f = """
        from e import helper


        def go():
            return helper(1)
    """
    edges = build_call_graph(_index(a=A, e=e, f=f))
    assert "a.helper" in edges["f.go"]


def test_inherited_method_resolves_to_base():
    d = """
        class Base:
            def step(self):
                return 0


        class Child(Base):
            pass


        def drive():
            c = Child()
            return c.step()
    """
    edges = build_call_graph(_index(d=d))
    assert "d.Base.step" in edges["d.drive"]


def test_dataclass_constructor_params_come_from_fields():
    c = """
        from dataclasses import dataclass


        @dataclass
        class Config:
            ram_gb: float
            page_size_bytes: int = 4096
    """
    index = _index(c=c)
    cls = index.modules["c"].classes["Config"]
    assert cls.is_dataclass
    assert cls.constructor_params() == ["ram_gb", "page_size_bytes"]


def test_resolver_walks_dotted_names():
    g = """
        import a


        def go():
            return a.Recorder
    """
    index = _index(a=A, g=g)
    resolver = ModuleResolver(index, index.modules["g"])
    assert resolver.resolve_name("a.helper") == ("func", "a.helper")
    assert resolver.resolve_name("a.Recorder") == ("class", "a.Recorder")
    assert resolver.resolve_name("a.Recorder.record") == (
        "func",
        "a.Recorder.record",
    )
    assert resolver.resolve_name("numpy.random") is None
