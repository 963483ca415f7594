"""The benchmark's tracer finds every function it times in the program.

perfbench/tracer.py names each traced layer by module and function. When a
rename or deletion leaves one of them out, its per-layer metric silently
reads 0, so the names are checked here against the loaded modules.
"""

import importlib.util
from pathlib import Path

import skygs.cli  # noqa: F401 - loads every module the benchmark traces
from skygs import engine
from skygs.model import validate_scenario
from skygs.scenarios import desk_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tr = load_tracer().Tracer()
    tr.install()
    try:
        assert tr.missing == []
        for policy in ("skygs", "ilp_hpq", "bg"):
            engine.run(validate_scenario(desk_scenario(seed=1, horizon=20)), policy=policy)
        summary = tr.summary()
    finally:
        tr.uninstall()
    assert summary["hook_failures"] == []
    assert summary["n"]["scheduler.weights"] == 20
    assert summary["n"]["engine.step"] == 60
