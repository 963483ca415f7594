"""The benchmark's tracer finds every function it times in the program.

perfbench/tracer.py names each traced layer by module and function. When a
rename or deletion leaves one of them out, its per-layer metric silently
reads 0, so the names are checked here against the loaded modules. A count
hook that no longer fits its function's arguments or result also reads 0, so
the traced block calls every function that carries a hook.
"""

import importlib.util
from pathlib import Path

import skygs.cli  # noqa: F401 - loads every module the benchmark traces
from skygs import engine, orbit
from skygs.model import validate_scenario
from skygs.scenarios import desk_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves(tmp_path):
    scenario = validate_scenario(desk_scenario(seed=1, horizon=20))
    plan = str(tmp_path / "plan.csv")
    tr = load_tracer().Tracer()
    tr.install()
    try:
        assert tr.missing == []
        for policy in ("skygs", "ilp_hpq", "bg"):
            sim, _metrics = engine.run(scenario, policy=policy)
        engine.write_records_csv(str(tmp_path / "records.csv"), sim)
        table = orbit.build_contact_table(scenario)
        orbit.write_contact_plan(table, plan)
        orbit.read_contact_plan(plan, scenario)
        summary = tr.summary()
    finally:
        tr.uninstall()
    assert summary["hook_failures"] == []
    assert summary["n"]["scheduler.weights"] == 20
    # the skygs and ilp_hpq slots that gain call the kernel, so its count hook ran
    assert summary["n"].get("hungarian.match", 0) > 0
    assert summary["n"]["engine.step"] == 60
    counts = summary["counts"]
    assert counts["accounting.records_rows"] == 1 + len(sim.records) + scenario.horizon
    assert counts["orbit.plan_rows"] == len(table.sat)
