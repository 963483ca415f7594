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
from instances import contact_table, make_scenario
from skygs import engine, orbit
from skygs.model import validate_scenario
from skygs.orbit import Contact
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
        # no desk slot holds two satellites that gain at one station, so only
        # this 3-slot run, where two backlogged satellites share a one-antenna
        # station, reaches the matching kernel
        contested = make_scenario(n_sats=2, stations=((1, 22.0),), horizon=3)
        engine.run(contested, table=contact_table(
            contested, [Contact(t, s, "gs-0", 45.0, 500.0) for t in (1, 2)
                        for s in ("sat-0", "sat-1")]))
        engine.write_records_csv(str(tmp_path / "records.csv"), sim)
        table = orbit.build_contact_table(scenario)
        orbit.write_contact_plan(table, plan)
        orbit.read_contact_plan(plan, scenario)
        summary = tr.summary()
    finally:
        tr.uninstall()
    assert summary["hook_failures"] == []
    assert summary["n"]["scheduler.weights"] == 20 + 3
    # the contested slots call the kernel, so its count hook ran
    assert summary["n"].get("hungarian.match", 0) > 0
    assert summary["n"]["engine.step"] == 60 + 3
    counts = summary["counts"]
    assert counts["accounting.records_rows"] == 1 + len(sim.records) + scenario.horizon
    assert counts["orbit.plan_rows"] == len(table.sat)
