"""The tracer's span arithmetic, its patching, and the missing-function path.

Run with: python3 -m pytest perfbench/tests -q
"""

import threading
import time

import pytest

import tracer as tracing
from skygs import engine, model, orbit, scheduler
from skygs.scenarios import desk_scenario

PAUSE = 0.05


def test_self_time_is_duration_minus_children_on_the_same_thread():
    tr = tracing.Tracer(spans={}, count_hooks={}, sampled=("outer",))
    inner = tr.wrap("inner", lambda: time.sleep(PAUSE))

    def outer_body():
        time.sleep(PAUSE)
        inner()
        inner()

    outer = tr.wrap("outer", outer_body)
    outer()
    s = tr.summary()
    assert s["n"] == {"outer": 1, "inner": 2}
    assert s["self"]["outer"] == pytest.approx(s["total"]["outer"] - s["total"]["inner"],
                                               abs=1e-9)
    assert s["self"]["inner"] == s["total"]["inner"]
    assert s["total"]["outer"] >= 3 * PAUSE
    assert PAUSE <= s["self"]["outer"] < 2 * PAUSE
    assert s["samples"]["outer"] == [s["total"]["outer"]]


def test_spans_on_other_threads_are_not_children():
    tr = tracing.Tracer(spans={}, count_hooks={})
    inner = tr.wrap("inner", lambda: time.sleep(2 * PAUSE))
    both_open = threading.Barrier(2)

    def outer_body():
        both_open.wait(timeout=5)
        time.sleep(4 * PAUSE)

    outer = tr.wrap("outer", outer_body)

    def other_thread():
        both_open.wait(timeout=5)
        inner()
        inner()

    worker = threading.Thread(target=other_thread)
    worker.start()
    outer()
    worker.join(timeout=5)
    assert not worker.is_alive()
    s = tr.summary()
    # the other thread's inner spans ran inside outer's interval but were not
    # called by it, so they take nothing off outer's self time
    assert s["n"] == {"outer": 1, "inner": 2}
    assert s["self"]["outer"] == s["total"]["outer"]
    assert s["self"]["outer"] >= 4 * PAUSE
    assert s["total"]["inner"] >= 4 * PAUSE


def test_nested_threads_each_keep_their_own_stack():
    tr = tracing.Tracer(spans={}, count_hooks={})
    inner = tr.wrap("inner", lambda: time.sleep(PAUSE))

    def outer_body():
        time.sleep(PAUSE)
        inner()

    outer = tr.wrap("outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    s = tr.summary()
    assert s["n"] == {"outer": 4, "inner": 4}
    assert s["self"]["outer"] == pytest.approx(s["total"]["outer"] - s["total"]["inner"],
                                               abs=1e-9)
    assert 4 * PAUSE <= s["self"]["outer"] < 8 * PAUSE


def test_missing_functions_are_listed_and_read_zero():
    tr = tracing.Tracer(spans={
        "orbit.build": (("skygs.orbit", "no_such_function"),),
        "baselines.schedule": (("skygs.baselines", "NoSuchPolicy.schedule"),),
        "engine.step": (("skygs.no_such_module", "step"),),
    })
    tr.install()
    try:
        assert tr.missing == ["skygs.orbit.no_such_function",
                              "skygs.baselines.NoSuchPolicy.schedule",
                              "skygs.no_such_module.step"]
        metrics = tracing.layer_metrics(tr.summary())
    finally:
        tr.uninstall()
    assert metrics["orbit.builds"] == (0, "count")
    assert metrics["baselines.decide_ms_p50"] == (0.0, "ms")
    assert metrics["engine.step_ms_tail"] == (0.0, "ms")


def test_every_listed_function_exists_and_uninstall_restores_it():
    originals = (engine.check_assignment, engine.step, orbit.build_contact_table,
                 scheduler.build_bipartite)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.missing == []
        assert engine.check_assignment is not originals[0]
        assert engine.check_assignment.__wrapped__ is originals[0]
        assert scheduler.check_assignment is engine.check_assignment
    finally:
        tr.uninstall()
    assert (engine.check_assignment, engine.step, orbit.build_contact_table,
            scheduler.build_bipartite) == originals


def test_spans_are_recorded_where_the_caller_looks_them_up():
    scenario = model.validate_scenario(desk_scenario(seed=1, horizon=30))
    tr = tracing.Tracer()
    tr.install()
    try:
        record, _ = engine.run(scenario, policy="skygs", seed=1)
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr.summary())
    assert m["engine.slots"][0] == 30
    assert m["hungarian.calls"][0] == 30
    assert m["scheduler.cells"][0] == 30 * 10 * (15 + 10)
    assert m["orbit.builds"][0] == 1
    assert m["orbit.distinct_tables"][0] == 1
    assert m["queues.downlinks"][0] == len(record.records)
    assert m["engine.mb_delivered"][0] == pytest.approx(sum(r.mb for r in record.records))
    assert m["hungarian.rows_with_contact"][0] <= m["hungarian.rows"][0] == 300
    assert tr.summary()["hook_failures"] == []


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracing.tail_percentile(39) is None
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(240) == 90.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(8640) == 99.0
    assert tracing.tail_percentile(10000) == 99.9
    assert tracing.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert tracing.percentile([3.0, 1.0, 2.0, 4.0], 99.0) == 4.0


def test_merge_adds_setup_and_operation_spans():
    a = {"n": {"x": 1}, "total": {"x": 1.0}, "self": {"x": 0.5}, "samples": {"x": [1.0]},
         "counts": {"c": 2}, "distinct_tables": ["k1"], "missing": [], "hook_failures": []}
    b = {"n": {"x": 2}, "total": {"x": 3.0}, "self": {"x": 1.0}, "samples": {"x": [1.0, 2.0]},
         "counts": {"c": 3}, "distinct_tables": ["k1", "k2"], "missing": ["m"],
         "hook_failures": [], "cli": True, "cli_start_s": 0.25}
    m = tracing.merge(a, b)
    assert m["n"] == {"x": 3} and m["total"] == {"x": 4.0} and m["self"] == {"x": 1.5}
    assert m["samples"]["x"] == [1.0, 1.0, 2.0] and m["counts"] == {"c": 5}
    assert m["distinct_tables"] == ["k1", "k2"] and m["missing"] == ["m"]
    assert m["cli"] is True and m["cli_start_s"] == 0.25
