"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the skygs modules and replaces every
reference to them that a loaded skygs module holds, so each call is timed
where its caller looks it up. A span records its name, its thread, its
duration and its self time (duration minus the duration of the spans it
called on the same thread). Spans are aggregated per thread while the run
goes and merged when it ends, so recording a span takes no lock.

Count hooks read a call's arguments and result at the same boundary (edges,
matrix rows, chunks popped, ...). A function that no longer exists is listed
as missing and its metrics read 0; a hook that no longer fits the function's
signature is listed as failed instead of stopping the run.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time
from collections import defaultdict

# Span name -> (module, attribute path) of every function the traced run wraps.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "model.validate": (("skygs.model", "validate_scenario"),),
    "orbit.build": (("skygs.orbit", "build_contact_table"),),
    "orbit.plan_read": (("skygs.orbit", "read_contact_plan"),),
    "orbit.plan_write": (("skygs.orbit", "write_contact_plan"),),
    "scheduler.weights": (("skygs.scheduler", "build_bipartite"),),
    "scheduler.check": (("skygs.scheduler", "check_assignment"),),
    "hungarian.match": (("skygs.hungarian", "min_cost_assignment"),),
    "baselines.schedule": tuple(
        ("skygs.baselines", f"{cls}.schedule")
        for cls in ("SkyGSPolicy", "SGPolicy", "BGPolicy", "BRPolicy", "BWGPolicy",
                    "IlpHpqPolicy")),
    "queues.downlink": (("skygs.queues", "actual_downlink"),),
    "queues.arrivals": (("skygs.queues", "advance_backlog"),
                        ("skygs.queues", "ArrivalModel.arrivals_for_slot")),
    "accounting.records_write": (("skygs.accounting", "write_run_csv"),),
    "accounting.aggregate": (("skygs.accounting", "aggregate_metrics"),),
    "engine.step": (("skygs.engine", "step"),),
    "engine.run": (("skygs.engine", "run"),),
}

# Spans whose every duration is kept, for percentiles.
SAMPLED = ("baselines.schedule", "engine.step")

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

_ABSENT = object()


def _table_key(scenario) -> str:
    """What a contact table depends on: the world, the slots and the seed."""
    return repr((scenario.seed, scenario.horizon, scenario.tau,
                 scenario.elevation_mask_deg, scenario.r_max, scenario.noise,
                 scenario.contact_plan_path, scenario.satellites,
                 scenario.ground_stations))


def _count_build(agg, args, kwargs, result):
    agg.add("orbit.contacts", len(result.all_contacts()))
    agg.distinct.add(_table_key(args[0] if args else kwargs["scenario"]))


def _count_plan_read(agg, args, kwargs, result):
    agg.add("orbit.plan_rows", len(result.all_contacts()))


def _count_weights(agg, args, kwargs, result):
    agg.add("scheduler.edges", len(result.candidates))
    agg.add("scheduler.cells", int(result.weights.size))


def _count_match(agg, args, kwargs, result):
    cost = args[0] if args else kwargs["cost"]
    n_rows, n_cols = cost.shape
    agg.add("hungarian.rows", n_rows)
    if n_rows:
        # Every row owns one private do-nothing column at the right; the rest
        # are real antennas, and a non-contact cell holds the matrix maximum.
        real = cost[:, :n_cols - n_rows]
        if real.size:
            agg.add("hungarian.rows_with_contact",
                    int((real.min(axis=1) < cost.max()).sum()))


def _count_downlink(agg, args, kwargs, result):
    moved, popped = result
    agg.add("queues.chunks_popped", len(popped))
    agg.add("engine.mb_delivered", float(moved))


def _count_records_write(agg, args, kwargs, result):
    path, records, q_trace = args[0], args[2], args[3]
    agg.add("accounting.records_rows", 1 + len(records) + len(q_trace))
    agg.add("accounting.records_bytes", os.path.getsize(path))


COUNT_HOOKS = {
    "orbit.build": _count_build,
    "orbit.plan_read": _count_plan_read,
    "scheduler.weights": _count_weights,
    "hungarian.match": _count_match,
    "queues.downlink": _count_downlink,
    "accounting.records_write": _count_records_write,
}


class _ThreadAgg:
    """One thread's span totals, counts and samples."""

    def __init__(self):
        self.stack: list[list[float]] = []       # child time of each open span
        self.n: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: set[str] = set()
        self.hook_failures: set[str] = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def summary(self) -> dict:
        return {"n": dict(self.n), "total": dict(self.total), "self": dict(self.self_s),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counts": dict(self.counts), "distinct_tables": sorted(self.distinct),
                "missing": [], "hook_failures": sorted(self.hook_failures)}


class Tracer:
    """Wraps the functions in `spans` while installed."""

    def __init__(self, spans=None, count_hooks=None, sampled=SAMPLED):
        self.spans = SPANS if spans is None else spans
        self.count_hooks = COUNT_HOOKS if count_hooks is None else count_hooks
        self.sampled = set(sampled)
        self.missing: list[str] = []
        self._local = threading.local()
        self._aggs: list[_ThreadAgg] = []
        self._aggs_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _agg(self) -> _ThreadAgg:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = self._local.agg = _ThreadAgg()
            with self._aggs_lock:
                self._aggs.append(agg)
        return agg

    def wrap(self, name: str, fn):
        """`fn` timed as a span called `name`."""
        hook = self.count_hooks.get(name)
        keep = name in self.sampled
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg = tracer._agg()
            frame = [0.0]
            agg.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                agg.stack.pop()
                if agg.stack:
                    agg.stack[-1][0] += duration
                agg.n[name] += 1
                agg.total[name] += duration
                agg.self_s[name] += duration - frame[0]
                if keep:
                    agg.samples[name].append(duration)
            if hook is not None:
                try:
                    hook(agg, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError,
                        OSError):
                    agg.hook_failures.add(name)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a loaded skygs module holds it."""
        self.missing = []
        for name, targets in self.spans.items():
            for module_name, path in targets:
                module = sys.modules.get(module_name)
                owner, attr = module, path
                if module is not None and "." in path:
                    cls_name, attr = path.split(".", 1)
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapped = self.wrap(name, original)
                if owner is module:
                    for holder in _skygs_modules():
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                self._set(holder, key, wrapped)
                else:
                    self._set(owner, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def reset(self) -> None:
        """Forget what was recorded (the wrappers stay installed)."""
        with self._aggs_lock:
            self._aggs = []
        self._local = threading.local()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Merged per-span totals, counts and samples of every thread."""
        with self._aggs_lock:
            aggs = list(self._aggs)
        merged = merge(*(agg.summary() for agg in aggs))
        merged["missing"] = list(self.missing)
        return merged


def _skygs_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "skygs" or key.startswith("skygs."))]


def merge(*summaries: dict) -> dict:
    """One summary from several (a traced set-up and a traced operation)."""
    out = {"n": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float),
           "samples": defaultdict(list), "counts": defaultdict(float)}
    distinct: set[str] = set()
    missing: set[str] = set()
    failures: set[str] = set()
    for s in summaries:
        for field in ("n", "total", "self", "counts"):
            for key, value in s[field].items():
                out[field][key] += value
        for key, value in s["samples"].items():
            out["samples"][key].extend(value)
        distinct.update(s["distinct_tables"])
        missing.update(s["missing"])
        failures.update(s["hook_failures"])
    merged = {k: dict(v) for k, v in out.items()}
    merged.update(distinct_tables=sorted(distinct), missing=sorted(missing),
                  hook_failures=sorted(failures),
                  cli=any(s.get("cli", False) for s in summaries),
                  cli_start_s=sum(s.get("cli_start_s", 0.0) for s in summaries))
    return merged


def tail_percentile(n_samples: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    if n_samples < 40:
        return None
    best = None
    for p in TAIL_LADDER:
        if n_samples * (100.0 - p) >= 1000.0 - 1e-6:  # ten samples, up to rounding
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a merged summary."""
    n, total, self_s = summary["n"], summary["total"], summary["self"]
    counts, samples = summary["counts"], summary["samples"]

    def t(name):
        return float(total.get(name, 0.0))

    def ms_stats(name):
        values = samples.get(name, [])
        if not values:
            return 0.0, 0.0
        tail = tail_percentile(len(values))
        p50 = percentile(values, 50.0) * 1e3
        return p50, (percentile(values, tail) * 1e3 if tail is not None else p50)

    decide_p50, decide_tail = ms_stats("baselines.schedule")
    step_p50, step_tail = ms_stats("engine.step")
    m = {
        "model.validate_s": (t("model.validate"), "s"),
        "orbit.propagate_s": (float(self_s.get("orbit.build", 0.0)), "s"),
        "orbit.builds": (n.get("orbit.build", 0), "count"),
        "orbit.distinct_tables": (len(summary["distinct_tables"]), "count"),
        "orbit.contacts": (counts.get("orbit.contacts", 0), "count"),
        "orbit.plan_read_s": (t("orbit.plan_read"), "s"),
        "orbit.plan_rows": (counts.get("orbit.plan_rows", 0), "count"),
        "orbit.plan_write_s": (t("orbit.plan_write"), "s"),
        "scheduler.weights_s": (t("scheduler.weights"), "s"),
        "scheduler.edges": (counts.get("scheduler.edges", 0), "count"),
        "scheduler.cells": (counts.get("scheduler.cells", 0), "count"),
        "scheduler.check_s": (t("scheduler.check"), "s"),
        "hungarian.match_s": (t("hungarian.match"), "s"),
        "hungarian.calls": (n.get("hungarian.match", 0), "count"),
        "hungarian.rows": (counts.get("hungarian.rows", 0), "count"),
        "hungarian.rows_with_contact": (counts.get("hungarian.rows_with_contact", 0), "count"),
        "baselines.decide_ms_p50": (decide_p50, "ms"),
        "baselines.decide_ms_tail": (decide_tail, "ms"),
        "baselines.self_s": (float(self_s.get("baselines.schedule", 0.0)), "s"),
        "queues.downlink_s": (t("queues.downlink"), "s"),
        "queues.downlinks": (n.get("queues.downlink", 0), "count"),
        "queues.chunks_popped": (counts.get("queues.chunks_popped", 0), "count"),
        "queues.arrivals_s": (t("queues.arrivals"), "s"),
        "accounting.records_write_s": (t("accounting.records_write"), "s"),
        "accounting.records_rows": (counts.get("accounting.records_rows", 0), "count"),
        "accounting.records_bytes": (counts.get("accounting.records_bytes", 0), "bytes"),
        "accounting.aggregate_s": (t("accounting.aggregate"), "s"),
        "engine.step_self_s": (float(self_s.get("engine.step", 0.0)), "s"),
        "engine.step_ms_p50": (step_p50, "ms"),
        "engine.step_ms_tail": (step_tail, "ms"),
        "engine.slots": (n.get("engine.step", 0), "count"),
        "engine.mb_delivered": (counts.get("engine.mb_delivered", 0.0), "MB"),
        "cli.runs": (n.get("engine.run", 0) if summary.get("cli") else 0, "count"),
        "cli.run_sum_s": (t("engine.run") if summary.get("cli") else 0.0, "s"),
        "cli.start_s": (float(summary.get("cli_start_s", 0.0)), "s"),
    }
    return m
