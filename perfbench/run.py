#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of skygs.

Run from the repository root, with no installation (the sources are taken
from src/):

    python3 perfbench/run.py --workload full-scale-broker --seed 1 --seconds 30 --trace 0

Workloads: full-scale-broker, full-scale-replay, desk-compare (see README.md).
A run sets its workload up several times, then repeats one operation until
--seconds have passed, then checks the outputs of the operations. With
--trace 0 it reports the end-to-end metrics (setup_s, wall_s, cpu_s in
reference-host seconds, and peak_rss_mb); with --trace 1 it alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones, plus the tracing overhead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it shows the raw times and the host's reference-loop time before
and after the measured part.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESK = ROOT / "scenarios" / "desk.json"
OUT = ROOT / ".perfbench_out"

FULL_SCALE_HORIZON = 240   # slots of the full-scale world simulated per operation
REF_MS = 25.0              # reference loop time that defines a reference-host second
CHECK_SLOTS = 16           # broker slots whose matching is checked against scipy
POLICIES = ("skygs", "sg", "bg", "br", "bwg", "ilp_hpq")


@dataclass
class Op:
    wall: float
    cpu: float
    runs: int
    failed: int
    digest: str
    spans: dict | None = None


def reference_loop_ms() -> float:
    """One pass of a fixed pure-Python loop, in ms; it moves only with the host."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


def reference_all_cpus_ms() -> float:
    """Mean of one reference pass pinned to each CPU this process may use.

    A child process may run on any of them, and a threaded one on several, so
    its speed follows their mean rather than the parent's current CPU.
    """
    cpus = os.sched_getaffinity(0)
    passes = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            passes.append(reference_loop_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(passes)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], spans_path: Path | None) -> tuple[float, float, int, str]:
    """One skygs command line in a fresh process: (wall, cpu, exit code, stderr).

    Untraced, the program runs as `python3 -m skygs.cli`; traced, through
    cli_child.py, which wraps the layers and writes their spans to
    `spans_path`.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "skygs.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
    env = child_env()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    _, err = proc.communicate()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc.returncode, err.decode("utf-8", "replace")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one repeatable operation, and the checks of its outputs."""

    runs_per_op = 1
    # host speed as seen by the process that runs the operations
    reference_ms = staticmethod(reference_all_cpus_ms)

    def __init__(self, seed: int, out: Path, tracer=None):
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.first: Path | None = None    # outputs of the first operation

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, traced: bool) -> Op:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS of the processes that ran the operations."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self) -> list[str]:
        raise NotImplementedError

    def keep_first(self, op_dir: Path) -> None:
        """Keep the first operation's outputs for the checks; drop later ones."""
        if self.first is None:
            self.first = self.out / "first"
            op_dir.rename(self.first)
        else:
            shutil.rmtree(op_dir)


class FullScaleBroker(Workload):
    """engine.run of the skygs broker on the full-scale world, in process."""

    name = "full-scale-broker"
    reference_ms = staticmethod(reference_loop_ms)

    def setup(self) -> None:
        from skygs import model, orbit, scenarios

        self.scenario = model.validate_scenario(
            scenarios.full_scale_scenario(self.seed, horizon=FULL_SCALE_HORIZON,
                                          policy="skygs"))
        self.table = orbit.build_contact_table(self.scenario)

    def op(self, traced: bool) -> Op:
        from skygs import engine

        spans = None
        if traced:
            self.tracer.install()
            self.tracer.reset()
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            record, metrics = engine.run(self.scenario, table=self.table)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return Op(time.perf_counter() - start, time.process_time() - cpu0, 1, 1, "")
        finally:
            if traced:
                spans = self.tracer.summary()
                self.tracer.uninstall()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_dir = self.out / "op"
        op_dir.mkdir()
        records, summary = op_dir / "records.csv", op_dir / "summary.json"
        engine.write_records_csv(str(records), record)
        engine.write_summary_json(str(summary), record, metrics)
        result = Op(wall, cpu, 1, 0, digest(records, summary), spans)
        self.keep_first(op_dir)
        return result

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def check(self) -> list[str]:
        import checks
        from skygs.queues import ArrivalModel

        run = checks.read_records_csv(str(self.first / "records.csv"))
        summary = json.loads((self.first / "summary.json").read_text())
        rates = checks.table_rates(self.table)
        arrivals = checks.arrivals_matrix(self.scenario, ArrivalModel(self.scenario))
        slots = [int((k + 0.5) * self.scenario.horizon / CHECK_SLOTS)
                 for k in range(CHECK_SLOTS)]
        return (checks.check_records(run, rates, arrivals, self.scenario,
                                     summary["total_cost"], summary["avg_latency_min_per_mb"])
                + checks.check_broker_optimal(run, arrivals, rates, self.scenario,
                                              self.table, slots))


class FullScaleReplay(Workload):
    """`skygs simulate --contacts plan.csv --policy bg` on the full-scale world."""

    name = "full-scale-replay"

    def setup(self) -> None:
        from skygs import cli, scenarios

        self.scenario_path = self.out / "full_scale.json"
        self.plan = self.out / "plan.csv"
        raw = scenarios.full_scale_scenario(self.seed, horizon=FULL_SCALE_HORIZON)
        self.scenario_path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen-contacts", "--scenario", str(self.scenario_path),
                             "--out", str(self.plan)])
        if code != 0:
            raise RuntimeError(f"gen-contacts exited {code}")

    def op(self, traced: bool) -> Op:
        op_dir = self.out / "op"
        spans_path = self.out / "spans.json" if traced else None
        wall, cpu, code, err = run_cli(
            ["simulate", "--scenario", str(self.scenario_path), "--contacts", str(self.plan),
             "--policy", "bg", "--out", str(op_dir)], spans_path)
        if code != 0:
            sys.stderr.write(err)
            shutil.rmtree(op_dir, ignore_errors=True)
            return Op(wall, cpu, 1, 1, "")
        outputs = sorted(op_dir.iterdir())
        result = Op(wall, cpu, 1, 0, digest(*outputs),
                    json.loads(spans_path.read_text()) if traced else None)
        self.keep_first(op_dir)
        return result

    def check(self) -> list[str]:
        import checks
        from skygs.model import load_scenario
        from skygs.queues import ArrivalModel

        scenario = load_scenario(str(self.scenario_path))
        run = checks.read_records_csv(
            str(self.first / f"records_bg_seed{self.seed}.csv"))
        summary = json.loads((self.first / f"summary_bg_seed{self.seed}.json").read_text())
        rates = checks.read_plan_csv(str(self.plan))
        arrivals = checks.arrivals_matrix(scenario, ArrivalModel(scenario))
        return checks.check_records(run, rates, arrivals, scenario, summary["total_cost"],
                                    summary["avg_latency_min_per_mb"])


class DeskCompare(Workload):
    """`skygs compare` of all six policies on scenarios/desk.json."""

    name = "desk-compare"
    runs_per_op = len(POLICIES)

    def setup(self) -> None:
        from skygs import model

        self.scenario = model.load_scenario(str(DESK))

    def op(self, traced: bool) -> Op:
        op_dir = self.out / "op"
        op_dir.mkdir()
        out_csv = op_dir / "compare.csv"
        spans_path = self.out / "spans.json" if traced else None
        wall, cpu, code, err = run_cli(
            ["compare", "--scenario", str(DESK), "--out", str(out_csv),
             "--policies", ",".join(POLICIES), "--seeds", str(self.seed)], spans_path)
        if code != 0:
            sys.stderr.write(err)
            shutil.rmtree(op_dir, ignore_errors=True)
            return Op(wall, cpu, self.runs_per_op, self.runs_per_op, "")
        rows = list(csv.DictReader(out_csv.open(encoding="utf-8", newline="")))
        failed = sum(1 for r in rows if r["status"] != "ok")
        failed += max(0, self.runs_per_op - len(rows))
        result = Op(wall, cpu, self.runs_per_op, failed, digest(out_csv),
                    json.loads(spans_path.read_text()) if traced else None)
        self.keep_first(op_dir)
        return result

    def check(self) -> list[str]:
        import checks
        from skygs import engine, orbit
        from skygs.queues import ArrivalModel

        rows = {r["policy"]: r for r in
                csv.DictReader((self.first / "compare.csv").open(encoding="utf-8",
                                                                 newline=""))}
        out = checks.check_desk_properties(
            {p: {k: float(v) for k, v in r.items() if k not in ("policy", "seed", "status")}
             for p, r in rows.items() if r["status"] == "ok"}, self.scenario.xi)
        scenario = replace(self.scenario, seed=self.seed)
        table = orbit.build_contact_table(scenario)
        rates = checks.table_rates(table)
        arrivals = checks.arrivals_matrix(scenario, ArrivalModel(scenario))
        for policy in POLICIES:
            row = rows.get(policy)
            if row is None or row["status"] != "ok":
                continue
            record, metrics = engine.run(scenario, policy=policy, table=table)
            summary = engine.summary_dict(record, metrics)
            for key, value in summary.items():
                if key in row and key not in ("policy", "seed") and \
                        row[key] != repr(float(value)):
                    out.append(f"{policy}: compare {key} {row[key]} != simulate {value!r}")
            path = self.out / f"check_{policy}.csv"
            engine.write_records_csv(str(path), record)
            run = checks.read_records_csv(str(path))
            out += [f"{policy}: {v}" for v in checks.check_records(
                run, rates, arrivals, scenario, metrics.total_cost,
                metrics.avg_latency_min_per_mb)]
        return out


WORKLOADS = {w.name: w for w in (FullScaleBroker, FullScaleReplay, DeskCompare)}


# ---------------------------------------------------------------------------


def measure(workload: Workload, seconds: float, trace: bool, import_s: float,
            tracer=None) -> tuple[dict, list[Op], str]:
    """Set up, run operations for `seconds`, and return (metrics, ops, note).

    An untraced run sets up three times: before the operations, halfway
    through them and after them, so that its median set-up time samples the
    host at three moments of the run. A traced run sets up once, traced.
    """
    setups: list[float] = []
    setup_spans = None

    def set_up() -> None:
        nonlocal setup_spans
        if trace:
            tracer.install()
            tracer.reset()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        if trace:
            setup_spans = tracer.summary()
            tracer.uninstall()

    set_up()
    refs = [workload.reference_ms()]
    ops: list[Op] = []
    traced_ops: list[Op] = []
    start = time.perf_counter()
    deadline, halfway = start + seconds, start + seconds / 2
    while True:
        ops.append(workload.op(traced=False))
        if trace:
            traced_ops.append(workload.op(traced=True))
        refs.append(workload.reference_ms())
        now = time.perf_counter()
        if not trace and halfway is not None and now >= halfway:
            set_up()
            deadline += setups[-1]   # set-up time is not measured time
            halfway = None
        if now >= deadline:
            break
    if not trace:
        set_up()
    # The host's speed drifts by up to half over tens of seconds (see README).
    # Times are reported in reference-host seconds: divided by how much slower
    # than REF_MS the reference loop ran, as the median of one sample after
    # every operation.
    slowdown = statistics.median(refs) / REF_MS
    walls = [o.wall for o in ops]
    note = (f"perfbench: {workload.name} seed={workload.seed} ops={len(ops)} "
            f"op_wall_s min={min(walls):.4f} median={statistics.median(walls):.4f} "
            f"mean={statistics.mean(walls):.4f} max={max(walls):.4f} "
            f"setup_s={import_s + statistics.median(setups):.4f} "
            f"ref_loop_ms before={refs[0]:.2f} after={refs[-1]:.2f} "
            f"median={statistics.median(refs):.2f} slowdown={slowdown:.4f}")

    if not trace:
        metrics = {
            "setup_s": ((import_s + statistics.median(setups)) / slowdown, "s"),
            "wall_s": (statistics.mean(walls) / slowdown, "s"),
            "cpu_s": (statistics.mean(o.cpu for o in ops) / slowdown, "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }
        return metrics, ops, note

    import tracer as tracing

    per_op = [tracing.layer_metrics(tracing.merge(setup_spans, o.spans))
              for o in traced_ops if o.spans is not None]
    metrics = {}
    if per_op:
        for key, (_, unit) in per_op[0].items():
            metrics[key] = (statistics.median(m[key][0] for m in per_op), unit)
    traced_wall = statistics.mean(o.wall for o in traced_ops)
    metrics["trace.overhead_pct"] = ((traced_wall / statistics.mean(walls) - 1.0) * 100.0, "%")
    spans = tracing.merge(setup_spans, *(o.spans for o in traced_ops if o.spans))
    if spans["missing"] or spans["hook_failures"]:
        note += (f" missing={','.join(spans['missing']) or '-'}"
                 f" hook_failures={','.join(spans['hook_failures']) or '-'}")
    return metrics, ops + traced_ops, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skygs" / "__init__.py").is_file() or not DESK.is_file():
        print(f"perfbench: no skygs sources under {SRC} (run from a checkout of the "
              "repository)", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import skygs.cli  # noqa: F401 - imports every module the workloads use
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    out = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, out, tracer)
        metrics, ops, note = measure(workload, args.seconds, bool(args.trace), import_s,
                                     tracer)
        violations = workload.check()
        digests = {o.digest for o in ops if o.digest}
        if len(digests) > 1:
            violations.append(f"repeated operations wrote {len(digests)} different outputs")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    for v in violations[:50]:
        print(f"perfbench: check failed: {v}", file=sys.stderr)
    print(note)
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(o.runs for o in ops),
        "failed": sum(o.failed for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
