"""The benchmark command end to end: its result line, and its refusal without sources.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer as tracing

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent


def run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "desk-compare", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no skygs sources" in proc.stderr


def test_traced_desk_compare_reports_every_layer_metric():
    proc = run(ROOT, "--workload", "desk-compare", "--seed", "2", "--seconds", "0",
               "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (12, 0)   # one untraced, one traced
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.runs"] == 6 and m["orbit.builds"] == 6 and m["orbit.distinct_tables"] == 1
    assert m["engine.slots"] == 6 * 1440
    assert "missing=" not in proc.stdout
    assert set(tracing.layer_metrics(tracing.merge())) | {"trace.overhead_pct"} == set(m)
