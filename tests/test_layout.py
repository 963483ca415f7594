"""Each data layout is read by the one module that owns it.

A contact table's CSR index `slot_ptr` is named only in orbit.py, where
ContactTable.slot_rows and slot_contacts read it for everyone else. A
backlog's chunks (`DataChunk`, `.chunks`) are named only in queues.py, where
advance_backlog, actual_downlink, queuing_latency and
SatelliteState.oldest_arrival_slot read them, and accounting.py does not
import queues.

Contact rows named by id become table positions only in
ContactTable.from_contacts: the plan reader and the helpers it calls hold no
{id: position} dict (`setdefault`) and build no column (`array(...)`).

Every random number is drawn by address through rng.uniform_at, so no module
names numpy's generators (`np.random`, `numpy.random`).

A run's ScenarioArrays are built once, by engine.run, which hands them to
the run's policy and to the validator; no other module calls
ScenarioArrays.from_scenario.

engine.py reaches actual_downlink and advance_backlog only as attributes of
the queues module, where the benchmark's tracer wraps them and a test of its
FIFO replay check patches one: a name imported from queues would keep the
unwrapped function.

No module of the package imports skygs.scenarios: its world helpers serve
the tests and the benchmark, and both read world files of the checkout.

The brute-force oracle in tests/oracle.py re-derives the broker's slot
objective on its own: it reads the scenario's arrays and the assignment types
from scheduler, and imports neither accounting nor queues, the modules that
compute the terms it checks.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "skygs"

OWNED = [(r"\bslot_ptr\b", "orbit.py"), (r"\bDataChunk\b", "queues.py"),
         (r"\.chunks\b", "queues.py")]


def lines_naming(pattern, owner=None):
    """Every line of a src/ module other than owner that pattern matches."""
    return [f"{path.name}:{n}: {line.strip()}" for path in sorted(SRC.glob("*.py"))
            if path.name != owner
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


@pytest.mark.parametrize("pattern, owner", OWNED, ids=["slot_ptr", "DataChunk", ".chunks"])
def test_layout_is_named_only_in_its_module(pattern, owner):
    assert lines_naming(pattern, owner) == []


def test_no_module_names_numpy_random():
    assert lines_naming(r"\b(np|numpy)\.random\b") == []


def functions_reached(path, name):
    """The module-level function `name` of a file, and each module-level function
    of the file that it calls by name, directly or through another."""
    defs = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = {}, [name]
    while todo:
        name = todo.pop()
        reached[name] = defs[name]
        todo += [node.func.id for node in ast.walk(defs[name])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in defs and node.func.id not in reached]
    return reached


def called_name(call):
    """The name a call's function goes by: `f` of `f(...)` and of `x.f(...)`."""
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def test_plan_reader_maps_no_id_and_builds_no_column():
    reached = functions_reached(SRC / "orbit.py", "read_contact_plan")
    assert len(reached) > 1  # the reader and the helper that reads the lines
    assert [f"{name}: {ast.unparse(node)}" for name, function in sorted(reached.items())
            for node in ast.walk(function) if isinstance(node, ast.Call)
            and called_name(node) in ("setdefault", "array")] == []


def imported_names(path):
    """Every module a file imports, and each name it imports from one as
    module.name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_engine_reaches_the_backlog_through_the_queues_module():
    path = SRC / "engine.py"
    backlog = {"actual_downlink", "advance_backlog"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in backlog
             or isinstance(node, ast.Attribute) and node.attr in backlog]
    assert sorted(set(named)) == sorted(f"queues.{name}" for name in backlog)
    assert [name for name in imported_names(path)
            if name.rsplit(".", 1)[-1] in backlog | {"*"}] == []


def test_only_the_engine_builds_scenario_arrays():
    calls = [f"{path.name}: {ast.unparse(node)}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and called_name(node) == "from_scenario"]
    assert calls == ["engine.py: ScenarioArrays.from_scenario(scenario)"]


def test_accounting_does_not_import_queues():
    names = imported_names(SRC / "accounting.py")
    assert [name for name in names if "queues" in name.split(".")] == []


def test_no_module_imports_the_scenario_helpers():
    names = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in imported_names(path)
             if "scenarios" in name.split(".")]
    assert names == []


def test_oracle_imports_only_the_types_it_checks():
    names = imported_names(TESTS / "oracle.py")
    assert [name for name in names
            if {"accounting", "queues"} & set(name.split("."))] == []
    assert sorted(name for name in names if name.startswith("skygs.scheduler.")) == [
        "skygs.scheduler.AssignmentTriple", "skygs.scheduler.ScenarioArrays"]
