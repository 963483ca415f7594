"""Each data layout is read by the one module that owns it.

A contact table's CSR index `slot_ptr` is named only in orbit.py, where
ContactTable.slot_rows and slot_contacts read it for everyone else. A
backlog's chunks (`DataChunk`, `.chunks`) are named only in queues.py, where
advance_backlog, actual_downlink, queuing_latency and
SatelliteState.oldest_arrival_slot read them, and accounting.py does not
import queues.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "skygs"

OWNED = [(r"\bslot_ptr\b", "orbit.py"), (r"\bDataChunk\b", "queues.py"),
         (r"\.chunks\b", "queues.py")]


@pytest.mark.parametrize("pattern, owner", OWNED, ids=["slot_ptr", "DataChunk", ".chunks"])
def test_layout_is_named_only_in_its_module(pattern, owner):
    outside = [f"{path.name}:{n}: {line.strip()}" for path in sorted(SRC.glob("*.py"))
               if path.name != owner
               for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(pattern, line)]
    assert outside == []


def test_accounting_does_not_import_queues():
    tree = ast.parse((SRC / "accounting.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert [name for name in names if "queues" in name.split(".")] == []
