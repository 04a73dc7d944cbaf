"""The benchmark tracer times rirdist functions by name; each name must exist.

``perfbench/run.py --trace 1`` exits 3 when a name in ``perfbench/tracing.py``
``TARGETS`` is missing, so a rename that breaks the benchmark fails here first.
The table is read from the source, not imported, and nothing is changed.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TARGETS")


def test_every_traced_name_is_a_rirdist_callable():
    targets = _targets()
    assert targets
    missing = [f"rirdist.{module}.{name}" for module, names in targets.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"rirdist.{module}"), name, None))]
    assert missing == []
