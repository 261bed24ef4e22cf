"""The bench's traced public names exist in the package.

``bench/workloads.py`` lists, in ``TRACED``, the functions its traced run
wraps. The list is read with ``ast`` so that the bench is not imported.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _traced() -> dict[str, list[str]]:
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py assigns no TRACED")


def test_every_traced_name_is_an_attribute_of_its_module():
    traced = _traced()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
