"""Every name the benchmark tracer patches, and every package export, exists.

``perfbench/spans.py`` looks its targets up when the tracer starts, so a
renamed or deleted function would only show as an ``AttributeError`` in a
traced benchmark run.  The tracer module is read with ``runpy``, which
writes no bytecode next to it.
"""

import importlib
import runpy
from pathlib import Path

import swstab

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spans = runpy.run_path(str(SPANS_PY))
    targets = list(spans["SPANS"].values())
    targets += [("swstab.simulate", name) for name in spans["EXCEPTIONS"]]
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr} is missing"
            obj = getattr(obj, part)


def test_exports_resolve():
    missing = [name for name in swstab.__all__ if not hasattr(swstab, name)]
    assert not missing
