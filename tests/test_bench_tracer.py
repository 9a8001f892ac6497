"""The benchmark's tracer wraps package functions and constructors that it
names by (module, attribute); a name that no longer resolves breaks every
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "pettybench" / "tracer.py"


def test_traced_names_resolve_on_the_package():
    spec = importlib.util.spec_from_file_location("pettybench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {**tracer.TRACED_FUNCTIONS, **tracer.TRACED_CONSTRUCTORS}
    assert len(targets) == len(tracer.LAYERS)
    for layer, (module, attr) in targets.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), layer
