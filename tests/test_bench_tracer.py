"""The benchmark's tracer wraps package functions and constructors that it
names by (module, attribute); a name that no longer resolves breaks every
traced benchmark run.  The package's own export list must resolve too."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pettybox

TRACER = Path(__file__).resolve().parents[1] / "pettybench" / "tracer.py"


def test_traced_names_resolve_on_the_package():
    spec = importlib.util.spec_from_file_location("pettybench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {**tracer.TRACED_FUNCTIONS, **tracer.TRACED_CONSTRUCTORS}
    assert len(targets) == len(tracer.LAYERS)
    for layer, (module, attr) in targets.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), layer


def test_exported_names_resolve_on_the_package():
    assert len(set(pettybox.__all__)) == len(pettybox.__all__)
    for name in pettybox.__all__:
        assert hasattr(pettybox, name), name
