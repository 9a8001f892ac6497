"""Recorders of what a test builds: pytest fixtures that list every
surface measure, zonotope or polygon ring constructed while the test
runs.  Import the fixtures into a test module to use them."""

from __future__ import annotations

import pytest

from pettybox import PolygonSet, Zonotope
from pettybox.sets import SurfaceMeasure


def _record(monkeypatch, cls, method: str) -> list:
    """Every instance of cls whose constructor step `method` runs from
    here on."""
    built = []
    original = getattr(cls, method)

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(cls, method, counted)
    return built


@pytest.fixture
def measures_built(monkeypatch):
    """Every SurfaceMeasure built from here on."""
    return _record(monkeypatch, SurfaceMeasure, "__init__")


@pytest.fixture
def bodies_built(monkeypatch):
    """Every Zonotope built from here on."""
    return _record(monkeypatch, Zonotope, "__init__")


@pytest.fixture
def rings_built(monkeypatch):
    """Every PolygonSet ring set from here on, checked or derived: both
    constructor paths run PolygonSet._set_ring once."""
    return _record(monkeypatch, PolygonSet, "_set_ring")
