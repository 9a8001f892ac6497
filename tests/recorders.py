"""Recorders of what a test builds: pytest fixtures that list every
surface measure, zonotope or vertex ring constructed while the test
runs.  Import the fixtures into a test module to use them."""

from __future__ import annotations

import pytest

from pettybox import Zonotope
from pettybox.geometry import VertexRing
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
    return _record(monkeypatch, SurfaceMeasure, "__post_init__")


@pytest.fixture
def bodies_built(monkeypatch):
    """Every Zonotope built from here on."""
    return _record(monkeypatch, Zonotope, "__init__")


@pytest.fixture
def rings_built(monkeypatch):
    """Every VertexRing built from here on: every PolygonSet, checked or
    derived, since the package builds no other vertex ring."""
    return _record(monkeypatch, VertexRing, "__init__")
