"""Session-wide instrumentation shared by the test suite.

Every call to ``steiner_symmetrize`` made anywhere during the session is
wrapped so that the volume-preservation and perimeter-monotonicity
guarantees are checked on the spot.  Violations are collected and raised
at session teardown, so a regression in the symmetrizer cannot hide
behind a test that only looks at some other quantity.

The ``hausdorff_routes`` fixture records which route each Hausdorff
distance takes.
"""

from __future__ import annotations

import pytest

import pettybox as _pkg
import pettybox.cli as _cli
import pettybox.driver as _driver
import pettybox.geometry as _geometry
import pettybox.projection as _projection
import pettybox.sets as _sets
from pettybox.sets import PolygonSet, perimeter, volume

VOLUME_REL_TOL = 1e-12
PERIMETER_TOL = 1e-9

# modules that bound the symmetrizer by name at import time
_PATCH_TARGETS = (_sets, _driver, _cli, _projection, _pkg)


class SymmetrizationLog:
    def __init__(self):
        self.count = 0
        self.violations = []

    def record(self, vol_before, vol_after, per_before, per_after):
        self.count += 1
        scale = 1.0 + abs(vol_before)
        if abs(vol_after - vol_before) > VOLUME_REL_TOL * scale:
            self.violations.append(
                f"volume drifted {vol_before!r} -> {vol_after!r}"
            )
        if per_after - per_before > PERIMETER_TOL:
            self.violations.append(
                f"perimeter grew {per_before!r} -> {per_after!r}"
            )


@pytest.fixture(autouse=True, scope="session")
def symmetrization_log():
    original = _sets.steiner_symmetrize
    log = SymmetrizationLog()

    def checked(E, direction):
        vol_before = volume(E)
        per_before = perimeter(E)
        S = original(E, direction)
        log.record(vol_before, volume(S), per_before, perimeter(S))
        return S

    for mod in _PATCH_TARGETS:
        if getattr(mod, "steiner_symmetrize", None) is original:
            mod.steiner_symmetrize = checked
    try:
        yield log
    finally:
        for mod in _PATCH_TARGETS:
            if getattr(mod, "steiner_symmetrize", None) is checked:
                mod.steiner_symmetrize = original
        if log.violations:
            raise AssertionError(
                "symmetrization guarantees violated during the session:\n"
                + "\n".join(log.violations[:20])
            )


@pytest.fixture
def hausdorff_routes(monkeypatch):
    """The routes geometry.hausdorff_distance takes, one entry per call
    that passes its dispatch: "star_bound" when it reads the polygon's
    boundary norm, "sampled" when it measures circle samples against the
    polygon (geometry.distance_to_polygon)."""
    taken = []
    norm = PolygonSet.min_boundary_norm
    distance = _geometry.distance_to_polygon

    def read_norm(self):
        taken.append("star_bound")
        return norm(self)

    def read_samples(points, vertices):
        taken.append("sampled")
        return distance(points, vertices)

    monkeypatch.setattr(PolygonSet, "min_boundary_norm", read_norm)
    monkeypatch.setattr(_geometry, "distance_to_polygon", read_samples)
    return taken
