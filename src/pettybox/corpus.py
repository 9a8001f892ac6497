"""Seeded generators for test corpora: star-shaped polygons, disjoint
integer-grid box-unions, volume-preserving planar maps, and the regular
inscribed polygons the convergence checks use.  Every generator derives
its stream from (seed, index) so corpus elements are independently
reproducible."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import rotation_2d
from .sets import BoxUnion, PolygonSet

MIN_ANGLE_GAP = 1e-4
MAX_ANGLE_GAP = math.pi - 1e-2
GRID_EXTENT = 6
# most boxes random_box_union aims for
MAX_BOXES = 6


def regular_polygon(m: int, radius: float = 1.0, phase: float = 0.0) -> PolygonSet:
    """Regular m-gon inscribed in the centered circle of the given
    radius, first vertex at angle `phase`; PolygonSet rejects m < 3."""
    ang = phase + 2.0 * math.pi * np.arange(m) / m
    return PolygonSet(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def random_polygon(seed: int, index: int = 0, min_vertices: int = 5,
                   max_vertices: int = 40) -> PolygonSet:
    """Star-shaped polygon: sorted uniform angles with bounded gaps,
    radii in [0.5, 1.5], then a uniform random rotation.  Every gap must
    stay under pi so each edge remains inside its own angular sector;
    that is what makes the chain star-shaped about the origin and hence
    simple.  The minimum gap keeps edges nondegenerate."""
    rng = np.random.default_rng((seed, index))
    m = int(rng.integers(min_vertices, max_vertices + 1))
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
        if MIN_ANGLE_GAP < np.min(gaps) and np.max(gaps) < MAX_ANGLE_GAP:
            break
    radii = rng.uniform(0.5, 1.5, m)
    pts = radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return PolygonSet(pts @ rotation_2d(rng.uniform(0.0, 2.0 * math.pi)).T)


def random_box_union(seed: int, index: int = 0, dim: int = 2) -> BoxUnion:
    """Up to MAX_BOXES disjoint axis-aligned boxes with integer corners in
    a small grid; rejection-sampled overlaps, at least one box always
    survives."""
    if dim not in (2, 3):
        raise InputError("box-unions live in dimension 2 or 3")
    rng = np.random.default_rng((seed, index, dim))
    target = int(rng.integers(1, MAX_BOXES + 1))
    los: list[np.ndarray] = []
    his: list[np.ndarray] = []
    for _ in range(60 * target):
        lo = rng.integers(0, GRID_EXTENT - 1, dim)
        hi = lo + rng.integers(1, 4, dim)
        hi = np.minimum(hi, GRID_EXTENT)
        overlaps = any(
            np.all(np.maximum(lo, plo) < np.minimum(hi, phi))
            for plo, phi in zip(los, his))
        if not overlaps:
            los.append(lo.astype(float))
            his.append(hi.astype(float))
            if len(los) == target:
                break
    return BoxUnion(np.asarray(los), np.asarray(his))


def random_sl2(seed: int, index: int = 0) -> np.ndarray:
    """Volume-preserving planar map as shear . rotation . shear with the
    determinant renormalized to kill rounding drift."""
    rng = np.random.default_rng((seed, index))
    a, b = rng.uniform(-1.0, 1.0, 2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    A = (np.array([[1.0, a], [0.0, 1.0]])
         @ rotation_2d(theta)
         @ np.array([[1.0, 0.0], [b, 1.0]]))
    return A / math.sqrt(abs(float(np.linalg.det(A))))
