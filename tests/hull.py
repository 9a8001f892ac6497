"""Planar convex hull for building test bodies from point clouds."""

from __future__ import annotations

import numpy as np

from pettybox.errors import InputError
from pettybox.geometry import cross_2d


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """CCW convex hull of a planar point cloud (monotone chain), with
    collinear boundary points dropped."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        raise InputError("convex hull needs at least 3 distinct points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(chain_pts):
        chain: list[np.ndarray] = []
        for p in chain_pts:
            while len(chain) >= 2 and cross_2d(chain[-1] - chain[-2], p - chain[-2]) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise InputError("points are collinear; hull is degenerate")
    return hull
