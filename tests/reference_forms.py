"""Dense and per-edge loop forms of the planar kernels, kept as test
oracles: the vectorised and sector-walk kernels in the package must agree
with them."""

from __future__ import annotations

import math

import numpy as np

from pettybox.errors import InputError
from pettybox.geometry import cross_2d
from pettybox.sets import _on_segment


def dense_radial(normals: np.ndarray, offsets: np.ndarray, nodes: np.ndarray,
                 matmul: bool = True) -> np.ndarray:
    """Radial function of a convex polygon with the origin interior at
    every node: min over all facets with u . normal > 0 of
    offset / (u . normal).  The dot products come from one matrix
    product, which may fuse multiply-adds, or with matmul=False from
    u_x n_x + u_y n_y with each term rounded."""
    if matmul:
        dots = nodes @ normals.T
    else:
        dots = nodes[:, 0, None] * normals[:, 0] + nodes[:, 1, None] * normals[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dots > 0.0, offsets[None, :] / dots, np.inf)
    return ratios.min(axis=1)


def dense_support(generators: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Zonotope support sum |u . g| at every node."""
    return np.sum(np.abs(nodes @ generators.T), axis=1)


def ring_boundary_points_loop(vertices: np.ndarray, step: float) -> np.ndarray:
    v = vertices
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    chunks = []
    for i in range(len(v)):
        k = max(1, int(math.ceil(lengths[i] / step)))
        t = np.arange(k) / k
        chunks.append(v[i] + t[:, None] * edges[i])
    return np.vstack(chunks)


def point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(np.dot(d, d))
    if dd == 0.0:
        return np.linalg.norm(p - a, axis=1)
    t = np.clip(((p - a) @ d) / dd, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.linalg.norm(p - proj, axis=1)


def points_in_polygon_loop(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x, y = p[:, 0], p[:, 1]
    inside = np.zeros(len(p), dtype=bool)
    m = len(v)
    for i in range(m):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % m]
        crosses = (y1 > y) != (y2 > y)
        if not np.any(crosses):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xs)
    return inside


def distance_to_polygon_loop(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    m = len(v)
    best = np.full(len(p), np.inf)
    for i in range(m):
        best = np.minimum(best, point_segment_distance(p, v[i], v[(i + 1) % m]))
    best[points_in_polygon_loop(p, v)] = 0.0
    return best


def check_simple_loop(v: np.ndarray) -> None:
    """Reject self-intersecting or self-touching vertex chains."""
    m = len(v)
    if len(np.unique(v, axis=0)) != m:
        raise InputError("polygon repeats a vertex")
    starts = v
    ends = np.roll(v, -1, axis=0)
    for i in range(m - 2):
        j0 = i + 2
        j1 = m if i > 0 else m - 1
        if j0 >= j1:
            continue
        p1, p2 = starts[i], ends[i]
        q1 = starts[j0:j1]
        q2 = ends[j0:j1]
        d = p2 - p1
        dq = q2 - q1
        d1 = cross_2d(dq, p1 - q1)
        d2 = cross_2d(dq, p2 - q1)
        d3 = cross_2d(d, q1 - p1)
        d4 = cross_2d(d, q2 - p1)
        crossing = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
        if np.any(crossing):
            raise InputError("polygon edges cross; the chain is not simple")
        # touching or collinear contact between non-adjacent edges
        touch = ((d1 == 0) & _on_segment(q1, q2, p1)) | \
                ((d2 == 0) & _on_segment(q1, q2, p2)) | \
                ((d3 == 0) & _on_segment(p1, p2, q1)) | \
                ((d4 == 0) & _on_segment(p1, p2, q2))
        if np.any(touch):
            raise InputError("polygon edges touch; the chain is not simple")
