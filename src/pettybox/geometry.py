"""Low-level Euclidean plumbing: directions, frames, quadrature grids,
convex hulls, the section-length kernel behind planar Steiner
symmetrals, circumradius and Hausdorff distance.

Set and body handles from the higher modules plug into the metric
operations here through a small informal protocol:

* ``dim``                  -- ambient dimension (2 or 3)
* ``max_norm()``           -- largest |x| over the set (circumradius about 0)
* ``bounding_box()``       -- (lo, hi) arrays
* ``support(z)``           -- support function, convex handles only
* ``polygon_vertices()``   -- CCW vertex array, planar convex handles only
* ``boundary_points(step)``-- boundary sample with intrinsic arc-length step
* ``solid_distance(pts)``  -- Euclidean distance from points to the solid set
* ``ball_radius``          -- radius attribute, origin-centered balls only
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError

EPSILON = 1e-12
DIRECTION_TOL = 1e-12
GRID_MEASURE_TOL = 1e-9
# relative size of a section-length jump that a planar symmetral keeps as
# a vertical edge; smaller jumps are read as rounding
PRUNE_TOL = 1e-12
# Boundary sampling density for Hausdorff on general sets: arc-length step
# is (scene diameter) / BOUNDARY_DIVISIONS, and the returned value carries
# an additive uncertainty of one step.
BOUNDARY_DIVISIONS = 2048

_SPHERE_MEASURE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


# ---------------------------------------------------------------------------
# directions and frames


def unit_vector(v) -> np.ndarray:
    """Normalize v to unit length."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if not np.isfinite(n) or n <= 0.0:
        raise InputError("cannot normalize a zero or non-finite vector")
    return v / n

def as_direction(v, tol: float = DIRECTION_TOL) -> np.ndarray:
    """Validate that v is a unit vector in dimension 2 or 3."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] not in (2, 3):
        raise InputError(f"direction must be a flat 2- or 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("direction has non-finite components")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > tol:
        raise InputError(f"direction norm {n!r} is not 1 within {tol}")
    return v


def random_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform random unit vector."""
    while True:
        v = rng.standard_normal(dim)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def rotation_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def cross_2d(a, b) -> np.ndarray:
    """z-component of the cross product of planar vectors (broadcasts)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class RigidFrame:
    """A proper rotation of the ambient space (orthonormal, det +1)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise InputError(f"frame matrix must be 2x2 or 3x3, got {m.shape}")
        if not np.allclose(m @ m.T, np.eye(m.shape[0]), atol=1e-12):
            raise InputError("frame matrix is not orthonormal within 1e-12")
        if abs(float(np.linalg.det(m)) - 1.0) > 1e-12:
            raise InputError("frame determinant is not +1 within 1e-12")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def last_axis_preimage(self) -> np.ndarray:
        """The direction this frame maps onto the last coordinate axis."""
        return self.matrix[-1].copy()

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Rotate row-stacked points (or a single point)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    def inverse(self) -> "RigidFrame":
        return RigidFrame(self.matrix.T.copy())


def frame_to_last_axis(u) -> RigidFrame:
    """Rotation taking the unit vector u onto the last coordinate axis."""
    u = as_direction(u)
    if u.shape[0] == 2:
        # rows (perp, u): maps u -> e2, det +1
        return RigidFrame(np.array([[u[1], -u[0]], [u[0], u[1]]]))
    # pick the axis least aligned with u to seed an orthonormal pair
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(u)))] = 1.0
    b1 = unit_vector(np.cross(u, seed))
    b2 = np.cross(u, b1)
    return RigidFrame(np.vstack([b1, b2, u]))


# ---------------------------------------------------------------------------
# spherical quadrature


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes and weights on the unit circle or sphere."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] not in (2, 3):
            raise InputError(f"grid nodes must be (m,2) or (m,3), got {nodes.shape}")
        if weights.shape != (nodes.shape[0],):
            raise InputError("grid weights must match the node count")
        if nodes.shape[0] == 0:
            raise InputError("empty quadrature grid")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > DIRECTION_TOL:
            raise InputError("grid nodes must be unit vectors within 1e-12")
        if np.min(weights) <= 0.0:
            raise InputError("grid weights must be positive")
        total = float(np.sum(weights))
        if abs(total - _SPHERE_MEASURE[nodes.shape[1]]) > GRID_MEASURE_TOL:
            raise InputError("grid weights do not sum to the sphere measure within 1e-9")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def circle_grid(count: int = 4096) -> SphericalGrid:
    """Equally weighted midpoint grid on the unit circle."""
    if count < 4:
        raise InputError("circle grid needs at least 4 nodes")
    theta = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(count, 2.0 * math.pi / count)
    return SphericalGrid(nodes, weights)


def sphere_grid(theta_count: int = 128, phi_count: int = 256) -> SphericalGrid:
    """Product grid on the unit sphere: Gauss-Legendre in the polar cosine
    crossed with equally weighted midpoints in azimuth."""
    if theta_count < 2 or phi_count < 4:
        raise InputError("sphere grid needs at least 2 polar and 4 azimuthal nodes")
    t, wt = np.polynomial.legendre.leggauss(theta_count)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    phi = (np.arange(phi_count) + 0.5) * (2.0 * math.pi / phi_count)
    cp, sp = np.cos(phi), np.sin(phi)
    nodes = np.empty((theta_count * phi_count, 3))
    nodes[:, 0] = np.outer(sin_theta, cp).ravel()
    nodes[:, 1] = np.outer(sin_theta, sp).ravel()
    nodes[:, 2] = np.repeat(t, phi_count)
    # renormalize against roundoff in the trig products
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = np.repeat(wt * (2.0 * math.pi / phi_count), phi_count)
    return SphericalGrid(nodes, weights)


def default_grid(dim: int) -> SphericalGrid:
    if dim == 2:
        return circle_grid()
    if dim == 3:
        return sphere_grid()
    raise InputError(f"unsupported dimension {dim}")


def integrate_sphere(grid: SphericalGrid, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Quadrature sum of a vectorized integrand over the grid nodes."""
    values = np.asarray(f(grid.nodes), dtype=float)
    if values.shape != (grid.size,):
        raise InputError(f"integrand returned shape {values.shape}, expected ({grid.size},)")
    if not np.all(np.isfinite(values)):
        raise NumericalError("integrand returned non-finite values on the grid")
    return float(np.dot(grid.weights, values))


# ---------------------------------------------------------------------------
# planar polygon helpers shared across modules


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed area of a closed planar polygon (positive when CCW)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def section_incidence(w: np.ndarray):
    """Edge-cell incidence of a CCW polygon whose sections run parallel to
    the second axis.

    The cells are the intervals between consecutive unique vertex
    abscissae ``breaks``.  Every non-vertical edge yields one row per cell
    it spans, and the rows come back as parallel arrays: the edge index,
    the cell index, the edge's heights at the cell's left and right ends,
    its slope, and its sign s_e (+1 for edges running in -x, -1 for edges
    running in +x), so that the section length is sum(s_e * height).
    Heights are interpolated from the edge's own endpoints and are exact
    there, so a near-vertical edge carries no error of size slope * x.
    Raises NumericalError when a cell meets an odd number of edges.
    """
    x, y = w[:, 0], w[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    breaks = np.unique(x)
    edges = np.flatnonzero(x != x2)
    ia = np.searchsorted(breaks, x[edges])
    ib = np.searchsorted(breaks, x2[edges])
    span = np.abs(ib - ia)
    rows = np.repeat(np.arange(len(edges)), span)
    cells = np.arange(len(rows)) - np.repeat(np.cumsum(span) - span, span) \
        + np.minimum(ia, ib)[rows]
    counts = np.bincount(cells, minlength=len(breaks) - 1)
    odd = np.flatnonzero(counts % 2)
    if len(odd):
        j = int(odd[0])
        raise NumericalError(f"odd section parity in cell ({breaks[j]}, {breaks[j + 1]})")
    e = edges[rows]
    xa, xb, ya, yb = x[e], x2[e], y[e], y2[e]
    dy = yb - ya

    def height(t):
        s = (t - xa) / (xb - xa)
        return np.where(s <= 0.5, ya + s * dy, yb - (1.0 - s) * dy)

    return (breaks, e, cells, height(breaks[cells]), height(breaks[cells + 1]),
            dy / (xb - xa), np.where(xb < xa, 1.0, -1.0))


def steiner_ring(vertices: np.ndarray, u) -> np.ndarray:
    """CCW vertex ring, in the input frame, of the Steiner symmetral of a
    simple CCW polygon along the unit direction u.

    In the frame that takes u to the vertical, the section length L(x) is
    piecewise affine with breaks at the vertex abscissae.  The ring runs
    through (x_j, -L/2) left to right and back through (x_j, +L/2).  A
    breakpoint whose one-sided limits differ by more than PRUNE_TOL * scale
    gives two points; an end where L vanishes gives one point shared by
    both chains; a breakpoint where L is continuous with the same slope on
    both sides gives none.
    """
    u = as_direction(u)
    if u.shape[0] != 2:
        raise InputError("planar Steiner symmetrals need a planar direction")
    frame = frame_to_last_axis(u)
    w = np.asarray(vertices, dtype=float) @ frame.matrix.T
    breaks, _, cells, y0, y1, slope, sign = section_incidence(w)
    n = len(breaks) - 1
    # section length at the left and right end of every cell, and its slope
    left = np.bincount(cells, sign * y0, n)
    right = np.bincount(cells, sign * y1, n)
    tilt = np.bincount(cells, sign * slope, n)
    # one-sided limits at every breakpoint; L vanishes outside the projection
    before = np.concatenate([[0.0], right])
    after = np.concatenate([left, [0.0]])
    jump = np.abs(before - after) > PRUNE_TOL * (1.0 + float(np.max(np.abs(w))))
    shared = np.zeros(n + 1, dtype=bool)
    shared[[0, -1]] = ~jump[[0, -1]]
    # two slots per breakpoint: the limit from the left (or the continuous
    # value), then the limit from the right at a jump; the zero outside
    # the projection is never emitted
    first = np.where(jump, before, 0.5 * (before + after))
    first[shared] = 0.0
    keep_first = np.concatenate([[False], jump[1:-1] | (tilt[:-1] != tilt[1:]), [True]]) | shared
    keep_second = jump.copy()
    keep_second[-1] = False
    keep = np.column_stack([keep_first, keep_second]).ravel()
    xs = np.repeat(breaks, 2)[keep]
    half = 0.5 * np.column_stack([first, after]).ravel()[keep]
    top = np.column_stack([xs, half])[int(shared[0]):len(xs) - int(shared[-1])]
    ring = np.vstack([np.column_stack([xs, -half]), top[::-1]])
    if len(ring) < 3:
        raise NumericalError("symmetral degenerated to fewer than 3 vertices")
    return ring @ frame.matrix


def prune_collinear(vertices: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Drop duplicate points and vertices within tol of the chord joining
    their neighbours.  Exact up to the stated tolerance; never merges
    non-adjacent structure."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return v.copy()
    # collapse consecutive duplicates first
    keep = [0]
    for i in range(1, len(v)):
        if np.max(np.abs(v[i] - v[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(v[keep[-1]] - v[keep[0]])) <= tol:
        keep.pop()
    v = v[keep]
    changed = True
    while changed and len(v) >= 3:
        changed = False
        out = []
        m = len(v)
        for i in range(m):
            a, b, c = v[(i - 1) % m], v[i], v[(i + 1) % m]
            chord = c - a
            clen = float(np.hypot(chord[0], chord[1]))
            if clen <= tol:
                continue
            dist = abs(float(cross_2d(chord, b - a))) / clen
            if dist > tol:
                out.append(b)
            else:
                changed = True
        v = np.array(out) if out else v[:0]
    return v


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


def point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from row-stacked points to the segment [a, b]."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(np.dot(d, d))
    if dd == 0.0:
        return np.linalg.norm(p - a, axis=1)
    t = np.clip(((p - a) @ d) / dd, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.linalg.norm(p - proj, axis=1)


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd membership of points in a simple polygon (boundary points
    may land on either side; callers pair this with an edge-distance test)."""
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


def distance_to_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distances from points to the solid region bounded by a simple
    polygon: zero inside, nearest-edge distance outside."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    m = len(v)
    best = np.full(len(p), np.inf)
    for i in range(m):
        best = np.minimum(best, point_segment_distance(p, v[i], v[(i + 1) % m]))
    best[points_in_polygon(p, v)] = 0.0
    return best


# ---------------------------------------------------------------------------
# circumradius and Hausdorff distance


def circumradius(handle) -> float:
    """Largest |x| over the set: the radius of the smallest origin-centered
    ball containing it."""
    fn = getattr(handle, "max_norm", None)
    if fn is None:
        raise InputError(f"object of type {type(handle).__name__} has no max_norm()")
    return float(fn())


def _ball_radius(x):
    r = getattr(x, "ball_radius", None)
    return None if r is None else float(r)


def _convex_vertices(x):
    fn = getattr(x, "polygon_vertices", None)
    if fn is None:
        return None
    return np.asarray(fn(), dtype=float)


def _samplable(x) -> bool:
    return hasattr(x, "boundary_points") and hasattr(x, "solid_distance")


def _scene_diameter(a, b) -> float:
    lo_a, hi_a = a.bounding_box()
    lo_b, hi_b = b.bounding_box()
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    return float(np.linalg.norm(hi - lo))


def _directed_sample_distance(src, dst, step: float) -> float:
    pts = src.boundary_points(step)
    worst = 0.0
    for start in range(0, len(pts), 65536):
        chunk = pts[start:start + 65536]
        worst = max(worst, float(np.max(dst.solid_distance(chunk))))
    return worst


def _ball_vs_star_shaped(r: float, other) -> float:
    # Exact radial deviation; an upper bound for the Hausdorff distance
    # that is tight when the deepest radial notch realizes the covering
    # defect.  Requires the other set to be star-shaped about the origin.
    high = other.max_norm() - r
    low = r - other.min_boundary_norm()
    return max(high, low, 0.0)


def _convex_exact(va: np.ndarray, vb: np.ndarray) -> float:
    d = 0.0
    for pts, verts in ((va, vb), (vb, va)):
        d = max(d, float(np.max(distance_to_polygon(pts, verts))))
    return d


def _convex_vs_centered_ball(vertices: np.ndarray, r: float) -> float | None:
    m = len(vertices)
    normals = np.empty((m, 2))
    for i in range(m):
        e = vertices[(i + 1) % m] - vertices[i]
        n = np.linalg.norm(e)
        if n <= 0.0:
            return None
        normals[i] = (e[1] / n, -e[0] / n)
    offsets = np.sum(vertices * normals, axis=1)
    if np.min(offsets) <= 0.0:
        return None  # origin not interior; use a sampled route instead
    outward = float(np.max(np.linalg.norm(vertices, axis=1))) - r
    inward = r - float(np.min(offsets))
    return max(outward, inward)


def hausdorff_distance(a, b, grid: SphericalGrid | None = None,
                       divisions: int = BOUNDARY_DIVISIONS) -> float:
    """Hausdorff distance between two compact set handles.

    Exact for pairs of planar convex bodies, for origin-centered balls
    against planar convex bodies or star-shaped sets, and for ball pairs.
    Other pairs are measured from intrinsic boundary samplings with
    arc-length step = scene diameter / divisions; the returned value then
    carries an additive uncertainty of one step.  Pairs of 3D convex
    bodies take the support-difference sup over an evaluation grid.
    Handles of different dimensions are rejected.
    """
    if getattr(a, "dim", None) != getattr(b, "dim", None):
        raise InputError("cannot compare handles of different dimensions")
    ra, rb = _ball_radius(a), _ball_radius(b)
    if ra is not None and rb is not None:
        return abs(ra - rb)

    if hasattr(a, "support_batch") and hasattr(b, "support_batch") and a.dim == 3:
        nodes = (grid if grid is not None else default_grid(3)).nodes
        return float(np.max(np.abs(a.support_batch(nodes) - b.support_batch(nodes))))

    va, vb = _convex_vertices(a), _convex_vertices(b)
    if va is not None and vb is not None:
        return _convex_exact(va, vb)

    if ra is not None or rb is not None:
        r = ra if ra is not None else rb
        other, overts = (b, vb) if ra is not None else (a, va)
        if overts is not None:
            exact = _convex_vs_centered_ball(overts, r)
            if exact is not None:
                return exact
        star = getattr(other, "is_star_shaped", None)
        if star is not None and hasattr(other, "min_boundary_norm") and star():
            return _ball_vs_star_shaped(r, other)

    if _samplable(a) and _samplable(b):
        diam = _scene_diameter(a, b)
        if diam <= 0.0:
            return 0.0
        step = diam / divisions
        return max(_directed_sample_distance(a, b, step),
                   _directed_sample_distance(b, a, step))

    raise InputError(
        f"no Hausdorff route for {type(a).__name__} vs {type(b).__name__}")
