"""Low-level Euclidean plumbing: directions, frames, quadrature grids,
the section-length kernel behind planar Steiner symmetrals,
circumradius and Hausdorff distance.

The metric operations dispatch on the handle kinds of the higher
modules: the convex bodies (``convex.ConvexBody``) and the sets
(``sets.SetHandle``).
"""

from __future__ import annotations

import functools
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
# incidence entries per block of a batched section-length call on convex
# polygons; a stack of directions is cut into blocks of consecutive
# directions of about this size.  A block's temporaries take about 200
# bytes per entry, so this keeps them under 1 MiB, and a greedy run's peak
# RSS no higher than with one direction at a time
BLOCK_ROWS = 1 << 12
# point-edge pairs per block of the vectorised polygon membership and
# distance tests: a block's temporaries take about 100 bytes per pair, so
# this keeps them near 1.6 MiB
BLOCK_PAIRS = 1 << 14
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

def as_direction(v) -> np.ndarray:
    """Validate that v is a unit vector in dimension 2 or 3."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] not in (2, 3):
        raise InputError(f"direction must be a flat 2- or 3-vector, got shape {v.shape}")
    return as_directions(v[None])[0]


def as_directions(directions) -> np.ndarray:
    """Validate a nonempty (K, d) stack of unit vectors, d in (2, 3)."""
    U = np.asarray(directions, dtype=float)
    if U.ndim != 2 or U.shape[0] == 0 or U.shape[1] not in (2, 3):
        raise InputError(f"directions must be a nonempty (K,2) or (K,3) stack, got shape {U.shape}")
    if not np.all(np.isfinite(U)):
        raise InputError("direction has non-finite components")
    n = np.linalg.norm(U, axis=1)
    bad = np.flatnonzero(np.abs(n - 1.0) > DIRECTION_TOL)
    if len(bad):
        raise InputError(f"direction norm {float(n[bad[0]])!r} is not 1 within {DIRECTION_TOL}")
    return U


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


def cyclic_next(a: np.ndarray) -> np.ndarray:
    """The rows of a shifted up by one, the first row last: each vertex's
    successor on a closed ring.  The same array as numpy's roll by -1
    along axis 0, at a fraction of its fixed cost."""
    return np.concatenate([a[1:], a[:1]])


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


@functools.cache
def _default_circle_grid() -> SphericalGrid:
    grid = circle_grid()
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def default_grid(dim: int) -> SphericalGrid:
    """The default quadrature grid: the 4096-node circle grid, built once
    and shared with read-only arrays, or a fresh 128 x 256 sphere grid."""
    if dim == 2:
        return _default_circle_grid()
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


def angle_sectors(nodes, breaks: np.ndarray) -> np.ndarray:
    """Sector of each row of an (n, 2) stack of planar directions among
    the ascending polar angles breaks, which lie within one turn of
    breaks[0]: the index of the last break at or before the node's
    angle, read on the turn that starts at breaks[0], so that a node
    below breaks[0] falls in the last sector.  One arctan2 per node and
    one binary search; the sector walks of FacetPolytope.radial_batch and
    of the planar Zonotope.support_batch run on it."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise InputError(f"planar directions must be an (n,2) stack, got shape {nodes.shape}")
    theta = np.arctan2(nodes[:, 1], nodes[:, 0])
    theta[theta < breaks[0]] += 2.0 * math.pi
    return np.searchsorted(breaks, theta, side="right") - 1


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed area of a closed planar polygon (positive when CCW)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * cyclic_next(y) - cyclic_next(x) * y))


def section_incidence(w: np.ndarray):
    """Edge-cell incidence of CCW polygons whose sections run parallel to
    the second axis, for one (m, 2) vertex array or a (K, m, 2) stack of
    them (one polygon seen in K frames).

    The stack is cut into blocks of BLOCK_ROWS // (2m) consecutive rows
    (at least one), and one tuple is yielded per block.  Each row of a
    block is sorted once by abscissa, and dense ranks of the sorted
    abscissae number the row's distinct values ``breaks``; the cells are
    the intervals between consecutive breaks, and every non-vertical
    edge spans the cells between the ranks of its own endpoints.  A block's tuple holds the slice of stack rows, the block's
    breaks row after row, ``starts`` (the index of each row's first break,
    closed by len(breaks)), then one entry per edge and cell it spans: the
    edge's index in the flattened stack, the cell (the index of its left
    break), the edge's heights at the cell's left and right ends, its
    slope, and its sign s_e (+1 for edges running in -x, -1 for edges
    running in +x), so that the section length is sum(s_e * height).
    Heights are interpolated from the edge's own endpoints and are exact
    there, so a near-vertical edge carries no error of size slope * x.
    Raises NumericalError when a cell meets an odd number of edges.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        w = w[None]
    # a convex m-gon's edges span 2(m - 1) cells, so a block of convex
    # polygons holds at most BLOCK_ROWS entries; a non-convex one holds more
    rows = max(1, BLOCK_ROWS // (2 * w.shape[1]))
    for first in range(0, len(w), rows):
        yield _incidence_block(w[first:first + rows], first)


def _incidence_block(w: np.ndarray, first: int):
    """section_incidence of the stack rows first, first + 1, ... held in w."""
    K, m = w.shape[:2]
    x = w[..., 0]
    order = np.argsort(x, axis=1)
    sx = np.take_along_axis(x, order, axis=1)
    distinct = np.ones((K, m), dtype=bool)
    distinct[:, 1:] = sx[:, 1:] != sx[:, :-1]
    rank = np.empty((K, m), dtype=np.intp)
    np.put_along_axis(rank, order, np.cumsum(distinct, axis=1) - 1, axis=1)
    ahead = np.roll(rank, -1, axis=1)
    breaks = sx[distinct]
    starts = np.concatenate([[0], np.cumsum(distinct.sum(axis=1))])
    lo = (np.minimum(rank, ahead) + starts[:-1, None]).ravel()
    span = np.abs(ahead - rank).ravel()
    cells = np.arange(int(span.sum())) + np.repeat(lo - np.cumsum(span) + span, span)
    odd = np.flatnonzero(np.bincount(cells, minlength=len(breaks)) % 2)
    if len(odd):
        j = int(odd[0])
        raise NumericalError(f"odd section parity in cell ({breaks[j]}, {breaks[j + 1]})")
    edge = np.repeat(np.arange(len(span)), span)
    # both endpoints of every entry's edge, (entry, endpoint, axis)
    ends = np.stack([w, np.roll(w, -1, axis=1)], axis=2).reshape(-1, 2, 2)[edge]
    xa, xb, ya, yb = ends[:, 0, 0], ends[:, 1, 0], ends[:, 0, 1], ends[:, 1, 1]
    dy = yb - ya

    def height(t):
        s = (t - xa) / (xb - xa)
        return np.where(s <= 0.5, ya + s * dy, yb - (1.0 - s) * dy)

    return (slice(first, first + K), breaks, starts, edge + first * m, cells,
            height(breaks[cells]), height(breaks[cells + 1]), dy / (xb - xa),
            np.where(xb < xa, 1.0, -1.0))


def _symmetral_chains(vertices: np.ndarray, directions):
    """Lower chains of the Steiner symmetrals of a simple CCW polygon
    along a stack of K planar unit directions, each in the frame that
    takes its direction to the vertical.

    In that frame the section length L(x) is piecewise affine with breaks
    at the vertex abscissae, and the lower chain runs through
    (x_j, -L/2) left to right; the symmetral's ring is that chain followed
    by its mirror image (x_j, +L/2) right to left.  A breakpoint whose
    one-sided limits differ by more than PRUNE_TOL * scale gives two
    points; an end where L vanishes gives one point, which has no mirror;
    a breakpoint where L is continuous with the same slope on both sides
    gives none.  Yields, per block of section_incidence, the slice of
    directions, their frames, and for every chain point the index of its
    direction in the block, its abscissa, L/2 there, and whether the point
    has a mirror.
    """
    U = as_directions(directions)
    if U.shape[1] != 2:
        raise InputError("planar Steiner symmetrals need a planar direction")
    # the rotations frame_to_last_axis(u), rows (perp, u)
    frames = np.stack([np.column_stack([U[:, 1], -U[:, 0]]), U], axis=1)
    w = np.matmul(np.asarray(vertices, dtype=float)[None], frames.transpose(0, 2, 1))
    scale = 1.0 + np.max(np.abs(w), axis=(1, 2))
    for rows, breaks, starts, _, cells, y0, y1, slope, sign in section_incidence(w):
        n = len(breaks)
        first_break, last_break = starts[:-1], starts[1:] - 1
        owner = np.repeat(np.arange(len(first_break)), np.diff(starts))
        # section length at the left and right end of every cell, and its
        # slope; a row's last break starts no cell, so all three are zero
        # there
        left = np.bincount(cells, sign * y0, n)
        right = np.bincount(cells, sign * y1, n)
        tilt = np.bincount(cells, sign * slope, n)
        # one-sided limits at every breakpoint; L vanishes outside the
        # projection, so before[] starts every row at zero
        before = np.concatenate([[0.0], right[:-1]])
        after = left
        jump = np.abs(before - after) > PRUNE_TOL * scale[rows][owner]
        shared = np.zeros(n, dtype=bool)
        shared[first_break] = ~jump[first_break]
        shared[last_break] = ~jump[last_break]
        # two slots per breakpoint: the limit from the left (or the
        # continuous value), then the limit from the right at a jump; the
        # zero outside the projection is never emitted
        level = np.where(jump, before, 0.5 * (before + after))
        level[shared] = 0.0
        keep_first = jump.copy()
        keep_first[1:] |= tilt[:-1] != tilt[1:]
        keep_first[first_break] = False
        keep_first[last_break] = True
        keep_first |= shared
        keep_second = jump.copy()
        keep_second[last_break] = False
        keep = np.column_stack([keep_first, keep_second]).ravel()
        who = np.repeat(owner, 2)[keep]
        mirrored = ~np.repeat(shared, 2)[keep]
        if np.any(np.bincount(who, minlength=len(first_break))
                  + np.bincount(who, mirrored, len(first_break)) < 3):
            raise NumericalError("symmetral degenerated to fewer than 3 vertices")
        yield (rows, frames[rows], who, np.repeat(breaks, 2)[keep],
               0.5 * np.column_stack([level, after]).ravel()[keep], mirrored)


def steiner_ring(vertices: np.ndarray, u) -> np.ndarray:
    """CCW vertex ring, in the input frame, of the Steiner symmetral of a
    simple CCW polygon along the unit direction u: the one-direction case
    of the batched section-length kernel (see _symmetral_chains)."""
    u = as_direction(u)
    (_, frames, _, xs, half, mirrored), = _symmetral_chains(vertices, u[None])
    ring = np.vstack([np.column_stack([xs, -half]),
                      np.column_stack([xs, half])[mirrored][::-1]])
    return ring @ frames[0]


def symmetral_radii(vertices: np.ndarray, directions) -> np.ndarray:
    """Circumradius max |v| of the Steiner symmetral of a simple CCW
    polygon along each of a (K, 2) stack of unit directions, one kernel
    call per block of directions and no set built.  The chain points and
    their mirrors are rotated back to the input frame in one stacked
    product, as steiner_ring rotates its ring, so each radius is the max
    norm over that direction's ring."""
    radii = np.empty(len(directions))
    for rows, frames, who, xs, half, _ in _symmetral_chains(vertices, directions):
        count = np.bincount(who)
        at = np.arange(len(who)) - np.repeat(np.cumsum(count) - count, count)
        # each direction's chain and its mirror image, padded with zeros
        pts = np.zeros((len(count), 2, int(count.max()), 2))
        pts[who, 0, at] = np.column_stack([xs, -half])
        pts[who, 1, at] = np.column_stack([xs, half])
        ring = np.matmul(pts.reshape(len(count), -1, 2), frames)
        radii[rows] = np.max(np.linalg.norm(ring, axis=2), axis=1)
    return radii


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


def ring_boundary_points(vertices: np.ndarray, step: float) -> np.ndarray:
    """Sample of a closed polygonal ring: each edge, from its first
    vertex on, cut into ceil(length / step) equal pieces (at least one)."""
    if step <= 0.0:
        raise InputError("boundary sampling step must be positive")
    v = vertices
    edges = cyclic_next(v) - v
    k = np.maximum(1, np.ceil(np.linalg.norm(edges, axis=1) / step)).astype(np.intp)
    edge = np.repeat(np.arange(len(v)), k)
    t = (np.arange(len(edge)) - np.repeat(np.cumsum(k) - k, k)) / k[edge]
    return v[edge] + t[:, None] * edges[edge]


def _edge_blocks(points: np.ndarray, vertices: np.ndarray):
    """The points as an (n, 2) array, then per block of about
    BLOCK_PAIRS // n consecutive edges (at least one) the edges' first
    and second vertices."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    ahead = cyclic_next(v)
    size = max(1, BLOCK_PAIRS // max(1, len(p)))
    return p, ((v[i:i + size], ahead[i:i + size]) for i in range(0, len(v), size))


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd membership of points in a simple polygon (boundary points
    may land on either side; callers pair this with an edge-distance test)."""
    p, blocks = _edge_blocks(points, vertices)
    x, y = p[:, 0], p[:, 1]
    inside = np.zeros(len(p), dtype=bool)
    for a, b in blocks:
        x1, y1, x2, y2 = a[:, 0, None], a[:, 1, None], b[:, 0, None], b[:, 1, None]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= np.logical_xor.reduce(crosses & (x < xs), axis=0)
    return inside


def distance_to_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distances from points to the solid region bounded by a simple
    polygon: zero inside, nearest-edge distance outside.  The distance to
    an edge [a, a + d] is |p - (a + t d)| with t = (p - a).d / d.d clipped
    to [0, 1]; the dot products go through matmul and the rest runs one
    coordinate at a time."""
    p, blocks = _edge_blocks(points, vertices)
    x, y = p[:, 0], p[:, 1]
    best = np.full(len(p), np.inf)
    for a, b in blocks:
        d = b - a
        ax, ay, dx, dy = a[:, 0, None], a[:, 1, None], d[:, 0, None], d[:, 1, None]
        rel = np.empty((len(a), len(p), 2))
        np.subtract(x, ax, out=rel[..., 0])
        np.subtract(y, ay, out=rel[..., 1])
        dd = (d[:, None, :] @ d[:, :, None])[:, :, 0]
        # a zero-length edge keeps t = 0, so its distance is |p - a|
        t = np.divide((rel @ d[:, :, None])[..., 0], dd,
                      out=np.zeros(rel.shape[:2]), where=dd != 0.0)
        np.clip(t, 0.0, 1.0, out=t)
        ex = x - (ax + t * dx)
        ey = y - (ay + t * dy)
        best = np.minimum(best, np.min(np.sqrt(ex * ex + ey * ey), axis=0))
    best[points_in_polygon(p, vertices)] = 0.0
    return best


# ---------------------------------------------------------------------------
# circumradius and Hausdorff distance


def circumradius(handle) -> float:
    """Largest |x| over the set: the radius of the smallest origin-centered
    ball containing it."""
    from .convex import ConvexBody
    from .sets import SetHandle
    if not isinstance(handle, ConvexBody | SetHandle):
        raise InputError(f"no circumradius for {type(handle).__name__}")
    return float(handle.max_norm())


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
    # The radial deviation max(max |x| - r, r - min |x| over the boundary),
    # not the Hausdorff distance: an upper bound for it, tight when the
    # deepest radial notch realizes the covering defect.  Requires the
    # other set to be star-shaped about the origin.
    high = other.max_norm() - r
    low = r - other.min_boundary_norm()
    return max(high, low, 0.0)


def _convex_exact(va: np.ndarray, vb: np.ndarray) -> float:
    d = 0.0
    for pts, verts in ((va, vb), (vb, va)):
        d = max(d, float(np.max(distance_to_polygon(pts, verts))))
    return d


def hausdorff_distance(a, b, grid: SphericalGrid | None = None,
                       divisions: int = BOUNDARY_DIVISIONS) -> float:
    """Hausdorff distance between two compact set handles.

    Exact for ball pairs, for pairs of planar convex bodies, and for
    origin-centered balls against planar convex bodies with the origin
    interior.  An origin-centered ball against a polygon that is
    star-shaped about the origin gives the radial deviation, an upper
    bound that can exceed the distance.  Pairs of 3D balls and zonotopes
    take the support-difference sup over an evaluation grid.  Other pairs
    are measured from intrinsic boundary samplings with arc-length step =
    scene diameter / divisions; the returned value then carries an
    additive uncertainty of one step.  Handles of different dimensions,
    3D polar wrappers, and 3D zonotopes against box unions are rejected.
    """
    from .convex import (Ball, ConvexBody, FacetPolytope, PolarWrapper,
                         Zonotope, planar_polygon)
    from .sets import PolygonSet, SetHandle
    no_route = f"no Hausdorff route for {type(a).__name__} vs {type(b).__name__}"
    if not (isinstance(a, ConvexBody | SetHandle) and isinstance(b, ConvexBody | SetHandle)):
        raise InputError(no_route)
    if a.dim != b.dim:
        raise InputError("cannot compare handles of different dimensions")
    # every route is symmetric in its arguments, so a ball goes first
    if isinstance(b, Ball):
        a, b = b, a
    if isinstance(b, Ball):
        return abs(a.radius - b.radius)
    if a.dim == 3 and isinstance(a, Ball | Zonotope) and isinstance(b, Zonotope):
        nodes = (grid if grid is not None else default_grid(3)).nodes
        return float(np.max(np.abs(a.support_batch(nodes) - b.support_batch(nodes))))
    convex = FacetPolytope | Zonotope | PolarWrapper
    if a.dim == 3 and (isinstance(a, convex) or isinstance(b, convex)):
        # 3D zonotopes have no boundary sampling, and 3D wrappers have
        # neither that nor a support function
        raise InputError(no_route)
    # planar convex bodies by their vertex form
    pa = planar_polygon(a) if isinstance(a, convex) else a
    pb = planar_polygon(b) if isinstance(b, convex) else b
    if isinstance(pa, FacetPolytope) and isinstance(pb, FacetPolytope):
        return _convex_exact(pa.vertices, pb.vertices)
    if isinstance(a, Ball) and isinstance(pb, FacetPolytope) and np.min(pb.offsets) > 0.0:
        return max(pb.max_norm() - a.radius, a.radius - float(np.min(pb.offsets)))
    if isinstance(a, Ball) and isinstance(b, PolygonSet) and b.is_star_shaped():
        return _ball_vs_star_shaped(a.radius, b)
    # the rest, and a ball against facets without the origin interior
    diam = _scene_diameter(a, b)
    if diam <= 0.0:
        return 0.0
    step = diam / divisions
    return max(_directed_sample_distance(pa, pb, step),
               _directed_sample_distance(pb, pa, step))
