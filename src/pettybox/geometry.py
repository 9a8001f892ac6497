"""Array kernels of Euclidean plumbing: directions, quadrature grids,
the section-length kernel behind planar Steiner symmetrals, and polygon
membership and distance on vertex arrays; and the Hausdorff dispatch
from a polygon to its centered disk, the one metric the symmetrization
driver reads.  The polygon itself, with what its ring determines, is
sets.PolygonSet.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError

DIRECTION_TOL = 1e-12
GRID_MEASURE_TOL = 1e-9
# relative size of a section-length jump that a planar symmetral keeps as
# a vertical edge; smaller jumps are read as rounding
PRUNE_TOL = 1e-12
# incidence entries per block of a batched section-length call on convex
# polygons; a stack of directions is cut into blocks of consecutive
# directions of about this size.  A block's temporaries take about 200
# bytes per entry, so this keeps them under 1 MiB, and a greedy run's peak
# RSS no higher than with one direction at a time.  Measured on converge
# (2 vCPU): blocks of 2^14 took peak RSS from 40.1 to 42.6 MiB (+6%) and
# did not lower its run time
BLOCK_ROWS = 1 << 12
# point-edge pairs per block of the vectorised polygon membership and
# distance tests: a block's temporaries take about 100 bytes per pair, so
# this keeps them near 1.6 MiB.  It also bounds the node-generator pairs
# of a zonotope support block in either dimension, whose (generators,
# nodes) products take 8 bytes per pair, 128 KiB
BLOCK_PAIRS = 1 << 14
# relative width, on squared circumradii, of the near ties that the greedy
# scorer reads again in the input frame: a radius read in the direction's
# own frame and one rotated back differ by a few eps
NEAR_TIE = 16 * np.finfo(float).eps
# Circle sampling density of the Hausdorff distance from a polygon that
# is not star-shaped about the origin to a ball: arc-length step is
# (scene diameter) / BOUNDARY_DIVISIONS.  The sampled value is a lower
# estimate with no one-step bound (see hausdorff_distance).
BOUNDARY_DIVISIONS = 2048

_SPHERE_MEASURE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


# ---------------------------------------------------------------------------
# directions


def as_integer(name: str, value, least: int) -> int:
    """value as an int no less than least, else InputError.  Python and
    numpy integers pass operator.index; a bool passes it as 0 or 1, so it
    is turned away by type."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise InputError(f"{name} must be at least {least}, got {value!r}")
    return count


def unit_vector(v) -> np.ndarray:
    """Normalize v to unit length.  v is first divided by the power of
    two that brings its largest |component| into [0.5, 1), so no finite
    nonzero vector's squared norm leaves float range; the scaling is
    exact, and a vector in normal range keeps its bits."""
    v = np.asarray(v, dtype=float)
    big = float(np.max(np.abs(v), initial=0.0))
    if not (np.isfinite(big) and big > 0.0):
        raise InputError("cannot normalize a zero or non-finite vector")
    v = np.ldexp(v, -np.frexp(big)[1])
    return v / float(np.linalg.norm(v))

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


def rotation_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def as_plane_map(matrix) -> np.ndarray:
    """Validate a 2x2 matrix of finite entries, before any determinant
    test: a nan entry would pass a tolerance comparison."""
    A = np.asarray(matrix, dtype=float)
    if A.shape != (2, 2):
        raise InputError(f"expected a 2x2 matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"matrix entries must be finite, got {A.tolist()!r}")
    return A


def cyclic_next(a: np.ndarray) -> np.ndarray:
    """The rows of a shifted up by one, the first row last: each vertex's
    successor on a closed ring.  The same array as numpy's roll by -1
    along axis 0, at a fraction of its fixed cost."""
    return np.concatenate([a[1:], a[:1]])


def lerp(s, ya, yb):
    """ya + s * (yb - ya), taken from the nearer end, so that s = 0 gives
    ya and s = 1 gives yb exactly."""
    dy = yb - ya
    return np.where(s <= 0.5, ya + s * dy, yb - (1.0 - s) * dy)


def cross_2d(a, b) -> np.ndarray:
    """z-component of the cross product of planar vectors (broadcasts)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


# ---------------------------------------------------------------------------
# spherical quadrature


@dataclass(frozen=True, eq=False)
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
        # each check is written so that nan fails it
        norms = np.linalg.norm(nodes, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= DIRECTION_TOL:
            raise InputError("grid nodes must be unit vectors within 1e-12")
        if not np.min(weights) > 0.0:
            raise InputError("grid weights must be positive")
        total = float(np.sum(weights))
        if not abs(total - _SPHERE_MEASURE[nodes.shape[1]]) <= GRID_MEASURE_TOL:
            raise InputError("grid weights do not sum to the sphere measure within 1e-9")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def _read_only(grid: SphericalGrid) -> SphericalGrid:
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def circle_grid(count: int = 4096) -> SphericalGrid:
    """Equally weighted midpoint grid on the unit circle."""
    if count < 4:
        raise InputError("circle grid needs at least 4 nodes")
    theta = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(count, 2.0 * math.pi / count)
    return SphericalGrid(nodes, weights)


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per count
    and shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.cache
def octant_grid(order: int) -> SphericalGrid:
    """The order x order Gauss-Legendre product rule in (theta, phi) on
    the positive octant [0, pi/2]^2, area element sin(theta), weights
    times 8: it integrates over the sphere a function even in each
    coordinate, as an axis box's reciprocal support.  Built once per
    order, read-only."""
    t, w = _gauss_legendre(order)
    angle, weight = (t + 1.0) * (math.pi / 4.0), w * (math.pi / 4.0)
    sin, cos = np.sin(angle), np.cos(angle)
    nodes = np.column_stack([np.outer(sin, cos).ravel(), np.outer(sin, sin).ravel(),
                             np.repeat(cos, order)])
    weights = 8.0 * np.outer(weight * sin, weight).ravel()
    return _read_only(SphericalGrid(nodes, weights))


@functools.cache
def default_grid(dim: int) -> SphericalGrid:
    """The 4096-node circle grid, built on first use and shared with
    read-only arrays, or octant_grid(24), the box quadrature's rule at
    aspect up to 2.5.  The benchmark's tracer reads the size of both."""
    if dim == 2:
        return _read_only(circle_grid())
    if dim == 3:
        return octant_grid(24)
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


def section_incidence(w: np.ndarray):
    """Edge-cell incidence of CCW polygons whose sections run parallel to
    the second axis, for one (m, 2) vertex array or a (K, m, 2) stack of
    them (one polygon seen in K frames).

    The stack is cut into blocks of BLOCK_ROWS // (2m) consecutive rows
    (at least one), and one tuple is yielded per block.  Each row of a
    block is sorted once by abscissa, and dense ranks of the sorted
    abscissae number the row's distinct values ``breaks``; the cells are
    the intervals between consecutive breaks, and every non-vertical
    edge spans the cells between the ranks of its own endpoints.

    A block's tuple holds the slice of stack rows, the block's breaks
    row after row, ``starts`` (the index of each row's first break,
    closed by len(breaks)), then one entry per edge and cell it spans: the
    edge's index in the flattened stack, the cell (the index of its left
    break), the edge's heights at the cell's left and right ends, its
    slope, and its sign s_e (+1 for edges running in -x, -1 for edges
    running in +x), so that the section length is sum(s_e * height).
    Heights are interpolated from the edge's own endpoints and are exact
    there, so a near-vertical edge carries no error of size slope * x.
    Every cell meets an even number of edges, since a row's closed rank
    sequence crosses each level c + 1/2 an even number of times.
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
    # gather and scatter through one row index: take_along_axis and
    # put_along_axis build the same index anew, at a fixed cost per call
    row = np.arange(K)[:, None]
    sx = x[row, order]
    distinct = np.ones((K, m), dtype=bool)
    distinct[:, 1:] = sx[:, 1:] != sx[:, :-1]
    rank = np.empty((K, m), dtype=np.intp)
    rank[row, order] = np.cumsum(distinct, axis=1) - 1
    # each vertex's successor's rank, the first column moved to the end
    ahead = np.concatenate([rank[:, 1:], rank[:, :1]], axis=1)
    breaks = sx[distinct]
    starts = np.concatenate([[0], np.cumsum(distinct.sum(axis=1))])
    lo = (np.minimum(rank, ahead) + starts[:-1, None]).ravel()
    span = np.abs(ahead - rank).ravel()
    cells = np.arange(int(span.sum())) + np.repeat(lo - np.cumsum(span) + span, span)
    edge = np.repeat(np.arange(len(span)), span)
    # both endpoints of every entry's edge, (x, y) of the vertex and of its
    # successor, in one gather
    ahead_w = np.concatenate([w[:, 1:], w[:, :1]], axis=1)
    xa, ya, xb, yb = np.concatenate([w, ahead_w], axis=2).reshape(-1, 4)[edge].T
    dx = xb - xa
    return (slice(first, first + K), breaks, starts, edge + first * m, cells,
            lerp((breaks[cells] - xa) / dx, ya, yb),
            lerp((breaks[cells + 1] - xa) / dx, ya, yb), (yb - ya) / dx,
            np.where(xb < xa, 1.0, -1.0))


def section_lengths(block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The section length of a section_incidence block at the left and
    right end of every cell, and its slope, one entry per break: the
    signed heights and slopes of the cell's edges, summed in entry order.
    A row's last break starts no cell, so all three are zero there."""
    _, breaks, _, _, cells, y0, y1, slope, sign = block
    return tuple(np.bincount(cells, sign * h, len(breaks)) for h in (y0, y1, slope))


def _symmetral_chains(vertices: np.ndarray, U: np.ndarray):
    """Lower chains of the Steiner symmetrals of a simple CCW polygon
    along a (K, 2) stack U, each in the frame that takes its direction to
    the vertical; takes a validated unit direction in each row.

    In that frame the section length L(x) is piecewise affine with breaks
    at the vertex abscissae, and the lower chain runs through
    (x_j, -L/2) left to right; the symmetral's ring is that chain followed
    by its mirror image (x_j, +L/2) right to left.  A breakpoint whose
    one-sided limits differ by more than PRUNE_TOL * scale gives two
    points; an end where L vanishes gives one point, which has no mirror;
    a breakpoint where L is continuous with the same slope on both sides
    gives none.  Raises NumericalError when a chain and its mirror have
    fewer than 3 points between them.

    Yields, per block of section_incidence, the slice of directions,
    their frames, the breaks row after row, the index of each row's
    first break (closed by the break count), and per break its two chain
    slots: an (n, 2) array of half-lengths, L/2 from the left (or the
    continuous value) then from the right, an (n, 2) mask of the slots
    that are chain points, and whether the break's point is shared with
    its mirror.  Nothing is compacted here: _row_chain gathers the chain
    of the one row that a ring is built for.
    """
    # the proper rotations with rows (perp, u), which take each u to the
    # vertical axis
    frames = np.stack([np.column_stack([U[:, 1], -U[:, 0]]), U], axis=1)
    w = np.matmul(np.asarray(vertices, dtype=float)[None], frames.transpose(0, 2, 1))
    scale = 1.0 + np.max(np.abs(w), axis=(1, 2))
    for block in section_incidence(w):
        rows, breaks, starts = block[:3]
        n = len(breaks)
        first_break, last_break = starts[:-1], starts[1:] - 1
        left, right, tilt = section_lengths(block)
        # one-sided limits at every breakpoint; L vanishes outside the
        # projection, so before[] starts every row at zero
        before = np.concatenate([[0.0], right[:-1]])
        after = left
        jump = np.abs(before - after) > PRUNE_TOL * np.repeat(scale[rows], np.diff(starts))
        shared = np.zeros(n, dtype=bool)
        shared[first_break] = open_first = ~jump[first_break]
        shared[last_break] = open_last = ~jump[last_break]
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
        keep = np.column_stack([keep_first, keep_second])
        # a kept slot is a ring vertex, and so is its mirror unless the
        # point is shared, which only a row's two ends can be
        kept = np.add.reduceat(keep.ravel(), 2 * first_break, dtype=np.intp)
        if np.any(2 * kept - open_first - open_last < 3):
            raise NumericalError("symmetral degenerated to fewer than 3 vertices")
        yield (rows, frames[rows], breaks, starts,
               0.5 * np.column_stack([level, after]), keep, shared)


def _row_chain(block, j: int):
    """The lower chain of row j of a _symmetral_chains block, as
    _chain_ring takes it: the direction's frame, then for every chain
    point left to right its abscissa, L/2 there, and whether the point
    has a mirror."""
    _, frames, breaks, starts, halves, keep, shared = block
    row = slice(starts[j], starts[j + 1])
    kept = keep[row].ravel()
    return (frames[j], np.repeat(breaks[row], 2)[kept], halves[row].ravel()[kept],
            ~np.repeat(shared[row], 2)[kept])


def _chain_ring(frame: np.ndarray, xs: np.ndarray, half: np.ndarray,
                mirrored: np.ndarray) -> np.ndarray:
    """A symmetral's CCW vertex ring in the input frame, from one lower
    chain (_row_chain): the chain points (x, -L/2) left to right, then
    the mirror images (x, +L/2) of those that have one, right to left,
    rotated back by the direction's frame."""
    ring = np.vstack([np.column_stack([xs, -half]),
                      np.column_stack([xs, half])[mirrored][::-1]])
    return ring @ frame


def steiner_ring(vertices: np.ndarray, u: np.ndarray) -> np.ndarray:
    """CCW vertex ring, in the input frame, of the Steiner symmetral of a
    simple CCW polygon; takes a validated unit direction u, the
    one-direction case of the batched kernel (see _symmetral_chains)."""
    block, = _symmetral_chains(vertices, u[None])
    return _chain_ring(*_row_chain(block, 0))


def symmetral_radii(vertices: np.ndarray, directions) -> tuple[np.ndarray, np.ndarray]:
    """Circumradius max |v| of the Steiner symmetral of a simple CCW
    polygon along each of a validated (K, 2) stack of unit directions, one
    kernel call per block of directions and no set built, and the vertex
    ring of the lowest-index direction of least radius.

    A rotation keeps norms, so each radius is read in the direction's own
    frame, off the kernel's per-break limits: the max of x^2 + (L/2)^2
    over the slots that are chain points, taken per row by one reduceat,
    times |u|^2, the factor by which the rotation back to the input frame
    scales a direction that is unit only within DIRECTION_TOL.  Only the
    chains of directions within NEAR_TIE of the least squared radius so
    far are compacted and kept (_row_chain).  Rounding in the frame can
    split or join exact ties, so after the last block the directions
    within NEAR_TIE of the least of all are scored again, once: each gets
    the max norm over its ring, built from its chain and rotated back as
    steiner_ring builds it (_chain_ring).  Every other radius exceeds the
    least by more than the few eps between the two readings, so the
    winner, the lowest index among the least of the radii returned, is
    the one that the rotated rings of all directions would give.  The
    chain of a direction does not depend on the other directions of its
    block, so the winner's ring equals steiner_ring(vertices, winner) bit
    for bit."""
    radii = np.empty(len(directions))
    least = np.inf
    near = []  # (squared radius, index, chain) within NEAR_TIE of least
    for block in _symmetral_chains(vertices, directions):
        rows, frames, breaks, starts, halves, keep, _ = block
        square = np.where(keep, (breaks * breaks)[:, None] + halves * halves, 0.0)
        square = (np.maximum.reduceat(square.ravel(), 2 * starts[:-1])
                  * np.sum(frames[:, 1] * frames[:, 1], axis=1))
        radii[rows] = np.sqrt(square)
        least = min(least, square.min())
        window = least * (1.0 + NEAR_TIE)
        near = [entry for entry in near if entry[0] <= window]
        near += [(square[j], rows.start + j, _row_chain(block, j))
                 for j in np.flatnonzero(square <= window)]
    best = None  # the least ring radius and its ring
    for _, i, chain in near:
        ring = _chain_ring(*chain)
        radii[i] = np.max(np.linalg.norm(ring, axis=1))
        if best is None or radii[i] < best[0]:
            best = (radii[i], ring)
    return radii, best[1]


def prune_collinear(vertices: np.ndarray) -> np.ndarray:
    """Drop duplicate points and vertices within 1e-12 of the chord
    joining their neighbours.  Exact up to that tolerance; never merges
    non-adjacent structure.  No package code calls it; it stays because
    the benchmark's tracer binds it as a layer.

    A point is a duplicate when it lies within 1e-12 (max norm) of the
    last point kept before it, and the last point kept also when it lies
    that close to the first.  Whether a point is kept depends only on
    the points before it, so repeating the test with each point's last
    kept predecessor from the previous round fixes one more point per
    round and stops at the one answer.  Then each pass drops, in one
    mask over the pass's input ring, every vertex within 1e-12 of the
    chord through its neighbours, and every vertex whose chord is at
    most 1e-12 long; passes repeat while the first kind drops any."""
    tol = 1e-12
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return v.copy()
    index = np.arange(len(v))
    keep = np.ones(len(v), dtype=bool)
    while True:
        last = np.maximum.accumulate(np.where(keep, index, 0))
        again = np.ones(len(v), dtype=bool)
        again[1:] = np.max(np.abs(v[1:] - v[last[:-1]]), axis=1) > tol
        if np.array_equal(again, keep):
            break
        keep = again
    kept = np.flatnonzero(keep)
    if len(kept) > 1 and np.max(np.abs(v[kept[-1]] - v[0])) <= tol:
        keep[kept[-1]] = False
    v = v[keep]
    changed = True
    while changed and len(v) >= 3:
        behind = np.concatenate([v[-1:], v[:-1]])
        chord = cyclic_next(v) - behind
        length = np.hypot(chord[:, 0], chord[:, 1])
        long = length > tol
        dist = np.abs(cross_2d(chord, v - behind))
        np.divide(dist, length, out=dist, where=long)
        straight = long & ~(dist > tol)
        changed = bool(np.any(straight))
        v = v[long & ~straight]
    return v


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
# Hausdorff distance


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between a PolygonSet and an origin-centered
    Ball, a disk of radius r, given in either order.

    A polygon star-shaped about the origin (PolygonSet.is_star_shaped)
    gives the radial deviation max(max |v| - r, r - min |x| over the
    boundary, 0).  It is exact when the polygon is convex, since the
    boundary point of a convex body nearest an interior origin is the
    foot of the perpendicular on its nearest edge, and otherwise an upper
    bound that can exceed the distance.  For any other polygon the
    polygon-to-disk half is exact, max(max |v| - r, 0), since the norm is
    convex along each edge; the disk-to-polygon half samples the circle
    with arc-length step scene diameter / BOUNDARY_DIVISIONS (read at
    call time), the largest distance from a sample to the solid polygon.
    That half is a lower estimate with no one-step bound: the point of
    the disk farthest from the polygon can lie inside the disk, where no
    sample falls.  Every other pair raises InputError before any
    sampling.
    """
    from .convex import Ball
    from .sets import PolygonSet
    ball, P = (b, a) if isinstance(b, Ball) else (a, b)
    if not (isinstance(ball, Ball) and isinstance(P, PolygonSet)):
        raise InputError(f"no Hausdorff route for {type(a).__name__} vs {type(b).__name__}")
    r = ball.radius
    if P.is_star_shaped():
        return max(P.max_norm() - r, r - P.min_boundary_norm(), 0.0)
    v = P.vertices
    # the diameter of the bounding box of the polygon and the disk
    hi, lo = np.maximum(v.max(axis=0), r), np.minimum(v.min(axis=0), -r)
    step = float(np.linalg.norm(hi - lo)) / BOUNDARY_DIVISIONS
    count = max(8, int(math.ceil(2.0 * math.pi * r / step)))
    t = np.arange(count) * (2.0 * math.pi / count)
    circle = r * np.column_stack([np.cos(t), np.sin(t)])
    return max(float(np.max(distance_to_polygon(circle, v))), P.max_norm() - r, 0.0)
