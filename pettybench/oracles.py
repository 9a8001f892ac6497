"""Independent reference computations for the benchmark's checks.

Nothing here imports pettybox: every value is recomputed from the raw
vertex or corner arrays with plain numpy, by a different method than the
program uses (midpoint quadrature instead of polar-vertex shoelace, voxel
face counting instead of facet overlap sweeps, voxel column counts
instead of column structures, dense circle sampling instead of radial
bounds).  ``self_check`` tests each oracle against closed forms.
"""

from __future__ import annotations

import math

import numpy as np

POLAR_NODES = 2 ** 16       # midpoint nodes for the planar polar area
POLAR_REL_TOL = 1e-7        # observed agreement with exact routes: ~1e-9
CIRCLE_SAMPLES = 2048       # circle points for the Hausdorff lower estimate
BOUNDARY_DIVISIONS = 2048   # the program's sampled-route step is diam / this
_CHUNK = 1024              # nodes per block; keeps oracle memory far below the program's


class OracleError(ValueError):
    """An input the oracle cannot represent exactly."""


# ---------------------------------------------------------------------------
# polygons


def shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_perimeter(v: np.ndarray) -> float:
    return float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))


def max_norm(points: np.ndarray) -> float:
    return float(np.max(np.hypot(*np.asarray(points).T)))


def is_star_shaped(v: np.ndarray) -> bool:
    """Angles winding strictly monotonically about the origin."""
    w = np.roll(v, -1, axis=0)
    return bool(np.all(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0] > 0.0))


def polar_projection_area(v: np.ndarray, nodes: int = POLAR_NODES) -> float:
    """Area of the polar projection body of a planar polygon:
    (1/2) * integral of h(theta)^-2 over the circle, where
    h(theta) = (1/2) * sum_i |<l_i n_i, theta>| and l_i n_i is the edge
    vector e_i turned clockwise, (e_y, -e_x).  Midpoint rule."""
    e = np.roll(v, -1, axis=0) - v
    total = 0.0
    for start in range(0, nodes, _CHUNK):
        theta = (np.arange(start, min(start + _CHUNK, nodes)) + 0.5) * (2.0 * math.pi / nodes)
        proj = np.outer(np.cos(theta), e[:, 1]) - np.outer(np.sin(theta), e[:, 0])
        h = 0.5 * np.abs(proj).sum(axis=1)
        total += float(np.sum(h ** -2.0))
    return 0.5 * total * (2.0 * math.pi / nodes)


def planar_product(v: np.ndarray) -> float:
    return shoelace(v) * polar_projection_area(v)


def _inside(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Even-odd membership, points (k, 2) against polygon v (m, 2)."""
    a, b = v, np.roll(v, -1, axis=0)
    px, py = points[:, :1], points[:, 1:]
    crosses = (a[:, 1] > py) != (b[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = a[:, 0] + (py - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    return (np.count_nonzero(crosses & (px < xs), axis=1) % 2) == 1


def _distance_to_boundary(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    a = v
    d = np.roll(v, -1, axis=0) - v
    dd = np.sum(d * d, axis=1)
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(rel * d[None], axis=2) / dd, 0.0, 1.0)
    gap = rel - t[:, :, None] * d[None]
    return np.sqrt(np.min(np.sum(gap * gap, axis=2), axis=1))


def ball_hausdorff_lower(v: np.ndarray, r: float,
                         samples: int = CIRCLE_SAMPLES) -> float:
    """A lower bound on the Hausdorff distance between the polygon and
    the centered disk of radius r: the exact polygon-to-disk part
    max|v| - r, and the disk-to-polygon part sampled on the circle (a
    maximum over a subset of the disk never exceeds the supremum)."""
    theta = (np.arange(samples) + 0.5) * (2.0 * math.pi / samples)
    circle = r * np.column_stack([np.cos(theta), np.sin(theta)])
    worst = 0.0
    chunk = max(1, 2 ** 14 // len(v))
    for start in range(0, samples, chunk):
        pts = circle[start:start + chunk]
        dist = _distance_to_boundary(pts, v)
        dist[_inside(pts, v)] = 0.0
        worst = max(worst, float(dist.max()))
    return max(max_norm(v) - r, worst, 0.0)


def sampled_route_step(v: np.ndarray, r: float) -> float:
    """Arc-length step of the program's sampled Hausdorff route for a
    polygon against a centered disk: scene diameter / 2048."""
    lo = np.minimum(v.min(axis=0), -r)
    hi = np.maximum(v.max(axis=0), r)
    return float(np.hypot(*(hi - lo))) / BOUNDARY_DIVISIONS


# ---------------------------------------------------------------------------
# box-unions on a voxel grid


class VoxelFrame:
    """A box of lattice cells of side 1/res: along axis k, cell i spans
    [(i + lo[k])/res, (i + lo[k] + 1)/res)."""

    def __init__(self, res: int, lo: np.ndarray, hi: np.ndarray):
        self.res, self.lo, self.hi = res, lo, hi
        self.dim = len(lo)

    @classmethod
    def covering(cls, res: int, *corner_arrays) -> "VoxelFrame":
        """The smallest frame holding every given corner, one cell wider
        on each side."""
        lo = np.floor(np.min([a.min(axis=0) for a in corner_arrays], axis=0) * res) - 1
        hi = np.ceil(np.max([a.max(axis=0) for a in corner_arrays], axis=0) * res) + 1
        return cls(res, lo.astype(int), hi.astype(int))

    def occupancy(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Boolean occupancy of a box-union; raises if a corner is off the
        lattice or outside the frame, or if two boxes share a cell."""
        counts = np.zeros(self.hi - self.lo, dtype=np.int16)
        lo_idx = los * self.res - self.lo
        hi_idx = his * self.res - self.lo
        if not (np.array_equal(lo_idx, np.round(lo_idx)) and np.array_equal(hi_idx, np.round(hi_idx))):
            raise OracleError("box corners are off the voxel lattice")
        if lo_idx.min() < 0 or np.any(hi_idx.max(axis=0) > self.hi - self.lo):
            raise OracleError("box-union leaves the voxel frame")
        for lo, hi in zip(lo_idx.astype(int), hi_idx.astype(int)):
            counts[tuple(slice(a, b) for a, b in zip(lo, hi))] += 1
        if counts.max() > 1:
            raise OracleError("boxes share a voxel")
        return counts > 0

    def volume(self, grid: np.ndarray) -> float:
        return int(np.count_nonzero(grid)) / self.res ** self.dim

    def axis_areas(self, grid: np.ndarray) -> np.ndarray:
        """Exposed boundary area per axis (both signs): lattice faces
        between an occupied and an empty cell."""
        g = np.pad(grid, 1).astype(np.int8)
        faces = [np.count_nonzero(np.diff(g, axis=k)) for k in range(self.dim)]
        return np.asarray(faces, dtype=float) / self.res ** (self.dim - 1)

    def perimeter(self, grid: np.ndarray) -> float:
        return float(np.sum(self.axis_areas(grid)))

    def symmetral(self, grid: np.ndarray, axis: int) -> np.ndarray:
        """Steiner symmetral along a coordinate axis: each column's
        occupied cells, counted, restacked centered on the origin."""
        counts = np.count_nonzero(grid, axis=axis)
        if np.any(counts % 2):
            raise OracleError("a column length is not centrable on this lattice")
        if 2 * min(-self.lo[axis], self.hi[axis]) < counts.max():
            raise OracleError("the symmetral leaves the voxel frame")
        pos = np.arange(self.lo[axis], self.hi[axis])
        shape = [1] * self.dim
        shape[axis] = -1
        pos = pos.reshape(shape)
        c = np.expand_dims(counts // 2, axis)
        return (pos >= -c) & (pos < c)

    def polar_projection_volume(self, grid: np.ndarray) -> float:
        """Closed form: the projection body of a box-union is the box with
        half-widths A_k / 2, whose polar is a cross-polytope."""
        n = self.dim
        return 2.0 ** n / (math.factorial(n) * float(np.prod(self.axis_areas(grid) / 2.0)))

    def product(self, grid: np.ndarray) -> float:
        return self.volume(grid) ** (self.dim - 1) * self.polar_projection_volume(grid)


def box_corners_max_norm(los: np.ndarray, his: np.ndarray) -> float:
    """Largest corner norm: per axis the farther of lo and hi."""
    far = np.maximum(np.abs(los), np.abs(his))
    return float(np.max(np.sqrt(np.sum(far * far, axis=1))))


# ---------------------------------------------------------------------------
# closed forms


def self_check() -> list[str]:
    """Test every oracle against a closed form; returns failure messages."""
    failures = []

    def expect(label: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            failures.append(f"oracle {label}: {got!r} vs closed form {want!r} (tol {tol:g})")

    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    expect("square area", shoelace(square), 1.0, 1e-15)
    expect("square product", planar_product(square), 2.0, 2.0 * POLAR_REL_TOL)
    ang = 2.0 * math.pi * np.arange(256) / 256
    gon = np.column_stack([np.cos(ang), np.sin(ang)])
    expect("256-gon area", shoelace(gon), 128.0 * math.sin(2.0 * math.pi / 256), 1e-13)
    expect("256-gon product", planar_product(gon), (math.pi / 2.0) ** 2, 1e-3 * (math.pi / 2.0) ** 2)
    # inscribed 256-gon vs the unit disk: the arc midpoints are farthest,
    # at 1 - cos(pi/256); samples half a spacing off them see about
    # (pi/samples)^2 / 2 less
    exact = 1.0 - math.cos(math.pi / 256)
    lower = ball_hausdorff_lower(gon, 1.0)
    expect("disk lower bound on a 256-gon", lower, exact, (math.pi / CIRCLE_SAMPLES) ** 2)
    if lower > exact + 1e-15:
        failures.append(f"oracle disk lower bound {lower!r} exceeds the exact {exact!r}")

    cube_lo, cube_hi = np.zeros((1, 3)), np.ones((1, 3))
    frame = VoxelFrame.covering(2, cube_lo, cube_hi)
    cube = frame.occupancy(cube_lo, cube_hi)
    expect("cube surface", frame.perimeter(cube), 6.0, 0.0)
    expect("cube product", frame.product(cube), 4.0 / 3.0, 1e-15)

    los = np.array([[0.0, 0.0], [1.0, 1.0]])
    his = np.array([[1.0, 2.0], [2.0, 3.0]])
    frame = VoxelFrame.covering(2, los, his, -his, -los)
    stairs = frame.occupancy(los, his)
    expect("staircase perimeter", frame.perimeter(stairs), 10.0, 0.0)
    expect("staircase product", frame.product(stairs), 4.0 / 3.0, 1e-15)
    flat = frame.symmetral(stairs, 1)
    expect("staircase symmetral product", frame.product(flat), 2.0, 1e-15)
    expect("staircase symmetral volume", frame.volume(flat), 4.0, 0.0)
    return failures
