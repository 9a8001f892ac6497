"""Desk-scale sets of finite perimeter: simple polygons in the plane and
finite unions of axis-aligned boxes in dimension 2 or 3.

Both kinds expose volume, perimeter, an atomic surface measure (finitely
many unit outer normals with positive masses), and a column structure:
the decomposition of the set into line sections parallel to a coordinate
axis, organized over base cells on which the section endpoints vary
affinely (polygons) or stay constant (box-unions).  Steiner
symmetrization replaces each section by a centered interval of the same
length and is exact on these families.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .convex import _BALL_VOLUME, Ball
from .errors import InputError, NonGenericPointError, UnsupportedDirectionError
from .geometry import (BLOCK_PAIRS, RigidFrame, as_direction, as_directions,
                       cross_2d, cyclic_next, distance_to_polygon,
                       points_in_polygon, ring_boundary_points,
                       section_incidence, shoelace_area, steiner_ring)

CLOSEDNESS_TOL = 1e-9
GENERIC_POINT_TOL = 1e-12
AXIS_ALIGNMENT_TOL = 1e-12

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# surface measure


@dataclass(frozen=True)
class SurfaceMeasure:
    """Finite atomic surface measure: unit outer normals with positive
    masses.  Closed boundaries balance: the mass-weighted normal sum
    vanishes."""

    normals: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        masses = np.asarray(self.masses, dtype=float).ravel()
        if normals.shape[0] != masses.shape[0] or normals.shape[0] == 0:
            raise InputError("surface measure needs matching, nonempty atom arrays")
        if normals.shape[1] not in (2, 3):
            raise InputError("surface measure normals must live in dimension 2 or 3")
        if np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) > 1e-12:
            raise InputError("surface measure normals must be unit vectors")
        if np.min(masses) <= 0.0:
            raise InputError("surface measure masses must be positive")
        resultant = np.linalg.norm(normals.T @ masses)
        if resultant > CLOSEDNESS_TOL * (1.0 + float(np.sum(masses))):
            raise InputError(
                f"surface measure is not closed: |sum(mass*normal)| = {resultant:g}")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def orthogonal_atoms(self, directions, tol: float = AXIS_ALIGNMENT_TOL) -> np.ndarray:
        """(atoms, K) mask: whether each atom's normal is orthogonal within
        tol to each of a (K, dim) stack of unit directions."""
        return np.abs(self.normals @ as_directions(directions).T) <= tol

    def mass_orthogonal_to(self, u, tol: float = AXIS_ALIGNMENT_TOL) -> float:
        """Total mass of atoms whose normal is orthogonal to u within tol."""
        sel = self.orthogonal_atoms(as_direction(u)[None], tol)[:, 0]
        return float(np.sum(self.masses[sel]))


# ---------------------------------------------------------------------------
# column structure


@dataclass(frozen=True)
class ColumnCell:
    """One base cell of a column structure.

    ``affine`` holds per-interval endpoint coefficients (m, 2, 2) with
    endpoint(x) = [..., 0] + [..., 1] * x over a one-dimensional base;
    ``intervals`` holds constant endpoints (m, 2).  Exactly one is set.
    ``edge_ids`` maps each endpoint back to the generating polygon edge.
    """

    lo: np.ndarray
    hi: np.ndarray
    intervals: np.ndarray | None = None
    affine: np.ndarray | None = None
    edge_ids: np.ndarray | None = None

    @property
    def multiplicity(self) -> int:
        arr = self.intervals if self.intervals is not None else self.affine
        return arr.shape[0]

    def bounds_at(self, xprime: np.ndarray) -> np.ndarray:
        if self.intervals is not None:
            return self.intervals.copy()
        x = float(np.asarray(xprime).ravel()[0])
        return self.affine[:, :, 0] + self.affine[:, :, 1] * x

    def length_at(self, xprime: np.ndarray) -> float:
        b = self.bounds_at(xprime)
        return float(np.sum(b[:, 1] - b[:, 0]))

    def integrated_length(self) -> float:
        if self.intervals is not None:
            base = float(np.prod(self.hi - self.lo))
            return base * float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))
        # affine endpoints: the exact integral is the trapezoid value
        return 0.5 * (self.length_at(self.lo) + self.length_at(self.hi)) \
            * float(self.hi[0] - self.lo[0])


@dataclass(frozen=True)
class ColumnStructure:
    """Sections of a set along one coordinate axis, organized over base
    cells with affine or constant interval endpoints."""

    axis: int
    dim: int
    base_breaks: tuple
    cells: tuple
    cell_index: np.ndarray  # flat map from base-cell lattice to cells, -1 empty

    def locate(self, xprime) -> ColumnCell:
        x = np.atleast_1d(np.asarray(xprime, dtype=float))
        if x.shape != (self.dim - 1,):
            raise InputError(f"base point must have {self.dim - 1} coordinates")
        idx = []
        for k, breaks in enumerate(self.base_breaks):
            tol = GENERIC_POINT_TOL * (1.0 + abs(float(x[k])))
            if np.min(np.abs(breaks - x[k])) <= tol:
                raise NonGenericPointError(
                    f"base coordinate {x[k]!r} lies on a cell boundary")
            j = int(np.searchsorted(breaks, x[k])) - 1
            if j < 0 or j >= len(breaks) - 1:
                raise InputError(f"base point {x!r} is outside the projection")
            idx.append(j)
        flat = idx[0] if len(idx) == 1 else idx[0] * (len(self.base_breaks[1]) - 1) + idx[1]
        c = int(self.cell_index[flat])
        if c < 0:
            raise InputError(f"base point {x!r} is outside the essential projection")
        return self.cells[c]

    def section_intervals(self, xprime) -> np.ndarray:
        cell = self.locate(xprime)
        return cell.bounds_at(np.atleast_1d(np.asarray(xprime, dtype=float)))

    def multiplicity(self, xprime) -> int:
        return self.locate(xprime).multiplicity

    def section_length(self, xprime) -> float:
        return self.locate(xprime).length_at(np.atleast_1d(np.asarray(xprime, dtype=float)))

    def total_volume(self) -> float:
        return float(sum(c.integrated_length() for c in self.cells))


def _polygon_columns(vertices: np.ndarray):
    """Record, per base cell between consecutive vertex abscissae, the
    sorted section endpoints of a polygon as affine functions of the
    abscissa together with the generating edge indices."""
    (_, breaks, _, edge, cell, y0, y1, slope, _), = section_incidence(vertices)
    intercept = y0 - slope * breaks[cell]
    order = np.lexsort((y0 + y1, cell))
    affine = np.column_stack([intercept, slope])[order].reshape(-1, 2, 2)
    eids = edge[order].reshape(-1, 2)
    counts = np.bincount(cell, minlength=len(breaks) - 1) // 2
    filled = np.flatnonzero(counts)
    cuts = np.cumsum(counts)[filled[:-1]]
    cells = tuple(ColumnCell(lo=breaks[j:j + 1].copy(), hi=breaks[j + 1:j + 2].copy(),
                             affine=a, edge_ids=e)
                  for j, a, e in zip(filled, np.split(affine, cuts), np.split(eids, cuts)))
    index = np.full(len(breaks) - 1, -1, dtype=int)
    index[filled] = np.arange(len(filled))
    return (breaks,), cells, index


def _join_runs(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Sort the rows by (keys, lo) and join each run of rows with equal
    keys whose lo equals the previous row's hi exactly.  The intervals of
    rows with equal keys must not overlap.  Returns the index of each
    run's first row, in sorted order, and each run's end."""
    order = np.lexsort((lo, *keys.T[::-1]))
    k, a, b = keys[order], lo[order], hi[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], np.any(k[1:] != k[:-1], axis=1) | (a[1:] != b[:-1])]))
    return order[starts], np.maximum.reduceat(b, starts)


def _box_columns(los: np.ndarray, his: np.ndarray, axis: int):
    """Expand each box into one row per base-lattice cell it covers and
    join the rows of each cell into its sorted, maximal section
    intervals."""
    others = [k for k in range(los.shape[1]) if k != axis]
    break_lists = [np.unique(np.concatenate([los[:, k], his[:, k]])) for k in others]
    shape = tuple(len(b) - 1 for b in break_lists)
    first = np.column_stack([np.searchsorted(b, los[:, k]) for b, k in zip(break_lists, others)])
    span = np.column_stack([np.searchsorted(b, his[:, k]) for b, k in zip(break_lists, others)]) \
        - first
    counts = np.prod(span, axis=1)
    # each row's rank within its box's block of cells, unravelled row-major
    # over the box's span into lattice coordinates
    box = np.repeat(np.arange(len(los)), counts)
    rest = np.arange(len(box)) - np.repeat(np.cumsum(counts) - counts, counts)
    sub = np.empty((len(box), len(others)), dtype=int)
    for k in reversed(range(len(others))):
        rest, step = np.divmod(rest, span[box, k])
        sub[:, k] = first[box, k] + step
    flat = np.ravel_multi_index(tuple(sub.T), shape)
    row, end = _join_runs(flat[:, None], los[box, axis], his[box, axis])
    intervals = np.column_stack([los[box[row], axis], end])
    filled, cuts = np.unique(flat[row], return_index=True)
    lattice = np.unravel_index(filled, shape)
    lows = np.column_stack([b[j] for b, j in zip(break_lists, lattice)])
    highs = np.column_stack([b[j + 1] for b, j in zip(break_lists, lattice)])
    cells = tuple(ColumnCell(lo=lo, hi=hi, intervals=ivals)
                  for lo, hi, ivals in zip(lows, highs, np.split(intervals, cuts[1:])))
    index = np.full(int(np.prod(shape)), -1, dtype=int)
    index[filled] = np.arange(len(filled))
    return tuple(break_lists), cells, index


# ---------------------------------------------------------------------------
# polygons


class PolygonSet:
    """A simple planar polygon with positively oriented (CCW) boundary."""

    def __init__(self, vertices, validate_simple: bool = True):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InputError(f"polygon needs an (m,2) vertex array with m>=3, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("polygon vertices must be finite")
        edges = cyclic_next(v) - v
        lengths = np.linalg.norm(edges, axis=1)
        if np.min(lengths) <= 0.0:
            raise InputError("polygon has a zero-length edge")
        area = shoelace_area(v)
        if area <= 0.0:
            raise InputError(f"polygon must be CCW with positive area, got signed area {area:g}")
        if validate_simple:
            _check_simple(v)
        self.vertices = v
        self.vertices.setflags(write=False)

    dim = 2

    def __repr__(self):
        return f"PolygonSet({len(self.vertices)} vertices, area={self.volume():.6g})"

    @cached_property
    def _edge_data(self):
        v = self.vertices
        edges = cyclic_next(v) - v
        lengths = np.linalg.norm(edges, axis=1)
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        return edges, lengths, normals

    def edge_lengths(self) -> np.ndarray:
        return self._edge_data[1]

    def edge_normals(self) -> np.ndarray:
        """Unit outer normals, one per edge, in vertex order."""
        return self._edge_data[2]

    def volume(self) -> float:
        return shoelace_area(self.vertices)

    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths()))

    def surface_measure(self) -> SurfaceMeasure:
        return SurfaceMeasure(self.edge_normals().copy(), self.edge_lengths().copy())

    def centroid(self) -> np.ndarray:
        v = self.vertices
        ahead = cyclic_next(v)
        w = cross_2d(v, ahead)
        c = (v + ahead) * w[:, None]
        return np.sum(c, axis=0) / (6.0 * self.volume())

    def translate(self, offset) -> "PolygonSet":
        return PolygonSet(self.vertices + np.asarray(offset, dtype=float),
                          validate_simple=False)

    def transform(self, matrix) -> "PolygonSet":
        """Image under an orientation-preserving invertible linear map."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2) or np.linalg.det(m) <= 0.0:
            raise InputError("transform needs a 2x2 matrix with positive determinant")
        return PolygonSet(self.vertices @ m.T, validate_simple=False)

    def column_structure(self, axis: int = 1) -> ColumnStructure:
        if axis not in (0, 1):
            raise InputError(f"polygon column axis must be 0 or 1, got {axis}")
        verts = self.vertices if axis == 1 else self.vertices[::-1, ::-1]
        breaks, cells, index = _polygon_columns(verts)
        return ColumnStructure(axis=axis, dim=2, base_breaks=breaks,
                               cells=cells, cell_index=index)

    # -- metric methods --------------------------------------------------

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def min_boundary_norm(self) -> float:
        # the edge distance of distance_to_polygon from the origin, over all
        # edges at once, with the dot products through stacked matmul as
        # there
        a = self.vertices
        d = self._edge_data[0]
        t = np.clip(((-a)[:, None, :] @ d[:, :, None]) / (d[:, None, :] @ d[:, :, None]),
                    0.0, 1.0)[:, 0, 0]
        return float(np.min(np.linalg.norm(a + t[:, None] * d, axis=1)))

    def is_star_shaped(self) -> bool:
        """True when the vertex angles wind strictly monotonically about
        the origin, a sufficient condition for star-shapedness with the
        origin interior."""
        v = self.vertices
        cr = cross_2d(v, cyclic_next(v))
        return bool(np.all(cr > 0.0))

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_points(self, step: float) -> np.ndarray:
        return ring_boundary_points(self.vertices, step)

    def solid_distance(self, points) -> np.ndarray:
        return distance_to_polygon(points, self.vertices)

    def contains(self, points) -> np.ndarray:
        return points_in_polygon(points, self.vertices)


def _check_simple(v: np.ndarray) -> None:
    """Reject self-intersecting or self-touching vertex chains.

    Two edges whose closed ranges along an axis are disjoint share no
    point, so only pairs of non-adjacent edges whose ranges overlap are
    tested.  The edges are sorted by their lower end along the axis, and
    one searchsorted of their upper ends gives each edge's later partners
    in that order.  The axis, x or y, is the one with fewer such pairs.
    The pairs are tested in blocks of BLOCK_PAIRS, each pair with the
    lower edge index first; the failure reported is that of the smallest
    failing first edge, a crossing before a touch.
    """
    m = len(v)
    # a lexsort puts equal vertices next to each other
    s = v[np.lexsort(v.T)]
    if np.any((s[1:, 0] == s[:-1, 0]) & (s[1:, 1] == s[:-1, 1])):
        raise InputError("polygon repeats a vertex")
    starts = v
    ends = cyclic_next(v)
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    sweeps = []
    for axis in (0, 1):
        order = np.argsort(lo[:, axis], kind="stable")
        reach = np.searchsorted(lo[order, axis], hi[order, axis], side="right")
        sweeps.append((order, reach - np.arange(1, m + 1)))
    order, count = min(sweeps, key=lambda sweep: int(sweep[1].sum()))
    # pairs are numbered edge by edge in sorted order: pair t joins sorted
    # edges k and k + 1 + t - before[k], where end[k - 1] <= t < end[k]
    end = np.cumsum(count)
    before = end - count
    total = int(end[-1])
    # the smallest failing first edge (m while none fails), and whether
    # one of its failing pairs crosses
    fail, crossed = m, False
    for t0 in range(0, total, BLOCK_PAIRS):
        t = np.arange(t0, min(t0 + BLOCK_PAIRS, total))
        k = np.searchsorted(end, t, side="right")
        a, b = order[k], order[k + 1 + t - before[k]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        keep = (j >= i + 2) & ((i > 0) | (j < m - 1))
        i, j = i[keep], j[keep]
        p1, p2 = starts[i], ends[i]
        q1, q2 = starts[j], ends[j]
        d = p2 - p1
        dq = q2 - q1
        d1 = cross_2d(dq, p1 - q1)
        d2 = cross_2d(dq, p2 - q1)
        d3 = cross_2d(d, q1 - p1)
        d4 = cross_2d(d, q2 - p1)
        crossing = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
        # touching or collinear contact between non-adjacent edges
        touch = ((d1 == 0) & _on_segment(q1, q2, p1)) | \
                ((d2 == 0) & _on_segment(q1, q2, p2)) | \
                ((d3 == 0) & _on_segment(p1, p2, q1)) | \
                ((d4 == 0) & _on_segment(p1, p2, q2))
        failing = i[crossing | touch]
        if len(failing) == 0:
            continue
        low = int(failing.min())
        low_crosses = bool(np.any(crossing & (i == low)))
        if low < fail:
            fail, crossed = low, low_crosses
        elif low == fail:
            crossed |= low_crosses
    if fail < m:
        if crossed:
            raise InputError("polygon edges cross; the chain is not simple")
        raise InputError("polygon edges touch; the chain is not simple")


def _on_segment(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return np.all((p >= lo) & (p <= hi), axis=1)


# ---------------------------------------------------------------------------
# box unions


class BoxUnion:
    """A finite union of axis-aligned boxes with pairwise disjoint
    interiors, kept in canonical form: no two boxes share a whole facet
    (along which they could be merged into one), and the decomposition
    depends only on the set of input boxes, not on their order."""

    def __init__(self, los, his):
        los = np.atleast_2d(np.asarray(los, dtype=float))
        his = np.atleast_2d(np.asarray(his, dtype=float))
        if los.shape != his.shape or los.shape[1] not in (2, 3) or los.shape[0] == 0:
            raise InputError(f"box union needs matching (m,2) or (m,3) corner arrays")
        if not (np.all(np.isfinite(los)) and np.all(np.isfinite(his))):
            raise InputError("box corners must be finite")
        if not np.all(his > los):
            raise InputError("each box needs hi > lo in every axis")
        _check_disjoint(los, his)
        los, his = _canonical_merge(los, his)
        self.los = los
        self.his = his
        self.los.setflags(write=False)
        self.his.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.los.shape[1]

    @property
    def box_count(self) -> int:
        return self.los.shape[0]

    def __repr__(self):
        return f"BoxUnion({self.box_count} boxes, dim={self.dim}, volume={self.volume():.6g})"

    def volume(self) -> float:
        return float(np.sum(np.prod(self.his - self.los, axis=1)))

    @cached_property
    def _class_masses(self) -> dict:
        """Exposed surface area per outer-normal class (axis, sign): the
        facet areas less the contact areas.  Each contact hides one upper
        and one lower facet, so both signs of an axis carry equal mass."""
        out = {}
        for axis in range(self.dim):
            others = [k for k in range(self.dim) if k != axis]
            facets = float(np.sum(np.prod(self.his[:, others] - self.los[:, others], axis=1)))
            contacts = float(np.sum(_contacts(self.los, self.his, self.los, self.his, axis)[2]))
            total = facets - contacts
            if total > 0.0:
                out[(axis, +1)] = total
                out[(axis, -1)] = total
        return out

    def perimeter(self) -> float:
        return float(sum(self._class_masses.values()))

    def surface_measure(self) -> SurfaceMeasure:
        normals = []
        masses = []
        for (axis, sign), mass in sorted(self._class_masses.items()):
            n = np.zeros(self.dim)
            n[axis] = float(sign)
            normals.append(n)
            masses.append(mass)
        return SurfaceMeasure(np.asarray(normals), np.asarray(masses))

    def axis_class_masses(self) -> np.ndarray:
        """Total exposed area per axis, both signs combined."""
        out = np.zeros(self.dim)
        for (axis, _sign), mass in self._class_masses.items():
            out[axis] += mass
        return out

    def column_structure(self, axis: int) -> ColumnStructure:
        if not 0 <= axis < self.dim:
            raise InputError(f"column axis must be in 0..{self.dim - 1}, got {axis}")
        breaks, cells, index = _box_columns(self.los, self.his, axis)
        return ColumnStructure(axis=axis, dim=self.dim, base_breaks=breaks,
                               cells=cells, cell_index=index)

    def translate(self, offset) -> "BoxUnion":
        off = np.asarray(offset, dtype=float)
        return BoxUnion(self.los + off, self.his + off)

    # -- metric methods --------------------------------------------------

    def corners(self) -> np.ndarray:
        pts = []
        for b in range(self.box_count):
            bounds = np.stack([self.los[b], self.his[b]])
            grids = np.meshgrid(*[bounds[:, k] for k in range(self.dim)], indexing="ij")
            pts.append(np.column_stack([g.ravel() for g in grids]))
        return np.vstack(pts)

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.corners(), axis=1)))

    def bounding_box(self):
        return self.los.min(axis=0), self.his.max(axis=0)

    def boundary_points(self, step: float) -> np.ndarray:
        if step <= 0.0:
            raise InputError("boundary sampling step must be positive")
        pts = []
        for b in range(self.box_count):
            for axis in range(self.dim):
                others = [k for k in range(self.dim) if k != axis]
                for sign in (+1, -1):
                    plane = self.his[b, axis] if sign > 0 else self.los[b, axis]
                    axes_pts = []
                    for k in others:
                        cnt = max(2, int(math.ceil((self.his[b, k] - self.los[b, k]) / step)) + 1)
                        axes_pts.append(np.linspace(self.los[b, k], self.his[b, k], cnt))
                    grids = np.meshgrid(*axes_pts, indexing="ij")
                    face = np.empty((grids[0].size, self.dim))
                    face[:, axis] = plane
                    for k, g in zip(others, grids):
                        face[:, k] = g.ravel()
                    facing = (self.los if sign > 0 else self.his)[:, axis] == plane
                    at = face[:, None, others]
                    keep = ~np.any(np.all((at >= self.los[facing][:, others])
                                          & (at <= self.his[facing][:, others]), axis=2), axis=1)
                    if np.any(keep):
                        pts.append(face[keep])
        return np.vstack(pts)

    def solid_distance(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.full(len(p), np.inf)
        for b in range(self.box_count):
            delta = np.maximum(self.los[b] - p, 0.0)
            delta = np.maximum(delta, p - self.his[b])
            best = np.minimum(best, np.linalg.norm(delta, axis=1))
        return best

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(len(p), dtype=bool)
        for b in range(self.box_count):
            inside |= np.all((p >= self.los[b]) & (p <= self.his[b]), axis=1)
        return inside


def _contacts(alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray,
              axis: int | None = None):
    """Pairs (i, j), in row-major order, of a box i of the first list and
    a box j of the second whose interiors overlap on every axis; with an
    axis given, box i's upper facet on that axis lies in the plane of box
    j's lower facet instead of overlapping it there.  Returns the index
    arrays and the product of the overlap widths of each pair."""
    match = np.ones((len(alo), len(blo)), dtype=bool)
    for k in range(alo.shape[1]):
        if k == axis:
            match &= ahi[:, None, k] == blo[None, :, k]
        else:
            match &= (alo[:, None, k] < bhi[None, :, k]) & (blo[None, :, k] < ahi[:, None, k])
    i, j = np.nonzero(match)
    others = [k for k in range(alo.shape[1]) if k != axis]
    widths = np.minimum(ahi[i][:, others], bhi[j][:, others]) \
        - np.maximum(alo[i][:, others], blo[j][:, others])
    return i, j, np.prod(widths, axis=1)


def _check_disjoint(los: np.ndarray, his: np.ndarray) -> None:
    i, j, _ = _contacts(los, his, los, his)
    clash = np.flatnonzero(i < j)
    if len(clash):
        raise InputError(f"boxes {i[clash[0]]} and {j[clash[0]]} have overlapping interiors")


def _canonical_merge(los: np.ndarray, his: np.ndarray):
    """Join boxes that share a whole facet, along each axis in turn, until
    the count stops falling.  Every join pass sorts its rows, so the result
    depends only on the set of input boxes."""
    count = 0
    while count != len(los):
        count = len(los)
        for axis in range(los.shape[1]):
            others = [k for k in range(los.shape[1]) if k != axis]
            first, end = _join_runs(np.column_stack([los[:, others], his[:, others]]),
                                    los[:, axis], his[:, axis])
            los, his = los[first], his[first]
            his[:, axis] = end
    return los, his


# ---------------------------------------------------------------------------
# dispatching operations


SetHandle = PolygonSet | BoxUnion


def volume(E: SetHandle) -> float:
    return E.volume()


def perimeter(E: SetHandle) -> float:
    return E.perimeter()


def surface_measure(E: SetHandle) -> SurfaceMeasure:
    return E.surface_measure()


def column_structure(E: SetHandle, axis: int | None = None) -> ColumnStructure:
    if axis is None:
        axis = E.dim - 1
    return E.column_structure(axis)


def spherical_symmetral(E: SetHandle) -> Ball:
    """The origin-centered ball with the same volume as E."""
    v = E.volume()
    return Ball((v / _BALL_VOLUME[E.dim]) ** (1.0 / E.dim), dim=E.dim)


def is_regular_direction(E: SetHandle, u):
    """Whether the boundary mass orthogonal to u vanishes.  Returns
    (flag, offending mass)."""
    mass = vertical_boundary_measure(E, u)
    return mass == 0.0, mass


def vertical_boundary_measure(E: SetHandle, frame: RigidFrame | Sequence[float]) -> float:
    """Boundary mass orthogonal to the direction a frame sends to the
    last coordinate axis (the mass of 'lateral' boundary in that frame).
    Accepts a RigidFrame or the direction itself."""
    if isinstance(frame, RigidFrame):
        u = frame.last_axis_preimage
    else:
        u = as_direction(frame)
    return E.surface_measure().mass_orthogonal_to(u)


def section_length_gradient(E: SetHandle, xprime) -> np.ndarray:
    """Gradient of the section-length function x' -> total length of the
    section of E above x', for sections parallel to the last coordinate
    axis.  Evaluated at generic base points as the summed slope of the
    top endpoints minus that of the bottom endpoints in the located cell;
    equals the analytic derivative there."""
    cell = column_structure(E).locate(xprime)
    if cell.affine is None:
        # box-union sections are constant over each base cell
        return np.zeros(E.dim - 1)
    return np.array([float(np.sum(cell.affine[:, 1, 1] - cell.affine[:, 0, 1]))])


def steiner_symmetrize(E: SetHandle, u) -> SetHandle:
    """Steiner symmetrization: replace every section of E parallel to u
    by the centered interval of the same length.

    Polygons accept any unit direction (handled by rotating u onto the
    vertical axis); box unions accept only signed coordinate axes.
    Volume is preserved exactly and perimeter never increases.
    """
    u = as_direction(u)
    if u.shape[0] != E.dim:
        raise InputError("direction dimension does not match the set")
    if isinstance(E, PolygonSet):
        return _steiner_polygon(E, u)
    return _steiner_boxes(E, u)


def _steiner_polygon(E: PolygonSet, u: np.ndarray) -> PolygonSet:
    return PolygonSet(steiner_ring(E.vertices, u), validate_simple=False)


def _steiner_boxes(E: BoxUnion, u: np.ndarray) -> BoxUnion:
    axis = None
    for k in range(E.dim):
        rest = np.delete(u, k)
        if abs(abs(u[k]) - 1.0) <= AXIS_ALIGNMENT_TOL and \
                np.max(np.abs(rest)) <= AXIS_ALIGNMENT_TOL:
            axis = k
            break
    if axis is None:
        raise UnsupportedDirectionError(
            "box unions symmetrize along signed coordinate axes only")
    cells = E.column_structure(axis).cells
    others = [k for k in range(E.dim) if k != axis]
    half = 0.5 * np.array([np.sum(c.intervals[:, 1] - c.intervals[:, 0]) for c in cells])
    los = np.empty((len(cells), E.dim))
    his = np.empty((len(cells), E.dim))
    los[:, others] = [c.lo for c in cells]
    his[:, others] = [c.hi for c in cells]
    los[:, axis] = -half
    his[:, axis] = half
    return BoxUnion(los, his)


def symmetric_difference_distance(E: SetHandle, F: SetHandle,
                                  resolution: int = 512) -> float:
    """Volume of the symmetric difference.  Exact for two box unions;
    for two polygons a membership raster over the joint bounding box is
    used and the value carries one raster cell of area uncertainty per
    boundary cell."""
    if isinstance(E, BoxUnion) and isinstance(F, BoxUnion):
        if E.dim != F.dim:
            raise InputError("sets must share a dimension")
        inter = float(np.sum(_contacts(E.los, E.his, F.los, F.his)[2]))
        return E.volume() + F.volume() - 2.0 * inter
    if isinstance(E, PolygonSet) and isinstance(F, PolygonSet):
        lo = np.minimum(E.bounding_box()[0], F.bounding_box()[0])
        hi = np.maximum(E.bounding_box()[1], F.bounding_box()[1])
        span = hi - lo
        cell = float(np.max(span)) / resolution
        nx = max(1, int(math.ceil(span[0] / cell)))
        ny = max(1, int(math.ceil(span[1] / cell)))
        cx = lo[0] + (np.arange(nx) + 0.5) * cell
        cy = lo[1] + (np.arange(ny) + 0.5) * cell
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        mismatch = 0
        for start in range(0, len(pts), 262144):
            chunk = pts[start:start + 262144]
            mismatch += int(np.sum(E.contains(chunk) != F.contains(chunk)))
        return mismatch * cell * cell
    raise InputError("symmetric difference requires two sets of the same kind")


def _piecewise_gauss(func: Callable[[np.ndarray], np.ndarray],
                     a: float, b: float, cuts: Sequence[float]) -> float:
    """Integrate func over [a, b] by 16-node Gauss-Legendre on each piece
    between interior cut points.  Exact for polynomials through degree 31
    and for piecewise-constant integrands cut at their jumps."""
    if b < a:
        a, b = b, a
    points = [a] + sorted(c for c in cuts if a < c < b) + [b]
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xs = mid + half * _GL_NODES
        total += half * float(np.dot(_GL_WEIGHTS, np.asarray(func(xs), dtype=float)))
    return total


def coarea_check(E: PolygonSet, g: Callable[[np.ndarray], np.ndarray],
                 breakpoints: Sequence[float] = ()) -> tuple[float, float]:
    """Evaluate both sides of the boundary-slicing identity for a scalar
    field g: the boundary integral of g weighted by the vertical normal
    component against the base-line integral of g summed over section
    endpoints.

    g takes an (m, 2) point array and returns (m,) values, vectorized.
    Projecting a non-vertical edge onto the base axis turns |nu_y| ds
    into dx exactly, so both sides reduce to one-dimensional integrals of
    g along affine graphs; 16-node quadrature per piece is exact for the
    polynomial fields used in tests.  Pass the jump abscissae of a
    discontinuous g in `breakpoints` so pieces are split there and the
    quadrature stays exact.
    """
    if not isinstance(E, PolygonSet):
        raise InputError("the boundary-slicing check runs on polygons")
    v = E.vertices
    w = cyclic_next(v)
    lhs = 0.0
    for i in range(len(v)):
        x1, y1 = v[i]
        x2, y2 = w[i]
        if x1 == x2:
            continue  # lateral edge: vertical weight vanishes
        slope = (y2 - y1) / (x2 - x1)

        def along_edge(x, x0=x1, y0=y1, s=slope):
            return g(np.column_stack([x, y0 + (x - x0) * s]))

        lhs += _piecewise_gauss(along_edge, float(min(x1, x2)),
                                float(max(x1, x2)), breakpoints)
    rhs = 0.0
    for cell in E.column_structure(axis=1).cells:
        coeffs = cell.affine.reshape(-1, 2)

        def over_endpoints(x, c=coeffs):
            pts = np.column_stack([np.repeat(x, len(c)),
                                   (c[:, 0] + np.outer(x, c[:, 1])).ravel()])
            return g(pts).reshape(len(x), len(c)).sum(axis=1)

        rhs += _piecewise_gauss(over_endpoints, float(cell.lo[0]),
                                float(cell.hi[0]), breakpoints)
    return lhs, rhs


# ---------------------------------------------------------------------------
# set description files


def set_from_json(obj: dict) -> SetHandle:
    if not isinstance(obj, dict):
        raise InputError("set description must be a JSON object")
    if "polygon" in obj:
        pts = obj["polygon"]
        if not isinstance(pts, list) or len(pts) < 3:
            raise InputError("field 'polygon' must list at least 3 vertices")
        try:
            arr = np.asarray(pts, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"field 'polygon' is not numeric: {exc}") from exc
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("field 'polygon' must be a list of [x, y] pairs")
        return PolygonSet(arr)
    if "boxes" in obj:
        boxes = obj["boxes"]
        if not isinstance(boxes, list) or not boxes:
            raise InputError("field 'boxes' must be a nonempty list")
        los, his = [], []
        for k, box in enumerate(boxes):
            if not isinstance(box, dict) or "lo" not in box or "hi" not in box:
                raise InputError(f"box {k} must carry 'lo' and 'hi' corner lists")
            try:
                los.append(np.asarray(box["lo"], dtype=float))
                his.append(np.asarray(box["hi"], dtype=float))
            except (TypeError, ValueError) as exc:
                raise InputError(f"box {k} corners are not numeric: {exc}") from exc
        dims = {a.shape for a in los} | {a.shape for a in his}
        if len(dims) != 1:
            raise InputError("all box corners must share one dimension")
        return BoxUnion(np.vstack(los), np.vstack(his))
    raise InputError("set description needs a 'polygon' or 'boxes' field")


def set_to_json(E: SetHandle) -> dict:
    if isinstance(E, PolygonSet):
        return {"polygon": [[float(a), float(b)] for a, b in E.vertices]}
    return {"boxes": [{"lo": [float(c) for c in lo], "hi": [float(c) for c in hi]}
                      for lo, hi in zip(E.los, E.his)]}


def load_set_file(path: str) -> SetHandle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return set_from_json(obj)
