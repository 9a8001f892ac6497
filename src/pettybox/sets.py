"""Desk-scale sets of finite perimeter: simple polygons in the plane and
finite unions of axis-aligned boxes in dimension 2 or 3.

Both kinds expose volume, perimeter, an atomic surface measure (finitely
many unit outer normals with positive masses), and a column structure:
the section-length function along a coordinate axis, the total length
of the set's line section above each base point.  It is held at both
ends of every filled cell of the base lattice, keyed by the cell's flat
lattice index, and over a cell it is affine (polygons) or constant
(box unions).  Steiner symmetrization replaces each section by a
centered interval of the same length, so it reads a set through its
section lengths alone, and is exact on these families.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NonGenericPointError, NumericalError, UnsupportedDirectionError
from .geometry import (BLOCK_PAIRS, _gauss_legendre, as_direction,
                       as_directions, as_integer, as_plane_map, cross_2d, cyclic_next,
                       lerp, section_incidence, section_lengths, steiner_ring,
                       symmetral_radii)

GENERIC_POINT_TOL = 1e-12
AXIS_ALIGNMENT_TOL = 1e-12


# ---------------------------------------------------------------------------
# surface measure


@dataclass(frozen=True, eq=False)
class SurfaceMeasure:
    """Finite atomic surface measure, a plain record: PolygonSet and
    BoxUnion._surface_measure build it on read-only arrays that their
    constructors checked, so its outer normals are unit, its masses
    positive and finite, and it is closed.  It answers the regularity
    questions (orthogonal_atoms, vertical_boundary_measure)."""

    normals: np.ndarray
    masses: np.ndarray

    def orthogonal_atoms(self, directions) -> np.ndarray:
        """(atoms, K) mask: whether each atom's normal is orthogonal within
        AXIS_ALIGNMENT_TOL to each of a (K, dim) stack of unit directions."""
        U = as_directions(directions)
        if U.shape[1] != self.normals.shape[1]:
            raise InputError("direction dimension does not match the set")
        return np.abs(self.normals @ U.T) <= AXIS_ALIGNMENT_TOL


# ---------------------------------------------------------------------------
# column structure


@dataclass(frozen=True, eq=False)
class ColumnStructure:
    """The section-length function of a set along one coordinate axis,
    over the cells of the base lattice cut at ``base_breaks``.

    ``cells`` holds the sorted flat (row-major) lattice keys of the
    filled cells, those whose sections have positive length, and
    ``ends`` each filled cell's section length at the left and right end
    of the cell along the first base axis, (cells, 2).  Over a cell the
    length is affine (polygons) or constant (box unions, whose two ends
    are equal), so it is interpolated from the nearer end and its
    gradient is the difference of the ends over the cell's width.
    """

    axis: int
    dim: int
    base_breaks: tuple
    cells: np.ndarray
    ends: np.ndarray

    @cached_property
    def cell_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper base corners of the filled cells, (cells, dim - 1)
        each."""
        lattice = np.unravel_index(self.cells, tuple(len(b) - 1 for b in self.base_breaks))
        return (np.column_stack([b[j] for b, j in zip(self.base_breaks, lattice)]),
                np.column_stack([b[j + 1] for b, j in zip(self.base_breaks, lattice)]))

    def locate(self, xprime) -> int:
        """The number of the filled cell above a generic base point."""
        x = np.atleast_1d(np.asarray(xprime, dtype=float))
        if x.shape != (self.dim - 1,):
            raise InputError(f"base point must have {self.dim - 1} coordinates")
        key = 0
        for k, breaks in enumerate(self.base_breaks):
            tol = GENERIC_POINT_TOL * (1.0 + abs(float(x[k])))
            if np.min(np.abs(breaks - x[k])) <= tol:
                raise NonGenericPointError(
                    f"base coordinate {x[k]!r} lies on a cell boundary")
            j = int(np.searchsorted(breaks, x[k])) - 1
            if j < 0 or j >= len(breaks) - 1:
                raise InputError(f"base point {x!r} is outside the projection")
            key = key * (len(breaks) - 1) + j
        c = int(np.searchsorted(self.cells, key))
        if c == len(self.cells) or self.cells[c] != key:
            raise InputError(f"base point {x!r} is outside the essential projection")
        return c

    def section_length(self, xprime) -> float:
        c = self.locate(xprime)
        a, b = self.ends[c]
        lo, hi = self.cell_bounds[0][c, 0], self.cell_bounds[1][c, 0]
        s = (float(np.atleast_1d(np.asarray(xprime, dtype=float))[0]) - lo) / (hi - lo)
        # equal ends give that length, also where it is inf on an
        # overflowed column, whose interpolation would read nan
        return float(a if a == b else lerp(s, a, b))


def _polygon_columns(vertices: np.ndarray):
    """The section lengths at both ends of every base cell between
    consecutive vertex abscissae, off the kernel the symmetrals use; a
    simple polygon's projection is an interval, so every cell is
    filled."""
    block, = section_incidence(vertices)
    left, right, _ = section_lengths(block)
    breaks = block[1]
    return (breaks,), np.arange(len(breaks) - 1), np.column_stack([left[:-1], right[:-1]])


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
    """Expand each box into one row per base-lattice cell it covers, join
    the rows of each cell into its maximal section intervals, and sum
    their lengths per filled cell."""
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
    cells, cell = np.unique(flat[row], return_inverse=True)
    # one subtraction per maximal interval, summed per cell in row order
    with np.errstate(over="ignore"):
        length = np.bincount(cell, end - los[box[row], axis], len(cells))
    return tuple(break_lists), cells, np.column_stack([length, length])


# ---------------------------------------------------------------------------
# polygons


class PolygonSet:
    """A simple planar polygon with positively oriented (CCW) boundary.

    Construction checks once (_set_ring) that a copy of the vertices is
    an (m, 2) array, m >= 3, of finite values with no zero-length edge,
    no overflow and positive signed area, then that the ring is simple.
    The edges, their lengths, the unit outer normals and the shoelace
    terms cross(v_j, v_(j+1)) are computed once, read-only; their sums
    give the perimeter and the area.

    One slot keeps the last Steiner symmetral computed from the polygon:
    the exact bytes of its direction and the symmetral set, with
    read-only vertices (see steiner_symmetrize).  A repeat along that
    direction returns the same set, whose edges and surface measure are
    then built once.  A second slot keeps the last linear image the same
    way (see transform).  The slots keep a polygon's successors alive,
    not its predecessors, and the driver rebinds its iterate every step,
    so no chain of iterates stays alive."""

    dim = 2
    # a class default, so a polygon that is never mapped carries no
    # image attribute of its own
    _image: tuple[bytes, "PolygonSet"] | None = None

    def __init__(self, vertices):
        self._set_ring(vertices)
        _check_simple(self.vertices)

    @classmethod
    def _derived(cls, vertices) -> "PolygonSet":
        """A translate, linear image or symmetral of a simple polygon: every
        check but simplicity runs, since rounding can break the others."""
        E = cls.__new__(cls)
        E._set_ring(vertices)
        return E

    def _set_ring(self, vertices) -> None:
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InputError(f"polygon needs an (m,2) vertex array with m>=3, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("polygon vertices must be finite")
        ahead = cyclic_next(v)
        # finite coordinates can overflow their edges, products and sums
        with np.errstate(over="ignore", invalid="ignore"):
            edges = ahead - v
            lengths = np.linalg.norm(edges, axis=1)
            terms = cross_2d(v, ahead)
            self._perimeter = float(lengths.sum())
            self._area = area = 0.5 * float(terms.sum())
        if np.min(lengths) <= 0.0:
            raise InputError("polygon has a zero-length edge")
        if not (math.isfinite(self._perimeter) and math.isfinite(area)):
            raise InputError("polygon is too large: its edge lengths or shoelace terms overflow")
        if area <= 0.0:
            raise InputError(f"polygon must be CCW with positive area, got signed area {area:g}")
        self.vertices = v
        self.edges = edges
        self.lengths = lengths
        self.normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        self.terms = terms
        for a in (v, edges, lengths, self.normals, self.terms):
            a.setflags(write=False)
        self._symmetral: tuple[bytes, PolygonSet] | None = None

    def volume(self) -> float:
        """Half the sum of the shoelace terms: the signed area, positive
        on a CCW ring."""
        return self._area

    def centroid(self) -> np.ndarray:
        """The area centroid.  Its moment terms can overflow on a ring
        whose area is finite, and then it raises rather than return a
        point at infinity."""
        v = self.vertices
        with np.errstate(over="ignore", invalid="ignore"):
            c = (v + cyclic_next(v)) * self.terms[:, None]
            centroid = np.sum(c, axis=0) / (6.0 * self.volume())
        if not np.all(np.isfinite(centroid)):
            raise InputError("polygon is too large: its centroid overflows")
        return centroid

    def perimeter(self) -> float:
        return self._perimeter

    def is_star_shaped(self) -> bool:
        """True when every shoelace term is positive: the vertex angles
        wind strictly monotonically about the origin, a sufficient
        condition for star-shapedness with the origin interior."""
        return bool(np.all(self.terms > 0.0))

    def min_boundary_norm(self) -> float:
        """Least |x| over the boundary: the edge distance of
        geometry.distance_to_polygon from the origin, over all edges at
        once, with the dot products through stacked matmul as there."""
        a, d = self.vertices, self.edges
        t = np.clip(((-a)[:, None, :] @ d[:, :, None]) / (d[:, None, :] @ d[:, :, None]),
                    0.0, 1.0)[:, 0, 0]
        return float(np.min(np.linalg.norm(a + t[:, None] * d, axis=1)))

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def __repr__(self):
        return f"PolygonSet({len(self.vertices)} vertices, area={self.volume():.6g})"

    def surface_measure(self) -> SurfaceMeasure:
        """One atom per edge, built once per polygon on the ring's
        read-only normals and lengths."""
        return self._surface_measure

    @cached_property
    def _surface_measure(self) -> SurfaceMeasure:
        return SurfaceMeasure(self.normals, self.lengths)

    def translate(self, offset) -> "PolygonSet":
        return PolygonSet._derived(self.vertices + np.asarray(offset, dtype=float))

    def transform(self, matrix) -> "PolygonSet":
        """Image under an orientation-preserving invertible linear map.

        The image is the set in the polygon's image slot when the slot's
        matrix has exactly the bytes of the validated matrix, so a check
        and a product of the same image share its ring and edges.
        Otherwise the determinant is tested and a set on the
        vertices times the transpose fills the slot."""
        m = as_plane_map(matrix)
        key = m.tobytes()
        if self._image is None or self._image[0] != key:
            if np.linalg.det(m) <= 0.0:
                raise InputError("transform needs a 2x2 matrix with positive determinant")
            self._image = (key, PolygonSet._derived(self.vertices @ m.T))
        return self._image[1]

    def column_structure(self, axis: int = 1) -> ColumnStructure:
        axis = as_integer("polygon column axis", axis, 0)
        if axis > 1:
            raise InputError(f"polygon column axis must be 0 or 1, got {axis}")
        verts = self.vertices if axis == 1 else self.vertices[::-1, ::-1]
        return ColumnStructure(axis, 2, *_polygon_columns(verts))


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
    depends only on the set of input boxes, not on their order.  Only the
    constructor checks; it and _derived (a symmetral) run _set_boxes.  A
    checked union counts its contacts for its surface masses; a symmetral
    carries the masses read off the column lattice it was built on."""

    def __init__(self, los, his):
        los = np.atleast_2d(np.asarray(los, dtype=float))
        his = np.atleast_2d(np.asarray(his, dtype=float))
        if los.shape != his.shape or los.shape[1] not in (2, 3) or los.shape[0] == 0:
            raise InputError(f"box union needs matching (m,2) or (m,3) corner arrays")
        if not (np.all(np.isfinite(los)) and np.all(np.isfinite(his))):
            raise InputError("box corners must be finite")
        if not np.all(his > los):
            raise InputError("each box needs hi > lo in every axis")
        with np.errstate(over="ignore"):
            # sorted, so that no axis order matters; the two largest span the largest facet
            extents = np.sort(his - los, axis=1)
            volume = np.sum(np.prod(extents, axis=1))
            if not max(volume, np.max(extents[:, -1] * extents[:, -2])) < np.inf:
                raise InputError("box union is too large: its extents, facet areas "
                                 "or volume overflow")
        _check_disjoint(los, his)
        self._set_boxes(los, his)

    @classmethod
    def _derived(cls, los, his, axis: int, masses: np.ndarray) -> "BoxUnion":
        """A symmetral (_steiner_boxes): disjoint columns on checked corners,
        centred on the given axis, with the class masses read off their
        lattice (_lattice_masses) in place of the contact count."""
        B = cls.__new__(cls)
        B._set_boxes(los, his, axis)
        B._class_masses = masses
        return B

    def _set_boxes(self, los, his, centred: int | None = None) -> None:
        self.los, self.his = _canonical_merge(los, his, centred)
        self.los.setflags(write=False)
        self.his.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.los.shape[1]

    @property
    def box_count(self) -> int:
        # read by __repr__ and the benchmark's tracer only
        return self.los.shape[0]

    def __repr__(self):
        return f"BoxUnion({self.box_count} boxes, dim={self.dim}, volume={self.volume():.6g})"

    def volume(self) -> float:
        # the extents' mantissas multiply without under- or overflow and
        # their exponents add exactly, so no partial product of a box in
        # float range goes subnormal and no axis order changes a bit
        m, e = np.frexp(self.his - self.los)
        return float(np.sum(np.ldexp(np.prod(m, axis=1), np.sum(e, axis=1))))

    @cached_property
    def _class_masses(self) -> np.ndarray:
        """Exposed surface area of each outer-normal sign class, one entry
        per axis: the facet areas less the contact areas.  Each contact
        hides one upper and one lower facet, so both signs of an axis
        carry this same mass.  This pairwise count runs on checked unions
        only; a symmetral arrives with its masses set (_derived)."""
        masses = np.empty(self.dim)
        for axis in range(self.dim):
            others = [k for k in range(self.dim) if k != axis]
            facets = float(np.sum(np.prod(self.his[:, others] - self.los[:, others], axis=1)))
            contacts = float(np.sum(_contacts(self.los, self.his, axis)[2]))
            masses[axis] = facets - contacts
        return masses

    def perimeter(self) -> float:
        # one term per atom, in axis order: the summation order fixes the
        # rounding
        return float(sum(np.repeat(self._class_masses, 2)))

    def surface_measure(self) -> SurfaceMeasure:
        """Two atoms per axis, -e_k before +e_k, in axis order, built once
        per box union on read-only arrays."""
        return self._surface_measure

    @cached_property
    def _surface_measure(self) -> SurfaceMeasure:
        if not np.min(self._class_masses) > 0.0:
            raise NumericalError(f"box union surface masses are out of float range: "
                                 f"{self._class_masses.tolist()!r}")
        on_axis = np.repeat(np.eye(self.dim, dtype=bool), 2, axis=0)
        normals = np.where(on_axis, np.tile([-1.0, 1.0], self.dim)[:, None], 0.0)
        masses = np.repeat(self._class_masses, 2)
        for a in (normals, masses):
            a.setflags(write=False)
        return SurfaceMeasure(normals, masses)

    def column_structure(self, axis: int) -> ColumnStructure:
        axis = as_integer("column axis", axis, 0)
        if axis >= self.dim:
            raise InputError(f"column axis must be in 0..{self.dim - 1}, got {axis}")
        return ColumnStructure(axis, self.dim, *_box_columns(self.los, self.his, axis))


def _contacts(los: np.ndarray, his: np.ndarray, axis: int | None = None):
    """Pairs (i, j), in row-major order, of boxes whose interiors overlap
    on every axis; with an axis given, box i's upper facet on that axis
    lies in the plane of box j's lower facet instead of overlapping it
    there.  Returns the index arrays and the product of the overlap
    widths of each pair."""
    match = np.ones((len(los), len(los)), dtype=bool)
    for k in range(los.shape[1]):
        if k == axis:
            match &= his[:, None, k] == los[None, :, k]
        else:
            match &= (los[:, None, k] < his[None, :, k]) & (los[None, :, k] < his[:, None, k])
    i, j = np.nonzero(match)
    others = [k for k in range(los.shape[1]) if k != axis]
    widths = np.minimum(his[i][:, others], his[j][:, others]) \
        - np.maximum(los[i][:, others], los[j][:, others])
    return i, j, np.prod(widths, axis=1)


def _check_disjoint(los: np.ndarray, his: np.ndarray) -> None:
    i, j, _ = _contacts(los, his)
    clash = np.flatnonzero(i < j)
    if len(clash):
        raise InputError(f"boxes {i[clash[0]]} and {j[clash[0]]} have overlapping interiors")


def _canonical_merge(los: np.ndarray, his: np.ndarray, centred: int | None = None):
    """Join boxes that share a whole facet, along each axis in turn, until
    the count stops falling.  Every join pass sorts its rows, so the result
    depends only on the set of input boxes.

    A symmetral's boxes are centred on one axis, lo < 0 < hi there, so no
    upper facet on that axis lies in another box's lower facet plane and a
    pass along it only sorts.  Those passes are skipped; only when that axis
    is the last does one run at the end, since the last pass sets the order."""
    count = 0
    while count != len(los):
        count = len(los)
        for axis in range(los.shape[1]):
            if axis != centred:
                los, his = _join_pass(los, his, axis)
    if centred == los.shape[1] - 1:
        los, his = _join_pass(los, his, centred)
    return los, his


def _join_pass(los: np.ndarray, his: np.ndarray, axis: int):
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


def is_regular_direction(E: SetHandle, u):
    """Whether the boundary mass orthogonal to u vanishes.  Returns
    (flag, offending mass)."""
    mass = vertical_boundary_measure(E, u)
    return mass == 0.0, mass


def vertical_boundary_measure(E: SetHandle, u: Sequence[float]) -> float:
    """Boundary mass orthogonal to the unit direction u: the mass of the
    boundary that runs parallel to u, read from one orthogonal_atoms
    column, which validates u and its dimension."""
    mu = E.surface_measure()
    return float(np.sum(mu.masses[mu.orthogonal_atoms([u])[:, 0]]))


def section_length_gradient(E: SetHandle, xprime) -> np.ndarray:
    """Gradient of the section-length function x' -> total length of the
    section of E above x', for sections parallel to the last coordinate
    axis.  Evaluated at generic base points as the difference of the
    section lengths at the located cell's two ends over its width; equals
    the analytic derivative there, and vanishes on box unions, whose two
    ends are equal."""
    cs = column_structure(E)
    c = cs.locate(xprime)
    a, b = cs.ends[c]
    grad = np.zeros(E.dim - 1)
    grad[0] = 0.0 if a == b else (b - a) / (cs.cell_bounds[1][c, 0] - cs.cell_bounds[0][c, 0])
    return grad


def steiner_symmetrize(E: SetHandle, u) -> SetHandle:
    """Steiner symmetrization: replace every section of E parallel to u
    by the centered interval of the same length.

    Polygons accept any unit direction (handled by rotating u onto the
    vertical axis); box unions accept only signed coordinate axes.
    Volume is preserved exactly and perimeter never increases.

    A polygon's symmetral is the set in the polygon's slot when the
    slot's direction has exactly the bytes of u: a repeat along the same
    direction, or the winner that cap_cover_greedy_step left
    there.  Otherwise geometry.steiner_ring runs and a set on its ring
    fills the slot.  Either way the vertices are
    steiner_ring(E.vertices, u) bit for bit, and every symmetral still
    comes out of this function.
    """
    u = as_direction(u)
    if u.shape[0] != E.dim:
        raise InputError("direction dimension does not match the set")
    if isinstance(E, PolygonSet):
        return _steiner_polygon(E, u)
    return _steiner_boxes(E, u)


def _steiner_polygon(E: PolygonSet, u: np.ndarray) -> PolygonSet:
    if E._symmetral is None or E._symmetral[0] != u.tobytes():
        _keep_symmetral(E, u, steiner_ring(E.vertices, u))
    return E._symmetral[1]


def _keep_symmetral(E: PolygonSet, u: np.ndarray, ring: np.ndarray) -> None:
    E._symmetral = (u.tobytes(), PolygonSet._derived(ring))


def cap_cover_greedy_step(E: PolygonSet, candidates) -> np.ndarray:
    """The candidate direction whose Steiner symmetral of E has the least
    circumradius, the lowest index on a tie; candidates must all be
    regular.  The cap-cover-greedy policy's step in the driver.

    The candidates are validated once, as planar unit directions, and one
    pass of the batched section-length kernel scores the whole (K, 2)
    stack (geometry.symmetral_radii): each score is the symmetral's
    circumradius, max sqrt(x^2 + (L/2)^2) over its chain points in the
    candidate's own frame, read off the kernel's per-break limits, and
    no chain is compacted and no set built but for the rings rotated.
    After the last block the candidates within rounding of the least
    score of all are scored again, once, by max |v| over their vertex
    rings, rotated back to the input frame as steiner_ring rotates them,
    so ties are broken on the same values as by steiner_ring.  The
    winner's set, on its ring, fills E's slot, so the
    steiner_symmetrize(E, winner) that follows returns it as the next
    iterate without running the kernel again."""
    if not isinstance(E, PolygonSet):
        raise InputError("symmetrals are scored on polygons")
    U = as_directions(candidates)
    if U.shape[1] != 2:
        raise InputError("planar Steiner symmetrals need a planar direction")
    radii, ring = symmetral_radii(E.vertices, U)
    u = U[int(np.argmin(radii))].copy()
    _keep_symmetral(E, u, ring)
    return u


def _steiner_boxes(E: BoxUnion, u: np.ndarray) -> BoxUnion:
    """One box per filled base cell, centered on u's axis (BoxUnion._derived);
    a half-length past float range or rounded to 0 raises NumericalError."""
    axis = np.flatnonzero(np.abs(u) > AXIS_ALIGNMENT_TOL)
    if len(axis) != 1 or abs(abs(u[axis[0]]) - 1.0) > AXIS_ALIGNMENT_TOL:
        raise UnsupportedDirectionError(
            "box unions symmetrize along signed coordinate axes only")
    a = int(axis[0])
    cs = E.column_structure(a)
    lo, hi = cs.cell_bounds
    half = 0.5 * cs.ends[:, 0]
    if not (np.min(half) > 0.0 and np.max(half) < np.inf):
        raise NumericalError("box union symmetral has a half-length out of float range")
    return BoxUnion._derived(np.insert(lo, a, -half, axis=1), np.insert(hi, a, half, axis=1),
                             a, _lattice_masses(cs, half))


def _lattice_masses(cs: ColumnStructure, half: np.ndarray) -> np.ndarray:
    """Class masses of the symmetral that centres a box of half-length
    half[c] over each filled cell c of cs.  On cs's axis the mass is the
    filled base area.  On a base axis k the lower facet of cell c's box is
    exposed where the box below it, c - e_k, is shorter, so the mass sums
    2 (H_c - min(H_c, H_{c - e_k})) times the cell's width on the other
    base axis, H 0 on empty cells and off the lattice."""
    widths = [np.diff(b) for b in cs.base_breaks]
    H = np.zeros([len(w) for w in widths])
    H.flat[cs.cells] = half
    masses = np.empty(cs.dim)
    lo, hi = cs.cell_bounds
    masses[cs.axis] = np.sum(np.prod(hi - lo, axis=1))
    others = [k for k in range(cs.dim) if k != cs.axis]
    for j, k in enumerate(others):
        # H_c - min(H_c, H_{c - e_k}) is the positive part of the step
        exposed = 2.0 * np.maximum(np.diff(H, axis=j, prepend=0.0), 0.0)
        if len(widths) == 2:
            exposed *= np.expand_dims(widths[1 - j], j)
        masses[k] = np.sum(exposed)
    return masses


def _segment_gauss(g: Callable[[np.ndarray], np.ndarray], xa: np.ndarray, ya: np.ndarray,
                   xb: np.ndarray, yb: np.ndarray, cuts: Sequence[float]) -> float:
    """Sum over rows of the integral, in x, of g along the segment
    (xa, ya)-(xb, yb), by 16-node Gauss-Legendre on each piece of the
    row's x-range between the cut points inside it.  Exact for
    polynomials through degree 31 and for piecewise-constant integrands
    cut at their jumps."""
    nodes, weights = _gauss_legendre(16)
    lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
    # cuts outside a row's range clip to its ends and give empty pieces
    inner = np.clip(np.sort(np.asarray(cuts, dtype=float))[None, :], lo[:, None], hi[:, None])
    knots = np.column_stack([lo, inner, hi])
    half = 0.5 * (knots[:, 1:] - knots[:, :-1])
    x = (0.5 * (knots[:, 1:] + knots[:, :-1]))[..., None] + half[..., None] * nodes
    y = lerp((x - xa[:, None, None]) / (xb - xa)[:, None, None],
             ya[:, None, None], yb[:, None, None])
    values = np.asarray(g(np.column_stack([x.ravel(), y.ravel()])), dtype=float)
    return float(np.sum(half * (values.reshape(x.shape) @ weights)))


def coarea_check(E: PolygonSet, g: Callable[[np.ndarray], np.ndarray],
                 breakpoints: Sequence[float] = ()) -> tuple[float, float]:
    """Evaluate both sides of the boundary-slicing identity for a scalar
    field g: the boundary integral of g weighted by the vertical normal
    component against the base-line integral of g summed over section
    endpoints.

    g takes an (m, 2) point array and returns (m,) values, vectorized.
    Projecting a non-vertical edge onto the base axis turns |nu_y| ds
    into dx exactly, so both sides are integrals of g in x along
    segments: the non-vertical edges on the left, and on the right every
    edge's piece over each base cell it spans, between its heights at the
    cell's two ends (section_incidence).  16-node quadrature per piece is
    exact for the polynomial fields used in tests.  Pass the jump
    abscissae of a discontinuous g in `breakpoints` so pieces are split
    there and the quadrature stays exact.
    """
    if not isinstance(E, PolygonSet):
        raise InputError("the boundary-slicing check runs on polygons")
    v = E.vertices
    w = cyclic_next(v)
    slanted = v[:, 0] != w[:, 0]  # a vertical edge's weight vanishes
    lhs = _segment_gauss(g, v[slanted, 0], v[slanted, 1], w[slanted, 0], w[slanted, 1],
                         breakpoints)
    (_, breaks, _, _, cell, y0, y1, _, _), = section_incidence(v)
    rhs = _segment_gauss(g, breaks[cell], y0, breaks[cell + 1], y1, breakpoints)
    return lhs, rhs


# ---------------------------------------------------------------------------
# set description files


def set_from_json(obj: dict) -> SetHandle:
    if not isinstance(obj, dict):
        raise InputError("set description must be a JSON object")
    if "polygon" in obj and "boxes" in obj:
        raise InputError("set description holds both 'polygon' and 'boxes'; "
                         "a file holds exactly one of them")
    if "polygon" in obj:
        try:
            arr = np.asarray(obj["polygon"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"field 'polygon' is not numeric: {exc}") from exc
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
            except (TypeError, ValueError, OverflowError) as exc:
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
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return set_from_json(obj)
