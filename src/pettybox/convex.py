"""Convex bodies and polarity.

Four body kinds cover everything the toolkit builds: planar facet
polytopes, origin-symmetric zonotopes in dimension 2 or 3, origin-centered
balls, and a lazy polar wrapper for bodies whose polar has no materialized
form.  Planar polars are materialized exactly; three-dimensional polar
volumes fall back to spherical quadrature of the reciprocal support
function with a reported error estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .geometry import (SphericalGrid, angle_sectors, circle_grid, cross_2d,
                       cyclic_next, default_grid, distance_to_polygon,
                       integrate_sphere, prune_collinear, ring_boundary_points,
                       shoelace_area, sphere_grid, steiner_ring)

SUPPORT_CONSISTENCY_TOL = 1e-10
# angle step (radians) up to which zonotope generators count as parallel
PARALLEL_TOL = 1e-12
# turn of a zonotope ring, relative to its size, below which rounding in
# the ring's coordinates cannot resolve it (64 units of roundoff)
RING_RESOLUTION = 64.0 * np.finfo(float).eps
RESIDUAL_TOL = 1e-10
MAX_BISECTIONS = 200

_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


@dataclass(frozen=True)
class Ball:
    """Origin-centered Euclidean ball."""

    radius: float
    dim: int = 2

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise InputError(f"ball radius must be positive, got {self.radius!r}")
        if self.dim not in (2, 3):
            raise InputError("balls live in dimension 2 or 3")

    def support(self, z) -> float:
        return self.radius * float(np.linalg.norm(z))

    def support_batch(self, nodes: np.ndarray) -> np.ndarray:
        return self.radius * np.linalg.norm(np.asarray(nodes, dtype=float), axis=1)

    def radial(self, u) -> float:
        return self.radius

    def volume(self) -> float:
        return _BALL_VOLUME[self.dim] * self.radius ** self.dim

    def max_norm(self) -> float:
        return self.radius

    def bounding_box(self):
        r = np.full(self.dim, self.radius)
        return -r, r

    def boundary_points(self, step: float) -> np.ndarray:
        if step <= 0.0:
            raise InputError("boundary sampling step must be positive")
        if self.dim == 2:
            count = max(8, int(math.ceil(2.0 * math.pi * self.radius / step)))
            t = np.arange(count) * (2.0 * math.pi / count)
            return self.radius * np.column_stack([np.cos(t), np.sin(t)])
        count = max(32, int(math.ceil(4.0 * math.pi * self.radius ** 2 / step ** 2)))
        k = np.arange(count) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / count
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return self.radius * np.column_stack([s * np.cos(phi), s * np.sin(phi), z])

    def solid_distance(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.maximum(np.linalg.norm(p, axis=1) - self.radius, 0.0)


class FacetPolytope:
    """Planar convex polytope: CCW vertices with derived outer normals
    and support offsets, consistent within 1e-10 by construction."""

    dim = 2

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InputError(f"facet polytope needs (m,2) vertices with m>=3, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("polytope vertices must be finite")
        edges = cyclic_next(v) - v
        lengths = np.linalg.norm(edges, axis=1)
        if np.min(lengths) <= 0.0:
            raise InputError("polytope has a zero-length edge")
        turns = cross_2d(edges, cyclic_next(edges))
        scale = float(np.max(np.abs(turns))) if np.max(np.abs(turns)) > 0 else 1.0
        if np.min(turns) < -1e-9 * scale:
            raise InputError("vertices are not in convex CCW position")
        self.vertices = v
        self.vertices.setflags(write=False)

    @classmethod
    def from_vertices(cls, vertices, prune_tol: float = 1e-12) -> "FacetPolytope":
        return cls(prune_collinear(np.asarray(vertices, dtype=float), prune_tol))

    def __repr__(self):
        return f"FacetPolytope({len(self.vertices)} facets)"

    @cached_property
    def _facets(self):
        v = self.vertices
        edges = cyclic_next(v) - v
        lengths = np.linalg.norm(edges, axis=1)
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        offsets = np.sum(v * normals, axis=1)
        check = np.sum(cyclic_next(v) * normals, axis=1)
        if np.max(np.abs(check - offsets)) > SUPPORT_CONSISTENCY_TOL * (1.0 + np.max(np.abs(offsets))):
            raise NumericalError("facet offsets inconsistent with vertices")
        return normals, offsets

    @property
    def normals(self) -> np.ndarray:
        return self._facets[0]

    @property
    def offsets(self) -> np.ndarray:
        return self._facets[1]

    def support(self, z) -> float:
        return float(np.max(self.vertices @ np.asarray(z, dtype=float)))

    def support_batch(self, nodes: np.ndarray) -> np.ndarray:
        return np.max(np.asarray(nodes, dtype=float) @ self.vertices.T, axis=1)

    @cached_property
    def _vertex_sectors(self):
        """The vertex angles in ascending order, and for each the facet
        that starts at that vertex."""
        angles = np.arctan2(self.vertices[:, 1], self.vertices[:, 0])
        order = np.argsort(angles, kind="stable")
        return angles[order], order

    def radial_batch(self, nodes) -> np.ndarray:
        """Radial function at each row of an (n, 2) stack of directions,
        by a sector walk: a node is evaluated on the facet whose
        vertex-angle sector holds it and on that facet's two neighbours,
        as offset / (u . normal) over those with u . normal > 0, and the
        least is kept.  With the origin interior that is the least over
        all facets; the neighbours cover a node at or next to a vertex
        direction, which rounding can put in either sector."""
        normals, offsets = self._facets
        if np.min(offsets) <= 0.0:
            raise InputError("radial function needs the origin interior to the body")
        nodes = np.asarray(nodes, dtype=float)
        breaks, facet = self._vertex_sectors
        near = (facet[angle_sectors(nodes, breaks)] + np.array([[-1], [0], [1]])) % len(offsets)
        dots = nodes[:, 0] * normals[near, 0] + nodes[:, 1] * normals[near, 1]
        with np.errstate(divide="ignore"):
            rho = np.where(dots > 0.0, offsets[near] / dots, np.inf).min(axis=0)
        if not np.all(np.isfinite(rho)):
            raise InputError("radial evaluation hit an unbounded direction")
        return rho

    def radial(self, u) -> float:
        return float(self.radial_batch(np.asarray(u, dtype=float)[None])[0])

    def volume(self) -> float:
        return shoelace_area(self.vertices)

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_points(self, step: float) -> np.ndarray:
        return ring_boundary_points(self.vertices, step)

    def solid_distance(self, points) -> np.ndarray:
        return distance_to_polygon(points, self.vertices)


class Zonotope:
    """Origin-symmetric zonotope: the Minkowski sum of segments
    [-g, g] over the generator list, with support sum |z.g|."""

    def __init__(self, generators):
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        if g.ndim != 2 or g.shape[1] not in (2, 3) or g.shape[0] == 0:
            raise InputError(f"zonotope needs (m,2) or (m,3) generators, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise InputError("zonotope generators must be finite")
        if np.min(np.linalg.norm(g, axis=1)) <= 0.0:
            raise InputError("zonotope generators must be nonzero")
        self.generators = g
        self.generators.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def __repr__(self):
        return f"Zonotope({len(self.generators)} generators, dim={self.dim})"

    def support(self, z) -> float:
        return float(np.sum(np.abs(self.generators @ np.asarray(z, dtype=float))))

    def support_batch(self, nodes: np.ndarray) -> np.ndarray:
        """Support at each row of a stack of directions.  In the plane it
        is |u . S| with S = sum sign(u . g) g constant between the angles
        where some generator turns orthogonal to u, read by a sector walk
        from the sums on each sector; in 3D, sum |u . g| over all
        generators."""
        nodes = np.asarray(nodes, dtype=float)
        if self.dim == 3:
            return np.sum(np.abs(nodes @ self.generators.T), axis=1)
        breaks, sums = self._support_sectors
        S = sums[angle_sectors(nodes, breaks) % len(sums)]
        return np.abs(nodes[:, 0] * S[:, 0] + nodes[:, 1] * S[:, 1])

    @cached_property
    def _half_turn(self):
        """The planar generators turned into the upper half-plane (g and -g
        span the same segment) and sorted by angle, with their angles in
        [0, pi]."""
        g = self.generators.copy()
        flip = (g[:, 1] < 0.0) | ((g[:, 1] == 0.0) & (g[:, 0] < 0.0))
        g[flip] *= -1.0
        angles = np.arctan2(g[:, 1], g[:, 0])
        order = np.argsort(angles, kind="stable")
        return g[order], angles[order]

    @cached_property
    def _support_sectors(self):
        """Breaks and sums of the planar support walk.  A generator at angle
        phi has u . g > 0 for u at angles in (phi - pi/2, phi + pi/2).  So
        from the break phi_j - pi/2 on, the generators up to j are positive
        and the rest negative, S = 2 (g_0 + ... + g_j) - sum g, and from
        phi_j + pi/2 on the signs are reversed, -S, which gives the same
        |u . S|: sector j and sector j + len(g) share sums[j].  The breaks
        ascend: the first half lies within [-pi/2, pi/2], the second
        within [pi/2, 3pi/2]."""
        g, angles = self._half_turn
        breaks = np.concatenate([angles - 0.5 * math.pi, angles + 0.5 * math.pi])
        return breaks, 2.0 * np.cumsum(g, axis=0) - np.sum(g, axis=0)

    def axis_box_halfwidths(self) -> np.ndarray | None:
        """Half-widths when every generator is axis-aligned, else None."""
        g = self.generators
        nonzero = g != 0.0
        if np.any(np.sum(nonzero, axis=1) != 1):
            return None
        return np.abs(g).sum(axis=0)

    @cached_property
    def _polygon(self) -> FacetPolytope:
        """The planar zonotope as a strictly convex ring, built from its
        generators with parallel ones merged, so no vertex is collinear
        with its neighbours and nothing is pruned."""
        if self.dim != 2:
            raise InputError("only planar zonotopes materialize to polygons")
        g, angles = self._half_turn
        # a generator joins the group of the one before it when the angle
        # steps by at most PARALLEL_TOL, or when the ring vertex between
        # them would sit within RING_RESOLUTION * (total length) of the
        # chord through its neighbours, a turn that rounding in the ring
        # cannot resolve.  A generator shorter than that resolution never
        # starts a group and is left out of these tests.  The angles live
        # on a circle of length pi, so the first generator may also join
        # the last one's group: then the last group, reversed, joins the
        # first.  start[j] marks generator j as the first of a group, and
        # start[0] stands for the link across that seam.
        length = np.hypot(g[:, 0], g[:, 1])
        resolution = RING_RESOLUTION * float(np.sum(length))
        big = np.flatnonzero(length > resolution)
        b, a = g[big], angles[big]
        ahead = cyclic_next(b)
        ahead[-1] *= -1.0
        step = np.diff(a, append=a[0])
        step[-1] = a[0] - math.atan2(-b[-1, 1], -b[-1, 0])
        chord = np.hypot(b[:, 0] + ahead[:, 0], b[:, 1] + ahead[:, 1])
        parallel = step <= PARALLEL_TOL
        unresolved = ~parallel & (cross_2d(b, ahead) <= resolution * chord)
        after = np.append(big[1:], 0)
        start = np.zeros(len(g), dtype=bool)
        start[after] = ~(parallel | unresolved)
        if np.any(unresolved):
            turn = np.zeros(len(g))
            turn[after] = np.where(unresolved, step, 0.0)
            _cut_wide_groups(g, start, turn, resolution)
        wrap = not start[0]
        start[0] = True
        w = np.add.reduceat(g, np.flatnonzero(start), axis=0)
        if len(w) > 1 and wrap:
            w[0] -= w[-1]
            w = w[:-1]
        if len(w) < 2:
            raise InputError("zonotope is degenerate (all generators parallel)")
        chain = np.empty((len(w) + 1, 2))
        chain[0] = -np.sum(w, axis=0)
        np.cumsum(2.0 * w, axis=0, out=chain[1:])
        chain[1:] += chain[0]
        ring = np.vstack([chain[:-1], -chain[:-1]])
        edges = cyclic_next(ring) - ring
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= 0.0) \
                or np.any(cross_2d(edges, cyclic_next(edges)) <= 0.0):
            raise NumericalError("zonotope ring has a zero-length edge or edge angles "
                                 "that do not strictly increase")
        return FacetPolytope(ring)

    def radial(self, u) -> float:
        if self.dim == 2:
            return self._polygon.radial(u)
        raise InputError("radial evaluation is only materialized for planar zonotopes")

    def volume(self) -> float:
        g = self.generators
        n = self.dim
        total = 0.0
        for comb in itertools.combinations(range(len(g)), n):
            total += abs(float(np.linalg.det(g[list(comb)])))
        return (2.0 ** n) * total

    def max_norm(self) -> float:
        if self.dim == 2:
            return self._polygon.max_norm()
        if len(self.generators) > 20:
            raise InputError("vertex enumeration is capped at 20 generators")
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=len(self.generators) - 1):
            v = self.generators[0] + np.asarray(signs) @ self.generators[1:]
            best = max(best, float(np.linalg.norm(v)))
        return best

    def bounding_box(self):
        half = np.abs(self.generators).sum(axis=0)
        return -half, half


def _cut_wide_groups(g: np.ndarray, start: np.ndarray, turn: np.ndarray,
                     resolution: float) -> None:
    """Cut zonotope generator groups, in place in start, until every ring
    vertex dropped by a rounding-level link lies within resolution of the
    chord of its group.

    g holds the generators in angle order over a half turn and start
    marks the first generator of each group.  turn[j] > 0 is the angle
    step to generator j from the one before it (index 0: across the seam)
    where the two joined only because the ring vertex between them is
    within resolution of their chord.  These links are tested pair by
    pair, so they chain: a generator just longer than resolution can
    bridge two that are far from parallel.  Each round cuts every group
    once, among its linked vertices farther than resolution from the
    chord at the one of largest turn (the first of equal ones).  On a
    convex chain a vertex within resolution of a chord stays within it of
    every sub-chord, so no cut undoes a vertex that passed.  Links of
    parallel generators are never cut.
    """
    n = len(g)
    if not np.any(start):
        return
    while True:
        # read the groups from the first start on, the generators before
        # it reversed after the others, so that no group crosses the seam
        first = int(np.argmax(start))
        order = np.roll(np.arange(n), -first)
        seq = g[order]
        seq[n - first:] *= -1.0
        heads = np.flatnonzero(start[order])
        group = np.cumsum(start[order]) - 1
        end = np.cumsum(seq, axis=0)
        base = np.zeros((len(heads), 2))
        base[1:] = end[heads[1:] - 1]
        chord = np.add.reduceat(seq, heads, axis=0)[group]
        # the ring vertex before each generator, from its group's first one
        vertex = np.zeros((n, 2))
        vertex[1:] = end[:-1] - base[group[1:]]
        offset = np.abs(cross_2d(vertex, chord)) / np.hypot(chord[:, 0], chord[:, 1])
        score = np.where(offset > resolution, turn[order], 0.0)
        cut = np.flatnonzero((score > 0.0)
                             & (score == np.maximum.reduceat(score, heads)[group]))
        if len(cut) == 0:
            return
        cut = cut[np.diff(group[cut], prepend=-1) != 0]
        start[order[cut]] = True


class PolarWrapper:
    """Lazy polar of a convex body with the origin interior.  Radial
    evaluation is exact through support duality; planar wrappers can
    also materialize vertices."""

    def __init__(self, body):
        if isinstance(body, PolarWrapper):
            raise InputError("polar wrappers do not nest; unwrap to the inner body")
        self.body = body

    @property
    def dim(self) -> int:
        return self.body.dim

    def __repr__(self):
        return f"PolarWrapper({self.body!r})"

    def radial(self, u) -> float:
        h = self.body.support(u)
        if h <= 0.0:
            raise InputError("polar radial undefined: support is nonpositive")
        return float(np.linalg.norm(u)) / h

    def support(self, z) -> float:
        if self.dim == 2:
            return self._materialized.support(z)
        raise InputError("support of a 3D polar wrapper is not materialized")

    @cached_property
    def _materialized(self) -> FacetPolytope:
        return polar_polygon(self.body)

    def max_norm(self) -> float:
        if self.dim == 2:
            return self._materialized.max_norm()
        raise InputError("max norm of a 3D polar wrapper is not materialized")

    def bounding_box(self):
        if self.dim == 2:
            return self._materialized.bounding_box()
        raise InputError("bounding box of a 3D polar wrapper is not materialized")


ConvexBody = Ball | FacetPolytope | Zonotope | PolarWrapper


def support(K: ConvexBody, z) -> float:
    """Support function h_K(z) = sup over x in K of x.z."""
    return K.support(z)


def radial(K: ConvexBody, u) -> float:
    """Radial function: the largest t with t*u in K.  Exact through
    facet data or support duality; requires the origin interior."""
    return K.radial(u)


def planar_polygon(K: ConvexBody) -> FacetPolytope:
    """The vertex form of a planar convex body: a FacetPolytope itself, a
    zonotope's merged ring, or a polar wrapper's materialized polar."""
    if isinstance(K, FacetPolytope):
        return K
    if isinstance(K, Zonotope) and K.dim == 2:
        return K._polygon
    if isinstance(K, PolarWrapper) and K.dim == 2:
        return K._materialized
    raise InputError(f"{type(K).__name__} has no planar vertex form")


def polar_polygon(K: ConvexBody) -> FacetPolytope:
    """Materialized polar of a planar body with the origin interior:
    each facet with outer normal nu and offset h contributes the polar
    vertex nu/h, in matching CCW order."""
    if isinstance(K, Ball):
        raise InputError("the polar of a ball is a ball; use polar_body")
    normals, offsets = planar_polygon(K)._facets
    if np.min(offsets) <= 0.0:
        raise InputError("polar polygon needs the origin interior to the body")
    if isinstance(K, Zonotope):
        # Zonotope._polygon checked that the ring has no zero-length edge,
        # so no three consecutive polar vertices are collinear
        return FacetPolytope(normals / offsets[:, None])
    return FacetPolytope.from_vertices(normals / offsets[:, None])


def polar_body(K: ConvexBody) -> ConvexBody:
    """The polar of K in whichever form is exact: balls invert, planar
    bodies materialize, 3D bodies wrap lazily, wrappers unwrap."""
    if isinstance(K, PolarWrapper):
        return K.body
    if isinstance(K, Ball):
        return Ball(1.0 / K.radius, dim=K.dim)
    if K.dim == 2:
        return polar_polygon(K)
    return PolarWrapper(K)


def body_volume(K: ConvexBody) -> float:
    if isinstance(K, Ball):
        return K.volume()
    if isinstance(K, PolarWrapper):
        return polar_volume(K.body).value
    if isinstance(K, (FacetPolytope, Zonotope)):
        if K.dim == 2 and isinstance(K, Zonotope):
            return K._polygon.volume()
        return K.volume()
    raise InputError(f"no volume rule for {type(K).__name__}")


@dataclass(frozen=True)
class PolarVolume:
    """Volume of the polar body together with a quadrature error
    estimate; the estimate is zero on exact routes."""

    value: float
    error: float


def polar_volume(K: ConvexBody, grid: SphericalGrid | None = None,
                 method: str = "auto") -> PolarVolume:
    """Volume of the polar of K.

    Planar bodies and axis-aligned box zonotopes are exact; other 3D
    bodies integrate the reciprocal support cubed over a spherical grid,
    with the difference against a half-resolution grid reported as the
    error estimate.  method='quadrature' forces the quadrature route on
    bodies that would otherwise take a closed form (used to validate the
    grids).
    """
    if method not in ("auto", "quadrature"):
        raise InputError(f"unknown polar volume method {method!r}")
    if method == "auto":
        if isinstance(K, Ball):
            return PolarVolume(_BALL_VOLUME[K.dim] / K.radius ** K.dim, 0.0)
        if isinstance(K, PolarWrapper):
            # polar of the polar: the body itself
            return PolarVolume(body_volume(K.body), 0.0)
        if K.dim == 2:
            return PolarVolume(polar_polygon(K).volume(), 0.0)
        if isinstance(K, Zonotope):
            half = K.axis_box_halfwidths()
            if half is not None:
                n = K.dim
                return PolarVolume(2.0 ** n / (math.factorial(n) * float(np.prod(half))), 0.0)
    if not isinstance(K, (Ball, FacetPolytope, Zonotope)):
        raise InputError(f"no quadrature route for {type(K).__name__}")
    n = K.dim
    g = grid if grid is not None else default_grid(n)

    def reciprocal(nodes: np.ndarray) -> np.ndarray:
        vals = K.support_batch(nodes)
        if np.min(vals) <= 0.0:
            raise InputError("support is nonpositive on the grid; origin not interior")
        return vals ** (-float(n))

    value = integrate_sphere(g, reciprocal) / n
    # two-level telescoped estimate: convergence under grid refinement is
    # not sign-monotone for kinked supports, so a single half-grid
    # difference can undershoot the true error
    if n == 3:
        rows = max(2, int(round(math.sqrt(g.size / 2))))
        levels = [sphere_grid(max(2, rows // 2), 2 * max(2, rows // 2)),
                  sphere_grid(max(2, rows // 4), 2 * max(2, rows // 4))]
    else:
        levels = [circle_grid(max(8, g.size // 2)),
                  circle_grid(max(8, g.size // 4))]
    v1 = integrate_sphere(levels[0], reciprocal) / n
    v2 = integrate_sphere(levels[1], reciprocal) / n
    return PolarVolume(value, abs(value - v1) + abs(v1 - v2))


def steiner_symmetrize_convex(K: ConvexBody, u):
    """Exact Steiner symmetral of a planar convex body about the line
    through the origin orthogonal to u: every chord parallel to u is
    recentered.  The vertex ring comes from the same section-length
    kernel as polygon symmetrals (geometry.steiner_ring), so area is kept
    to rounding and convexity is kept.  Centered balls are fixed points
    and come back unchanged."""
    if isinstance(K, Ball):
        return K
    return FacetPolytope(steiner_ring(planar_polygon(K).vertices, u))


@dataclass(frozen=True)
class InclusionCheck:
    """Outcome of the sampled polar-symmetral inclusion criterion."""

    holds: bool
    witness: tuple | None
    checked: int
    skipped: int


def _convex_min(f, lo: float, hi: float, iters: int = 120):
    for _ in range(iters):
        d = (hi - lo) / 3.0
        m1, m2 = lo + d, hi - d
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def _bisect_level(f, inside: float, outside: float):
    """Root of f = 1 between a point with f <= 1 and one with f > 1."""
    lo, hi = inside, outside
    x = 0.5 * (lo + hi)
    for _ in range(MAX_BISECTIONS):
        x = 0.5 * (lo + hi)
        v = f(x)
        if abs(v - 1.0) <= RESIDUAL_TOL:
            return x
        if v <= 1.0:
            lo = x
        else:
            hi = x
    return x


def symmetral_inclusion_criterion(K: ConvexBody, L: ConvexBody,
                                  samples: int = 64, seed: int = 0,
                                  tol: float = 1e-9) -> InclusionCheck:
    """Sampled test of whether the Steiner symmetral (about the last
    coordinate axis) of the polar of K fits inside the polar of L.

    For a random base point x', the vertical line through x' meets the
    polar of K where the support of K along it is at most 1, say between
    heights -s and t.  The symmetral's section there reaches heights
    +-(t+s)/2, so the inclusion requires the support of L at both of
    those endpoints to stay at most 1.  Lines missing the polar of K, or
    touching it in a single point, carry no constraint and are skipped
    (and counted).  Returns the first witness on failure.
    """
    if K.dim != L.dim:
        raise InputError("bodies must share a dimension")
    n = K.dim
    rng = np.random.default_rng(seed)
    grid = default_grid(n)
    min_h = min(K.support(u) for u in grid.nodes[:: max(1, grid.size // 512)])
    if min_h <= 0.0:
        raise InputError("origin is not interior to the first body")
    reach = 1.0 / min_h
    checked = 0
    skipped = 0
    for _ in range(samples):
        xp = rng.uniform(-reach, reach, size=n - 1)

        def height_support(t: float) -> float:
            return K.support(np.append(xp, t))

        t_min, g_min = _convex_min(height_support, -2.0 * reach, 2.0 * reach)
        if g_min > 1.0 - 1e-12:
            skipped += 1
            continue
        hi = max(abs(t_min), 1.0)
        for _ in range(60):
            if height_support(t_min + hi) > 1.0:
                break
            hi *= 2.0
        else:
            skipped += 1
            continue
        t = _bisect_level(height_support, t_min, t_min + hi)
        lo = max(abs(t_min), 1.0)
        for _ in range(60):
            if height_support(t_min - lo) > 1.0:
                break
            lo *= 2.0
        else:
            skipped += 1
            continue
        neg = _bisect_level(height_support, t_min, t_min - lo)
        s = -neg
        if t + s <= 1e-12:
            skipped += 1
            continue
        mid = 0.5 * (t + s)
        value = max(L.support(np.append(xp, mid)),
                    L.support(np.append(xp, -mid)))
        checked += 1
        if value > 1.0 + tol:
            return InclusionCheck(False, (tuple(xp), t, s, value), checked, skipped)
    return InclusionCheck(True, None, checked, skipped)
