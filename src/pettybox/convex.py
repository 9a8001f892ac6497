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
from .geometry import (SphericalGrid, circle_grid, cross_2d, default_grid,
                       distance_to_polygon, integrate_sphere, prune_collinear,
                       shoelace_area, sphere_grid, steiner_ring)

SUPPORT_CONSISTENCY_TOL = 1e-10
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

    @property
    def ball_radius(self) -> float:
        return self.radius

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
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        if np.min(lengths) <= 0.0:
            raise InputError("polytope has a zero-length edge")
        turns = cross_2d(edges, np.roll(edges, -1, axis=0))
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
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        offsets = np.sum(v * normals, axis=1)
        check = np.sum(np.roll(v, -1, axis=0) * normals, axis=1)
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

    def radial(self, u) -> float:
        normals, offsets = self._facets
        if np.min(offsets) <= 0.0:
            raise InputError("radial function needs the origin interior to the body")
        u = np.asarray(u, dtype=float)
        dots = normals @ u
        pos = dots > 0.0
        if not np.any(pos):
            raise InputError("direction sees no facet; body is unbounded or degenerate")
        return float(np.min(offsets[pos] / dots[pos]))

    def volume(self) -> float:
        return shoelace_area(self.vertices)

    def polygon_vertices(self) -> np.ndarray:
        return self.vertices

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_points(self, step: float) -> np.ndarray:
        if step <= 0.0:
            raise InputError("boundary sampling step must be positive")
        v = self.vertices
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        chunks = []
        for i in range(len(v)):
            k = max(1, int(math.ceil(lengths[i] / step)))
            t = np.arange(k) / k
            chunks.append(v[i] + t[:, None] * edges[i])
        return np.vstack(chunks)

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
        return np.sum(np.abs(np.asarray(nodes, dtype=float) @ self.generators.T), axis=1)

    def axis_box_halfwidths(self) -> np.ndarray | None:
        """Half-widths when every generator is axis-aligned, else None."""
        g = self.generators
        nonzero = g != 0.0
        if np.any(np.sum(nonzero, axis=1) != 1):
            return None
        return np.abs(g).sum(axis=0)

    @cached_property
    def _polygon(self) -> FacetPolytope:
        if self.dim != 2:
            raise InputError("only planar zonotopes materialize to polygons")
        g = self.generators.copy()
        flip = (g[:, 1] < 0.0) | ((g[:, 1] == 0.0) & (g[:, 0] < 0.0))
        g[flip] *= -1.0
        angles = np.arctan2(g[:, 1], g[:, 0])
        order = np.argsort(angles, kind="stable")
        g = g[order]
        angles = angles[order]
        merged = [g[0].copy()]
        for i in range(1, len(g)):
            if angles[i] - angles[i - 1] <= 1e-12:
                merged[-1] += g[i]
            else:
                merged.append(g[i].copy())
        w = np.asarray(merged)
        if len(w) < 2:
            raise InputError("zonotope is degenerate (all generators parallel)")
        chain = np.empty((len(w) + 1, 2))
        chain[0] = -np.sum(w, axis=0)
        np.cumsum(2.0 * w, axis=0, out=chain[1:])
        chain[1:] += chain[0]
        ring = np.vstack([chain[:-1], -chain[:-1]])
        return FacetPolytope.from_vertices(ring)

    def polygon_vertices(self) -> np.ndarray:
        return self._polygon.vertices

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

    def boundary_points(self, step: float) -> np.ndarray:
        if self.dim != 2:
            raise InputError("boundary sampling is only materialized for planar zonotopes")
        return self._polygon.boundary_points(step)

    def solid_distance(self, points) -> np.ndarray:
        if self.dim != 2:
            raise InputError("solid distance is only materialized for planar zonotopes")
        return self._polygon.solid_distance(points)


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

    def polygon_vertices(self) -> np.ndarray:
        return self._materialized.vertices

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


def _planar_vertices(K: ConvexBody) -> np.ndarray:
    fn = getattr(K, "polygon_vertices", None)
    if fn is None or K.dim != 2:
        raise InputError(f"{type(K).__name__} has no planar vertex form")
    return np.asarray(fn(), dtype=float)


def polar_polygon(K: ConvexBody) -> FacetPolytope:
    """Materialized polar of a planar body with the origin interior:
    each facet with outer normal nu and offset h contributes the polar
    vertex nu/h, in matching CCW order."""
    if isinstance(K, Ball):
        raise InputError("the polar of a ball is a ball; use polar_body")
    if isinstance(K, FacetPolytope):
        poly = K
    elif isinstance(K, Zonotope) and K.dim == 2:
        poly = K._polygon  # already pruned
    else:
        poly = FacetPolytope.from_vertices(_planar_vertices(K))
    normals, offsets = poly._facets
    if np.min(offsets) <= 0.0:
        raise InputError("polar polygon needs the origin interior to the body")
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
    if not hasattr(K, "support_batch"):
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
    return FacetPolytope(steiner_ring(_planar_vertices(K), u))


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
