"""Convex bodies and polarity.

Four body kinds cover what the toolkit builds: planar facet polytopes,
origin-symmetric zonotopes in dimension 2 or 3, planar origin-centered
balls, which the driver measures its iterates against, and a lazy polar
wrapper for a three-dimensional zonotope, whose polar has no materialized
form.  The zonotope is the one body with a support kernel: one blocked sum
of |u . g| over its generators in either dimension (Zonotope.support_batch).
Planar polars are materialized exactly by polar_polygon.  A planar
polar area is one closed form over generators sorted over a half turn
(_sorted_polar_area after the one sort, _sort_half_turn).  It serves a
polygon's product, which takes the generators from the polygon's edges
and builds no zonotope (projection.petty_product), and a planar zonotope
(Zonotope._polar_area, after its ring has ruled out a degenerate one).
Axis-aligned boxes take the cross-polytope closed form in either
dimension.  Three-dimensional polar volumes of zonotopes other than
boxes fall back to spherical quadrature of the reciprocal support
function with a reported error estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .geometry import (BLOCK_PAIRS, SphericalGrid, VertexRing, cross_2d,
                       cyclic_next, default_grid, integrate_sphere,
                       prune_collinear, steiner_ring)

SUPPORT_CONSISTENCY_TOL = 1e-10
# angle step (radians) up to which zonotope generators count as parallel
PARALLEL_TOL = 1e-12
# turn of a zonotope ring, relative to its size, below which rounding in
# the ring's coordinates cannot resolve it (64 units of roundoff)
RING_RESOLUTION = 64.0 * np.finfo(float).eps


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


class FacetPolytope(VertexRing):
    """Planar convex polytope: CCW vertices with derived outer normals
    and support offsets, consistent within 1e-10 by construction.  The
    turns cross(e_j, e_(j+1)) of consecutive edges, which the convexity
    check reads, are kept read-only as ``turns``."""

    def __init__(self, vertices):
        super().__init__(vertices, "facet polytope")
        turns = cross_2d(self.edges, cyclic_next(self.edges))
        scale = float(np.max(np.abs(turns))) or 1.0
        if np.min(turns) < -1e-9 * scale:
            raise InputError("vertices are not in convex CCW position")
        turns.setflags(write=False)
        self.turns = turns

    @classmethod
    def from_vertices(cls, vertices) -> "FacetPolytope":
        return cls(prune_collinear(np.asarray(vertices, dtype=float)))

    def __repr__(self):
        return f"FacetPolytope({len(self.vertices)} facets)"

    @cached_property
    def offsets(self) -> np.ndarray:
        v = self.vertices
        normals = self.normals
        offsets = np.sum(v * normals, axis=1)
        check = np.sum(cyclic_next(v) * normals, axis=1)
        if np.max(np.abs(check - offsets)) > SUPPORT_CONSISTENCY_TOL * (1.0 + np.max(np.abs(offsets))):
            raise NumericalError("facet offsets inconsistent with vertices")
        return offsets


class Zonotope:
    """Origin-symmetric zonotope: the Minkowski sum of segments
    [-g, g] over the generator list, with support sum |z.g|."""

    def __init__(self, generators):
        g = np.atleast_2d(np.array(generators, dtype=float))
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

    def support_batch(self, nodes: np.ndarray) -> np.ndarray:
        """Support sum |u . g| at each row of an (n, dim) stack of
        directions, generator-major in blocks of BLOCK_PAIRS // k nodes
        (at least one) for k generators: each block's (k, rows) products
        take about 8 * BLOCK_PAIRS bytes and are summed over the
        generators into one preallocated output.  The sum adds whole rows
        in generator order, which is the order of numpy's row sum over
        fewer than 8 terms.  So on a box zonotope with k < 8, whose
        products u . g are exact, every value equals
        sum(abs(nodes @ g.T), axis=1) bit for bit; otherwise the two may
        differ by rounding in the last digits."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise InputError(f"directions must be an (n,{self.dim}) stack, "
                             f"got shape {nodes.shape}")
        g = self.generators
        out = np.empty(len(nodes))
        rows = max(1, BLOCK_PAIRS // len(g))
        for s in range(0, len(nodes), rows):
            np.abs(g @ nodes[s:s + rows].T).sum(axis=0, out=out[s:s + rows])
        return out

    @cached_property
    def _half_turn(self):
        """The planar generators sorted over a half turn (_sort_half_turn)."""
        return _sort_half_turn(self.generators)

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
        with its neighbours and nothing is pruned.  Every caller checks
        that the zonotope is planar."""
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
        step, parallel, unresolved = _links(g[big], angles[big], resolution)
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
        P = FacetPolytope(np.vstack([chain[:-1], -chain[:-1]]))
        if np.min(P.turns) <= 0.0:
            raise NumericalError("zonotope ring has edge angles that do not strictly increase")
        return P

    def _polar_area(self) -> float:
        """Area of the polar of a planar zonotope from its generators
        sorted over a half turn (_sorted_polar_area).  The ring is built
        first: its groups tell a polygon from a segment, and it raises
        InputError on a degenerate zonotope."""
        self._polygon
        return _sorted_polar_area(self._half_turn[0])

    def volume(self) -> float:
        """Planar: 4 times the sum of cross(g_1 + ... + g_(j-1), g_j) over
        the generators sorted over a half turn, each cross product the
        nonnegative area spanned by two of them.  3D: 8 times the sum of
        |det| over the generator triples."""
        if self.dim == 2:
            g = self._half_turn[0]
            passed = np.zeros_like(g)
            np.cumsum(g[:-1], axis=0, out=passed[1:])
            return 4.0 * float(np.sum(cross_2d(passed, g)))
        g = self.generators
        total = 0.0
        for comb in itertools.combinations(range(len(g)), 3):
            total += abs(float(np.linalg.det(g[list(comb)])))
        return 8.0 * total


def _sort_half_turn(generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar generators turned into the upper half-plane (g and -g span
    the same segment) and sorted by angle, with their angles in [0, pi]."""
    x, y = generators[:, 0], generators[:, 1]
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    g = np.where(flip[:, None], -generators, generators)
    angles = np.arctan2(g[:, 1], g[:, 0])
    order = np.argsort(angles, kind="stable")
    return g[order], angles[order]


def _sorted_polar_area(g: np.ndarray) -> float:
    """Area of the polar of the planar zonotope with generators g sorted
    over a half turn (_sort_half_turn), from the generators alone.

    The zonotope's ring has the edge 2 g_j with midpoint
    S_j = 2 (g_1 + ... + g_(j-1)) + g_j - (g_1 + ... + g_k), from prefix
    sums, so that edge's support is H_j / |g_j| with
    H_j = |cross(S_j, g_j)|.  The polar's vertices are +-nu_j |g_j| / H_j,
    nu_j the edge's outer normal, in the ring's order, and by symmetry
    half their shoelace sum is the area: the sum over j of
    (cross(g_j, g_(j+1)) / H_j) / H_(j+1), with -g_1 after g_k.  The
    lengths |g_j| cancel, so no unit vector is formed.  Parallel
    generators repeat a vertex and add 0, so nothing merges.  Dividing
    by H_j and then by H_(j+1) keeps an axis box exact: each of its
    terms is (ab / ab) / ab = 1 / ab.  Raises NumericalError when some
    H_j is not positive, nan included: the origin is then not interior
    as far as rounding can tell.
    """
    ahead = cyclic_next(g)
    ahead[-1] *= -1.0
    passed = np.cumsum(g, axis=0)
    support = np.abs(cross_2d(2.0 * passed - g - passed[-1], g))
    if not np.min(support) > 0.0:
        raise NumericalError("zonotope has an edge of nonpositive support; "
                             "the origin is not interior to rounding")
    return float(np.sum(cross_2d(g, ahead) / support / cyclic_next(support)))


def _links(g: np.ndarray, angles: np.ndarray, resolution: float):
    """The ring links of planar zonotope generators g sorted by their
    angles over a half turn: each generator and the next, the last with
    the first reversed across the seam.  Returns each link's angle step,
    whether the two are parallel (a step of at most PARALLEL_TOL) and
    whether the ring vertex between them lies within resolution of the
    chord through its neighbours, a turn rounding cannot resolve."""
    ahead = cyclic_next(g)
    ahead[-1] *= -1.0
    step = cyclic_next(angles) - angles
    step[-1] = angles[0] - math.atan2(-g[-1, 1], -g[-1, 0])
    chord = np.hypot(g[:, 0] + ahead[:, 0], g[:, 1] + ahead[:, 1])
    parallel = step <= PARALLEL_TOL
    unresolved = ~parallel & (cross_2d(g, ahead) <= resolution * chord)
    return step, parallel, unresolved


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
    """Lazy polar of a 3D zonotope.  The polar of a planar body is
    materialized exactly by polar_polygon instead."""

    dim = 3

    def __init__(self, body):
        if not (isinstance(body, Zonotope) and body.dim == 3):
            raise InputError(f"polar wrappers hold 3D zonotopes, not {body!r}; a planar "
                             f"polar is exact as polar_polygon or polar_body")
        self.body = body

    def __repr__(self):
        return f"PolarWrapper({self.body!r})"


ConvexBody = Ball | FacetPolytope | Zonotope | PolarWrapper


def planar_polygon(K: ConvexBody) -> FacetPolytope:
    """The vertex form of a planar convex body: a FacetPolytope itself or
    a zonotope's merged ring."""
    if isinstance(K, FacetPolytope):
        return K
    if isinstance(K, Zonotope) and K.dim == 2:
        return K._polygon
    raise InputError(f"{type(K).__name__} has no planar vertex form")


def polar_polygon(K: ConvexBody) -> FacetPolytope:
    """Materialized polar of a planar body with the origin interior:
    each facet with outer normal nu and offset h contributes the polar
    vertex nu/h, in matching CCW order."""
    P = planar_polygon(K)
    normals, offsets = P.normals, P.offsets
    if np.min(offsets) <= 0.0:
        raise InputError("polar polygon needs the origin interior to the body")
    if isinstance(K, Zonotope):
        # the zonotope ring has no zero-length edge (its constructor checks)
        # and no non-positive turn (Zonotope._polygon checks), so no three
        # consecutive polar vertices are collinear
        return FacetPolytope(normals / offsets[:, None])
    return FacetPolytope.from_vertices(normals / offsets[:, None])


def polar_body(K: ConvexBody) -> ConvexBody:
    """The polar of K in whichever form is exact: balls invert, planar
    bodies materialize, 3D zonotopes wrap lazily, wrappers unwrap."""
    if isinstance(K, PolarWrapper):
        return K.body
    if isinstance(K, Ball):
        return Ball(1.0 / K.radius, dim=K.dim)
    if isinstance(K, Zonotope) and K.dim == 3:
        return PolarWrapper(K)
    return polar_polygon(K)


@dataclass(frozen=True)
class PolarVolume:
    """Volume of the polar body together with a quadrature error
    estimate; the estimate is zero on exact routes."""

    value: float
    error: float


def polar_volume(K: ConvexBody, grid: SphericalGrid | None = None,
                 method: str = "auto") -> PolarVolume:
    """Volume of the polar of a zonotope K, or of the polar of a wrapper
    (the wrapped zonotope itself).

    Axis-aligned boxes in either dimension take the cross-polytope
    closed form 2^n / (n! * prod of half-widths); other planar zonotopes
    are exact (Zonotope._polar_area); other 3D zonotopes integrate the
    reciprocal support cubed over a spherical grid, with the differences
    against the grid's half- and quarter-resolution error levels reported
    as the error estimate.  method='quadrature' forces the quadrature
    route on zonotopes that would otherwise take a closed form (used to
    validate the grids).  A zonotope that is not full-dimensional has an
    unbounded polar and raises InputError ("degenerate"): a box with a
    zero half-width before its closed form, generators of rank below the
    dimension before quadrature, and a planar zonotope whose ring shows
    it.  Any other body or route raises InputError.
    """
    if method not in ("auto", "quadrature"):
        raise InputError(f"unknown polar volume method {method!r}")
    if method == "auto" and isinstance(K, PolarWrapper):
        # polar of the polar: the body itself
        return PolarVolume(K.body.volume(), 0.0)
    if not isinstance(K, Zonotope):
        raise InputError(f"no {method} route for {type(K).__name__}")
    n = K.dim
    if method == "auto":
        half = K.axis_box_halfwidths()
        if half is not None:
            if not np.min(half) > 0.0:
                raise InputError("zonotope is degenerate (a box of zero half-width)")
            # the cross-polytope with half-diagonals 1/a, 1/b (, 1/c)
            return PolarVolume(2.0 ** n / (math.factorial(n) * float(np.prod(half))), 0.0)
        if n == 2:
            return PolarVolume(K._polar_area(), 0.0)
    if np.linalg.matrix_rank(K.generators) < n:
        raise InputError(f"zonotope is degenerate (generators of rank below {n})")
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
    half_grid, quarter_grid = g.error_levels
    v1 = integrate_sphere(half_grid, reciprocal) / n
    v2 = integrate_sphere(quarter_grid, reciprocal) / n
    return PolarVolume(value, abs(value - v1) + abs(v1 - v2))


def steiner_symmetrize_convex(K: ConvexBody, u):
    """Exact Steiner symmetral of a planar convex body about the line
    through the origin orthogonal to u: every chord parallel to u is
    recentered.  The vertex ring comes from the same section-length
    kernel as polygon symmetrals (geometry.steiner_ring), so area is kept
    to rounding and convexity is kept."""
    return FacetPolytope(steiner_ring(planar_polygon(K).vertices, u))
