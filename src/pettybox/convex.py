"""Convex bodies and polarity.

Two body kinds cover what the toolkit builds: origin-symmetric
zonotopes in dimension 2 or 3, and origin-centered disks (Ball), which
the driver measures its iterates against.  The zonotope is the one body
with a support kernel: one blocked sum of |u . g| over its generators in
either dimension (Zonotope.support_batch).

A planar zonotope's polar has one kernel over its generators sorted over
a half turn: the supports H_j of its ring's edges (_edge_supports), then
the polar's vertex ring (polar_polygon) or its area (_sorted_polar_area),
which a polygon's product also reads off the polygon's edges.  No ring of
the zonotope itself is built.  On a body of width h the relative error
of both grows like eps * scale / h, with no bound.  Axis-aligned boxes
take the cross-polytope closed form in either dimension; other 3D
zonotopes take spherical quadrature of the reciprocal support function
with a reported error estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .geometry import (BLOCK_PAIRS, SphericalGrid, cross_2d, cyclic_next,
                       default_grid, integrate_sphere)


@dataclass(frozen=True)
class Ball:
    """Origin-centered disk, the ball the driver measures iterates against."""

    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise InputError(f"ball radius must be positive, got {self.radius!r}")


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

    def volume(self) -> float:
        """Planar: 4 times the sum of cross(g_1 + ... + g_(j-1), g_j) over
        the generators sorted over a half turn, each cross product the
        nonnegative area spanned by two of them.  3D: 8 times the sum of
        |det| over the generator triples.  Only polar_volume's wrapper
        route reads it, and it stays with PolarWrapper."""
        if self.dim == 2:
            g = self._half_turn
            passed = np.zeros_like(g)
            np.cumsum(g[:-1], axis=0, out=passed[1:])
            return 4.0 * float(np.sum(cross_2d(passed, g)))
        g = self.generators
        total = 0.0
        for comb in itertools.combinations(range(len(g)), 3):
            total += abs(float(np.linalg.det(g[list(comb)])))
        return 8.0 * total


def _sort_half_turn(generators: np.ndarray) -> np.ndarray:
    """Planar generators turned into the upper half-plane (g and -g span
    the same segment) and sorted by their angles in [0, pi]."""
    x, y = generators[:, 0], generators[:, 1]
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    g = np.where(flip[:, None], -generators, generators)
    return g[np.argsort(np.arctan2(g[:, 1], g[:, 0]), kind="stable")]


def _spanning_half_turn(K: Zonotope) -> np.ndarray:
    """The planar zonotope K's generators sorted over a half turn.  All
    exactly parallel (every cross product with the first zero), they span
    a segment, whose polar is unbounded, and raise InputError: rounding
    in the prefix sums can leave the edge supports positive."""
    g = K._half_turn
    if not np.any(cross_2d(g, g[0])):
        raise InputError("zonotope is degenerate (all generators parallel)")
    return g


def _edge_supports(g: np.ndarray) -> np.ndarray:
    """H_j = |cross(S_j, g_j)| for the planar generators g sorted over a
    half turn (_sort_half_turn), S_j = 2 (g_1 + ... + g_(j-1)) + g_j -
    (g_1 + ... + g_k) the midpoint of the zonotope ring's edge 2 g_j, from
    prefix sums: that edge's support is H_j / |g_j|.  Raises
    NumericalError when some H_j is not positive, nan included: the origin
    is then not interior as far as rounding can tell."""
    passed = np.cumsum(g, axis=0)
    support = np.abs(cross_2d(2.0 * passed - g - passed[-1], g))
    if not np.min(support) > 0.0:
        raise NumericalError("zonotope has an edge of nonpositive support; "
                             "the origin is not interior to rounding")
    return support


def _sorted_polar_area(g: np.ndarray) -> float:
    """Area of the polar of the planar zonotope with generators g sorted
    over a half turn (_sort_half_turn), from the generators alone.

    The polar's vertices are +-J g_j / H_j (polar_polygon), and by
    symmetry half their shoelace sum is the area: the sum over j of
    (cross(g_j, g_(j+1)) / H_j) / H_(j+1), with -g_1 after g_k.  No unit
    vector is formed.  Parallel generators repeat a vertex and add 0, so
    nothing merges.  Dividing by H_j and then by H_(j+1) keeps an axis box
    exact: each of its terms is (ab / ab) / ab = 1 / ab.  Raises
    NumericalError as _edge_supports does.
    """
    ahead = cyclic_next(g)
    ahead[-1] *= -1.0
    support = _edge_supports(g)
    return float(np.sum(cross_2d(g, ahead) / support / cyclic_next(support)))


class PolarWrapper:
    """Lazy polar of a 3D zonotope, whose polar volume is the zonotope's
    volume.  No package code builds one; it stays because the benchmark's
    tracer reads it.  A planar zonotope's polar is polar_polygon's ring."""

    def __init__(self, body):
        if not (isinstance(body, Zonotope) and body.dim == 3):
            raise InputError(f"polar wrappers hold 3D zonotopes, not {body!r}; a planar "
                             f"polar is exact as polar_polygon")
        self.body = body

    def __repr__(self):
        return f"PolarWrapper({self.body!r})"


def polar_polygon(K: Zonotope) -> np.ndarray:
    """The polar of a planar zonotope as its CCW vertex ring, a (2k, 2)
    array for k generators: J g_j / H_j over the sorted generators, J the
    quarter turn (x, y) -> (y, -x), then the negatives of those rows.  Row
    j is the pole of the ring edge 2 g_j, its outer normal over its
    support.  Parallel generators repeat a vertex up to rounding; nothing
    merges them.  Raises InputError for any other body and as
    _spanning_half_turn does, NumericalError as _edge_supports does."""
    if not (isinstance(K, Zonotope) and K.dim == 2):
        raise InputError(f"no planar polar ring for {K!r}; polar_polygon takes "
                         "a planar zonotope")
    g = _spanning_half_turn(K)
    half = np.column_stack([g[:, 1], -g[:, 0]]) / _edge_supports(g)[:, None]
    return np.vstack([half, -half])


@dataclass(frozen=True)
class PolarVolume:
    """Volume of the polar body together with a quadrature error
    estimate; the estimate is zero on exact routes."""

    value: float
    error: float


def polar_volume(K: Zonotope | PolarWrapper, grid: SphericalGrid | None = None,
                 method: str = "auto") -> PolarVolume:
    """Volume of the polar of a zonotope K, or of the polar of a wrapper
    (the wrapped zonotope itself).

    Axis-aligned boxes in either dimension take the cross-polytope
    closed form 2^n / (n! * prod of half-widths); other planar zonotopes
    take the closed form over their sorted generators (_sorted_polar_area,
    whose NumericalError passes on), with a relative error that grows
    like eps * scale / h on a body of width h and has no bound; other 3D
    zonotopes integrate the reciprocal support cubed over a spherical
    grid, with the differences against the grid's half- and
    quarter-resolution error levels reported as the error estimate.
    method='quadrature' forces the quadrature route on zonotopes that
    would otherwise take a closed form (used to validate the grids).  A
    zonotope that is not full-dimensional has an unbounded polar and
    raises InputError ("degenerate"): a box with a zero half-width before
    its closed form, planar generators that are all exactly parallel
    before theirs (_spanning_half_turn), and generators of rank below the
    dimension before quadrature.  Any other body or route raises
    InputError.
    """
    if method not in ("auto", "quadrature"):
        raise InputError(f"unknown polar volume method {method!r}")
    if method == "auto" and isinstance(K, PolarWrapper):
        # polar of the polar: the body itself; no package code takes this
        # route, which stays while the benchmark's tracer reads PolarWrapper
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
            return PolarVolume(_sorted_polar_area(_spanning_half_turn(K)), 0.0)
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
