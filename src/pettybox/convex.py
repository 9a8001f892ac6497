"""Convex bodies and polarity.

Two body kinds cover what the toolkit builds: origin-symmetric
zonotopes in dimension 2 or 3, and origin-centered disks (Ball), which
the driver measures its iterates against.  The zonotope is the one body
with a support kernel: one blocked sum of |u . g| over its generators in
either dimension (Zonotope.support_batch).

A planar zonotope's polar has one kernel over its generators sorted over
a half turn: the supports H_j of its ring's edges (_edge_supports), then
the polar's vertex ring (polar_polygon) or its area (_sorted_polar_area),
which a polygon's product reads off the polygon's edges.  No ring of the
zonotope itself is built.  On a body of width h the relative error of
both grows like eps * scale / h, with no bound.  Axis-aligned boxes take
the cross-polytope closed form in either dimension (polar_volume), which
an octant quadrature of a 3D box's reciprocal support cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .geometry import (BLOCK_PAIRS, cross_2d, cyclic_next, integrate_sphere,
                       octant_grid)

# The box quadrature's octant rules: (order, coarse order, largest aspect
# max h / min h).  On boxes h = (1, a^t, a), t in [0, 1], in the three
# axis orders the rule tells apart, each order's error stayed under 0.43
# of its rounding floor up to its aspect, so the estimate holds where the
# two orders happen to agree.  A fixed 24/16 pair misses 6x at (2.93, 100, 1).
OCTANT_RULES = ((24, 16, 2.5), (48, 32, 10.0), (128, 96, 100.0))


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
        if not np.all(np.any(g != 0.0, axis=1)):  # a tiny norm would underflow
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

    def axis_box_halfwidths(self) -> np.ndarray | None:
        """Half-widths when every generator is axis-aligned, else None."""
        g = self.generators
        nonzero = g != 0.0
        if np.any(np.sum(nonzero, axis=1) != 1):
            return None
        return np.abs(g).sum(axis=0)

    def volume(self) -> float:
        """Volume of a 3D zonotope: 8 times the sum of |det| over the
        generator triples.  Only polar_volume's wrapper route reads it,
        and it stays with PolarWrapper; a planar zonotope raises
        InputError (its polar's area is the shoelace area of
        polar_polygon)."""
        if self.dim != 3:
            raise InputError(f"no volume route for {self!r}")
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
    support.  Parallel generators repeat a vertex up to rounding, unmerged.
    Raises InputError for any other body, and for generators that are all
    exactly parallel: they span a segment, whose polar is unbounded, and
    rounding in the prefix sums can leave the edge supports positive.
    Raises NumericalError as _edge_supports does and on a subnormal H_j."""
    if not (isinstance(K, Zonotope) and K.dim == 2):
        raise InputError(f"no planar polar ring for {K!r}; polar_polygon takes "
                         "a planar zonotope")
    g = _sort_half_turn(K.generators)
    # exactly parallel when every cross product with the longest is zero;
    # scaled by one power of two to a largest entry in [0.5, 1), no scale
    # makes the products underflow or overflow
    size = np.max(np.abs(g), axis=1)
    longest = np.argmax(size)
    scaled = np.ldexp(g, -np.frexp(size[longest])[1])
    if not np.any(cross_2d(scaled, scaled[longest])):
        raise InputError("zonotope is degenerate (all generators parallel)")
    support = _edge_supports(g)
    if np.min(support) < np.finfo(float).tiny:
        raise NumericalError("zonotope edge supports are subnormal, out of float range")
    half = np.column_stack([g[:, 1], -g[:, 0]]) / support[:, None]
    return np.vstack([half, -half])


@dataclass(frozen=True)
class PolarVolume:
    """Volume of the polar body together with a quadrature error
    estimate; the estimate is zero on exact routes."""

    value: float
    error: float


def polar_volume(K: Zonotope | PolarWrapper, method: str = "auto") -> PolarVolume:
    """Volume of the polar of an axis-box zonotope K, or of the polar of
    a wrapper (the wrapped zonotope itself).

    Axis-aligned boxes in either dimension take the cross-polytope
    closed form 2^n / (n! * prod of half-widths); method='quadrature'
    takes a 3D axis box only (_box_quadrature).  A box with a zero
    half-width is not full-dimensional, has an unbounded polar and raises
    InputError ("degenerate").  Any other body or route raises
    InputError, a zonotope that is not a box included: a planar one's
    polar area is the shoelace area of polar_polygon(K).  A box whose
    half-widths' product underflows raises NumericalError.
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
    half = K.axis_box_halfwidths()
    if half is None or (method == "quadrature" and n != 3):
        raise InputError(f"no {method} route for {K!r}")
    if not np.min(half) > 0.0:
        raise InputError("zonotope is degenerate (a box of zero half-width)")
    if method == "quadrature":
        return _box_quadrature(K, half)
    if not np.prod(half) > 0.0:
        raise NumericalError("box half-widths are out of float range: product 0")
    # the cross-polytope with half-diagonals 1/a, 1/b (, 1/c)
    return PolarVolume(2.0 ** n / (math.factorial(n) * float(np.prod(half))), 0.0)


def _box_quadrature(K: Zonotope, half: np.ndarray) -> PolarVolume:
    """The integral of h_K^-3 / 3 over the sphere for the 3D axis box K,
    from K.support_batch, never the closed form, on the octant rules for
    its aspect.  The error is |Q_order - Q_coarse| plus a rounding floor:
    gamma_N of the value for the dot product's N terms, and (3 k + 16) u
    for each term's own rounding with k generators (node coordinates,
    support sum, cube, power, weight and division).  Raises
    NumericalError above the largest validated aspect or on a reciprocal
    support past float range."""
    aspect = float(np.max(half)) / float(np.min(half))
    rule = next((r for r in OCTANT_RULES if aspect <= r[2]), None)
    if rule is None:
        raise NumericalError(f"box aspect {aspect:.6g} is above {OCTANT_RULES[-1][2]:g}, "
                             f"the largest the quadrature's error estimate is validated for")
    # no support is 0: every node has some |u_i| > 1/2 against a positive
    # half-width; integrate_sphere raises on a reciprocal that overflows
    with np.errstate(over="ignore"):
        value, check = [integrate_sphere(octant_grid(order), lambda u: K.support_batch(u) ** -3.0)
                        / 3.0 for order in rule[:2]]
    u, terms = 2.0 ** -53, rule[0] ** 2  # unit roundoff, dot product length
    floor = (terms * u / (1.0 - terms * u) + (3 * len(K.generators) + 16) * u) * value
    return PolarVolume(value, abs(value - check) + floor)
