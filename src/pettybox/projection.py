"""Projection bodies, their polars, and the sharp product bound.

The surface measure of a polyhedral set is a finite list of weighted
normals, so its projection body is exactly the zonotope generated by the
half-weighted normals.  Each kind has one formula for those generators,
read off its boundary: a polygon's are its edges turned a quarter turn
and halved (_polygon_generators, exact in floats), and a box union's are
its measure's mass * normal / 2, which are axis-aligned.  The product,
the equivariance check and the inclusion check read the polygon's
generators; a Zonotope is built only where a support or the polar's
vertex ring (convex.polar_polygon) is needed.  The inclusion check
symmetrizes that ring with the polygon section kernel
(geometry.steiner_ring) and builds no polygon or ring object for it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .convex import (Zonotope, _sort_half_turn, _sorted_polar_area,
                     polar_polygon, polar_volume)
from .errors import ConditionViolationError, InputError, NumericalError
from .geometry import as_direction, as_plane_map, steiner_ring
from .sets import (BoxUnion, PolygonSet, steiner_symmetrize, surface_measure,
                   vertical_boundary_measure, volume)

INCLUSION_FACTOR_TOL = 1e-9
DETERMINANT_TOL = 1e-12
EPS = float(np.finfo(float).eps)

#: sharp product bound per dimension: ratio of consecutive unit-ball
#: volumes raised to the dimension; attained exactly by balls
PRODUCT_BOUND = {2: (math.pi / 2.0) ** 2, 3: (4.0 / 3.0) ** 3}


def _polygon_generators(P: PolygonSet) -> np.ndarray:
    """The projection body's generators J e_i / 2 for the polygon's edges
    e_i, J the quarter turn (x, y) -> (y, -x): mass_i * normal_i / 2 with
    the lengths cancelled, exact in floats."""
    e = P.edges
    return 0.5 * np.column_stack([e[:, 1], -e[:, 0]])


def projection_body(E) -> Zonotope:
    """A fresh zonotope whose support is half the first moment of
    |z . normal| against the surface measure of the set E.

    A polygon's generators are _polygon_generators.  A box union's are
    its measure's mass_i * normal_i / 2, axis-aligned, so the body is the
    box whose half-width on axis k is the exposed facet area of one sign
    class; axis_box_halfwidths() on the result recovers that closed form.
    Any other argument, a surface measure included, raises InputError.
    """
    if isinstance(E, PolygonSet):
        return Zonotope(_polygon_generators(E))
    if not isinstance(E, BoxUnion):
        raise InputError(f"no projection body for {type(E).__name__}; pass a set")
    mu = surface_measure(E)
    return Zonotope(0.5 * mu.masses[:, None] * mu.normals)


@dataclass(frozen=True)
class PettyReport:
    """Product-bound verdict for one set: the volume-power times
    polar-projection-volume product never exceeds the bound, with
    equality reserved for balls."""

    volume: float
    polar_projection_volume: float
    error_estimate: float
    product: float
    bound: float
    slack: float

    def to_json(self) -> dict:
        return asdict(self)


def petty_product(E) -> PettyReport:
    """Assemble the product report |E|^(n-1) * |polar projection body|
    against the sharp bound for E's dimension.

    A polygon's polar area is the closed form over its projection body's
    generators (_polygon_generators) sorted over a half turn
    (convex._sorted_polar_area), the kernel a planar zonotope's polar
    area runs too, with no surface measure and no zonotope built.  A box
    union's product goes through polar_volume of its projection body, an
    axis-aligned box, which takes the cross-polytope closed form.  The
    error estimate is zero: both routes are exact.  A product that is not
    positive and finite, on a set too large or too small for floats,
    raises NumericalError."""
    vol = volume(E)
    n = E.dim
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(E, PolygonSet):
            polar, error = _sorted_polar_area(_sort_half_turn(_polygon_generators(E))), 0.0
        else:
            pv = polar_volume(projection_body(E))
            polar, error = pv.value, pv.error
        # numpy's power overflows to inf where a float's raises OverflowError
        power = float(np.float64(vol) ** (n - 1))
    product = power * polar
    # a true product is positive and finite; inf, nan or an underflow to 0 shows here
    if not 0.0 < product < math.inf:
        raise NumericalError(f"product {product!r} is out of float range: volume power "
                             f"{power!r} times polar volume {polar!r}")
    bound = PRODUCT_BOUND[n]
    return PettyReport(
        volume=vol,
        polar_projection_volume=polar,
        error_estimate=power * error,
        product=product,
        bound=bound,
        slack=bound - product,
    )


def affine_image_check(P, matrix) -> float:
    """Equivariance of the projection body under volume-preserving
    linear maps: the projection body of A.P equals the inverse-transpose
    image of the projection body of P.

    Both bodies have one generator per edge of P, in P's vertex order
    (_polygon_generators, so no measure and no zonotope is built): g_i
    from the edges of A.P, and g'_i, the rows of P's generators times
    inv(A).  For det A = 1, J A = A^-T J with J the quarter turn, so
    g_i = g'_i in exact arithmetic.  For every unit u,
    |h_left(u) - h_right(u)| <= sum_i ||u . g_i| - |u . g'_i||
    <= sum_i |g_i - g'_i|, so that O(m) sum bounds the support difference
    of the two computed bodies in every direction, not only at samples.

    Returns the float sum raised by (k + 2) eps relative, for k
    generators.  The float differences, their norms and the sum lose at
    most about (k + 2) eps / 2 relative, so the figure also covers its own
    rounding: it is an absolute upper bound on the sup over unit u of
    |h_left - h_right| for the two computed bodies, barring underflow.
    Since 1 + |h| >= 1, it also bounds the relative figure
    |h_left - h_right| / (1 + |h_left|) of exact supports in any
    direction; a figure from float supports also holds their rounding.
    """
    if not isinstance(P, PolygonSet):
        raise InputError("the equivariance check runs on polygons")
    A = as_plane_map(matrix)
    det = float(np.linalg.det(A))
    if abs(det - 1.0) > DETERMINANT_TOL:
        raise InputError(f"matrix is not volume preserving: det = {det!r}")
    left = _polygon_generators(P.transform(A))
    right = _polygon_generators(P) @ np.linalg.inv(A)
    d = left - right
    return float(np.sum(np.hypot(d[:, 0], d[:, 1]))) * (1.0 + (len(d) + 2) * EPS)


def polar_steiner_inclusion_check(E, direction=(0.0, 1.0),
                                  factor_tol: float = INCLUSION_FACTOR_TOL,
                                  ) -> tuple[bool, float]:
    """Check that symmetrizing the polar projection body is dominated by
    symmetrizing the set: A = S_u(polar of Pi E) lies inside B = polar of
    Pi S_u E.  The exact worst multiplicative margin, the max over
    directions w of rho_A(w) / rho_B(w), must be at most 1 + tol.

    The gauge of B is the support of Pi S_u E, and rho_A(w) / rho_B(w) is
    that gauge at the boundary point rho_A(w) w of A.  A gauge is convex,
    so its maximum over each edge of A is at an end: the margin is the
    largest support of Pi S_u E over the vertices of A, and B itself is
    never built.  A's vertices are steiner_ring of polar_polygon(Pi E),
    whose repeated vertices add nothing.  On a set of width h the margin
    carries the polar ring's relative error, about eps * scale / h.

    Requires zero boundary mass orthogonal to the symmetrization
    direction, the same regularity hypothesis product monotonicity
    needs; violations raise with the offending mass attached.  A
    factor_tol that is not finite and nonnegative raises InputError.
    Returns (holds, margin).
    """
    u = as_direction(direction)
    if E.dim != 2 or u.shape != (2,):
        raise InputError("the inclusion check is a planar computation")
    # a nan tolerance would fail every verdict, and an infinite one pass it
    if not (np.isfinite(factor_tol) and factor_tol >= 0.0):
        raise InputError(f"factor tolerance must be finite and nonnegative, got {factor_tol!r}")
    mass = vertical_boundary_measure(E, u)
    if mass > 0.0:
        raise ConditionViolationError(
            f"boundary mass {mass:.17g} is orthogonal to the symmetrization "
            "direction; the inclusion hypothesis fails in this frame", mass)
    sym_of_polar = steiner_ring(polar_polygon(projection_body(E)), u)
    proj_of_sym = projection_body(steiner_symmetrize(E, u))
    margin = float(np.max(proj_of_sym.support_batch(sym_of_polar)))
    return margin <= 1.0 + factor_tol, margin
