"""Projection bodies and polars, the sharp product bound, affine
equivariance, and the polar-symmetral inclusion check."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pettybox import (BoxUnion, ConditionViolationError, InputError,
                      NumericalError, PolygonSet, Zonotope, affine_image_check,
                      petty_product, polar_body, polar_polygon,
                      polar_steiner_inclusion_check, polar_volume,
                      projection_body, steiner_symmetrize, surface_measure)
from pettybox.convex import _sorted_polar_area
from pettybox.corpus import (random_box_union, random_polygon, random_sl2,
                             regular_polygon)
from pettybox.geometry import circle_grid, rotation_2d, steiner_ring
from pettybox.projection import PRODUCT_BOUND

from reference_forms import (dense_support, exact_polar_product,
                             grid_inclusion_margin, measure_body, shoelace_area)

E2 = np.array([0.0, 1.0])
EPS = float(np.finfo(float).eps)


def unit_square():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def staircase():
    return BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])


def unit_cube():
    return BoxUnion([[0, 0, 0]], [[1, 1, 1]])


# ------------------------------------------------------------ projection body

def test_projection_body_of_square_is_centered_square():
    Z = projection_body(unit_square())
    assert np.allclose(Z.axis_box_halfwidths(), [1.0, 1.0])
    assert Z.support_batch(np.array([[1.0, 1.0]]))[0] == 2.0
    # the body is built from a set only: a surface measure is refused
    with pytest.raises(InputError, match="^no projection body for SurfaceMeasure"):
        projection_body(surface_measure(unit_square()))


def test_projection_body_of_staircase_is_box():
    Z = projection_body(staircase())
    assert np.allclose(Z.axis_box_halfwidths(), [3.0, 2.0])


def test_projection_body_of_cube():
    Z = projection_body(unit_cube())
    assert np.allclose(Z.axis_box_halfwidths(), [1.0, 1.0, 1.0])


@pytest.mark.parametrize("make", [unit_square, lambda: random_polygon(8), staircase,
                                  unit_cube, lambda: random_box_union(8, dim=3)],
                         ids=["square", "random-polygon", "staircase", "cube",
                              "random-boxes"])
def test_projection_body_is_kept_by_the_measure(make):
    # the set keeps one measure, and the body keeps to it: each call
    # builds a fresh zonotope from the set's own formula, whose generators
    # are the measure's mass_i * normal_i / 2 (reference_forms.measure_body),
    # bit for bit for a box union, whose normals are exact, and within
    # rounding of the unit normals for a polygon
    E = make()
    mu = surface_measure(E)
    Z = projection_body(E)
    again = projection_body(E)
    assert again is not Z and np.array_equal(again.generators, Z.generators)
    assert surface_measure(E) is mu
    fresh = measure_body(E).generators
    if isinstance(E, BoxUnion):
        assert np.array_equal(Z.generators, fresh)
    else:
        scale = np.abs(fresh).max(axis=1, keepdims=True)
        assert np.all(np.abs(Z.generators - fresh) <= 4.0 * EPS * scale)


def test_projection_body_of_inscribed_polygon_approaches_scaled_ball():
    # the projection body of a shape inscribed in the unit circle tends
    # to the ball of radius 2; the 64-gon is within 5e-3
    P = regular_polygon(64, phase=0.3)
    Z = projection_body(P)
    grid = circle_grid(4096)
    h = np.abs(grid.nodes @ Z.generators.T).sum(axis=1)
    dev = float(np.max(np.abs(h - 2.0)))
    assert dev <= 2.5e-3


def test_projection_body_shear_support_formula():
    # image of the unit square under the standard shear: the projection
    # body support becomes |z2| + |z1 - z2|
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    Z = projection_body(unit_square().transform(A))
    z = np.random.default_rng(5).normal(size=(50, 2))
    want = np.abs(z[:, 1]) + np.abs(z[:, 0] - z[:, 1])
    assert np.all(np.abs(Z.support_batch(z) - want) <= 1e-12 * (1.0 + want))


def test_polygon_body_product_and_affine_check_read_one_formula():
    # one generator formula per polygon, J e_i / 2: the body's generators
    # are the quarter-turned half edges bit for bit, the product's polar
    # area is the sorted kernel over exactly those generators, and the
    # identity map moves none of them
    identity = np.eye(2)
    for i in range(16):
        P = random_polygon(29, i)
        u = np.random.default_rng((29, i)).normal(size=2)
        for E in (P, steiner_symmetrize(P, u / np.linalg.norm(u)),
                  P.transform(random_sl2(30, i))):
            e = E.edges
            Z = projection_body(E)
            assert np.array_equal(Z.generators, np.column_stack([0.5 * e[:, 1], -0.5 * e[:, 0]]))
            assert petty_product(E).polar_projection_volume == _sorted_polar_area(Z._half_turn[0])
            assert affine_image_check(E, identity) == 0.0


# ------------------------------------------------------------- polar volumes

def test_polar_projection_volume_closed_forms():
    pv = polar_volume(projection_body(unit_square()))
    assert pv.error == 0.0
    assert abs(pv.value - 2.0) <= 1e-15
    pv = polar_volume(projection_body(unit_cube()))
    assert pv.error == 0.0
    assert abs(pv.value - 4.0 / 3.0) <= 1e-15
    pv = polar_volume(projection_body(staircase()))
    assert abs(pv.value - 1.0 / 3.0) <= 1e-15


def test_polar_projection_body_forms():
    # the square's four edges give two parallel pairs, so each vertex
    # of the polar diamond repeats
    ring = polar_polygon(projection_body(unit_square()))
    assert ring.shape == (8, 2)
    assert np.array_equal(ring[::2], ring[1::2])
    assert abs(shoelace_area(ring) - 2.0) <= 1e-15
    body3 = polar_body(projection_body(unit_cube()))
    assert body3.dim == 3
    # the wrapper's radial is the reciprocal support of the body it holds
    assert 1.0 / body3.body.support_batch(np.array([[1.0, 0.0, 0.0]]))[0] == 1.0


# ------------------------------------------------------------------- product

def test_petty_product_square_exact():
    r = petty_product(unit_square())
    assert abs(r.product - 2.0) <= 1e-12
    assert r.bound == PRODUCT_BOUND[2]
    assert abs(r.slack - (PRODUCT_BOUND[2] - 2.0)) <= 1e-12
    assert r.error_estimate == 0.0


def test_petty_product_cube_exact():
    r = petty_product(unit_cube())
    assert abs(r.product - 4.0 / 3.0) <= 1e-9
    assert r.bound == PRODUCT_BOUND[3]


def test_petty_product_staircase_before_and_after():
    before = petty_product(staircase())
    assert abs(before.product - 4.0 / 3.0) <= 1e-12
    after = petty_product(steiner_symmetrize(staircase(), E2))
    assert abs(after.product - 2.0) <= 1e-12
    assert after.product - before.product >= 2.0 / 3.0 - 1e-12


def test_petty_product_approaches_bound_on_inscribed_polygons():
    devs = []
    for m in (16, 64, 256):
        r = petty_product(regular_polygon(m))
        assert r.slack >= 0.0
        devs.append(r.slack)
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-3 * PRODUCT_BOUND[2]


def test_petty_product_never_exceeds_bound_on_corpus():
    for i in range(60):
        r = petty_product(random_polygon(100, index=i))
        assert r.slack >= -1e-9
    for i in range(30):
        r2 = petty_product(random_box_union(100, index=i))
        assert r2.slack >= -1e-9
        r3 = petty_product(random_box_union(100, index=i, dim=3))
        assert r3.slack >= -1e-9


def _oracle_polygons():
    u = np.array([0.6, 0.8])
    yield from (random_polygon(41, i) for i in range(60))
    yield from (regular_polygon(m) for m in (4, 64, 500))
    # 1e-20 of its length wide: the edge route needs no ring
    yield PolygonSet([[0.0, 0.0], [1e10, 0.0], [1e10, 1e-10]])
    for i in range(4):
        P = random_polygon(43, i)
        yield steiner_symmetrize(P, u)
        yield steiner_symmetrize(P, E2)
        yield P.transform(random_sl2(5, i))
        yield steiner_symmetrize(P, u).transform(random_sl2(6, i))


def test_polygon_product_is_within_8_eps_of_the_exact_product():
    # the edge route's rounding bound, which the report's zero error
    # estimate rests on: the exact product of the same float vertices
    for P in _oracle_polygons():
        exact = exact_polar_product(P.vertices)
        r = petty_product(P)
        assert r.error_estimate == 0.0
        assert abs(Fraction(r.product) - exact) <= 8 * Fraction(EPS) * exact, len(P.vertices)


def test_thin_rectangle_has_one_product_as_polygon_and_as_box_union():
    # 1 x 1e-15: the box union's body takes the cross-polytope closed
    # form, and both kinds give the same report
    P = PolygonSet([[0, 0], [1, 0], [1, 1e-15], [0, 1e-15]])
    B = BoxUnion([[0, 0]], [[1, 1e-15]])
    assert petty_product(B) == petty_product(P)
    assert petty_product(P).product == 2.0


def test_petty_report_json_fields():
    r = petty_product(unit_square())
    obj = r.to_json()
    assert set(obj) == {"volume", "polar_projection_volume",
                        "error_estimate", "product", "bound", "slack"}
    assert obj["volume"] == 1.0


# ---------------------------------------------------------------- affine maps

def test_affine_image_check_examples():
    sq = unit_square()
    assert affine_image_check(sq, np.eye(2)) <= 1e-15
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert affine_image_check(sq, shear) <= 1e-12
    assert affine_image_check(sq, rotation_2d(0.5)) <= 1e-12
    tri = PolygonSet([[0, 0], [2, 0], [0, 2]])
    for i in range(20):
        assert affine_image_check(tri, random_sl2(7, index=i)) <= 1e-9


def test_affine_image_check_rejects_non_unimodular():
    with pytest.raises(InputError):
        affine_image_check(unit_square(), 2.0 * np.eye(2))
    with pytest.raises(InputError):
        affine_image_check(unit_square(), np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrices_are_rejected_before_any_arithmetic(bad):
    # a nan determinant passes |det - 1| > tol, so the entries are tested
    # first; a RuntimeWarning from the arithmetic after it fails the test
    A = np.array([[1.0, 0.0], [bad, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="matrix entries must be finite"):
            affine_image_check(unit_square(), A)
        with pytest.raises(InputError, match="matrix entries must be finite"):
            unit_square().transform(A)


# ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) for t = j / 32, |j| <= 32: 65
# exact unit directions over a half turn, which is all a centred
# zonotope's support needs; t = 0 and t = +-1 give the axes
PYTHAGOREAN = np.array([[(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]
                        for t in (Fraction(j, 32) for j in range(-32, 33))],
                       dtype=object)

AFFINE_CASES = (
    [pytest.param(unit_square(), np.array([[1.0, 1.0], [0.0, 1.0]]), id="square-shear")]
    + [pytest.param(unit_square(), rotation_2d(a), id=f"square-rotation-{a}")
       for a in (0.5, 2.0)]
    + [pytest.param(random_polygon(23, i), random_sl2(24, i), id=f"random-{i}")
       for i in range(12)])


@pytest.mark.parametrize("P,A", AFFINE_CASES)
def test_affine_image_check_bounds_the_exact_support_difference(P, A):
    # the two generator arrays the check builds, taken as exact rationals:
    # no exact support difference at any Pythagorean direction may exceed
    # the returned figure
    left = projection_body(P.transform(A)).generators
    right = projection_body(P).generators @ np.linalg.inv(A)
    exact = np.vectorize(Fraction, otypes=[object])
    h_left = np.abs(PYTHAGOREAN @ exact(left).T).sum(axis=1)
    h_right = np.abs(PYTHAGOREAN @ exact(right).T).sum(axis=1)
    figure = affine_image_check(P, A)
    assert max(abs(h_left - h_right)) <= Fraction(figure)
    assert figure <= 1e-9


def test_affine_image_check_evaluates_no_support(monkeypatch):
    def refuse(self, nodes):
        raise AssertionError("affine_image_check sampled a support")

    monkeypatch.setattr(Zonotope, "support_batch", refuse)
    assert affine_image_check(random_polygon(5), random_sl2(5)) <= 1e-9


def test_petty_product_is_affine_invariant():
    tri = PolygonSet([[0, 0], [2, 0], [0, 2]])
    base = petty_product(tri).product
    for i in range(20):
        A = random_sl2(11, index=i)
        img = PolygonSet(tri.vertices @ A.T)
        assert abs(petty_product(img).product - base) \
            <= 1e-9 * (1.0 + abs(base))


# ------------------------------------------------------- inclusion check

def test_polar_steiner_inclusion_requires_regular_frame():
    with pytest.raises(ConditionViolationError) as err:
        polar_steiner_inclusion_check(unit_square(), E2)
    assert err.value.mass == 2.0


def test_polar_steiner_inclusion_holds_on_diamond():
    # equality up to rounding: the polar ring's rows and the symmetral's
    # section kernel put the margin within a few ulps of 1
    diamond = PolygonSet(unit_square().vertices @ rotation_2d(math.pi / 4).T)
    holds, margin = polar_steiner_inclusion_check(diamond, E2)
    assert holds
    assert abs(margin - 1.0) <= 4.0 * EPS


def test_polar_steiner_inclusion_holds_on_rotated_triangle():
    tri = PolygonSet(
        np.array([[0, 0], [2, 0], [0, 2]]) @ rotation_2d(0.3).T)
    holds, margin = polar_steiner_inclusion_check(tri, E2)
    assert holds
    assert margin <= 1.0 + 1e-9


def test_polar_steiner_inclusion_near_equality_on_inscribed_polygon():
    P = regular_polygon(64, phase=0.1)
    holds, margin = polar_steiner_inclusion_check(P, E2)
    assert holds
    assert abs(margin - 1.0) <= 1e-6


def test_polar_steiner_inclusion_margin_is_the_vertex_maximum():
    # the exact margin is the support of the symmetral's projection body
    # at the vertices of the symmetrized polar.  It is never below the
    # margin sampled on the 4096-node circle grid, up to rounding where
    # the maximum spans a whole edge (both bodies are symmetric about the
    # line orthogonal to u, so the gauge is often constant on the edge
    # that crosses it); it is above it where no node lands near the worst
    # vertex direction
    rng = np.random.default_rng(16)
    gains = []
    for i in range(24):
        P = random_polygon(5, i)
        while True:
            a = rng.uniform(0.0, 2.0 * math.pi)
            u = np.array([math.cos(a), math.sin(a)])
            if np.min(np.abs(P.normals @ u)) >= 1e-2:
                break
        holds, margin = polar_steiner_inclusion_check(P, u)
        sampled = grid_inclusion_margin(P, u)
        assert holds
        assert margin >= sampled * (1.0 - 4.0 * np.finfo(float).eps)
        gains.append(margin - sampled)
        A = steiner_ring(polar_polygon(projection_body(P)), u)
        g = projection_body(steiner_symmetrize(P, u)).generators
        assert abs(margin - float(np.max(dense_support(g, A)))) <= 1e-14
    assert max(gains) > 1e-6


def test_polar_steiner_inclusion_rejects_3d():
    with pytest.raises(InputError):
        polar_steiner_inclusion_check(unit_cube(), [0.0, 0.0, 1.0])


def test_polar_steiner_inclusion_margin_on_thin_sets_is_at_the_rounding_floor():
    # sets 1e-13 and 3e-14 of their length wide.  Merging near-parallel
    # generators in a ring before the polar moved the polar by far more
    # than rounding and read margins of 2.0 and 4.0 here; the polar ring
    # from the sorted generators is off by about eps / h, and so is the
    # margin
    u = np.array([0.6, 0.8])
    for h in (1e-13, 3e-14):
        for v in ([[0, 0], [1, 0], [1, h]], [[0, 0], [1, 0], [1, h], [0.3, 2 * h]]):
            _, margin = polar_steiner_inclusion_check(PolygonSet(v), u)
            assert abs(margin - 1.0) <= 1e-2, (h, len(v))


def test_thin_triangle_has_one_polar_area_and_no_symmetral():
    # 1e-20 of its length wide: the zonotope's polar area is the
    # product's, bit for bit, and the symmetral of its polar ring is
    # below what the section kernel resolves
    T = PolygonSet([[0.0, 0.0], [1e10, 0.0], [1e10, 1e-10]])
    pv = polar_volume(projection_body(T))
    assert pv.value == petty_product(T).polar_projection_volume == 3.0
    with pytest.raises(NumericalError, match="symmetral degenerated"):
        polar_steiner_inclusion_check(T, np.array([0.6, 0.8]))
