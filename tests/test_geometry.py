"""Direction handling, spherical quadrature grids, Hausdorff distance,
circumradius, and the planar convex hull."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pettybox import (Ball, BoxUnion, FacetPolytope, NumericalError,
                      PolygonSet, Zonotope, circumradius, hausdorff_distance)
from pettybox.errors import InputError
from pettybox.geometry import (RigidFrame, as_direction, circle_grid,
                               convex_hull_2d, frame_to_last_axis,
                               integrate_sphere, rotation_2d, sphere_grid)


def unit_square():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])


# ---------------------------------------------------------------- directions

def test_as_direction_accepts_unit_vectors():
    u = as_direction([0.6, 0.8])
    assert u.shape == (2,)
    assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)


def test_as_direction_rejects_non_unit_and_bad_shape():
    with pytest.raises(InputError):
        as_direction([1.0, 1.0])
    with pytest.raises(InputError):
        as_direction([0.0, 0.0])
    with pytest.raises(InputError):
        as_direction([[1.0], [0.0]])
    with pytest.raises(InputError):
        as_direction([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("dim", [2, 3])
def test_frame_sends_direction_to_last_axis(dim):
    rng = np.random.default_rng(7 + dim)
    for _ in range(20):
        v = rng.normal(size=dim)
        u = v / np.linalg.norm(v)
        frame = frame_to_last_axis(u)
        image = frame.apply(u)
        target = np.zeros(dim)
        target[-1] = 1.0
        assert np.allclose(image, target, atol=1e-12)
        R = frame.matrix
        assert np.allclose(R @ R.T, np.eye(dim), atol=1e-12)
        assert math.isclose(float(np.linalg.det(R)), 1.0, abs_tol=1e-12)
        assert np.allclose(frame.last_axis_preimage, u, atol=1e-12)


def test_rigid_frame_rejects_non_rotation():
    with pytest.raises(InputError):
        RigidFrame(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(InputError):
        RigidFrame(np.array([[1.0, 0.0], [0.0, -1.0]]))  # reflection


def test_frame_roundtrip():
    frame = frame_to_last_axis(as_direction([0.6, 0.8]))
    pts = np.random.default_rng(0).normal(size=(50, 2))
    assert np.allclose(frame.inverse().apply(frame.apply(pts)), pts, atol=1e-12)


# --------------------------------------------------------------------- grids

@pytest.mark.parametrize(
    "make,total",
    [(lambda: circle_grid(4096), 2 * math.pi),
     (lambda: sphere_grid(128, 256), 4 * math.pi)],
    ids=["circle", "sphere"],
)
def test_grid_weights_positive_and_measure_exact(make, total):
    grid = make()
    assert np.all(grid.weights > 0)
    assert math.isclose(float(grid.weights.sum()), total, rel_tol=1e-9)
    norms = np.linalg.norm(grid.nodes, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_circle_grid_second_moment_random_directions():
    # quadrature of (u.v)^2 over the circle equals pi for every unit v
    grid = circle_grid(4096)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        val = float(grid.weights @ (grid.nodes @ v) ** 2)
        assert abs(val - math.pi) <= 1e-6


def test_sphere_grid_second_moment_random_directions():
    # quadrature of (u.v)^2 over the sphere equals 4*pi/3 for every unit v
    grid = sphere_grid(128, 256)
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        val = float(grid.weights @ (grid.nodes @ v) ** 2)
        assert abs(val - 4 * math.pi / 3) <= 1e-6


def test_circle_grid_odd_moment_vanishes():
    grid = circle_grid(4096)
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        assert abs(float(grid.weights @ (grid.nodes @ v))) <= 1e-9


def test_integrate_abs_cosine_on_circle():
    # quadrature of |u.e1| over the circle equals 4
    grid = circle_grid(4096)
    val = integrate_sphere(grid, lambda u: np.abs(u[:, 0]))
    assert abs(val - 4.0) <= 1e-6


def test_integrate_sphere_rejects_nonfinite_values():
    grid = circle_grid(64)

    def bad(u):
        out = np.ones(len(u))
        out[3] = np.nan
        return out

    with pytest.raises(NumericalError):
        integrate_sphere(grid, bad)


# ----------------------------------------------------------------- hausdorff

def brute_force_hausdorff(a_pts, b_pts, a_inside, b_inside):
    """Oracle: directed sup-inf over dense boundary samples, where each
    side's distance honours solid membership of the other set."""

    def directed(pts, inside_other, other_pts):
        worst = 0.0
        for p in pts:
            if inside_other(p):
                continue
            d = float(np.min(np.linalg.norm(other_pts - p, axis=1)))
            worst = max(worst, d)
        return worst

    return max(
        directed(a_pts, b_inside, b_pts), directed(b_pts, a_inside, a_pts)
    )


def test_hausdorff_concentric_balls_exact():
    assert hausdorff_distance(Ball(1.0), Ball(2.0)) == 1.0
    assert hausdorff_distance(Ball(2.0), Ball(1.0)) == 1.0
    assert hausdorff_distance(Ball(1.5, dim=3), Ball(1.5, dim=3)) == 0.0


def test_hausdorff_3d_convex_bodies_use_support_difference():
    cube = Zonotope(np.eye(3))  # [-1, 1]^3
    assert abs(hausdorff_distance(Ball(1.0, dim=3), cube) - (math.sqrt(3) - 1)) <= 1e-3
    assert abs(hausdorff_distance(cube, Zonotope(2.0 * np.eye(3))) - math.sqrt(3)) <= 1e-3


def test_hausdorff_rejects_mixed_dimensions():
    square = PolygonSet([[0, 0], [2, 0], [2, 2], [0, 2]])
    with pytest.raises(InputError, match="dimensions"):
        hausdorff_distance(Ball(1.0, dim=3), square)
    cube = BoxUnion([[0, 0, 0]], [[1, 1, 1]])
    for other in (square, Ball(1.0), BoxUnion([[0, 0]], [[1, 1]])):
        with pytest.raises(InputError, match="dimensions"):
            hausdorff_distance(cube, other)


def test_hausdorff_identity_is_zero():
    sq = unit_square()
    assert hausdorff_distance(sq, sq) == 0.0
    K = FacetPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]])
    assert hausdorff_distance(K, K) == 0.0


def test_hausdorff_translated_squares_matches_oracle():
    a = unit_square()
    b = PolygonSet([[1, 0], [2, 0], [2, 1], [1, 1]])
    got = hausdorff_distance(a, b)

    ts = np.linspace(0.0, 1.0, 2001)

    def ring(lo):
        return np.vstack(
            [
                np.column_stack([lo + ts, np.zeros_like(ts)]),
                np.column_stack([np.full_like(ts, lo + 1.0), ts]),
                np.column_stack([lo + 1.0 - ts, np.ones_like(ts)]),
                np.column_stack([np.full_like(ts, lo), 1.0 - ts]),
            ]
        )

    def inside(lo):
        return lambda p: lo <= p[0] <= lo + 1.0 and 0.0 <= p[1] <= 1.0

    oracle = brute_force_hausdorff(
        ring(0.0), ring(1.0), inside(0.0), inside(1.0)
    )
    assert abs(oracle - 1.0) <= 1e-3
    # sampled estimator is accurate to about one boundary step
    scene = math.sqrt(2.0 * 2.0 + 1.0)
    assert abs(got - 1.0) <= scene / 2048 + 1e-9


def test_hausdorff_rotation_invariance_convex_pairs():
    # convex-convex pairs go through the exact vertex/facet path
    rng = np.random.default_rng(23)
    K = FacetPolytope(
        [[1.2, 0], [0.3, 0.9], [-1.0, 0.4], [-0.5, -1.1], [0.6, -0.8]])
    L = FacetPolytope([[0.9, 0.1], [0.0, 1.3], [-1.2, -0.2], [0.2, -1.0]])
    base = hausdorff_distance(K, L)
    for _ in range(10):
        R = rotation_2d(rng.uniform(0, 2 * math.pi))
        Kr = FacetPolytope(K.polygon_vertices() @ R.T)
        Lr = FacetPolytope(L.polygon_vertices() @ R.T)
        assert abs(hausdorff_distance(Kr, Lr) - base) <= 1e-9


def test_hausdorff_rotation_stability_sampled_path():
    # nonconvex pairs are sampled; invariance holds to sampling resolution
    star = PolygonSet(
        [[2, 0], [0.5, 0.5], [0, 2], [-0.5, 0.5], [-2, 0], [-0.5, -0.5],
         [0, -2], [0.5, -0.5]]
    )
    sq = unit_square()
    base = hausdorff_distance(star, sq)
    R = rotation_2d(0.7)
    star_r = PolygonSet(np.asarray(star.vertices) @ R.T)
    sq_r = PolygonSet(np.asarray(sq.vertices) @ R.T)
    step = math.hypot(6.0, 5.0) / 2048  # generous scene bound
    assert abs(hausdorff_distance(star_r, sq_r) - base) <= 2 * step


def test_hausdorff_convex_vs_ball():
    K = FacetPolytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    # farthest point of the square from the unit ball is a corner
    assert abs(hausdorff_distance(K, Ball(1.0)) - (math.sqrt(2) - 1)) <= 1e-12


# -------------------------------------------------------------- circumradius

def test_circumradius_examples():
    assert circumradius(Ball(1.0)) == 1.0
    assert abs(circumradius(unit_square()) - math.sqrt(2)) <= 1e-12
    bu = BoxUnion([[0, 0]], [[2, 1]])
    assert abs(circumradius(bu) - math.sqrt(5)) <= 1e-12


def test_circumradius_monotone_under_inclusion():
    inner = PolygonSet([[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8]])
    outer = unit_square()
    assert circumradius(inner) <= circumradius(outer) + 1e-12
    small = BoxUnion([[0, 0]], [[1, 1]])
    big = BoxUnion([[0, 0]], [[3, 2]])
    assert circumradius(small) <= circumradius(big) + 1e-12


def test_circumradius_rejects_plain_objects():
    with pytest.raises(InputError):
        circumradius(object())


# ----------------------------------------------------------------------- hull

def test_convex_hull_contains_all_points():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(200, 2))
    hull = convex_hull_2d(pts)
    # hull vertices come from the input
    for v in hull:
        assert float(np.min(np.linalg.norm(pts - v, axis=1))) <= 1e-12
    # every point lies left of (or on) each directed hull edge
    m = len(hull)
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        edge = b - a
        rel = pts - a
        cross = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
        assert np.all(cross >= -1e-9)


def test_convex_hull_degenerate_inputs():
    with pytest.raises(InputError):
        convex_hull_2d(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(InputError):
        convex_hull_2d(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
