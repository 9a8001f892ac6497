"""Direction handling, spherical quadrature grids, Hausdorff distance,
circumradius, and the planar convex hull test helper."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pettybox.convex
import pettybox.geometry
import pettybox.sets
from pettybox import (Ball, BoxUnion, FacetPolytope, NumericalError,
                      PolarWrapper, PolygonSet, Zonotope, circumradius,
                      hausdorff_distance)
from pettybox.corpus import random_polygon
from pettybox.errors import InputError
from pettybox.geometry import (RigidFrame, as_direction, as_directions,
                               circle_grid, default_grid, frame_to_last_axis,
                               integrate_sphere, rotation_2d, sphere_grid)

from hull import convex_hull_2d
from reference_forms import (distance_to_polygon_loop, points_in_polygon_loop,
                             ring_boundary_points_loop)


CENTERED_SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def unit_square():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def rectangle():
    """The zonotope [-2, 2] x [-1, 1]."""
    return Zonotope([[2, 0], [0, 1]])


def diamond(scale=1.0):
    """The polar of [-scale, scale]^2: |x| + |y| <= 1 / scale."""
    return PolarWrapper(Zonotope(scale * np.eye(2)))


# ---------------------------------------------------------------- directions

def test_as_direction_accepts_unit_vectors():
    u = as_direction([0.6, 0.8])
    assert u.shape == (2,)
    assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)


def test_as_directions_checks_every_row():
    U = as_directions([[0.6, 0.8], [1.0, 0.0]])
    assert U.shape == (2, 2)
    for bad in ([], [0.6, 0.8], [[0.6, 0.8], [1.0, 1.0]], [[1.0, 0.0, 0.0, 0.0]],
                [[float("nan"), 1.0]]):
        with pytest.raises(InputError):
            as_directions(bad)


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


def test_default_circle_grid_is_built_once_and_read_only():
    grid = default_grid(2)
    assert default_grid(2) is grid
    assert grid.size == 4096
    assert np.array_equal(grid.nodes, circle_grid(4096).nodes)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 0.0
    with pytest.raises(ValueError):
        grid.weights[0] = 0.0
    # the 3D grid stays a fresh build, so its memory is freed after use
    assert default_grid(3) is not default_grid(3)


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


# ------------------------------------------- polygon membership and distance
#
# points_in_polygon, distance_to_polygon and ring_boundary_points run over
# blocks of edges; the per-pair arithmetic is that of the per-edge loops
# kept in tests/reference_forms.py, so the results must be bit-identical.

def _probe_points(v, rng, count):
    """Random points around the polygon, its vertices, its edge midpoints,
    and points level with each vertex (crossing-test ties)."""
    ahead = np.roll(v, -1, axis=0)
    level = np.column_stack([rng.uniform(-2.0, 2.0, len(v)), v[:, 1]])
    return np.vstack([rng.uniform(-2.0, 2.0, (count, 2)), v, 0.5 * (v + ahead), level])


def _assert_edge_kernels_match_loops(v, rng, count):
    pts = _probe_points(v, rng, count)
    geo = pettybox.geometry
    assert np.array_equal(geo.points_in_polygon(pts, v), points_in_polygon_loop(pts, v))
    assert np.array_equal(geo.distance_to_polygon(pts, v), distance_to_polygon_loop(pts, v))
    step = float(rng.uniform(1e-3, 0.5))
    assert np.array_equal(geo.ring_boundary_points(v, step), ring_boundary_points_loop(v, step))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3000))
def test_edge_kernels_match_per_edge_loops(seed, count):
    v = random_polygon(seed, max_vertices=60).vertices
    _assert_edge_kernels_match_loops(v, np.random.default_rng(seed), count)


def test_edge_kernels_match_per_edge_loops_in_ragged_blocks(monkeypatch):
    # blocks of 1 to a few edges, the last one short
    for pairs in (1, 50, 333):
        monkeypatch.setattr(pettybox.geometry, "BLOCK_PAIRS", pairs)
        for seed in range(3):
            v = random_polygon(seed, max_vertices=30).vertices
            _assert_edge_kernels_match_loops(v, np.random.default_rng(seed), 40)


def test_cyclic_next_is_roll_by_minus_one():
    rng = np.random.default_rng(4)
    for a in (rng.standard_normal(7), rng.standard_normal((9, 2)),
              rng.standard_normal((1, 2)), np.arange(1.0), rng.standard_normal((5, 2))[::-1]):
        got = pettybox.geometry.cyclic_next(a)
        assert got.dtype == a.dtype and got.shape == a.shape
        assert got.tobytes() == np.roll(a, -1, axis=0).tobytes()
    # the rings of the package take successors through the helper alone
    roll = re.compile(r"np\.roll\([^()]*,\s*-1\s*(,\s*axis\s*=\s*0\s*)?\)")
    for path in Path(pettybox.geometry.__file__).parent.glob("*.py"):
        assert not roll.search(path.read_text()), path.name


def test_sampled_hausdorff_unchanged_from_per_edge_loops(monkeypatch):
    star = PolygonSet([[2, 0], [0.5, 0.5], [0, 2], [-0.5, 0.5], [-2, 0],
                       [-0.5, -0.5], [0, -2], [0.5, -0.5]])
    notched = PolygonSet([[0, 0], [3, 0], [3, 2], [1.5, 0.4], [0, 2]])
    pairs = [(star, unit_square()), (notched, star), (notched, Ball(1.0)),
             (FacetPolytope(CENTERED_SQUARE), notched)]
    got = [hausdorff_distance(a, b, divisions=512) for a, b in pairs]
    loops = {"points_in_polygon": points_in_polygon_loop,
             "distance_to_polygon": distance_to_polygon_loop,
             "ring_boundary_points": ring_boundary_points_loop}
    for module, names in ((pettybox.geometry, loops), (pettybox.sets, loops),
                          (pettybox.convex, ("distance_to_polygon", "ring_boundary_points"))):
        for name in names:
            monkeypatch.setattr(module, name, loops[name])
    assert got == [hausdorff_distance(a, b, divisions=512) for a, b in pairs]


# ----------------------------------------------------------------- hausdorff

def brute_force_hausdorff(a_pts, b_pts, a_inside, b_inside):
    """Oracle: directed sup-inf over dense boundary samples, where each
    side's distance honours solid membership of the other set (the
    membership tests take a point array and return a mask)."""

    def directed(pts, inside_other, other_pts):
        worst = 0.0
        outside = pts[~inside_other(pts)]
        for start in range(0, len(outside), 256):
            p = outside[start:start + 256, None, :]
            dx = other_pts[None, :, 0] - p[..., 0]
            dy = other_pts[None, :, 1] - p[..., 1]
            worst = max(worst, float(np.max(np.min(np.sqrt(dx * dx + dy * dy), axis=1))))
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
    assert hausdorff_distance(cube, Ball(1.0, dim=3)) == hausdorff_distance(Ball(1.0, dim=3), cube)
    assert abs(hausdorff_distance(cube, Zonotope(2.0 * np.eye(3))) - math.sqrt(3)) <= 1e-3


def test_hausdorff_rejects_mixed_dimensions():
    square = PolygonSet([[0, 0], [2, 0], [2, 2], [0, 2]])
    with pytest.raises(InputError, match="dimensions"):
        hausdorff_distance(Ball(1.0, dim=3), square)
    cube = BoxUnion([[0, 0, 0]], [[1, 1, 1]])
    for other in (square, Ball(1.0), BoxUnion([[0, 0]], [[1, 1]])):
        with pytest.raises(InputError, match="dimensions"):
            hausdorff_distance(cube, other)
    for a, b in ((Zonotope(np.eye(3)), FacetPolytope(CENTERED_SQUARE)),
                 (diamond(), Ball(1.0, dim=3))):
        with pytest.raises(InputError, match="dimensions"):
            hausdorff_distance(a, b)


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
        return lambda p: ((lo <= p[:, 0]) & (p[:, 0] <= lo + 1.0)
                          & (0.0 <= p[:, 1]) & (p[:, 1] <= 1.0))

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
        Kr = FacetPolytope(K.vertices @ R.T)
        Lr = FacetPolytope(L.vertices @ R.T)
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
    assert abs(hausdorff_distance(rectangle(), Ball(1.0)) - (math.sqrt(5) - 1)) <= 1e-12
    # the ball's point farthest from the diamond faces the middle of an edge
    assert abs(hausdorff_distance(diamond(), Ball(1.0)) - (1 - math.sqrt(0.5))) <= 1e-12


# Pairs of handle kinds and their distance, beyond those tested above;
# sampled routes are good to one boundary step of the widest scene here
# (the rectangle's), exact ones to rounding
STEP = math.sqrt(20.0) / 2048
EXACT = 1e-12
ROUTES = [
    pytest.param(Ball(1.0), PolygonSet(CENTERED_SQUARE), math.sqrt(2) - 1, EXACT,
                 id="ball-starshaped"),
    pytest.param(Ball(1.0), BoxUnion([[-1, -1]], [[1, 1]]), math.sqrt(2) - 1, STEP,
                 id="ball-boxes"),
    pytest.param(FacetPolytope(CENTERED_SQUARE), FacetPolytope(2 * np.array(CENTERED_SQUARE)),
                 math.sqrt(2), EXACT, id="facets-facets"),
    pytest.param(FacetPolytope(CENTERED_SQUARE), rectangle(), 1.0, EXACT, id="facets-zonotope"),
    pytest.param(FacetPolytope(CENTERED_SQUARE), diamond(), math.sqrt(0.5), EXACT,
                 id="facets-wrapper"),
    pytest.param(rectangle(), Zonotope(np.eye(2)), 1.0, EXACT, id="zonotope-zonotope"),
    pytest.param(rectangle(), diamond(), math.sqrt(2), EXACT, id="zonotope-wrapper"),
    pytest.param(diamond(), diamond(2.0), 0.5, EXACT, id="wrapper-wrapper"),
    pytest.param(FacetPolytope(CENTERED_SQUARE), unit_square(), math.sqrt(2), STEP,
                 id="facets-polygon"),
    pytest.param(rectangle(), PolygonSet(CENTERED_SQUARE), 1.0, STEP, id="zonotope-polygon"),
    pytest.param(diamond(), PolygonSet(CENTERED_SQUARE), math.sqrt(0.5), STEP,
                 id="wrapper-polygon"),
]


@pytest.mark.parametrize("a,b,expected,tol", ROUTES)
def test_hausdorff_routes(a, b, expected, tol):
    got = hausdorff_distance(a, b)
    assert abs(got - expected) <= tol
    assert hausdorff_distance(b, a) == got


@pytest.mark.parametrize("a,b,message", [
    pytest.param(object(), Ball(1.0), "^no Hausdorff route for object vs Ball$", id="object"),
    pytest.param(Ball(1.0), object(), "^no Hausdorff route for Ball vs object$",
                 id="ball-object"),
    # a 3D wrapper has no support function and no boundary sampling
    pytest.param(PolarWrapper(Zonotope(np.eye(3))), Ball(1.0, dim=3),
                 "^no Hausdorff route for PolarWrapper vs Ball$", id="wrapper3d-ball"),
    pytest.param(Zonotope(np.eye(3)), PolarWrapper(Zonotope(np.eye(3))),
                 "^no Hausdorff route for Zonotope vs PolarWrapper$", id="zonotope3d-wrapper"),
    pytest.param(Zonotope(np.eye(3)), BoxUnion([[0, 0, 0]], [[1, 1, 1]]),
                 "^no Hausdorff route for Zonotope vs BoxUnion$", id="zonotope3d-boxes"),
])
def test_hausdorff_rejects_unrouted_pairs(a, b, message):
    with pytest.raises(InputError, match=message):
        hausdorff_distance(a, b)


# -------------------------------------------------------------- circumradius

def test_circumradius_examples():
    assert circumradius(Ball(1.0)) == 1.0
    assert abs(circumradius(unit_square()) - math.sqrt(2)) <= 1e-12
    bu = BoxUnion([[0, 0]], [[2, 1]])
    assert abs(circumradius(bu) - math.sqrt(5)) <= 1e-12
    assert abs(circumradius(FacetPolytope(CENTERED_SQUARE)) - math.sqrt(2)) <= 1e-12
    assert abs(circumradius(rectangle()) - math.sqrt(5)) <= 1e-12
    assert abs(circumradius(diamond()) - 1.0) <= 1e-12


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
