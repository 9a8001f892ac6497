"""Direction handling, spherical quadrature grids, Hausdorff distance,
and the planar convex hull test helper."""

from __future__ import annotations

import copy
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pettybox.geometry
from pettybox import (Ball, BoxUnion, DirectionPolicy, NumericalError,
                      PolarWrapper, PolygonSet, Zonotope, hausdorff_distance,
                      polar_polygon, run_symmetrization)
from pettybox.corpus import random_polygon
from pettybox.errors import InputError
from pettybox.geometry import (SphericalGrid, as_direction, as_directions,
                               circle_grid, default_grid, integrate_sphere,
                               octant_grid, rotation_2d, unit_vector)

from hull import convex_hull_2d
from reference_forms import (distance_to_polygon_loop, normals_offsets,
                             points_in_polygon_loop, prune_collinear_loop,
                             ring_boundary_points_loop, shoelace_area,
                             shoelace_centroid, zonotope_hull)


CENTERED_SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def unit_square():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def rectangle():
    """The zonotope [-2, 2] x [-1, 1]."""
    return Zonotope([[2, 0], [0, 1]])


def diamond(scale=1.0):
    """The vertex ring of the polar of [-scale, scale]^2, |x| + |y| <=
    1 / scale.  The "wrapper" test ids below name this polar form."""
    return polar_polygon(Zonotope(scale * np.eye(2)))


# ---------------------------------------------------------------- directions

def test_as_direction_accepts_unit_vectors():
    u = as_direction([0.6, 0.8])
    assert u.shape == (2,)
    assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("v", [[3.0, 4.0], [1.0, 1.0], [0.3, -0.2, 0.9]])
def test_unit_vector_keeps_its_bits_at_every_power_of_two(v):
    # the vector is scaled by a power of two before its norm is taken, so
    # its squares neither overflow nor underflow: 2^k v normalises to the
    # bits of v for every k that keeps its components in normal range, and
    # v times 1e200 or 1e-170, whose squared norm leaves float range,
    # normalises to a unit vector
    eps = float(np.finfo(float).eps)
    want = unit_vector(v)
    assert abs(float(np.linalg.norm(want)) - 1.0) <= 2.0 * eps
    for k in (-1000, -570, -30, 30, 570, 1000):
        assert np.array_equal(unit_vector(np.ldexp(v, k)), want)
    for scale in (1e200, 1e-170, 1e-200, 1e307, 5e-324):
        u = unit_vector(np.multiply(scale, v))
        assert abs(float(np.linalg.norm(u)) - 1.0) <= 2.0 * eps


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


# --------------------------------------------------------------------- grids

@pytest.mark.parametrize(
    "make,total",
    [(lambda: circle_grid(4096), 2 * math.pi),
     (lambda: octant_grid(24), 4 * math.pi)],
    ids=["circle", "sphere"],
)
def test_grid_weights_positive_and_measure_exact(make, total):
    grid = make()
    assert np.all(grid.weights > 0)
    assert math.isclose(float(grid.weights.sum()), total, rel_tol=1e-9)
    norms = np.linalg.norm(grid.nodes, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_spherical_grid_rejects_nan_nodes_and_weights():
    # nan fails every check, where a check of the form bad > tol passed it
    grid = circle_grid(8)
    nodes = grid.nodes.copy()
    nodes[0] = np.nan
    with pytest.raises(InputError, match="unit vectors"):
        SphericalGrid(nodes, grid.weights)
    with pytest.raises(InputError, match="positive"):
        SphericalGrid(grid.nodes, np.full(8, np.nan))
    weights = grid.weights.copy()
    weights[0] = np.nan
    with pytest.raises(InputError, match="positive"):
        SphericalGrid(grid.nodes, weights)


def test_default_circle_grid_is_built_once_and_read_only():
    grid = default_grid(2)
    assert default_grid(2) is grid
    assert grid.size == 4096
    assert np.array_equal(grid.nodes, circle_grid(4096).nodes)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 0.0
    with pytest.raises(ValueError):
        grid.weights[0] = 0.0
    # the 3D grid is the order-24 octant rule, likewise built once, shared
    # read-only and equal to a fresh build
    sphere = default_grid(3)
    assert default_grid(3) is sphere is octant_grid(24)
    assert sphere.size == 576
    with pytest.raises(ValueError):
        sphere.nodes[0, 0] = 0.0
    with pytest.raises(ValueError):
        sphere.weights[0] = 0.0
    fresh = octant_grid.__wrapped__(24)
    assert fresh is not sphere
    assert np.array_equal(sphere.nodes, fresh.nodes)
    assert np.array_equal(sphere.weights, fresh.weights)


@pytest.mark.parametrize(
    "make",
    [lambda: circle_grid(8),
     lambda: unit_square().surface_measure(),
     lambda: unit_square().column_structure(1),
     lambda: run_symmetrization(unit_square(), DirectionPolicy("uniform-random"),
                                max_steps=1, stop_tol=1e-9).steps[-1]],
    ids=["SphericalGrid", "SurfaceMeasure", "ColumnStructure", "TraceStep"],
)
def test_array_records_compare_and_hash_by_identity(make):
    # records holding numpy arrays compare by identity, so they can be
    # compared at all and can serve as dict keys
    a = make()
    assert a == a
    assert a != copy.copy(a)
    assert {a: 1}[a] == 1


def test_circle_grid_second_moment_random_directions():
    # quadrature of (u.v)^2 over the circle equals pi for every unit v
    grid = circle_grid(4096)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        val = float(grid.weights @ (grid.nodes @ v) ** 2)
        assert abs(val - math.pi) <= 1e-6


def test_octant_grid_even_moments_random_directions():
    # the octant rule integrates functions even in each coordinate: the
    # even part sum v_i^2 u_i^2 of (u.v)^2 over the sphere is 4*pi/3 for
    # every unit v, and |u_1 u_2 u_3| integrates to 1 (8 octants of
    # 1/4 * 1/2 in (theta, phi))
    grid = octant_grid(24)
    assert np.all(grid.nodes > 0.0)
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        val = float(grid.weights @ (grid.nodes ** 2 @ v ** 2))
        assert abs(val - 4 * math.pi / 3) <= 1e-13
    val = integrate_sphere(grid, lambda u: np.abs(np.prod(u, axis=1)))
    assert abs(val - 1.0) <= 1e-13


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
# points_in_polygon and distance_to_polygon run over blocks of edges; the
# per-pair arithmetic is that of the per-edge loops kept in
# tests/reference_forms.py, so the results must be bit-identical.

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
    # polygons with the origin on or outside their boundary take the
    # sampled route, whose kernels must give the loops' values.  Its
    # polygon-to-disk half reads max_norm, which is the largest norm of
    # the boundary samples (reference_forms.ring_boundary_points_loop) it
    # replaced, here bit for bit
    star = PolygonSet(np.array(STAR) + [2.5, 0.0])
    notched = PolygonSet([[0, 0], [3, 0], [3, 2], [1.5, 0.4], [0, 2]])
    pairs = [(notched, Ball(1.0)), (Ball(0.5), unit_square()), (star, Ball(2.0)),
             (Ball(0.6), c_shape())]
    polygons = [P for pair in pairs for P in pair if isinstance(P, PolygonSet)]
    assert not any(P.is_star_shaped() for P in polygons)
    for P in polygons:
        for step in (1e-3, 1e-2, 0.1):
            samples = ring_boundary_points_loop(P.vertices, step)
            assert float(np.max(np.linalg.norm(samples, axis=1))) == P.max_norm()
    monkeypatch.setattr(pettybox.geometry, "BOUNDARY_DIVISIONS", 512)
    got = [hausdorff_distance(a, b) for a, b in pairs]
    loops = {"points_in_polygon": points_in_polygon_loop,
             "distance_to_polygon": distance_to_polygon_loop}
    for name, loop in loops.items():
        monkeypatch.setattr(pettybox.geometry, name, loop)
    assert got == [hausdorff_distance(a, b) for a, b in pairs]


# prune_collinear takes each pass as one mask over the pass's input ring;
# the vertex-by-vertex loop is kept in tests/reference_forms.py, and the
# two must agree bit for bit.  The rings carry collinear runs, exact
# duplicates, chains of near duplicates each within 1e-12 of the one
# before (dropped only while within 1e-12 of the last one kept), and
# spikes back to the point before, whose chord is zero or within 1e-12.

_RING_STEPS = st.sampled_from(["corner", "run", "duplicate", "near", "spike"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_RING_STEPS, min_size=1, max_size=16), st.integers(0, 10**6),
       st.sampled_from([1e-9, 1.0, 1e3]))
def test_prune_collinear_matches_the_per_vertex_loop(steps, seed, scale):
    rng = np.random.default_rng(seed)
    ring = [scale * rng.normal(size=2), scale * rng.normal(size=2)]
    for step in steps:
        last, before = ring[-1], ring[-2]
        if step == "corner":
            ring.append(scale * rng.normal(size=2))
        elif step == "run":
            ring.append(last + rng.uniform(0.1, 1.0) * (last - before))
        elif step == "duplicate":
            ring.append(last.copy())
        elif step == "near":
            ring.append(last + rng.choice([0.4, 0.6, 0.9, 1.1]) * 1e-12 * rng.choice([-1.0, 1.0], 2))
        else:
            ring.append(before + rng.choice([0.0, 0.5e-12], 2))
    v = np.array(ring)
    got, want = pettybox.geometry.prune_collinear(v), prune_collinear_loop(v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -------------------------------------------------------------- vertex rings

def _star_ring(seed: int, m: int, scale: float) -> np.ndarray:
    """A CCW ring star-shaped about a random point near the origin: m
    jittered angles, each gap under pi, radii in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * math.pi * (np.arange(m) + rng.uniform(0.0, 0.4, m)) / m
    radii = rng.uniform(0.5, 1.5, m)
    center = rng.uniform(-0.5, 0.5, 2)
    return scale * (radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]) + center)


@given(st.integers(0, 10**6), st.integers(3, 60), st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_ring_volume_and_centroid_are_the_shoelace_oracle(seed, m, scale):
    v = _star_ring(seed, m, scale)
    for ring in (PolygonSet(v), PolygonSet(convex_hull_2d(v))):
        assert ring.volume() == shoelace_area(ring.vertices)
        assert ring.centroid().tobytes() == shoelace_centroid(ring.vertices).tobytes()


def test_ring_arrays_are_read_only_and_the_measure_shares_them():
    P = PolygonSet(_star_ring(3, 12, 1.0))
    for ring in (P, PolygonSet._derived(CENTERED_SQUARE)):
        for a in (ring.vertices, ring.edges, ring.lengths, ring.normals, ring.terms):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    mu = P.surface_measure()
    assert np.shares_memory(mu.normals, P.normals)
    assert np.shares_memory(mu.masses, P.lengths)


@pytest.mark.parametrize("make", [PolygonSet,
                                  pytest.param(PolygonSet._derived, id="derived"),
                                  Zonotope])
def test_constructors_copy_the_callers_array(make):
    pts = np.array(CENTERED_SQUARE, dtype=float)
    K = make(pts)
    held = (K.generators if make is Zonotope else K.vertices).copy()
    assert pts.flags.writeable
    pts[0, 0] = 5.0
    assert np.array_equal(K.generators if make is Zonotope else K.vertices, held)


BAD_RINGS = [
    pytest.param(np.zeros((4, 3)), "needs an (m,2) vertex array with m>=3", id="shape"),
    pytest.param([[0, 0], [1, 0]], "needs an (m,2) vertex array with m>=3", id="two-vertices"),
    pytest.param([[0, 0], [1, 0], [np.inf, 1]], "vertices must be finite", id="non-finite"),
    pytest.param([[0, 0], [1, 0], [1, 0], [0, 1]], "has a zero-length edge", id="zero-edge"),
]


# a translate, image or symmetral (PolygonSet._derived) runs the same
# ring checks as a checked polygon
@pytest.mark.parametrize("make", [PolygonSet, PolygonSet._derived],
                         ids=["polygon", "derived"])
@pytest.mark.parametrize("vertices,message", BAD_RINGS)
def test_bad_rings_raise_naming_their_kind(make, vertices, message):
    with pytest.raises(InputError, match="^" + re.escape(f"polygon {message}")):
        make(vertices)


# ----------------------------------------------------------------- hausdorff
#
# hausdorff_distance takes one pair, a polygon and a planar ball in either
# order: the radial-deviation rule when the polygon is star-shaped about
# the origin, boundary sampling otherwise.  Every other pair is rejected.

STAR = [[2, 0], [0.5, 0.5], [0, 2], [-0.5, 0.5], [-2, 0], [-0.5, -0.5], [0, -2], [0.5, -0.5]]


def c_shape():
    """Arcs of radii 1.1 and 0.9, 200 points each, over the angles
    0.1 ... 2 pi - 0.1: a ring that does not wind about the origin."""
    t = np.linspace(0.1, 2.0 * math.pi - 0.1, 200)
    arc = np.column_stack([np.cos(t), np.sin(t)])
    return PolygonSet(np.vstack([1.1 * arc, 0.9 * arc[::-1]]))


def test_hausdorff_rejects_mixed_dimensions(hausdorff_routes):
    square = PolygonSet([[0, 0], [2, 0], [2, 2], [0, 2]])
    cube = BoxUnion([[0, 0, 0]], [[1, 1, 1]])
    for a, b in ((cube, square), (cube, Ball(1.0)), (cube, BoxUnion([[0, 0]], [[1, 1]])),
                 (Zonotope(np.eye(3)), Zonotope(np.eye(2)))):
        with pytest.raises(InputError, match="^no Hausdorff route for "):
            hausdorff_distance(a, b)
    assert hausdorff_routes == []


def test_hausdorff_rotation_invariance_convex_pairs():
    # a convex polygon turned about the ball's centre keeps its distance
    # to the ball, to rounding
    rng = np.random.default_rng(23)
    K = PolygonSet([[1.2, 0], [0.3, 0.9], [-1.0, 0.4], [-0.5, -1.1], [0.6, -0.8]])
    for r in (0.5, 1.0, 1.4):
        base = hausdorff_distance(K, Ball(r))
        for _ in range(10):
            Kr = PolygonSet(K.vertices @ rotation_2d(rng.uniform(0, 2 * math.pi)).T)
            assert abs(hausdorff_distance(Kr, Ball(r)) - base) <= 1e-12


def test_hausdorff_rotation_stability_sampled_path():
    # a polygon whose origin lies outside it is sampled; turning the pair
    # about the origin moves the value by at most about one boundary step.
    # Every turn of the scene lies in the disk of radius 4.5, so its
    # bounding box has a diagonal of at most 9 sqrt(2)
    star = PolygonSet(np.array(STAR) + [2.5, 0.0])
    base = hausdorff_distance(star, Ball(1.0))
    star_r = PolygonSet(star.vertices @ rotation_2d(0.7).T)
    step = 9.0 * math.sqrt(2.0) / 2048
    assert abs(hausdorff_distance(star_r, Ball(1.0)) - base) <= 2 * step


def test_hausdorff_convex_vs_ball():
    K = PolygonSet(CENTERED_SQUARE)
    # farthest point of the square from the unit ball is a corner
    assert abs(hausdorff_distance(K, Ball(1.0)) - (math.sqrt(2) - 1)) <= 1e-12
    wide = PolygonSet(zonotope_hull(rectangle().generators))
    assert abs(hausdorff_distance(wide, Ball(1.0)) - (math.sqrt(5) - 1)) <= 1e-12
    # the ball's point farthest from the diamond faces the middle of an edge
    rhombus = PolygonSet(diamond())
    assert abs(hausdorff_distance(rhombus, Ball(1.0)) - (1 - math.sqrt(0.5))) <= 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_one_ball_rule_on_a_zonotope_and_its_ring(seed, hausdorff_routes):
    # a random planar zonotope's ring (the hull oracle) as a polygon takes
    # the ball rule: on a convex ring the radial deviation is max(max|v| -
    # r, r - min offset), up to rounding in the norms, whose scale is the
    # radius.  The zonotope itself has no route.
    rng = np.random.default_rng(seed)
    Z = Zonotope(rng.normal(size=(int(rng.integers(2, 12)), 2)) * rng.uniform(0.1, 3.0))
    Q = PolygonSet(zonotope_hull(Z.generators))
    offsets = normals_offsets(Q.vertices)[1]
    for r in (0.5 * float(np.min(offsets)), float(np.mean(offsets)), 1.5 * Q.max_norm()):
        want = max(Q.max_norm() - r, r - float(np.min(offsets)))
        got = hausdorff_distance(Ball(r), Q)
        assert abs(got - want) <= 1e-15 * r
        assert hausdorff_distance(Q, Ball(r)) == got
        with pytest.raises(InputError, match="^no Hausdorff route for "):
            hausdorff_distance(Ball(r), Z)
    assert hausdorff_routes == ["star_bound"] * 6


def test_ball_rule_bounds_a_notched_star_polygon_from_above():
    # a star-shaped non-convex ring: the radial deviation is an upper
    # bound, at least the distance of dense samples of both boundaries
    m = 200
    t = 2.0 * math.pi * np.arange(m) / m
    radius = np.where(np.arange(m) == 0, 0.2, 1.0)
    notched = PolygonSet(radius[:, None] * np.column_stack([np.cos(t), np.sin(t)]))
    r = math.sqrt(notched.volume() / math.pi)
    assert notched.is_star_shaped()
    step = 2.0 / 16384
    s = np.arange(0.0, 2.0 * math.pi, step / r)
    circle = r * np.column_stack([np.cos(s), np.sin(s)])
    edge = ring_boundary_points_loop(notched.vertices, step)
    lower = max(float(np.max(pettybox.geometry.distance_to_polygon(circle, notched.vertices))),
                float(np.max(np.linalg.norm(edge, axis=1))) - r)
    assert hausdorff_distance(Ball(r), notched) >= lower


@pytest.mark.parametrize("ring", [
    [[0, 0], [2, 0], [2, 2], [0, 2]],
    [[-1, 0], [1, 0], [1, 2], [-1, 2]],
    [[1, 1], [3, 1], [3, 3], [1, 3]],
], ids=["origin-vertex", "origin-on-edge", "origin-outside"])
# one kind now; the parameter keeps the test ids
@pytest.mark.parametrize("make", [PolygonSet], ids=["polygon"])
def test_ball_rule_needs_the_origin_interior(hausdorff_routes, ring, make):
    # a convex ring whose origin is on or outside its boundary is not
    # star-shaped about it, and takes the sampled route
    K = make(ring)
    assert not K.is_star_shaped()
    hausdorff_distance(Ball(1.0), K)
    assert hausdorff_routes == ["sampled"]


# Pairs of planar handle kinds and their distance, None where the pair has
# no route; the sampled route is good to one boundary step of its scene,
# the ball rule to rounding.  The "facets" ids name the centered square as
# a zonotope
STEP = 2.0 * math.sqrt(2.0) / 2048
EXACT = 1e-12
ROUTES = [
    pytest.param(Ball(1.0), PolygonSet(CENTERED_SQUARE), math.sqrt(2) - 1, EXACT,
                 id="ball-starshaped"),
    # the unit square's corner at the ball's centre: the farthest ball
    # points from it, (-1, 0) to (0, -1), lie at distance 1
    pytest.param(Ball(1.0), unit_square(), 1.0, STEP, id="ball-polygon-sampled"),
    pytest.param(Zonotope(np.eye(2)), Zonotope(2.0 * np.eye(2)), None, None, id="facets-facets"),
    pytest.param(Zonotope(np.eye(2)), rectangle(), None, None, id="facets-zonotope"),
    pytest.param(Zonotope(np.eye(2)), diamond(), None, None, id="facets-wrapper"),
    pytest.param(rectangle(), Zonotope(np.eye(2)), None, None, id="zonotope-zonotope"),
    pytest.param(rectangle(), diamond(), None, None, id="zonotope-wrapper"),
    pytest.param(diamond(), diamond(2.0), None, None, id="wrapper-wrapper"),
    pytest.param(Zonotope(np.eye(2)), unit_square(), None, None, id="facets-polygon"),
    pytest.param(rectangle(), PolygonSet(CENTERED_SQUARE), None, None, id="zonotope-polygon"),
    pytest.param(diamond(), PolygonSet(CENTERED_SQUARE), None, None, id="wrapper-polygon"),
    pytest.param(PolygonSet(CENTERED_SQUARE), unit_square(), None, None, id="polygon-polygon"),
    pytest.param(Ball(1.0), Ball(2.0), None, None, id="ball-ball"),
]


@pytest.mark.parametrize("a,b,expected,tol", ROUTES)
def test_hausdorff_routes(a, b, expected, tol):
    if expected is None:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(InputError, match="^no Hausdorff route for "):
                hausdorff_distance(x, y)
        return
    got = hausdorff_distance(a, b)
    assert abs(got - expected) <= tol
    assert hausdorff_distance(b, a) == got


@pytest.mark.parametrize("a,b,message", [
    pytest.param(object(), Ball(1.0), "^no Hausdorff route for object vs Ball$", id="object"),
    pytest.param(Ball(1.0), object(), "^no Hausdorff route for Ball vs object$",
                 id="ball-object"),
    # a 3D wrapper has no support function and no boundary sampling
    pytest.param(PolarWrapper(Zonotope(np.eye(3))), Ball(1.0),
                 "^no Hausdorff route for PolarWrapper vs Ball$", id="wrapper3d-ball"),
    pytest.param(Zonotope(np.eye(3)), PolarWrapper(Zonotope(np.eye(3))),
                 "^no Hausdorff route for Zonotope vs PolarWrapper$", id="zonotope3d-wrapper"),
    pytest.param(Zonotope(np.eye(3)), BoxUnion([[0, 0, 0]], [[1, 1, 1]]),
                 "^no Hausdorff route for Zonotope vs BoxUnion$", id="zonotope3d-boxes"),
    pytest.param(Ball(1.0), BoxUnion([[-1, -1]], [[1, 1]]),
                 "^no Hausdorff route for Ball vs BoxUnion$", id="ball-boxes"),
    pytest.param(Zonotope(np.eye(3)), Zonotope(2.0 * np.eye(3)),
                 "^no Hausdorff route for Zonotope vs Zonotope$", id="zonotope3d-zonotope3d"),
    pytest.param(Zonotope(np.eye(2)), Ball(1.0),
                 "^no Hausdorff route for Zonotope vs Ball$", id="zonotope-ball"),
])
def test_hausdorff_rejects_unrouted_pairs(a, b, message, hausdorff_routes):
    with pytest.raises(InputError, match=message):
        hausdorff_distance(a, b)
    assert hausdorff_routes == []


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
