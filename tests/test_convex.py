"""Convex bodies: the zonotope support kernel, polar bodies, the planar
polar ring and polar volumes, and Steiner symmetrals of convex rings by
the section kernel.  Supports and radial functions of vertex rings are
read off their vertices and facets (reference_forms.dense_radial), with
a zonotope's ring and its polar's from the convex hull oracle
(reference_forms.zonotope_hull, polar_hull)."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pettybox.convex
import pettybox.geometry
import pettybox.projection
from pettybox import (Ball, BoxUnion, InputError, NumericalError,
                      PolarWrapper, PolygonSet, Zonotope, petty_product,
                      polar_polygon, polar_steiner_inclusion_check, polar_volume,
                      projection_body, steiner_symmetrize)
from pettybox.corpus import random_box_union, random_polygon, regular_polygon
from pettybox.geometry import (BLOCK_PAIRS, circle_grid, cross_2d, default_grid,
                               integrate_sphere, octant_grid, rotation_2d, steiner_ring)

from hull import convex_hull_2d
from recorders import bodies_built, measures_built  # noqa: F401
from reference_forms import (dense_radial, dense_support, normals_offsets,
                             polar_hull, quadrature_polar_area, ring_polar_area,
                             shoelace_area, zonogon_area, zonotope_hull)

E1 = np.array([1.0, 0.0])
EPS = float(np.finfo(float).eps)
E2 = np.array([0.0, 1.0])


def random_centered_body(seed, points=12):
    """The CCW vertex ring of a random convex polygon, its vertex mean at
    the origin."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(points, 2))
    hull = convex_hull_2d(pts)
    return hull - hull.mean(axis=0)


def vertex_support(vertices, nodes):
    """Support of a planar polytope at each row of a node stack: the
    largest product with a vertex."""
    return np.max(np.asarray(nodes, dtype=float) @ np.asarray(vertices).T, axis=1)


def ring_radial(vertices, nodes):
    """Radial function of a convex ring with the origin interior, read
    off the normals and offsets of its convex hull, which drops the
    vertices parallel generators repeat."""
    return dense_radial(*normals_offsets(convex_hull_2d(vertices)), nodes)


def kernel_polar_area(Z):
    """Area of the polar of the planar zonotope Z by the package's kernel
    over its generators sorted over a half turn, the one petty_product
    reads off a polygon's edges."""
    return pettybox.convex._sorted_polar_area(pettybox.convex._sort_half_turn(Z.generators))


# --------------------------------------------------------------------- balls

def test_ball_validation():
    with pytest.raises(InputError):
        Ball(0.0)
    with pytest.raises(InputError):
        Ball(-1.0)


# ------------------------------------------------ radial and planar support
#
# The radial function of a planar zonotope, the least offset /
# (u . normal) over the facets of its hull oracle ring, and the support of
# its polar_polygon must meet polar duality, rho_K(u) h_{K polar}(u) = 1.  The planar Zonotope.support_batch is the
# blocked sum of |u . g| that 3D bodies use; it must agree with the dense
# formula over every generator to 1e-13 of the body's size, on nodes
# where some u . g is zero or changes sign (a generator's breakpoint, the
# +-pi seam, the axes) and with parallel and antiparallel generators,
# whose terms cancel or add.

SEAM = np.array([[-1.0, 0.0], [-1.0, -0.0], [-1.0, 1e-300], [-1.0, -1e-300],
                 [-1.0, 1e-17], [-1.0, -1e-17], [1.0, 0.0], [0.0, -1.0]])


def _directions(points):
    p = np.asarray(points, dtype=float)
    return p / np.hypot(p[:, 0], p[:, 1])[:, None]


def _probe_nodes(rng, special):
    """A small circle grid, the special directions and their negatives,
    the seam nodes and a custom grid of random directions in random
    order."""
    custom = _directions(rng.normal(size=(64, 2)))
    nodes = np.vstack([circle_grid(257).nodes, special, -special, SEAM, custom])
    return nodes[rng.permutation(len(nodes))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 40), st.floats(1e-3, 1e3))
def test_radial_matches_dense_formula_and_polar_duality(seed, points, scale):
    rng = np.random.default_rng(seed)
    g = scale * rng.normal(size=(points, 2))
    Z = Zonotope(g)
    ring = zonotope_hull(Z.generators)
    normals, offsets = normals_offsets(ring)
    polar = polar_polygon(Z)
    # nodes at the vertex angles and across the +-pi seam
    nodes = _probe_nodes(rng, _directions(ring))
    radial = dense_radial(normals, offsets, nodes)
    # the radial divides an offset by d = u . normal at the minimizing
    # facet, and d carries rounding, so the product is 1 to a few eps / d;
    # the polar's row J g_j / H_j carries the rounding of H_j, a few eps
    # |S_j| |g_j| / H_j, at most eps times the size over the least offset
    dots = nodes @ normals.T
    with np.errstate(divide="ignore"):
        ratios = np.where(dots > 0.0, offsets / dots, np.inf)
    d = dots[np.arange(len(nodes)), np.argmin(ratios, axis=1)]
    size = float(np.sum(np.hypot(g[:, 0], g[:, 1])))
    bound = 8.0 * EPS / d + 16.0 * EPS * size / float(np.min(offsets))
    assert np.all(np.abs(radial * vertex_support(polar, nodes) - 1.0) <= bound)


_AXES = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)
# fixed angles make parallel, antiparallel (0.3 - pi) and axis-aligned
# generators likely
_generator = st.tuples(
    st.one_of(st.sampled_from(_AXES + (0.3, 0.3 - math.pi)),
              st.floats(-math.pi, math.pi)),
    st.floats(1e-3, 1e3))


def _check_planar_support(Z, rng):
    g = Z.generators
    # nodes at the breakpoints, where a generator turns orthogonal
    nodes = _probe_nodes(rng, _directions(np.column_stack([-g[:, 1], g[:, 0]])))
    got = Z.support_batch(nodes)
    want = dense_support(g, nodes)
    size = float(np.sum(np.hypot(g[:, 0], g[:, 1])))
    assert np.all(np.abs(got - want) <= 1e-13 * size)


@settings(max_examples=80, deadline=None)
@given(st.lists(_generator, min_size=1, max_size=40), st.integers(0, 10**6))
def test_zonotope_support_batch_matches_dense_formula(generators, seed):
    angles, lengths = np.array(generators).T
    _check_planar_support(Zonotope(_generators(angles, lengths)), np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_AXES + (0.3, 2.0)),
       st.lists(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=1, max_size=8),
       st.integers(0, 10**6))
def test_zonotope_support_batch_single_direction(angle, lengths, seed):
    # every generator on one line, in either sense: a segment
    Z = Zonotope(_generators(np.full(len(lengths), angle), lengths))
    _check_planar_support(Z, np.random.default_rng(seed))


def test_radial_and_support_walk_reject_bad_inputs():
    Z = Zonotope([[1.0, 0.0], [0.3, 1.0]])
    nodes3 = default_grid(3).nodes[:8]
    # a node stack whose width is not the body's dimension, either way
    for body, nodes in [(Z, nodes3), (_random_zonotope_3d(2), default_grid(2).nodes[:8])]:
        with pytest.raises(InputError):
            body.support_batch(nodes)


# ----------------------------------------------------------------- zonotopes

def test_zonotope_support_and_box_detection():
    Z = Zonotope([[1, 0], [0, 1]])
    assert Z.support_batch(np.array([[1.0, 1.0]]))[0] == 2.0
    assert np.allclose(Z.axis_box_halfwidths(), [1.0, 1.0])
    tilted = Zonotope([[1, 1], [0, 1]])
    assert tilted.axis_box_halfwidths() is None


def test_zonotope_volume():
    assert zonogon_area([[1, 0], [0, 1]]) == 4.0
    assert Zonotope([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).volume() == 8.0
    g = np.random.default_rng(3).normal(size=(3, 3))
    assert abs(Zonotope(g).volume() - 8.0 * abs(np.linalg.det(g))) <= 1e-12


def test_zonotope_validation():
    with pytest.raises(InputError):
        Zonotope(np.zeros((0, 2)))
    with pytest.raises(InputError):
        Zonotope([[0.0, 0.0]])
    with pytest.raises(InputError):
        Zonotope([[1.0, float("inf")]])
    # the squared norm of 5e-221 underflows to 0; its components do not
    g = 5e-221 * np.eye(3)
    assert np.array_equal(Zonotope(g).generators, g)
    assert np.array_equal(Zonotope(g[:2, :2]).generators, g[:2, :2])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_zonogon_materialization_matches_support(seed):
    # the support kernel and the pair-sum area against the zonotope's
    # ring from the hull oracle
    rng = np.random.default_rng(seed)
    gens = rng.normal(size=(int(rng.integers(2, 8)), 2))
    Z = Zonotope(gens)
    ring = zonotope_hull(gens)
    scale = 1.0 + float(np.abs(gens).sum())
    z = rng.normal(size=(20, 2))
    assert np.all(np.abs(Z.support_batch(z) - vertex_support(ring, z)) <= 1e-9 * scale)
    assert abs(zonogon_area(gens) - shoelace_area(ring)) <= 1e-9 * scale ** 2


# an axis box of half-widths 1 and 1e-15, thinner than its ring resolves
THIN_BOX = [[1.0, 0.0], [0.0, 1e-15]]


def _generators(angles, lengths):
    return np.asarray(lengths)[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


# Generators that a ring merging turns below its resolution once joined
# in links.  In the first two, a 5e-14-long generator turns by a quarter
# or more from each neighbour; the real turn between the long neighbours
# (in the second, across the seam) must still count.  In the third,
# sorted by angle: a long generator at 8.1 deg with a short parallel one,
# short ones at 26.1 and 44.2 deg, a long one 2e-12 rad past the last, a
# long one at 53.3 deg with a short parallel one.  The polar's closed
# form merges nothing, so it keeps every real turn: it meets quadrature.
ROUNDING_LINKS = {
    "bridge": _generators((0.0, 0.25, 0.5, math.pi / 2), (1.0, 5e-14, 1.0, 1.0)),
    "bridge-across-seam": _generators((0.0, 0.5, math.pi - 0.3, math.pi - 0.05),
                                      (1.0, 1.0, 1.0, 5e-14)),
    "cut-at-largest-turn": [[-8.5428217487045777e-01, -1.2199049067523247e-01],
                            [6.0238341444425123e-13, 8.6019643701689948e-14],
                            [1.1071009499065289e-12, 5.4220239125837652e-13],
                            [-1.0296810617038781e-13, -5.0428602191813850e-14],
                            [-8.1456286401424221e-13, -7.9151179380231367e-13],
                            [-5.7784723814213601e-01, -5.6149491244114991e-01],
                            [-1.1860138101676956e+00, -1.5902532571637038e+00],
                            [-2.1917957755952773e-13, -2.9388446755942957e-13]],
}


@pytest.mark.parametrize("generators", list(ROUNDING_LINKS.values()), ids=list(ROUNDING_LINKS))
def test_rounding_links_keep_real_turns(generators):
    Z = Zonotope(generators)
    area = zonogon_area(generators)
    assert abs(shoelace_area(zonotope_hull(generators)) - area) <= 1e-13 * area
    q = quadrature_polar_area(Z, 1 << 16)
    assert abs(kernel_polar_area(Z) - q.value) <= q.error


def test_polar_of_nearly_parallel_facets_keeps_its_area():
    # along a direction 7.8e-12 rad from an edge, the symmetral's
    # projection body has facets a hair apart; pruning the polar's
    # collinear-looking vertices once dropped four of them and lost
    # 1.6e-5 of the polar area.  The polar ring keeps every vertex, and
    # its area and the closed form meet quadrature
    E = random_polygon(3)
    v = E.vertices
    edge = v[28] - v[27]
    u = rotation_2d(7.843033188476106e-12) @ (edge / np.linalg.norm(edge))
    Z = projection_body(steiner_symmetrize(E, u))
    q = quadrature_polar_area(Z, 1 << 16)
    assert abs(kernel_polar_area(Z) - q.value) <= q.error
    assert abs(shoelace_area(polar_polygon(Z)) - q.value) <= q.error


def _turns(ring):
    """Angle about the origin from each row of a ring to the next."""
    ahead = np.roll(ring, -1, axis=0)
    return np.arctan2(cross_2d(ring, ahead), np.sum(ring * ahead, axis=1))


@pytest.mark.parametrize("delta, count", [(1e-16, 4), (1e-13, 4), (1e-12, 4),
                                          (2e-12, 6), (1e-11, 6)])
def test_zonotope_seam_merge_threshold(delta, count):
    # the last generator lies delta rad short of angle pi, so it is the
    # first generator reversed up to delta.  The polar ring merges
    # nothing: it keeps all six rows at every delta, and its two seam
    # rows turn by delta about the origin, to rounding.  Only `count`
    # rows turn by more than 1.5e-12 rad, so a ring merging turns below
    # that would keep `count` vertices
    Z = Zonotope([[1, 0], [0.3, 1], [-1, delta]])
    P = polar_polygon(Z)
    assert P.shape == (6, 2)
    turns = _turns(P)
    assert np.all(np.abs(turns[[2, 5]] - delta) <= 4.0 * EPS)
    assert np.count_nonzero(turns > 1.5e-12) == count
    q = quadrature_polar_area(Z)
    assert abs(shoelace_area(P) - q.value) <= q.error
    assert abs(kernel_polar_area(Z) - q.value) <= q.error


def test_zonotope_ring_merges_turns_below_rounding():
    # symmetrals of regular polygons along these directions carry edges
    # of rounding length, and generators 1e-12 rad apart at 4e-5 length,
    # whose turns the ring's coordinates cannot resolve.  The polar ring
    # keeps a row for each and steps back by no more than rounding; its
    # convex hull merges those turns and has the ring's area to rounding,
    # so the repeated rows dent nothing, and the ring's area and the
    # closed form meet quadrature
    for m, phase, u in [(64, 0.0, E2), (110, 0.1, np.array([math.sqrt(0.5)] * 2))]:
        Z = projection_body(steiner_symmetrize(regular_polygon(m, phase=phase), u))
        P = polar_polygon(Z)
        assert P.shape == (2 * len(Z.generators), 2)
        assert np.min(_turns(P)) >= -4.0 * EPS
        hull = convex_hull_2d(P)
        assert len(hull) < len(P)
        area = shoelace_area(hull)
        assert abs(shoelace_area(P) - area) <= 16.0 * EPS * area
        q = quadrature_polar_area(Z, 1 << 16)
        assert abs(kernel_polar_area(Z) - q.value) <= q.error
        assert abs(shoelace_area(P) - q.value) <= q.error


def test_planar_polar_projection_body_never_prunes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("prune_collinear called on the projection-body path")

    monkeypatch.setattr(pettybox.geometry, "prune_collinear", refuse)
    E = random_polygon(4, min_vertices=40, max_vertices=40)
    report = petty_product(E)
    assert 0.0 < report.product <= report.bound
    holds, margin = polar_steiner_inclusion_check(E, np.array([0.6, 0.8]))
    assert holds and margin <= 1.0 + 1e-9


# -------------------------------------------------------- planar polar area
#
# The polar area of a planar zonotope is the kernel's closed form over its
# generators sorted over a half turn, with no ring; the ring route of the
# hull oracle (reference_forms.ring_polar_area) must agree with it within
# 1e-13.  A zonotope whose generators are all exactly parallel raises
# InputError in polar_polygon, and a thin one has a closed form good to
# about eps * scale / width.  polar_volume takes axis boxes only.

def _campaign_bodies():
    """Projection bodies of campaign-style polygons and of their
    symmetrals along a drawn direction."""
    for seed in (5, 6, 7):
        for i in range(8):
            E = random_polygon(seed, i)
            u = np.random.default_rng((seed, i, 17)).normal(size=2)
            yield projection_body(E)
            yield projection_body(steiner_symmetrize(E, u / np.linalg.norm(u)))


def _closed_form_cases():
    yield from _campaign_bodies()
    for delta in (1e-16, 1e-13, 1e-12, 2e-12, 1e-11):
        yield Zonotope([[1, 0], [0.3, 1], [-1, delta]])
    for generators in ROUNDING_LINKS.values():
        yield Zonotope(generators)
    yield Zonotope(np.random.default_rng(450).normal(size=(450, 2)))
    # 225 parallel pairs
    yield projection_body(regular_polygon(450, phase=0.1))


def test_planar_polar_area_matches_the_ring_route():
    for Z in _closed_form_cases():
        want = ring_polar_area(Z)
        assert abs(kernel_polar_area(Z) - want) <= 1e-13 * want


def test_planar_axis_box_polar_area_is_exact():
    # polar_volume takes the cross-polytope closed form of an axis box,
    # and the sorted kernel over the same generators gives the same bits
    for a, b in [(1.0, 1.0), (0.3, 7.0), (1.0 / 3.0, 0.1), (1.0, 1e-15)]:
        Z = Zonotope([[0.0, b], [a, 0.0]])
        assert polar_volume(Z).value == kernel_polar_area(Z) == 2.0 / (a * b)
    for seed in range(100):
        B = random_box_union(seed, dim=2)
        for E in (B, steiner_symmetrize(B, E1), steiner_symmetrize(B, E2)):
            Z = projection_body(E)
            a, b = Z.axis_box_halfwidths()
            assert (petty_product(E).polar_projection_volume == kernel_polar_area(Z)
                    == 2.0 / (a * b))


@pytest.mark.parametrize("generators, parallel", [
    ([[1.0, 0.0]], True),
    ([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]], True),
    ([[0.3, 1.0], [-0.6, -2.0]], True),
    (_generators((0.4, 0.4 + 1e-13), (1.0, 2.0)), False),
    (_generators((0.0, 1e-13, -1e-13), (1.0, 2.0, 0.5)), False),
    (_generators((0.0, math.pi - 1e-13), (1.0, 2.0)), False),
    (_generators((5e-14, -5e-14), (1.0, 1.0)), False),
    (THIN_BOX, False),
], ids=["one", "parallel", "antiparallel", "1e-13-apart", "1e-13-apart-at-0",
        "1e-13-across-seam", "1e-13-astride-seam", "short"])
def test_degenerate_zonotope_keeps_its_error(generators, parallel):
    Z = Zonotope(generators)
    if parallel:
        # a segment has an unbounded polar: the ring says so before the
        # kernel, whose edge supports rounding can leave positive, and
        # polar_volume takes no segment that is not an axis box
        with pytest.raises(InputError, match="degenerate"):
            polar_polygon(Z)
        with pytest.raises(InputError, match="degenerate|no auto route"):
            polar_volume(Z)
        return
    if generators is THIN_BOX:
        # a thin axis box takes its cross-polytope closed form 2 / (ab),
        # which the kernel meets
        assert polar_volume(Z).value == kernel_polar_area(Z) == 2.0 / 1e-15
        return
    # generators 1e-13 rad apart span a full-dimensional sliver, 1e-13 of
    # its length wide: the closed form and the hull oracle's ring route
    # agree to about eps * scale^2 / area, the rounding floor of both
    g = Z.generators
    size = float(np.sum(np.hypot(g[:, 0], g[:, 1])))
    want = ring_polar_area(Z)
    floor = 4.0 * EPS * size ** 2 / zonogon_area(g) * want
    assert abs(kernel_polar_area(Z) - want) <= floor
    assert abs(shoelace_area(polar_polygon(Z)) - want) <= floor


@pytest.mark.parametrize("scale", [1e-300, 1e-162, 1.0, 1e160, 1e300])
def test_parallel_generators_are_told_apart_at_every_scale(scale, monkeypatch):
    # polar_polygon's parallel test reads the generators scaled by a power
    # of two: a square's cross products at 5e-163 no longer underflow to a
    # segment.  Unit edge supports stand in for the kernel's, which leave
    # float range at the extreme scales, so the square's ring is J g
    monkeypatch.setattr(pettybox.convex, "_edge_supports", lambda g: np.ones(len(g)))
    square = Zonotope(scale * np.array([[0.5, 0.0], [0.0, 0.5]]))
    g = pettybox.convex._sort_half_turn(square.generators)
    assert np.array_equal(polar_polygon(square)[:2], np.column_stack([g[:, 1], -g[:, 0]]))
    segment = Zonotope(scale * np.array([[0.5, 0.25], [-1.0, -0.5], [2.0, 1.0]]))
    with pytest.raises(InputError, match="all generators parallel"):
        polar_polygon(segment)


@pytest.mark.parametrize("generators", [
    [[1.0, 0.0], [2.0, 0.0]],
    [[1.0, 0.0], [np.nan, 1.0]],
], ids=["parallel", "nan"])
def test_sorted_polar_area_needs_positive_supports(generators):
    # the kernel behind the ring-free routes raises where an edge's
    # support H_j is not positive, nan included, instead of dividing
    with pytest.raises(NumericalError, match="nonpositive support"):
        pettybox.convex._sorted_polar_area(np.array(generators))


def test_planar_products_never_build_a_zonotope_ring(monkeypatch, measures_built,
                                                     bodies_built):
    E = random_polygon(4, min_vertices=40, max_vertices=40)
    polygons = [E, steiner_symmetrize(E, np.array([0.6, 0.8]))]
    boxes = random_box_union(3, dim=2)

    def refuse(*args):
        raise AssertionError("a polar ring built on the product path")

    monkeypatch.setattr(pettybox.convex, "polar_polygon", refuse)
    monkeypatch.setattr(pettybox.projection, "polar_polygon", refuse)
    for X in polygons + [boxes]:
        report = petty_product(X)
        assert 0.0 < report.product <= report.bound
    # a polygon's product reads its edges: only the box union builds its
    # measure and its body
    assert measures_built == [boxes.surface_measure()]
    assert len(bodies_built) == 1
    assert np.array_equal(bodies_built[0].generators, projection_body(boxes).generators)


@settings(max_examples=60, deadline=None)
@given(st.lists(_generator, min_size=1, max_size=40))
def test_planar_zonotope_volume_is_the_pair_sum(generators):
    angles, lengths = np.array(generators).T
    g = _generators(angles, lengths)
    want = 4.0 * sum(abs(float(np.linalg.det(g[[i, j]])))
                     for i, j in itertools.combinations(range(len(g)), 2))
    size = float(np.sum(lengths))
    assert abs(zonogon_area(g) - want) <= 1e-13 * (want + size ** 2)


# ------------------------------------------------------------------- polars

def test_polar_polygon_square_is_cross():
    P = polar_polygon(Zonotope([[1, 0], [0, 1]]))
    assert P.tolist() == [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]


def _regular_zonotope(m):
    """The regular 2m-gon as the zonotope on m unit generators at angles
    pi j / m, scaled to circumradius 1 by its hull oracle ring."""
    t = math.pi * np.arange(m) / m
    g = np.column_stack([np.cos(t), np.sin(t)])
    return Zonotope(g / np.max(np.linalg.norm(zonotope_hull(g), axis=1)))


def test_polar_of_regular_polygon_has_unit_inradius():
    for m in (3, 5, 8, 64):
        P = polar_polygon(_regular_zonotope(m))
        # polar of a circumradius-1 regular 2m-gon is a regular 2m-gon
        # with inradius exactly 1
        assert np.max(np.abs(normals_offsets(P)[1] - 1.0)) <= 1e-12


def test_polar_polygon_facet_normals_become_vertices():
    # the regular hexagon on unit generators at 0, 60 and 120 degrees has
    # side 2 and inradius sqrt(3): the polar's rows are the ring's outer
    # unit normals J g_j over sqrt(3), in the generators' order, then
    # their negatives
    t = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
    g = np.column_stack([np.cos(t), np.sin(t)])
    normals = np.column_stack([g[:, 1], -g[:, 0]])
    P = polar_polygon(Zonotope(g[::-1]))
    assert np.allclose(P, np.vstack([normals, -normals]) / math.sqrt(3.0), rtol=0.0, atol=1e-15)


def test_polar_involution():
    # the polar of the polar ring, by the ring's own normals and offsets,
    # is the zonotope's ring
    for seed in (1, 5, 9):
        g = np.random.default_rng(seed).normal(size=(6, 2))
        n, h = normals_offsets(polar_polygon(Zonotope(g)))
        a = np.array(sorted(map(tuple, np.round(n / h[:, None], 9))))
        b = np.array(sorted(map(tuple, np.round(zonotope_hull(g), 9))))
        assert a.shape == b.shape
        assert np.allclose(a, b, atol=1e-9)


def test_polar_polygon_errors(monkeypatch):
    for body in (Ball(1.0), Zonotope(np.eye(3)), PolarWrapper(Zonotope(np.eye(3))), "x"):
        with pytest.raises(InputError, match="^no planar polar ring for .*; polar_polygon takes"):
            polar_polygon(body)
    # parallel generators span a segment
    with pytest.raises(InputError, match="^zonotope is degenerate"):
        polar_polygon(Zonotope([[1.0, 1.0], [2.0, 2.0]]))
    # a subnormal edge support has lost its digits: the square of side
    # 1e-160 has H_j of about 5e-321
    tiny = 1e-160 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericalError, match="^zonotope edge supports are subnormal"):
        polar_polygon(projection_body(PolygonSet(tiny)))
    # a nan generator, in place of the sorted square's, passes the parallel
    # test and leaves no edge a positive support
    monkeypatch.setattr(pettybox.convex, "_sort_half_turn",
                        lambda g: np.array([[1.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(NumericalError, match="nonpositive support"):
        polar_polygon(Zonotope([[1.0, 0.0], [0.0, 1.0]]))


# The polar ring's rows against the hull oracle: every row lies on the
# polar's boundary, where the zonotope's support is 1, and every vertex
# of the oracle polar is among the rows.  Parallel generators repeat a
# row, which the oracle's hull leaves out.  A row carries the rounding of
# its H_j, a few eps times size^2 / area for the zonotope's size (its
# generator lengths summed), which grows as the body thins, and the
# support sums k terms.  The oracle reads each edge's normal off a
# difference of prefix sums, whose rounding is eps times the size, so
# the pole of an edge 2 g is off by about eps * size / |g| of the
# polar's radius.

def _polar_ring_cases():
    for i in range(12):
        E = random_polygon(61, i)
        yield f"polygon-{i}", projection_body(E)
        yield f"symmetral-{i}", projection_body(steiner_symmetrize(E, np.array([0.6, 0.8])))
    for a, b in [(1.0, 1.0), (3.0, 0.2), (1e-3, 50.0)]:
        yield f"rectangle-{a}-{b}", projection_body(PolygonSet([[0, 0], [a, 0], [a, b], [0, b]]))
        yield f"tilted-rectangle-{a}-{b}", projection_body(
            PolygonSet(np.array([[0, 0], [a, 0], [a, b], [0, b]]) @ rotation_2d(0.3).T))
    for m in (4, 6, 16, 64, 450):
        yield f"regular-{m}", projection_body(regular_polygon(m, phase=0.1))
    for seed in range(6):
        B = random_box_union(seed, dim=2)
        yield f"boxes-{seed}", projection_body(B)
        yield f"box-symmetral-{seed}", projection_body(steiner_symmetrize(B, E1))
    for delta in (1e-16, 1e-13, 1e-12, 2e-12, 1e-11):
        yield f"seam-{delta}", Zonotope([[1, 0], [0.3, 1], [-1, delta]])


def test_polar_polygon_rows_lie_on_the_hull_oracle_polar():
    for name, Z in _polar_ring_cases():
        P = polar_polygon(Z)
        want = polar_hull(Z)
        assert P.shape == (2 * len(Z.generators), 2), name
        length = np.hypot(Z.generators[:, 0], Z.generators[:, 1])
        floor = 16.0 * EPS * (length.sum() ** 2 / zonogon_area(Z.generators) + len(length))
        assert np.all(np.abs(Z.support_batch(P) - 1.0) <= floor), name
        radius = float(np.max(np.linalg.norm(want, axis=1)))
        gap = np.min(np.linalg.norm(want[:, None, :] - P[None, :, :], axis=2), axis=1)
        assert np.max(gap) <= 16.0 * EPS * radius * length.sum() / length.min(), name


@pytest.mark.parametrize("body", [Zonotope([[0.5, 0.5], [-0.5, 0.5]]),
                                  Zonotope([[1.0, 0.5], [0.0, 1.0]]),
                                  Ball(1.0), "x"],
                         ids=["facets", "zonotope", "ball", "string"])
def test_polar_wrapper_rejects_planar_bodies(body):
    # a planar polar is exact as a vertex ring, so there is no planar
    # wrapper, and a wrapper holds nothing but a 3D zonotope.  The
    # "facets" id names the diamond, as the zonotope on its half edges
    with pytest.raises(InputError, match="polar_polygon"):
        PolarWrapper(body)


def _polar_of_polar(seed):
    """A planar polar as a body: the ring of polar_polygon is centrally
    symmetric, so it is the zonotope on the halves of its first k edges."""
    P = polar_polygon(Zonotope(np.random.default_rng(seed).normal(size=(5, 2))))
    return Zonotope(0.5 * np.diff(P, axis=0)[:len(P) // 2])


_SECTION_BODIES = {
    "ball": lambda seed: Ball(0.5 + np.random.default_rng(seed).uniform()),
    "zonotope2": lambda seed: Zonotope(np.random.default_rng(seed).normal(size=(5, 2))),
    "zonotope3": lambda seed: _random_zonotope_3d(seed),
    # the zonotope on a random convex polygon's edges; the key keeps its
    # test ids
    "facet_polytope": lambda seed: projection_body(PolygonSet(random_centered_body(seed))),
    # a planar polar by polar_polygon, as a body; the key keeps its test ids
    "polar_wrapper": _polar_of_polar,
    # supports with flat pieces, some above 1
    "flat_zonotope2": lambda seed: Zonotope(seed * np.array([[1.0, 1.0], [1.0, -1.0],
                                                             [0.5, 0.0]])),
    "flat_zonotope3": lambda seed: Zonotope(seed * np.array([[1.0, 0.0, 1.0],
                                                             [1.0, 0.0, -1.0],
                                                             [0.0, 1.0, 0.0]])),
    # the rhombus with vertices (+-2.5 seed, 0) and (0, +-2 seed)
    "flat_polytope": lambda seed: Zonotope(seed * np.array([[1.25, 1.0], [1.25, -1.0]])),
}


def _support(K, nodes):
    """Support of a body at each row of a node stack, from its own form:
    r |z| for a ball, the kernel for a zonotope."""
    if isinstance(K, Ball):
        return K.radius * np.linalg.norm(nodes, axis=1)
    return K.support_batch(nodes)


def _polar(K):
    """The polar's exact form: the disk of the reciprocal radius, the
    vertex ring of polar_polygon for a planar zonotope, or the lazy
    wrapper of a 3D zonotope."""
    if isinstance(K, Ball):
        return Ball(1.0 / K.radius)
    if K.dim == 2:
        return polar_polygon(K)
    return PolarWrapper(K)


def _radial(P, nodes):
    """Radial function of one of the polar's exact forms at unit nodes:
    a ball's radius, a wrapper's reciprocal support of its zonotope, a
    ring's least offset / (u . normal)."""
    if isinstance(P, Ball):
        return np.full(len(nodes), P.radius)
    if isinstance(P, PolarWrapper):
        return 1.0 / P.body.support_batch(nodes)
    return ring_radial(P, nodes)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", list(_SECTION_BODIES))
def test_polar_sections_are_exact(kind, seed):
    # the polar's exact form (ball, ring or lazy wrapper) meets each line
    # through the origin in a chord whose two ends lie on h_K = 1
    K = _SECTION_BODIES[kind](seed)
    P = _polar(K)
    u = np.random.default_rng(seed).normal(size=(200, 2 if isinstance(K, Ball) else K.dim))
    w = u / np.linalg.norm(u, axis=1, keepdims=True)
    lo, hi = -_radial(P, -w), _radial(P, w)
    assert np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < 0.0) & (0.0 < hi))
    for end in (lo, hi):
        assert np.all(np.abs(_support(K, end[:, None] * w) - 1.0) <= 1e-12 * (1.0 + np.abs(end)))
    assert np.all(_support(K, 0.5 * (lo + hi)[:, None] * w) < 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_polar_sections_of_planar_zonotope_match_its_vertex_form(seed):
    # the section ends of the polar by lines through the origin: by support
    # duality on the generator sum, and from the polar ring
    Z = Zonotope(np.random.default_rng(seed).normal(size=(6, 2)))
    P = polar_polygon(Z)
    u = np.random.default_rng(seed).normal(size=(200, 2))
    w = u / np.linalg.norm(u, axis=1, keepdims=True)
    for end in (w, -w):
        want = 1.0 / Z.support_batch(end)
        assert np.all(np.abs(ring_radial(P, end) - want) <= 1e-12 * want)


# ------------------------------------------------------------- polar volumes

def test_polar_volume_exact_routes():
    # a parallelogram of area 4 is a unimodular image of the square
    # [-1, 1]^2, so its polar has the cross-polytope's area 2
    assert abs(kernel_polar_area(Zonotope([[1.0, 0.0], [0.3, 1.0]])) - 2.0) <= 1e-12
    cube = Zonotope(np.eye(3))
    pv3 = polar_volume(cube)
    assert pv3.error == 0.0
    assert abs(pv3.value - 4.0 / 3.0) <= 1e-15


def test_polar_volume_quadrature_matches_exact_3d():
    # the octant rule converges spectrally on a box: on the cube and on a
    # flat box it meets the closed form to a few ulp, inside its estimate
    for half in ([1.0, 1.0, 1.0], [1.5, 1.25, 1.0]):
        Z = Zonotope(np.diag(half))
        exact = polar_volume(Z).value
        q = polar_volume(Z, method="quadrature")
        assert abs(q.value - exact) <= 8.0 * EPS * exact
        assert abs(q.value - exact) <= q.error
        assert q.error <= 1e-12 * exact


def test_polar_volume_quadrature_error_estimate_2d():
    # the planar midpoint oracle, the reference of the closed form's
    # rounding tests above, holds its own estimate
    for seed in (2, 7):
        K = Zonotope(np.random.default_rng(seed).normal(size=(6, 2)))
        exact = kernel_polar_area(K)
        q = quadrature_polar_area(K)
        assert abs(q.value - exact) <= q.error + 1e-12


def test_polar_volume_denser_grid_tightens():
    # a denser octant rule tightens on a box whose order-16 error shows
    half = np.array([1.0, 1.5, 2.5])
    Z = Zonotope(np.diag(half))
    exact = polar_volume(Z).value
    errors = [abs(integrate_sphere(octant_grid(order), lambda u: Z.support_batch(u) ** -3.0) / 3.0
                  - exact) for order in (8, 16, 24)]
    assert errors[2] <= 1e-2 * errors[1] and errors[1] <= 1e-5 * errors[0]


def test_polar_volume_reverses_containment():
    K = Zonotope([[1.0, 0.0], [0.3, 1.0]])
    L = Zonotope(1.5 * K.generators)
    assert kernel_polar_area(K) >= kernel_polar_area(L)


def test_polar_volume_rejects_bad_method_and_exterior_origin():
    with pytest.raises(InputError):
        polar_volume(Zonotope(np.eye(2)), method="guess")
    # polar volumes take a zonotope or a wrapper, and only a zonotope has a
    # support kernel to integrate
    shifted = PolygonSet([[1, 1], [2, 1], [2, 2], [1, 2]])
    for call, message in [
            (lambda: polar_volume(shifted), "^no auto route for PolygonSet$"),
            (lambda: polar_volume(Ball(1.0)), "^no auto route for Ball$"),
            (lambda: polar_volume(shifted, method="quadrature"),
             "^no quadrature route for PolygonSet$"),
            (lambda: polar_volume(PolarWrapper(Zonotope(np.eye(3))), method="quadrature"),
             "^no quadrature route for PolarWrapper$"),
            (lambda: polar_volume(Ball(1.0), method="quadrature"),
             "^no quadrature route for Ball$"),
            # the quadrature takes 3D axis boxes only, and a 3D zonotope
            # must be a box on either route
            (lambda: polar_volume(Zonotope(np.eye(2)), method="quadrature"),
             "^no quadrature route for Zonotope\\(2 generators, dim=2\\)$"),
            (lambda: polar_volume(_random_zonotope_3d(4), method="quadrature"),
             "^no quadrature route for Zonotope\\(6 generators, dim=3\\)$"),
            (lambda: polar_volume(Zonotope([[1, 0.2, 0], [0, 1, 0], [0, 0, 1]])),
             "^no auto route for Zonotope\\(3 generators, dim=3\\)$"),
            # a zonotope that is not full-dimensional has an unbounded polar
            (lambda: polar_volume(Zonotope([[1, 0, 0], [0, 1, 0]])),
             "^zonotope is degenerate \\(a box of zero half-width\\)$"),
            (lambda: polar_volume(Zonotope([[1, 0, 0], [0, 1, 0]]), method="quadrature"),
             "^zonotope is degenerate \\(a box of zero half-width\\)$"),
            # a planar zonotope that is not a box has no polar volume route
            # and no volume: its polar area is polar_polygon's ring's
            (lambda: polar_volume(Zonotope([[1.0, 0.0], [0.3, 1.0]])),
             "^no auto route for Zonotope\\(2 generators, dim=2\\)$"),
            (lambda: polar_volume(Zonotope([[1, 0.5], [-2, -1]])),
             "^no auto route for Zonotope\\(2 generators, dim=2\\)$"),
            (lambda: Zonotope([[1.0, 0.0], [0.3, 1.0]]).volume(),
             "^no volume route for Zonotope\\(2 generators, dim=2\\)$"),
            (lambda: Zonotope(np.eye(2)).volume(),
             "^no volume route for Zonotope\\(2 generators, dim=2\\)$")]:
        with pytest.raises(InputError, match=message):
            call()


@pytest.mark.parametrize("side,dim", [(1e-55, 3), (1e-81, 3), (1e-110, 3), (1e-162, 2)])
def test_box_polar_volume_raises_when_the_half_widths_underflow(side, dim):
    # a box's projection body has half-widths of its facet areas, and their
    # product underflows to 0 on these cubes and this square
    Z = projection_body(BoxUnion([np.zeros(dim)], [np.full(dim, side)]))
    assert np.all(Z.axis_box_halfwidths() > 0.0)
    with pytest.raises(NumericalError, match="^box half-widths are out of float range"):
        polar_volume(Z)


def _random_zonotope_3d(seed, count=6):
    return Zonotope(np.random.default_rng(seed).normal(size=(count, 3)))


def _box_union_projection_body():
    stairs = BoxUnion([[0, 0, 0], [1, 0, 0], [1, 1, 0]],
                      [[1, 2, 1], [2, 1, 3], [3, 2, 2]])
    return projection_body(stairs)


@pytest.mark.parametrize("make", [lambda: Zonotope(np.diag([0.7, 1.1, 1.3])),
                                  _box_union_projection_body],
                         ids=["zonotope", "box_union"])
def test_polar_volume_shared_grid_matches_a_fresh_build(make, monkeypatch):
    # the shared octant rules give exactly the value and error of rules
    # built afresh for the call
    K = make()
    shared = polar_volume(K, method="quadrature")
    monkeypatch.setattr(pettybox.convex, "octant_grid", octant_grid.__wrapped__)
    assert polar_volume(K, method="quadrature") == shared


def test_quadrature_does_not_rebuild_the_default_grid(monkeypatch):
    polar_volume(Zonotope(np.diag([1.0, 1.5, 2.0])), method="quadrature")

    def refuse(count):
        raise AssertionError(f"Gauss-Legendre rule of {count} nodes solved again")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    pv = polar_volume(Zonotope(np.diag([2.0, 1.0, 1.5])), method="quadrature")
    assert pv.value > 0.0 and pv.error > 0.0


# ------------------------------------------------------- the box quadrature

def _aspect_boxes(count, seed, top=100.0):
    """Half-widths of `count` boxes with aspect max h / min h up to top:
    one axis 1, one at the aspect drawn log-uniformly, and the third
    between them, in a random axis order and at a random scale."""
    rng = np.random.default_rng(seed)
    aspect = np.exp(rng.uniform(0.0, math.log(top), count))
    half = np.column_stack([np.ones(count), aspect ** rng.uniform(0.0, 1.0, count), aspect])
    return rng.permuted(half, axis=1) * np.exp(rng.uniform(-5.0, 5.0, (count, 1)))


@pytest.mark.parametrize("seed", [0, 1])
def test_box_quadrature_error_holds_up_to_the_validated_aspect(seed):
    # every octant rule meets the closed form inside its estimate, up to
    # the largest validated aspect; each aspect band of OCTANT_RULES is hit
    largest = pettybox.convex.OCTANT_RULES[-1][2]
    boxes = _aspect_boxes(300, seed, largest)
    bands = set()
    for half in boxes:
        Z = Zonotope(np.diag(half))
        exact = polar_volume(Z).value
        q = polar_volume(Z, method="quadrature")
        assert abs(q.value - exact) <= q.error
        aspect = max(half) / min(half)
        bands.add(next(r for r in pettybox.convex.OCTANT_RULES if aspect <= r[2]))
    assert len(bands) == len(pettybox.convex.OCTANT_RULES)


@pytest.mark.parametrize("half", [[2.93, 100.0, 1.0], [1.0, 1.0, 100.0], [100.0, 1.0, 100.0],
                                  [2.5, 1.0, 1.0], [1.0, 2.51, 1.0], [10.0, 1.0, 3.0]],
                         ids=["fixed-pair-miss", "needle", "slab", "top-24", "low-48", "top-48"])
def test_box_quadrature_error_holds_on_the_hard_boxes(half):
    # the fixed 24/16 pair's own error misses its difference on the first
    # box by a factor 6; the rules' bands end at these aspects
    Z = Zonotope(np.diag(half))
    exact = polar_volume(Z).value
    q = polar_volume(Z, method="quadrature")
    assert abs(q.value - exact) <= q.error


@pytest.mark.parametrize("half", [[1.0, 1.0, 100.5], [1e-3, 1.0, 1.0], [1.0, 1e300, 1e-300]])
def test_box_quadrature_raises_above_the_validated_aspect(half):
    aspect = max(half) / min(half)
    with pytest.raises(NumericalError, match=f"^box aspect {aspect:.6g} is above 100, "):
        polar_volume(Zonotope(np.diag(half)), method="quadrature")
    # the closed form takes every aspect
    assert polar_volume(Zonotope(np.diag(half))).error == 0.0


@pytest.mark.parametrize("side", [5e-324, 1e-108])
def test_box_quadrature_raises_on_a_reciprocal_support_past_float_range(side):
    # the least subnormal box has a positive support at every node, as every
    # node has a coordinate above 1/2; its reciprocal cubed overflows
    with pytest.raises(NumericalError, match="^integrand returned non-finite values"):
        polar_volume(Zonotope(np.diag([side] * 3)), method="quadrature")


def test_box_quadrature_error_keeps_its_rounding_floor(monkeypatch):
    # with both orders on one grid, the two sums agree bit for bit and the
    # error is the rounding floor alone: gamma_N of the value for the
    # N = 576 terms of the dot product, and the integrand's rounding
    Z = Zonotope(np.diag([1.0, 1.25, 1.5]))
    honest = polar_volume(Z, method="quadrature")
    monkeypatch.setattr(pettybox.convex, "octant_grid", lambda order: octant_grid(24))
    q = polar_volume(Z, method="quadrature")
    assert q.value == honest.value
    u = EPS / 2.0
    floor = (576 * u / (1.0 - 576 * u) + 25 * u) * q.value
    assert q.error == floor > 0.0
    assert honest.error >= floor


# Zonotope.support_batch runs generator-major over blocks of
# BLOCK_PAIRS // k nodes in either dimension.  On a box zonotope every
# product u . g is exact, and with fewer than 8 generators the blocks add
# them in the order of the dense row sum, so the two agree bit for bit.
# Otherwise two sums of k nonnegative terms in other orders differ by at
# most (k - 1) eps of the sum, and two roundings of a 3-term product
# u . g by at most 3 eps |g|.

def _box_zonotopes():
    half = np.random.default_rng(40).uniform(0.1, 3.0, 3)
    return [Zonotope(np.diag(half)),
            Zonotope(np.vstack([np.diag(half), -0.5 * np.diag(half)])),
            _box_union_projection_body()]


def _block_nodes(k):
    """Direction stacks of 0, 1, rows - 1, rows and rows + 1 nodes for a
    block of rows = BLOCK_PAIRS // k nodes, and the default 3D grid."""
    rows = max(1, BLOCK_PAIRS // k)
    rng = np.random.default_rng(k)
    counts = sorted({0, 1, rows - 1, rows, rows + 1})
    return [rng.normal(size=(n, 3)) for n in counts] + [default_grid(3).nodes]


@pytest.mark.parametrize("Z", _box_zonotopes(), ids=["3", "6", "box_union"])
def test_blocked_support_is_the_dense_form_on_box_zonotopes(Z):
    for nodes in _block_nodes(len(Z.generators)):
        assert np.array_equal(Z.support_batch(nodes), dense_support(Z.generators, nodes))


@pytest.mark.parametrize("k", [1, 7, 9, 60, BLOCK_PAIRS + 1])
def test_blocked_support_matches_the_dense_form(k):
    g = np.random.default_rng(k).normal(size=(k, 3))
    size = float(np.sum(np.linalg.norm(g, axis=1)))
    eps = np.finfo(float).eps
    stacks = _block_nodes(k)
    if k > BLOCK_PAIRS:
        # a block is one node, and the dense form on the grid would take 150 MiB
        stacks = stacks[:-1]
    for nodes in stacks:
        got, want = Zonotope(g).support_batch(nodes), dense_support(g, nodes)
        assert got.shape == (len(nodes),)
        assert np.all(np.abs(got - want) <= eps * ((k - 1) * want + 3.0 * size))


def test_blocked_support_gives_the_dense_quadrature(monkeypatch):
    def results():
        return [polar_volume(Z, method="quadrature") for Z in _box_zonotopes()]

    blocked = results()
    monkeypatch.setattr(Zonotope, "support_batch",
                        lambda self, nodes: dense_support(self.generators, nodes))
    assert blocked == results()


def test_blocked_support_on_the_default_grid_stays_under_one_mib():
    # the dense form's two (32768, 6) temporaries peak at 3 MiB on a
    # stack of 32768 directions, and its two (4096, 40) ones at 2.5 MiB
    # for a campaign-sized planar zonotope on the circle
    cases = [(_box_zonotopes()[1], np.random.default_rng(43).normal(size=(1 << 15, 3))),
             (Zonotope(np.random.default_rng(42).normal(size=(40, 2))), default_grid(2).nodes)]
    for Z, nodes in cases:
        tracemalloc.start()
        try:
            Z.support_batch(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# --------------------------------------------------------- convex symmetrals
#
# geometry.steiner_ring, the section kernel behind polygon symmetrals and
# the inclusion check's symmetrized polar, on convex vertex rings.

def _convex(v):
    """Every turn of the ring nonnegative, up to 1e-9 of the largest."""
    e = np.roll(v, -1, axis=0) - v
    turns = cross_2d(e, np.roll(e, -1, axis=0))
    return bool(np.min(turns) >= -1e-9 * float(np.max(np.abs(turns))))


def test_convex_steiner_examples():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    S = steiner_ring(sq, E2)
    got = sorted(map(tuple, np.round(S, 12)))
    assert got == [(0.0, -0.5), (0.0, 0.5), (1.0, -0.5), (1.0, 0.5)]
    tri = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
    S = steiner_ring(tri, E2)
    got = sorted(map(tuple, np.round(S, 12)))
    assert got == [(0.0, -1.0), (0.0, 1.0), (2.0, 0.0)]


def test_convex_steiner_preserves_area_and_reflects():
    rng = np.random.default_rng(6)
    for seed in (2, 4, 8, 16):
        K = random_centered_body(seed)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(angle), math.sin(angle)])
        u /= np.linalg.norm(u)
        S = steiner_ring(K, u)
        assert _convex(S)
        assert abs(shoelace_area(S) - shoelace_area(K)) <= 1e-9 * (1.0 + shoelace_area(K))
        R = np.eye(2) - 2.0 * np.outer(u, u)
        z = circle_grid(256).nodes[::16]
        h = vertex_support(S, z)
        assert np.all(np.abs(h - vertex_support(S, z @ R.T)) <= 1e-9 * (1.0 + np.abs(h)))


def test_convex_steiner_rotation_equivariance():
    K = random_centered_body(12)
    u = np.array([0.6, 0.8])
    R = rotation_2d(0.9)
    left = steiner_ring(K @ R.T, R @ u)
    right = steiner_ring(K, u) @ R.T
    z = circle_grid(512).nodes[::32]
    h = vertex_support(left, z)
    assert np.all(np.abs(h - vertex_support(right, z)) <= 1e-9 * (1.0 + np.abs(h)))
