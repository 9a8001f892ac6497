"""Polygons, box unions, surface measures, column structures, Steiner and
spherical symmetrization, set metrics, the boundary-slicing identity, and
the JSON set format."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pettybox import (Ball, BoxUnion, InputError, NonGenericPointError,
                      PolygonSet, UnsupportedDirectionError, coarea_check,
                      column_structure, is_regular_direction, perimeter,
                      section_length_gradient, set_from_json, set_to_json,
                      spherical_symmetral, steiner_symmetrize,
                      surface_measure, symmetric_difference_distance,
                      vertical_boundary_measure, volume)
from pettybox.corpus import random_box_union, random_polygon
from pettybox.geometry import frame_to_last_axis, rotation_2d
from pettybox.sets import _check_simple, load_set_file

from reference_forms import check_simple_loop


def unit_square():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def centered_square():
    return PolygonSet([[-1, -1], [1, -1], [1, 1], [-1, 1]])


def right_triangle():
    return PolygonSet([[0, 0], [2, 0], [0, 2]])


def staircase():
    return BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])


def l_tromino():
    return BoxUnion([[0, 0], [0, 1]], [[2, 1], [1, 2]])


def c_shape():
    # 3x3 square with a 2x1 notch cut from the right side
    return PolygonSet(
        [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]])


E2 = np.array([0.0, 1.0])
E1 = np.array([1.0, 0.0])


# ------------------------------------------------------------ basic measures

def test_volume_examples():
    assert volume(unit_square()) == 1.0
    assert abs(volume(right_triangle()) - 2.0) <= 1e-15
    assert volume(l_tromino()) == 3.0
    assert volume(staircase()) == 4.0
    assert volume(c_shape()) == 7.0
    assert volume(BoxUnion([[0, 0, 0]], [[1, 2, 3]])) == 6.0


def test_perimeter_examples():
    assert perimeter(unit_square()) == 4.0
    assert perimeter(l_tromino()) == 8.0
    assert perimeter(staircase()) == 10.0
    # 3D: unit cube has surface area 6
    assert perimeter(BoxUnion([[0, 0, 0]], [[1, 1, 1]])) == 6.0


def test_polygon_validation():
    with pytest.raises(InputError):
        PolygonSet([[0, 0], [1, 0]])  # too few vertices
    with pytest.raises(InputError):
        PolygonSet([[0, 0], [0, 1], [1, 1], [1, 0]])  # clockwise
    with pytest.raises(InputError):
        PolygonSet([[0, 0], [1, 0], [1, 0], [0, 1]])  # repeated vertex
    with pytest.raises(InputError):
        PolygonSet([[0, 0], [1, 1], [1, 0], [0, 1]])  # bowtie crossing
    with pytest.raises(InputError):
        # vertex (1,0) touches the interior of the bottom edge
        PolygonSet([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]])
    with pytest.raises(InputError):
        PolygonSet([[0, 0], [1, 0], [1, float("nan")]])


# ------------------------------------------------------- simplicity check

CROSS = "polygon edges cross; the chain is not simple"
TOUCH = "polygon edges touch; the chain is not simple"


def _verdict(check, chain):
    """The InputError message of a simplicity check on a chain, or None."""
    try:
        check(np.asarray(chain, dtype=float))
    except InputError as err:
        return str(err)
    return None


def _assert_matches_loop(chain):
    """The sweep decides and words its error as the loop does, also with
    blocks of one and of three pairs, which split one edge's partners
    across blocks."""
    expected = _verdict(check_simple_loop, chain)
    assert _verdict(_check_simple, chain) == expected
    for pairs in (1, 3):
        with mock.patch("pettybox.sets.BLOCK_PAIRS", pairs):
            assert _verdict(_check_simple, chain) == expected
    return expected


@pytest.mark.parametrize("chain,expected", [
    # vertical and horizontal edges sharing abscissae, no contact
    ([[0, 0], [2, 0], [2, 2], [1, 2], [1, 1], [0, 1]], None),
    # the vertical edge at x = 1 ends on the bottom edge
    ([[0, 0], [2, 0], [2, 2], [1, 2], [1, 0], [0, 1]], TOUCH),
    # the bottom edge's x-range [0, 1] meets that of the middle step,
    # [1, 2], in one point; the edges are apart
    ([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [0, 2]], None),
    # an edge over x in [0, 1] ends on the vertical edge at x = 1
    ([[1, 1], [1, -1], [3, -1], [3, 3], [-1, 3], [-1, 0.5], [0, 0.5], [1, 0]], TOUCH),
    # the second edge folds back onto the first
    ([[0, 0], [2, 0], [1, 0], [1, 1]], TOUCH),
    # edges 0 and m - 1 overlap, but are adjacent and never compared
    ([[0, 0], [2, 0], [1, 0]], None),
    ([[0, 0], [1, 1], [1, 0], [0, 1]], CROSS),
    # edge 0 is touched by edge 2 and crossed by edge 3
    ([[2, 0], [2, 2], [0, 0], [3, 0], [0, 3]], CROSS),
    # edge 0 touches (fold-back) before edge 3 crosses edge 5
    ([[0, 0], [4, 0], [2, 0], [2, 1], [4, 3], [4, 2], [0, 3]], TOUCH),
    ([[0, 0], [1, 0], [1, 0], [0, 1]], "polygon repeats a vertex"),
], ids=["shared-abscissa", "shared-abscissa-touch", "x-ranges-meet",
        "x-ranges-meet-touch", "fold-back", "first-last-excluded", "bowtie",
        "cross-and-touch",
        "first-failing-edge", "repeat"])
def test_check_simple_hand_cases(chain, expected):
    assert _assert_matches_loop(chain) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=3, max_size=14))
def test_check_simple_matches_loop_on_float_chains(chain):
    _assert_matches_loop(chain)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=14))
def test_check_simple_matches_loop_on_lattice_chains(chain):
    # a coarse lattice: repeats, touches and collinear overlaps are common
    _assert_matches_loop(chain)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 1.0)),
                min_size=3, max_size=30))
def test_check_simple_matches_loop_on_star_polygons(points):
    angle, radius = np.array(sorted(points)).T
    _assert_matches_loop(np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]))


def _comb(teeth: int, bent: int | None = None) -> np.ndarray:
    """CCW comb of unit-wide vertical teeth of height 10 on a unit-high
    bar, teeth at x in [2k, 2k + 1].  A bent tooth has its top-left
    corner pulled onto the right edge of the tooth on its left."""
    pts = [(0.0, 0.0), (2.0 * teeth - 1, 0.0)]
    for k in range(teeth - 1, -1, -1):
        pts += [(2.0 * k + 1, 10.0), (2.0 * k - 1, 5.0) if k == bent else (2.0 * k, 10.0)]
        if k:
            pts += [(2.0 * k, 1.0), (2.0 * k - 1, 1.0)]
    return np.array(pts)


def test_check_simple_at_scale():
    t = 2.0 * math.pi * np.arange(10_000) / 10_000
    PolygonSet(np.column_stack([np.cos(t), np.sin(t)]))
    comb, bent = _comb(2500), _comb(2500, bent=1200)
    # the horizontal combs: coordinates swapped, order reversed to stay CCW
    for chain in (comb, comb[::-1, ::-1]):
        assert len(PolygonSet(chain).vertices) == 10_000
    for chain in (bent, bent[::-1, ::-1]):
        with pytest.raises(InputError, match="touch"):
            PolygonSet(chain)


def test_box_union_validation_and_canonical_merge():
    with pytest.raises(InputError):
        BoxUnion([[0, 0]], [[0, 1]])  # empty box
    with pytest.raises(InputError):
        BoxUnion([[0, 0], [0.5, 0]], [[1, 1], [1.5, 1]])  # interior overlap
    # abutting boxes with identical cross-sections collapse to one box
    merged = BoxUnion([[0, 0], [1, 0]], [[1, 1], [2, 1]])
    assert merged.box_count == 1
    assert np.allclose(merged.los[0], [0, 0])
    assert np.allclose(merged.his[0], [2, 1])
    # the staircase shares only part of a facet and must stay two boxes
    assert staircase().box_count == 2
    # the overlap error names the first clashing pair in row-major order
    with pytest.raises(InputError, match="boxes 0 and 4"):
        BoxUnion([[0, 0], [4, 4], [9, 9], [4.5, 4], [0.5, 0]],
                 [[1, 1], [5, 5], [10, 10], [5.5, 5], [1.5, 1]])


def voxel_walk(seed, dim, count):
    """Distinct unit voxels visited by a seeded lattice random walk."""
    rng = np.random.default_rng(seed)
    cur = (0,) * dim
    seen = [cur]
    while len(seen) < count:
        k = int(rng.integers(dim))
        cur = tuple(c + (int(rng.choice((-1, 1))) if j == k else 0) for j, c in enumerate(cur))
        if cur not in seen:
            seen.append(cur)
    return np.asarray(seen, dtype=float)


def lattice_cells(los, his, scale):
    """Integer cells covered by boxes whose corners, multiplied by the
    per-axis scale, land on integers."""
    cells = set()
    for lo, hi in zip(los * scale, his * scale):
        ranges = [range(int(a), int(b)) for a, b in zip(lo, hi)]
        grid = np.meshgrid(*ranges, indexing="ij")
        cells |= set(zip(*(g.ravel().tolist() for g in grid)))
    return cells


@pytest.mark.parametrize("tiles", [
    [[0, 0], [0, 1], [1, 0]],   # the L-tromino
    voxel_walk(11, 2, 40).tolist(),
    voxel_walk(12, 3, 30).tolist(),
])
def test_box_union_form_depends_only_on_the_set(tiles):
    lo = np.asarray(tiles, dtype=float)
    ref = BoxUnion(lo, lo + 1.0)
    rng = np.random.default_rng(7)
    for _ in range(6):
        p = rng.permutation(len(lo))
        B = BoxUnion(lo[p], lo[p] + 1.0)
        assert np.array_equal(B.los, ref.los) and np.array_equal(B.his, ref.his)


@pytest.mark.parametrize("dim,count,seed", [(2, 150, 1), (2, 150, 2), (3, 105, 3), (3, 105, 4)])
def test_box_union_kernels_against_voxel_oracle(dim, count, seed):
    lo = voxel_walk(seed, dim, count)
    voxels = set(map(tuple, lo.astype(int).tolist()))
    B = BoxUnion(lo, lo + 1.0)
    unit = np.ones(dim)
    assert lattice_cells(B.los, B.his, unit) == voxels
    assert B.volume() == count
    # canonical form: no two boxes share a whole facet
    for axis in range(dim):
        others = [k for k in range(dim) if k != axis]
        for i in range(B.box_count):
            for j in range(B.box_count):
                assert not (B.his[i, axis] == B.los[j, axis]
                            and np.array_equal(B.los[i, others], B.los[j, others])
                            and np.array_equal(B.his[i, others], B.his[j, others]))
    masses = B.axis_class_masses()
    for axis in range(dim):
        step = np.eye(dim, dtype=int)[axis]
        up = sum(tuple(np.add(v, step)) not in voxels for v in voxels)
        down = sum(tuple(np.subtract(v, step)) not in voxels for v in voxels)
        assert up == down and masses[axis] == 2 * up
    assert perimeter(B) == float(np.sum(masses))
    for axis in range(dim):
        others = [k for k in range(dim) if k != axis]
        counts = {}
        for v in voxels:
            key = tuple(v[k] for k in others)
            counts[key] = counts.get(key, 0) + 1
        cols = B.column_structure(axis)
        for key, c in counts.items():
            assert cols.section_length(np.add(key, 0.5)) == c
        assert sum(cell.integrated_length() for cell in cols.cells) == count
        # the symmetral restacks each column about 0; in half units along
        # the axis, a column of c voxels covers cells -c .. c-1
        u = np.zeros(dim)
        u[axis] = 1.0
        S = steiner_symmetrize(B, u)
        want = {key[:axis] + (t,) + key[axis:]
                for key, c in counts.items() for t in range(-c, c)}
        assert lattice_cells(S.los, S.his, np.where(np.arange(dim) == axis, 2.0, 1.0)) == want


# ------------------------------------------------------------ surface measure

def test_polygon_surface_measure_square():
    mu = surface_measure(unit_square())
    assert mu.total_mass == 4.0
    want = {(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
    got = {tuple(np.round(n, 12)) for n in mu.normals}
    assert got == want
    assert np.allclose(mu.masses, 1.0)
    # closedness: mass-weighted normals cancel
    assert np.linalg.norm(mu.normals.T @ mu.masses) <= 1e-9


def test_box_union_surface_measure_staircase():
    mu = surface_measure(staircase())
    assert mu.dim == 2
    # atoms are the four signed axis classes
    got = {tuple(n): m for n, m in zip(map(tuple, mu.normals), mu.masses)}
    assert got[(1.0, 0.0)] == 3.0
    assert got[(-1.0, 0.0)] == 3.0
    assert got[(0.0, 1.0)] == 2.0
    assert got[(0.0, -1.0)] == 2.0
    assert np.allclose(staircase().axis_class_masses(), [6.0, 4.0])


def test_surface_measure_total_mass_equals_perimeter():
    for E in (unit_square(), right_triangle(), c_shape(), staircase(),
              l_tromino(), random_polygon(5), random_box_union(7, dim=3)):
        assert abs(surface_measure(E).total_mass - perimeter(E)) \
            <= 1e-10 * (1.0 + perimeter(E))


def test_surface_measure_validation():
    from pettybox.sets import SurfaceMeasure
    with pytest.raises(InputError):
        SurfaceMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))  # not closed
    with pytest.raises(InputError):
        SurfaceMeasure(np.array([[2.0, 0.0], [-2.0, 0.0]]),
                       np.array([1.0, 1.0]))  # non-unit normals
    with pytest.raises(InputError):
        SurfaceMeasure(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([1.0, -1.0]))  # negative mass


# ---------------------------------------------------------- column structure

def test_square_columns_both_axes():
    # sections along the horizontal axis live over a vertical base
    cs = column_structure(unit_square(), axis=0)
    assert len(cs.cells) == 1
    assert cs.multiplicity([0.5]) == 1
    assert np.allclose(cs.section_intervals([0.5]), [[0.0, 1.0]])
    # default axis: sections along the last coordinate
    cs = column_structure(unit_square())
    assert cs.axis == 1
    assert abs(cs.section_length([0.25]) - 1.0) <= 1e-15


def test_l_tromino_columns():
    cs = column_structure(l_tromino(), axis=1)
    assert [float(c.lo[0]) for c in cs.cells] == [0.0, 1.0]
    # left column: the two stacked boxes fuse into one interval of length 2
    assert cs.multiplicity([0.5]) == 1
    assert np.allclose(cs.section_intervals([0.5]), [[0.0, 2.0]])
    assert np.allclose(cs.section_intervals([1.5]), [[0.0, 1.0]])


def test_c_shape_columns_multiplicity_two():
    cs = column_structure(c_shape(), axis=1)
    assert cs.multiplicity([2.0]) == 2
    ivals = cs.section_intervals([2.0])
    assert np.allclose(ivals, [[0.0, 1.0], [2.0, 3.0]])
    assert abs(cs.section_length([2.0]) - 2.0) <= 1e-12
    assert cs.multiplicity([0.5]) == 1


def test_column_locate_errors():
    cs = column_structure(unit_square())
    with pytest.raises(NonGenericPointError):
        cs.locate([0.0])  # breakpoint abscissa
    with pytest.raises(NonGenericPointError):
        cs.locate([1.0])
    with pytest.raises(InputError):
        cs.locate([2.5])  # outside the projection
    with pytest.raises(InputError):
        cs.locate([0.5, 0.5])  # wrong base dimension


def test_total_volume_matches_volume():
    handles = [unit_square(), right_triangle(), c_shape(),
               random_polygon(3), random_polygon(4)]
    for E in handles:
        for axis in (0, 1):
            cs = column_structure(E, axis=axis)
            assert abs(cs.total_volume() - volume(E)) \
                <= 1e-12 * (1.0 + volume(E))
    cube = random_box_union(11, dim=3)
    for axis in range(3):
        cs = column_structure(cube, axis=axis)
        assert abs(cs.total_volume() - volume(cube)) \
            <= 1e-12 * (1.0 + volume(cube))


def test_3d_box_columns():
    bu = BoxUnion([[0, 0, 0], [0, 0, 1]], [[2, 1, 1], [1, 1, 2]])
    cs = column_structure(bu, axis=2)
    # base is the xy shadow; over (0,1)x(0,1) the column has height 2
    assert abs(cs.section_length([0.5, 0.5]) - 2.0) <= 1e-15
    assert abs(cs.section_length([1.5, 0.5]) - 1.0) <= 1e-15


# ------------------------------------------------------------------- gradient

def test_section_length_gradient_examples():
    # hypotenuse shrinks the section at unit rate
    g = section_length_gradient(right_triangle(), [1.0])
    assert np.allclose(g, [-1.0], atol=1e-12)
    # flat top and bottom: no variation
    g = section_length_gradient(unit_square(), [0.5])
    assert np.allclose(g, [0.0], atol=1e-15)
    # box unions vary nowhere inside a cell
    g = section_length_gradient(staircase(), [0.5])
    assert np.allclose(g, [0.0])


def test_section_length_gradient_matches_finite_differences():
    E = random_polygon(21)
    cs = column_structure(E)
    h = 1e-6
    rng = np.random.default_rng(2)
    checked = 0
    for cell in cs.cells:
        lo, hi = float(cell.lo[0]), float(cell.hi[0])
        if hi - lo < 10 * h:
            continue
        for _ in range(10):
            x = rng.uniform(lo + 2 * h, hi - 2 * h)
            grad = section_length_gradient(E, [x])[0]
            fd = (cs.section_length([x + h]) - cs.section_length([x - h])) / (2 * h)
            assert abs(grad - fd) <= 1e-5 * (1.0 + abs(grad))
            checked += 1
    assert checked >= 20


def test_section_length_gradient_errors():
    with pytest.raises(NonGenericPointError):
        section_length_gradient(right_triangle(), [0.0])
    with pytest.raises(InputError):
        section_length_gradient(right_triangle(), [5.0])


# -------------------------------------------------------------- regularity

def test_is_regular_direction():
    ok, mass = is_regular_direction(unit_square(), E1)
    assert not ok and mass == 2.0
    ok, mass = is_regular_direction(unit_square(),
                                    [math.sqrt(0.5), math.sqrt(0.5)])
    assert ok and mass == 0.0
    ok, mass = is_regular_direction(staircase(), E2)
    assert not ok and mass == 6.0


def test_fan_regularity_is_one_test_over_all_atoms():
    # the driver filters a whole fan with one (atoms x K) mask; it must
    # agree with the one-direction test, exact axis hits included
    s = math.sqrt(0.5)
    axes = np.array([E1, E2, -E1, -E2, [s, s], [-s, s]])
    angles = (np.arange(32) + 0.37) * math.pi / 32
    fan = np.vstack([axes, np.column_stack([np.cos(angles), np.sin(angles)])])
    sets = [unit_square(), staircase(), c_shape(), random_polygon(5),
            PolygonSet(unit_square().vertices @ rotation_2d(0.37 * math.pi / 32).T)]
    for E in sets:
        mask = ~np.any(E.surface_measure().orthogonal_atoms(fan), axis=0)
        assert mask.tolist() == [is_regular_direction(E, u)[0] for u in fan]
    assert not np.any(~np.any(unit_square().surface_measure().orthogonal_atoms(axes[:4]), axis=0))
    with pytest.raises(InputError):
        unit_square().surface_measure().orthogonal_atoms([[1.0, 1.0]])


def test_vertical_boundary_measure():
    assert vertical_boundary_measure(unit_square(), E2) == 2.0
    assert vertical_boundary_measure(unit_square(),
                                     frame_to_last_axis(E2)) == 2.0
    rot = PolygonSet(unit_square().vertices @ rotation_2d(math.pi / 4).T)
    assert vertical_boundary_measure(rot, E2) == 0.0
    assert vertical_boundary_measure(staircase(), E2) == 6.0


# ------------------------------------------------------------------- Steiner

def test_steiner_triangle_example():
    S = steiner_symmetrize(right_triangle(), E2)
    got = sorted(map(tuple, np.round(S.vertices, 12)))
    assert got == [(0.0, -1.0), (0.0, 1.0), (2.0, 0.0)]


def test_steiner_centered_square_is_fixed_point():
    S = steiner_symmetrize(centered_square(), E2)
    got = sorted(map(tuple, np.round(S.vertices, 12)))
    assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_steiner_staircase_boxes_merge_to_slab():
    S = steiner_symmetrize(staircase(), E2)
    assert isinstance(S, BoxUnion)
    assert S.box_count == 1
    assert np.allclose(S.los[0], [0.0, -1.0])
    assert np.allclose(S.his[0], [2.0, 1.0])


def test_steiner_inserts_lateral_jump_edges():
    L = PolygonSet([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    S = steiner_symmetrize(L, E2)
    assert abs(volume(S) - volume(L)) <= 1e-12
    v = S.vertices
    w = np.roll(v, -1, axis=0)
    vertical_at_1 = np.sum((v[:, 0] == w[:, 0]) & np.isclose(v[:, 0], 1.0))
    assert vertical_at_1 >= 1


def test_steiner_box_union_axis_only():
    with pytest.raises(UnsupportedDirectionError):
        steiner_symmetrize(staircase(), [math.sqrt(0.5), math.sqrt(0.5)])
    S = steiner_symmetrize(staircase(), E1)
    assert isinstance(S, BoxUnion)
    assert abs(volume(S) - 4.0) <= 1e-12


def test_steiner_direction_validation():
    with pytest.raises(InputError):
        steiner_symmetrize(unit_square(), [1.0, 1.0])
    with pytest.raises(InputError):
        steiner_symmetrize(unit_square(), [0.0, 0.0, 1.0])


def test_steiner_3d_box_union():
    bu = BoxUnion([[0, 0, 0], [0, 0, 1]], [[2, 1, 1], [1, 1, 2]])
    S = steiner_symmetrize(bu, [0.0, 0.0, 1.0])
    assert abs(volume(S) - volume(bu)) <= 1e-12
    assert perimeter(S) <= perimeter(bu) + 1e-9
    # every column is now centered: z-sections symmetric about 0
    assert np.allclose(S.los[:, 2], -S.his[:, 2])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6),
       angle=st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_steiner_polygon_properties(seed, angle):
    E = random_polygon(seed)
    u = np.array([math.cos(angle), math.sin(angle)])
    u /= np.linalg.norm(u)
    S = steiner_symmetrize(E, u)
    assert abs(volume(S) - volume(E)) <= 1e-12 * (1.0 + volume(E))
    assert perimeter(S) <= perimeter(E) + 1e-9
    # the symmetral is reflection-symmetric across the line orthogonal to u
    R = np.eye(2) - 2.0 * np.outer(u, u)
    mirrored = S.vertices @ R.T
    a = np.array(sorted(map(tuple, np.round(S.vertices, 9))))
    b = np.array(sorted(map(tuple, np.round(mirrored, 9))))
    assert a.shape == b.shape
    assert np.allclose(a, b, atol=1e-8)


def _section_length_reference(w, x):
    """Loop reference: the signed heights at abscissa x of the edges of a
    CCW vertex array, +1 for edges running in -x and -1 for edges running
    in +x."""
    total = 0.0
    for (xa, ya), (xb, yb) in zip(w, np.roll(w, -1, axis=0)):
        if min(xa, xb) < x < max(xa, xb):
            y = ya + (x - xa) * (yb - ya) / (xb - xa)
            total += y if xb < xa else -y
    return total


def test_steiner_near_edge_directions_keep_area_and_sections():
    # a direction within 1e-13..1e-5 rad of an edge makes that edge
    # near-vertical in the section frame, where its rounding leaves
    # near-coincident symmetral vertices that a prune pass would cut
    rng = np.random.default_rng(7)
    for seed in range(200):
        E = random_polygon(seed)
        v = E.vertices
        k = rng.integers(len(v))
        edge = v[(k + 1) % len(v)] - v[k]
        delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13, -5)
        u = rotation_2d(delta) @ (edge / np.linalg.norm(edge))
        S = steiner_symmetrize(E, u)
        assert abs(volume(S) - volume(E)) <= 1e-12 * volume(E)
        M = frame_to_last_axis(u).matrix
        w, ws = v @ M.T, S.vertices @ M.T
        scale = float(np.max(np.abs(w)))
        # generic abscissae: midpoints of cells too wide to hold a steep
        # edge, where rotating the symmetral back and forth moves its
        # section length by rounding only
        xs = np.unique(w[:, 0])
        wide = np.diff(xs) > 1e-3 * scale
        for x in 0.5 * (xs[:-1] + xs[1:])[wide]:
            assert abs(_section_length_reference(ws, x)
                       - _section_length_reference(w, x)) <= 1e-12 * (1.0 + scale)


def test_steiner_idempotent_along_axis():
    for seed in (1, 6, 14):
        E = random_polygon(seed)
        S = steiner_symmetrize(E, E2)
        T = steiner_symmetrize(S, E2)
        assert abs(volume(T) - volume(S)) <= 1e-12 * (1.0 + volume(S))
        cs_s = column_structure(S)
        cs_t = column_structure(T)
        for cell in cs_s.cells:
            x = 0.5 * (float(cell.lo[0]) + float(cell.hi[0]))
            assert abs(cs_s.section_length([x]) - cs_t.section_length([x])) \
                <= 1e-9 * (1.0 + cs_s.section_length([x]))


def test_steiner_preserves_box_inclusion():
    # E inside F stays inside after symmetrizing both; exact volume algebra
    for seed in (2, 9, 17):
        E = random_box_union(seed)
        lo, hi = E.bounding_box()
        F = BoxUnion([lo], [hi])
        SE = steiner_symmetrize(E, E2)
        SF = steiner_symmetrize(F, E2)
        gap = volume(F) - volume(E)
        d = symmetric_difference_distance(SE, SF)
        assert abs(d - gap) <= 1e-12 * (1.0 + volume(F))


# ------------------------------------------------------------------ spherical

def test_spherical_symmetral_examples():
    b = spherical_symmetral(unit_square())
    assert isinstance(b, Ball)
    assert abs(b.radius - 1.0 / math.sqrt(math.pi)) <= 1e-15
    cube = BoxUnion([[0, 0, 0]], [[1, 1, 1]])
    b3 = spherical_symmetral(cube)
    assert b3.dim == 3
    assert abs(b3.radius - (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)) <= 1e-15
    E = random_polygon(8)
    assert abs(spherical_symmetral(E).volume() - volume(E)) <= 1e-12


# ------------------------------------------------------------------- metrics

def test_symmetric_difference_examples():
    sq = unit_square()
    assert symmetric_difference_distance(sq, sq) == 0.0
    shifted = PolygonSet([[1, 0], [2, 0], [2, 1], [1, 1]])
    assert abs(symmetric_difference_distance(sq, shifted) - 2.0) <= 1e-12
    a = BoxUnion([[0, 0]], [[2, 1]])
    b = BoxUnion([[0, 0]], [[1, 1]])
    assert symmetric_difference_distance(a, b) == 1.0
    assert symmetric_difference_distance(a, a) == 0.0
    with pytest.raises(InputError):
        symmetric_difference_distance(sq, a)


# ------------------------------------------------------------ boundary slices

def test_coarea_identity_constant_field():
    lhs, rhs = coarea_check(unit_square(), lambda p: np.ones(len(p)))
    assert abs(lhs - 2.0) <= 1e-12
    assert abs(rhs - 2.0) <= 1e-12
    lhs, rhs = coarea_check(right_triangle(), lambda p: np.ones(len(p)))
    assert abs(lhs - 4.0) <= 1e-12
    assert abs(rhs - 4.0) <= 1e-12
    lhs, rhs = coarea_check(unit_square(), lambda p: np.zeros(len(p)))
    assert lhs == 0.0 and rhs == 0.0


def test_coarea_identity_polynomial_and_split_fields():
    fields = [
        lambda p: p[:, 0] ** 2,
        lambda p: p[:, 1] ** 2 + p[:, 0],
        lambda p: np.where(p[:, 0] >= 1.5, 1.0, 0.0),
    ]
    cuts = [(), (), (1.5,)]
    for E in (c_shape(), random_polygon(12), random_polygon(33)):
        for g, bp in zip(fields, cuts):
            lhs, rhs = coarea_check(E, g, breakpoints=bp)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_coarea_rejects_box_unions():
    with pytest.raises(InputError):
        coarea_check(staircase(), lambda p: np.ones(len(p)))


# ------------------------------------------------------------------ file I/O

def test_set_json_roundtrip():
    for E in (unit_square(), staircase(), random_polygon(40),
              random_box_union(41, dim=3)):
        F = set_from_json(set_to_json(E))
        assert type(F) is type(E)
        assert abs(volume(F) - volume(E)) <= 1e-15
        assert abs(perimeter(F) - perimeter(E)) <= 1e-15


def test_set_from_json_validation():
    with pytest.raises(InputError):
        set_from_json({"polygon": [[0, 0], [1, 1]]})
    with pytest.raises(InputError):
        set_from_json({"polygon": [[0, 0], [1, 1], [1, 0], [0, 1]]})
    with pytest.raises(InputError):
        set_from_json({"polygon": [[0, 0], ["x", 1], [1, 1]]})
    with pytest.raises(InputError):
        set_from_json({"boxes": [{"lo": [0, 0]}]})
    with pytest.raises(InputError):
        set_from_json({"boxes": [{"lo": [0, 0], "hi": [0, 1]}]})
    with pytest.raises(InputError):
        set_from_json({"boxes": []})
    with pytest.raises(InputError):
        set_from_json({"circle": 1.0})
    with pytest.raises(InputError):
        set_from_json([1, 2, 3])


def test_load_set_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputError):
        load_set_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_set_file(str(bad))
    # parse failures carry line:column coordinates
    assert ":1:" in str(err.value)
