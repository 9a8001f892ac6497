"""Dense and per-edge loop forms of the package's kernels, kept as test
oracles: the vectorised and blocked kernels in the package must agree
with them.  Also the section-incidence block with its successors taken by
np.roll and the greedy scorer that rotates every chain back to the input
frame, which the package's forms must match bit for bit.  Also the small
derived quantities only tests read (column volumes, box-union axis
masses, their exact rational form, and symmetric differences), the
projection body on a surface measure's half-weighted normals, a planar
zonotope's area by its pair sum, its ring and its polar's ring from a
convex hull, the grid-sampled inclusion margin the exact vertex margin
must dominate, the ring route of the planar polar area and its midpoint
quadrature over the circle, the exact rational product of a float
polygon, the shoelace area and centroid of a vertex ring, and the
per-policy direction draw loops."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from pettybox.convex import PolarVolume, Zonotope
from pettybox.driver import AXIS_PERTURBATION
from pettybox.errors import InputError, NumericalError
from pettybox.geometry import (_chain_ring, _row_chain, _symmetral_chains,
                               as_direction, circle_grid, cross_2d, integrate_sphere,
                               lerp, rotation_2d, steiner_ring)
from pettybox.sets import (BoxUnion, ColumnStructure, _on_segment,
                           cap_cover_greedy_step, is_regular_direction,
                           steiner_symmetrize, surface_measure)

from hull import convex_hull_2d


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed area of a closed planar polygon (positive when CCW), with
    the cross terms formed here from the vertex coordinates."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def shoelace_centroid(vertices: np.ndarray) -> np.ndarray:
    """Centroid of a closed CCW polygon: the sum of (v_j + v_j+1) times
    the cross term of the edge, over 6 times the shoelace area."""
    v = np.asarray(vertices, dtype=float)
    ahead = np.roll(v, -1, axis=0)
    w = v[:, 0] * ahead[:, 1] - v[:, 1] * ahead[:, 0]
    return np.sum((v + ahead) * w[:, None], axis=0) / (6.0 * shoelace_area(v))


def dense_radial(normals: np.ndarray, offsets: np.ndarray, nodes: np.ndarray,
                 matmul: bool = True) -> np.ndarray:
    """Radial function of a convex polygon with the origin interior at
    every node: min over all facets with u . normal > 0 of
    offset / (u . normal).  The dot products come from one matrix
    product, which may fuse multiply-adds, or with matmul=False from
    u_x n_x + u_y n_y with each term rounded."""
    if matmul:
        dots = nodes @ normals.T
    else:
        dots = nodes[:, 0, None] * normals[:, 0] + nodes[:, 1, None] * normals[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dots > 0.0, offsets[None, :] / dots, np.inf)
    return ratios.min(axis=1)


def measure_body(E) -> Zonotope:
    """The projection body of E as the zonotope on its surface measure's
    half-weighted normals mass_i * normal_i / 2, the formula of the
    definition, built here apart from the package's projection_body."""
    mu = surface_measure(E)
    return Zonotope(0.5 * mu.masses[:, None] * mu.normals)


def zonotope_hull(generators) -> np.ndarray:
    """CCW vertex ring of the planar zonotope on the given generators,
    built apart from the package: the generators turned into the upper
    half-plane and sorted by angle, the chain from minus their sum by
    twice each but the last in turn, and the convex hull (tests/hull.py)
    of that chain and its mirror image, which drops the points that
    parallel generators leave collinear.  The chain stops short of its
    end, the mirror of its start, so rounding in the sum leaves no second
    point there."""
    g = np.array(generators, dtype=float)
    g[(g[:, 1] < 0.0) | ((g[:, 1] == 0.0) & (g[:, 0] < 0.0))] *= -1.0
    g = g[np.argsort(np.arctan2(g[:, 1], g[:, 0]))]
    chain = np.cumsum(np.vstack([-np.sum(g, axis=0), 2.0 * g[:-1]]), axis=0)
    return convex_hull_2d(np.vstack([chain, -chain]))


def zonogon_area(generators) -> float:
    """Area of the planar zonotope on the given generators: 4 times the
    sum of cross(g_1 + ... + g_(j-1), g_j) over the generators turned
    into the upper half-plane and sorted by angle, as zonotope_hull
    sorts them.  Each cross product is the nonnegative area that g_j
    spans with each earlier generator, so this is the pair sum
    4 * sum over i < j of |cross(g_i, g_j)| in k terms."""
    g = np.array(generators, dtype=float)
    g[(g[:, 1] < 0.0) | ((g[:, 1] == 0.0) & (g[:, 0] < 0.0))] *= -1.0
    g = g[np.argsort(np.arctan2(g[:, 1], g[:, 0]))]
    passed = np.zeros_like(g)
    np.cumsum(g[:-1], axis=0, out=passed[1:])
    return 4.0 * float(np.sum(cross_2d(passed, g)))


def normals_offsets(ring: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit outer normals of a convex CCW ring's edges and the offsets
    normal . vertex of their lines."""
    e = np.roll(ring, -1, axis=0) - ring
    n = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return n, np.sum(ring * n, axis=1)


def polar_hull(Z) -> np.ndarray:
    """CCW vertex ring of the polar of the planar zonotope Z: the pole
    normal / offset of each edge of zonotope_hull, in the ring's order."""
    n, h = normals_offsets(zonotope_hull(Z.generators))
    return n / h[:, None]


def grid_inclusion_margin(E, direction, nodes: int = 4096) -> float:
    """The polar-symmetral inclusion margin sampled on a circle grid: the
    max over the nodes of rho_A / rho_B, with A the symmetral of the polar
    projection body of E and B the polar projection body of the
    symmetral, both radial functions in the dense form with each term of
    a dot product rounded.  Both polars are polar_hull of measure_body,
    and A is the hull of the section kernel's ring of the first.  A lower
    bound of the exact margin, which is the max over the vertices of A."""
    u = as_direction(direction)
    w = circle_grid(nodes).nodes
    A = normals_offsets(convex_hull_2d(steiner_ring(polar_hull(measure_body(E)), u)))
    B = normals_offsets(polar_hull(measure_body(steiner_symmetrize(E, u))))
    return float(np.max(dense_radial(*A, w, matmul=False)
                        / dense_radial(*B, w, matmul=False)))


def ring_polar_area(Z) -> float:
    """Area of the polar of a planar zonotope through the vertex ring of
    the zonotope: the shoelace area of polar_hull(Z)."""
    return shoelace_area(polar_hull(Z))


def quadrature_polar_area(Z, count: int = 4096) -> PolarVolume:
    """Area of the polar of the planar zonotope Z by the midpoint rule:
    the integral of h_Z^-2 / 2 over circle_grid(count), with the
    differences against the half- and quarter-count grids, telescoped,
    as the error estimate, since convergence under refinement is not
    sign-monotone for a kinked support."""
    def reciprocal(nodes: np.ndarray) -> np.ndarray:
        vals = Z.support_batch(nodes)
        if np.min(vals) <= 0.0:
            raise InputError("support is nonpositive on the grid; origin not interior")
        return vals ** -2.0

    value, half, quarter = (integrate_sphere(circle_grid(max(8, n)), reciprocal) / 2.0
                            for n in (count, count // 2, count // 4))
    return PolarVolume(value, abs(value - half) + abs(half - quarter))


def exact_polar_product(vertices) -> Fraction:
    """|P| * |(Pi P)°| of the polygon on the given float vertices, in
    exact rational arithmetic, through the vertex ring of Pi P and not
    the package's closed form.

    Pi P is the zonotope generated by J e_i / 2 for the edges e_i, J the
    quarter turn (x, y) -> (y, -x).  The generators are turned into the
    upper half-plane, sorted by exact cross products, and parallel ones
    summed, so the ring's edges 2 g_1, ..., 2 g_k, -2 g_1, ..., -2 g_k
    run CCW from -(g_1 + ... + g_k) with no collinear vertex.  An edge
    from a to b with the outer normal n = J (b - a), of any length, has
    the polar vertex n / (n . a), and the polar's shoelace area times the
    polygon's is the product."""
    v = [(Fraction(x), Fraction(y)) for x, y in np.asarray(vertices, dtype=float)]
    ahead = v[1:] + v[:1]
    area = sum(x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in zip(v, ahead)) / 2
    gens = []
    for (x0, y0), (x1, y1) in zip(v, ahead):
        g = ((y1 - y0) / 2, (x0 - x1) / 2)
        gens.append(g if g[1] > 0 or (g[1] == 0 and g[0] > 0) else (-g[0], -g[1]))
    # in the upper half-plane, g comes before h exactly when cross(g, h) > 0
    gens.sort(key=functools.cmp_to_key(lambda g, h: h[0] * g[1] - g[0] * h[1]))
    merged = [gens[0]]
    for g in gens[1:]:
        last = merged[-1]
        if last[0] * g[1] - last[1] * g[0] == 0:
            merged[-1] = (last[0] + g[0], last[1] + g[1])
        else:
            merged.append(g)
    edges = [(2 * x, 2 * y) for x, y in merged]
    edges += [(-x, -y) for x, y in edges]
    ring = [(-sum(x for x, _ in merged), -sum(y for _, y in merged))]
    for dx, dy in edges[:-1]:
        ring.append((ring[-1][0] + dx, ring[-1][1] + dy))
    polar = []
    for (ax, ay), (dx, dy) in zip(ring, edges):
        h = dy * ax - dx * ay
        polar.append((dy / h, -dx / h))
    polar_ahead = polar[1:] + polar[:1]
    polar_area = sum(x0 * y1 - y0 * x1
                     for (x0, y0), (x1, y1) in zip(polar, polar_ahead)) / 2
    return area * polar_area


def dense_support(generators: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Zonotope support sum |u . g| at every node."""
    return np.sum(np.abs(nodes @ generators.T), axis=1)


def prune_collinear_loop(vertices: np.ndarray) -> np.ndarray:
    """Drop duplicate points, each compared with the last one kept, then
    in whole passes over the ring every vertex within 1e-12 of the chord
    joining its neighbours, vertex by vertex."""
    tol = 1e-12
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return v.copy()
    keep = [0]
    for i in range(1, len(v)):
        if np.max(np.abs(v[i] - v[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(v[keep[-1]] - v[keep[0]])) <= tol:
        keep.pop()
    v = v[keep]
    changed = True
    while changed and len(v) >= 3:
        changed = False
        out = []
        m = len(v)
        for i in range(m):
            a, b, c = v[(i - 1) % m], v[i], v[(i + 1) % m]
            chord = c - a
            clen = float(np.hypot(chord[0], chord[1]))
            if clen <= tol:
                continue
            dist = abs(float(cross_2d(chord, b - a))) / clen
            if dist > tol:
                out.append(b)
            else:
                changed = True
        v = np.array(out) if out else v[:0]
    return v


def roll_incidence_block(w: np.ndarray, first: int):
    """geometry._incidence_block with each vertex's successor taken by
    np.roll and both endpoints of every entry's edge gathered from a
    stacked (vertex, successor) array: the same tuple, bit for bit."""
    K, m = w.shape[:2]
    x = w[..., 0]
    order = np.argsort(x, axis=1)
    sx = np.take_along_axis(x, order, axis=1)
    distinct = np.ones((K, m), dtype=bool)
    distinct[:, 1:] = sx[:, 1:] != sx[:, :-1]
    rank = np.empty((K, m), dtype=np.intp)
    np.put_along_axis(rank, order, np.cumsum(distinct, axis=1) - 1, axis=1)
    ahead = np.roll(rank, -1, axis=1)
    breaks = sx[distinct]
    starts = np.concatenate([[0], np.cumsum(distinct.sum(axis=1))])
    lo = (np.minimum(rank, ahead) + starts[:-1, None]).ravel()
    span = np.abs(ahead - rank).ravel()
    cells = np.arange(int(span.sum())) + np.repeat(lo - np.cumsum(span) + span, span)
    odd = np.flatnonzero(np.bincount(cells, minlength=len(breaks)) % 2)
    if len(odd):
        j = int(odd[0])
        raise NumericalError(f"odd section parity in cell ({breaks[j]}, {breaks[j + 1]})")
    edge = np.repeat(np.arange(len(span)), span)
    ends = np.stack([w, np.roll(w, -1, axis=1)], axis=2).reshape(-1, 2, 2)[edge]
    xa, xb, ya, yb = ends[:, 0, 0], ends[:, 1, 0], ends[:, 0, 1], ends[:, 1, 1]
    return (slice(first, first + K), breaks, starts, edge + first * m, cells,
            lerp((breaks[cells] - xa) / (xb - xa), ya, yb),
            lerp((breaks[cells + 1] - xa) / (xb - xa), ya, yb), (yb - ya) / (xb - xa),
            np.where(xb < xa, 1.0, -1.0))


def rotated_symmetral_radii(vertices: np.ndarray, directions):
    """geometry.symmetral_radii with every radius read in the input frame:
    each direction's chain points (the kept slots of its breaks) and
    their mirror images, padded with zeros, are rotated back in one
    stacked product, and each radius is the max norm over that ring; the
    winner is the lowest index of least radius, its ring built by
    _chain_ring from _row_chain."""
    radii = np.empty(len(directions))
    best = None
    for block in _symmetral_chains(vertices, directions):
        rows, frames, breaks, starts, halves, keep, _ = block
        kept = keep.ravel()
        who = np.repeat(np.repeat(np.arange(len(frames)), np.diff(starts)), 2)[kept]
        xs, half = np.repeat(breaks, 2)[kept], halves.ravel()[kept]
        count = np.bincount(who)
        at = np.arange(len(who)) - np.repeat(np.cumsum(count) - count, count)
        pts = np.zeros((len(count), 2, int(count.max()), 2))
        pts[who, 0, at] = np.column_stack([xs, -half])
        pts[who, 1, at] = np.column_stack([xs, half])
        ring = np.matmul(pts.reshape(len(count), -1, 2), frames)
        block_radii = np.max(np.linalg.norm(ring, axis=2), axis=1)
        radii[rows] = block_radii
        j = int(np.argmin(block_radii))
        if best is None or block_radii[j] < best[0]:
            best = (block_radii[j], _row_chain(block, j))
    return radii, _chain_ring(*best[1])


def ring_boundary_points_loop(vertices: np.ndarray, step: float) -> np.ndarray:
    v = vertices
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    chunks = []
    for i in range(len(v)):
        k = max(1, int(math.ceil(lengths[i] / step)))
        t = np.arange(k) / k
        chunks.append(v[i] + t[:, None] * edges[i])
    return np.vstack(chunks)


def point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(np.dot(d, d))
    if dd == 0.0:
        return np.linalg.norm(p - a, axis=1)
    t = np.clip(((p - a) @ d) / dd, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.linalg.norm(p - proj, axis=1)


def points_in_polygon_loop(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x, y = p[:, 0], p[:, 1]
    inside = np.zeros(len(p), dtype=bool)
    m = len(v)
    for i in range(m):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % m]
        crosses = (y1 > y) != (y2 > y)
        if not np.any(crosses):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xs)
    return inside


def distance_to_polygon_loop(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    m = len(v)
    best = np.full(len(p), np.inf)
    for i in range(m):
        best = np.minimum(best, point_segment_distance(p, v[i], v[(i + 1) % m]))
    best[points_in_polygon_loop(p, v)] = 0.0
    return best


def check_simple_loop(v: np.ndarray) -> None:
    """Reject self-intersecting or self-touching vertex chains."""
    m = len(v)
    if len(np.unique(v, axis=0)) != m:
        raise InputError("polygon repeats a vertex")
    starts = v
    ends = np.roll(v, -1, axis=0)
    for i in range(m - 2):
        j0 = i + 2
        j1 = m if i > 0 else m - 1
        if j0 >= j1:
            continue
        p1, p2 = starts[i], ends[i]
        q1 = starts[j0:j1]
        q2 = ends[j0:j1]
        d = p2 - p1
        dq = q2 - q1
        d1 = cross_2d(dq, p1 - q1)
        d2 = cross_2d(dq, p2 - q1)
        d3 = cross_2d(d, q1 - p1)
        d4 = cross_2d(d, q2 - p1)
        crossing = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
        if np.any(crossing):
            raise InputError("polygon edges cross; the chain is not simple")
        # touching or collinear contact between non-adjacent edges
        touch = ((d1 == 0) & _on_segment(q1, q2, p1)) | \
                ((d2 == 0) & _on_segment(q1, q2, p2)) | \
                ((d3 == 0) & _on_segment(p1, p2, q1)) | \
                ((d4 == 0) & _on_segment(p1, p2, q2))
        if np.any(touch):
            raise InputError("polygon edges touch; the chain is not simple")


def box_symmetric_difference(E: BoxUnion, F: BoxUnion) -> float:
    """Volume of the symmetric difference of two box unions, each of
    boxes with disjoint interiors: |E| + |F| - 2 |E n F|, the
    intersection summed box pair by box pair."""
    overlap = 0.0
    for alo, ahi in zip(E.los, E.his):
        for blo, bhi in zip(F.los, F.his):
            overlap += float(np.prod(np.maximum(np.minimum(ahi, bhi) - np.maximum(alo, blo), 0.0)))
    return (float(np.sum(np.prod(E.his - E.los, axis=1)))
            + float(np.sum(np.prod(F.his - F.los, axis=1))) - 2.0 * overlap)


def column_total_volume(cs: ColumnStructure) -> float:
    """Integral of the section length over the base: on each cell the
    length is affine, so its exact integral is the trapezoid value."""
    lo, hi = cs.cell_bounds
    return float(np.sum(0.5 * (cs.ends[:, 0] + cs.ends[:, 1]) * np.prod(hi - lo, axis=1)))


def exact_class_masses(los: np.ndarray, his: np.ndarray) -> list[Fraction]:
    """Exposed area of one sign class per axis, exact over the float
    corners of boxes with disjoint interiors: the facet areas less the
    part of each upper facet that lies on another box's lower facet."""
    lo = [[Fraction(x) for x in row] for row in los.tolist()]
    hi = [[Fraction(x) for x in row] for row in his.tolist()]
    masses = []
    for axis in range(los.shape[1]):
        others = [k for k in range(los.shape[1]) if k != axis]
        total = sum(math.prod(b[k] - a[k] for k in others) for a, b in zip(lo, hi))
        for i, j in zip(*np.nonzero(his[:, None, axis] == los[None, :, axis])):
            total -= math.prod(max(min(hi[i][k], hi[j][k]) - max(lo[i][k], lo[j][k]), 0)
                               for k in others)
        masses.append(total)
    return masses


def axis_class_masses(B: BoxUnion) -> np.ndarray:
    """Total exposed area per axis, both signs combined."""
    return 2.0 * B._class_masses


def draw_direction_loops(E, policy, rng, step, budget):
    """driver.draw_direction as one loop per policy: uniform-random and
    coordinate-cycle test one direction at a time with
    is_regular_direction, cap-cover-greedy filters its whole fan in one
    orthogonal_atoms pass."""
    rejected = 0
    if policy.kind == "uniform-random":
        while True:
            a = rng.uniform(0.0, 2.0 * math.pi)
            u = np.array([math.cos(a), math.sin(a)])
            if is_regular_direction(E, u)[0]:
                return u, rejected
            rejected += 1
            budget.charge()
    if policy.kind == "coordinate-cycle":
        axis = np.zeros(2)
        axis[(step - 1) % 2] = 1.0
        if is_regular_direction(E, axis)[0]:
            return axis, rejected
        while True:
            rejected += 1
            budget.charge()
            theta = rng.uniform(0.0, AXIS_PERTURBATION)
            u = rotation_2d(theta) @ axis
            if is_regular_direction(E, u)[0]:
                return u, rejected
    mu = E.surface_measure()
    while True:
        offset = rng.uniform(0.0, 1.0)
        angles = (np.arange(policy.candidates) + offset) * math.pi / policy.candidates
        fan = np.column_stack([np.cos(angles), np.sin(angles)])
        regular = fan[~np.any(mu.orthogonal_atoms(fan), axis=0)]
        dropped = policy.candidates - len(regular)
        rejected += dropped
        if dropped:
            budget.charge(dropped)
        if len(regular):
            return cap_cover_greedy_step(E, regular), rejected
