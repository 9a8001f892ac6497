"""Seeded workload inputs as plain vertex and corner arrays.

A workload runs in rounds.  Every round is the same fixed list of
operations (same kinds, same sizes, same count).  For campaign and
voxels, round r of seed s draws its shapes from
``numpy.random.default_rng((s, r, workload tag))``, so the same seed
always gives the same inputs and a run that completes more rounds covers
more shapes instead of repeating them; voxels adds one fixed union.
converge runs one fixed corpus in every round, in an order drawn from
(s, r): the cost of a greedy run
is a lottery over its step count, so freshly drawn shapes would make the
run-to-run spread of its timings several times wider than any bound a
regression check can use.  The program only ever receives the arrays
made here.
"""

from __future__ import annotations

import math

import numpy as np

# campaign: one star-shaped polygon per vertex count, one box-union per
# (dimension, target box count)
CAMPAIGN_POLYGON_SIZES = tuple(range(5, 41))
CAMPAIGN_BOX_SHAPES = tuple((dim, target) for dim in (2, 3) for target in range(1, 7))
CAMPAIGN_AFFINE_MAPS = 3
# symmetrization directions keep |<edge normal, u>| >= this for every
# edge: closer to an edge, the symmetrizer's collinear pruning can drop a
# corner and lose area (up to 0.4% seen), which a fresh draw per seed hits
# about once in 4000 polygons
DIRECTION_MARGIN = 1e-2
BOX_GRID_EXTENT = 6

# converge: the unit square plus star-shaped polygons of these sizes,
# drawn once from a fixed corpus seed, each with its own policy seed.
# The six 10-gons converge in 3 or 4 steps.  The run of corpus item 7
# (a 10-gon, 3 steps) costs about 1.7x the other 3-step runs and 0.85x
# the 4-step ones, and is the median of the nine.  Alone, the median of
# a run fell on the edge of the 4-step cluster, so a noisy host pulled
# it upwards; the item therefore runs three times per round, and the
# median falls inside its own samples.
CONVERGE_CORPUS_SEED = 2102
CONVERGE_POLYGON_SIZES = (5, 10, 10, 10, 10, 10, 10, 30)
CONVERGE_MEDIAN_ITEM = 7
CONVERGE_MEDIAN_REPEATS = 3

# voxels: (dimension, voxel count) of the unions drawn fresh per round,
# plus one 3D 105-voxel union drawn once from a fixed seed and run five
# times per round.  The median operation falls among the runs of that
# one union: with three fresh 105-voxel unions in its place, a slow host
# leaves five rounds in a run, and the median of fifteen different
# shapes spread op_p50_ms by IQR/median 0.12 over ten seeds; with the
# fixed union three times, 0.08-0.09.
VOXEL_CLASSES = ((2, 60), (2, 150), (3, 60))
VOXEL_FIXED_SEED = 2103
VOXEL_FIXED_CLASS = (3, 105)
VOXEL_FIXED_REPEATS = 5

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

_TAGS = {"campaign": 1, "converge": 2, "voxels": 3}


def star_polygon(rng: np.random.Generator, m: int) -> np.ndarray:
    """CCW star-shaped polygon: sorted uniform angles with every gap in
    (1e-4, pi - 1e-2), so each edge stays inside its own angular sector
    and the chain is simple; radii uniform in [0.5, 1.5]."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
        if gaps.min() > 1e-4 and gaps.max() < math.pi - 1e-2:
            break
    radii = rng.uniform(0.5, 1.5, m)
    return radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])


def box_union(rng: np.random.Generator, dim: int, target: int):
    """Up to `target` boxes with integer corners in [0, 6]^dim and side
    lengths 1..3, rejection-sampled to have disjoint interiors."""
    los: list[np.ndarray] = []
    his: list[np.ndarray] = []
    for _ in range(60 * target):
        lo = rng.integers(0, BOX_GRID_EXTENT - 1, dim)
        hi = np.minimum(lo + rng.integers(1, 4, dim), BOX_GRID_EXTENT)
        if not any(np.all(np.maximum(lo, a) < np.minimum(hi, b)) for a, b in zip(los, his)):
            los.append(lo)
            his.append(hi)
            if len(los) == target:
                break
    return np.asarray(los, dtype=float), np.asarray(his, dtype=float)


def voxel_walk(rng: np.random.Generator, dim: int, count: int):
    """`count` distinct unit voxels visited by a lattice random walk from
    the origin, as (lo, hi) corner arrays in visiting order."""
    moves = np.vstack([np.eye(dim, dtype=int), -np.eye(dim, dtype=int)])
    cur = np.zeros(dim, dtype=int)
    seen = {tuple(cur)}
    order = [tuple(cur)]
    while len(order) < count:
        for step in rng.integers(0, 2 * dim, 4 * count):
            cur = cur + moves[step]
            cell = tuple(cur)
            if cell not in seen:
                seen.add(cell)
                order.append(cell)
                if len(order) == count:
                    break
    lo = np.asarray(order, dtype=float)
    return lo, lo + 1.0


def sl2(rng: np.random.Generator) -> np.ndarray:
    """Volume-preserving planar map: shear, rotation, shear, with the
    determinant renormalized to 1."""
    a, b = rng.uniform(-1.0, 1.0, 2)
    t = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    A = np.array([[1.0, a], [0.0, 1.0]]) @ rot @ np.array([[1.0, 0.0], [b, 1.0]])
    return A / math.sqrt(abs(float(np.linalg.det(A))))


def generic_direction(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    """Uniform unit direction, redrawn until it is at least
    DIRECTION_MARGIN away from orthogonal to every edge normal."""
    e = np.roll(v, -1, axis=0) - v
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    while True:
        a = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(a), math.sin(a)])
        if np.min(np.abs(normals @ u)) >= DIRECTION_MARGIN:
            return u


def converge_corpus() -> list[dict]:
    rng = np.random.default_rng(CONVERGE_CORPUS_SEED)
    items = [{"kind": "polygon", "vertices": UNIT_SQUARE.copy(),
              "policy_seed": int(rng.integers(0, 2**31))}]
    for m in CONVERGE_POLYGON_SIZES:
        items.append({"kind": "polygon", "vertices": star_polygon(rng, m),
                      "policy_seed": int(rng.integers(0, 2**31))})
    return items + [items[CONVERGE_MEDIAN_ITEM]] * (CONVERGE_MEDIAN_REPEATS - 1)


def make_round(workload: str, seed: int, index: int) -> list[dict]:
    """The fixed operation list of one round, with its inputs."""
    rng = np.random.default_rng((seed, index, _TAGS[workload]))
    items: list[dict] = []
    if workload == "campaign":
        for m in CAMPAIGN_POLYGON_SIZES:
            v = star_polygon(rng, m)
            items.append({"kind": "polygon", "vertices": v,
                          "direction": generic_direction(rng, v),
                          "maps": [sl2(rng) for _ in range(CAMPAIGN_AFFINE_MAPS)]})
        for dim, target in CAMPAIGN_BOX_SHAPES:
            los, his = box_union(rng, dim, target)
            items.append({"kind": "boxes", "los": los, "his": his})
    elif workload == "converge":
        corpus = converge_corpus()
        items = [corpus[k] for k in rng.permutation(len(corpus))]
    elif workload == "voxels":
        for dim, count in VOXEL_CLASSES:
            los, his = voxel_walk(rng, dim, count)
            items.append({"kind": "boxes", "los": los, "his": his})
        los, his = voxel_walk(np.random.default_rng(VOXEL_FIXED_SEED), *VOXEL_FIXED_CLASS)
        items += [{"kind": "boxes", "los": los, "his": his}] * VOXEL_FIXED_REPEATS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
