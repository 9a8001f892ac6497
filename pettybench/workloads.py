"""The operations of each workload and the checks on their outputs.

``run(pb, workload, item)`` makes only program calls and is what the
benchmark times.  ``check(pb, workload, item, output)`` runs untimed and
returns failure messages; it compares the outputs with the independent
oracles and with properties the method must have, never with stored
outputs, and it pins nothing a correct fix may change (step counts,
Hausdorff values, vertex counts, box counts after merging).
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O

BOUND = {2: (math.pi / 2.0) ** 2, 3: (4.0 / 3.0) ** 3}
SLACK = 1e-9            # product bound, monotonicity, perimeter, circumradius
VOLUME_REL = 1e-12
EXACT_REL = 1e-12       # exact routes against exact oracles
AFFINE_TOL = 1e-9
GREEDY_CANDIDATES = 32
STOP_TOL = 0.05


# ---------------------------------------------------------------------------
# operations


def run(pb, workload: str, item: dict):
    if workload == "converge":
        P = pb.PolygonSet(item["vertices"])
        policy = pb.DirectionPolicy(kind="cap-cover-greedy", seed=item["policy_seed"],
                                    candidates=GREEDY_CANDIDATES)
        return {"set": P, "trace": pb.run_symmetrization(P, policy, stop_tol=STOP_TOL)}
    if item["kind"] == "polygon":
        return _verify_polygon(pb, item)
    return _verify_boxes(pb, item, sequential=(workload == "voxels"))


def _verify_polygon(pb, item: dict) -> dict:
    P = pb.PolygonSet(item["vertices"])
    before = pb.petty_product(P)
    u = item["direction"]
    if not pb.is_regular_direction(P, u)[0]:
        raise RuntimeError("the drawn direction is not regular")
    S = pb.steiner_symmetrize(P, u)
    after = pb.petty_product(S)
    holds, margin = pb.polar_steiner_inclusion_check(P, u)
    images = [(pb.affine_image_check(P, A), pb.petty_product(P.transform(A)).product)
              for A in item["maps"]]
    return {"before": before, "symmetral": S, "after": after,
            "inclusion": (holds, margin), "images": images}


def _verify_boxes(pb, item: dict, sequential: bool) -> dict:
    """Build, take the product, symmetrize along each coordinate axis
    (each from the input, or in turn when sequential) with the product of
    each symmetral; in 3D, sequential runs also take one quadrature polar
    volume of the projection body as a cross-check of the closed form."""
    B = pb.BoxUnion(item["los"], item["his"])
    report = pb.petty_product(B)
    symmetrals = []
    current = B
    for axis in range(B.dim):
        u = np.zeros(B.dim)
        u[axis] = 1.0
        S = pb.steiner_symmetrize(current if sequential else B, u)
        symmetrals.append((S, pb.petty_product(S)))
        current = S
    quadrature = None
    if sequential and B.dim == 3:
        quadrature = pb.polar_volume(pb.projection_body(B), method="quadrature")
    return {"set": B, "report": report, "symmetrals": symmetrals,
            "quadrature": quadrature}


# ---------------------------------------------------------------------------
# checks


class _Checks:
    def __init__(self, label: str):
        self.label = label
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"{self.label}: {what}")

    def close(self, got: float, want: float, rel: float, what: str) -> None:
        self.expect(abs(got - want) <= rel * abs(want),
                    f"{what} {got!r} vs {want!r} (rel tol {rel:g})")


def check(pb, workload: str, item: dict, out: dict) -> list[str]:
    if workload == "converge":
        return _check_converge(pb, item, out)
    if item["kind"] == "polygon":
        return _check_polygon(item, out)
    return _check_boxes(pb, item, out, sequential=(workload == "voxels"))


def _check_polygon(item: dict, out: dict) -> list[str]:
    v = item["vertices"]
    c = _Checks(f"polygon with {len(v)} vertices")
    area = O.shoelace(v)
    before, after = out["before"], out["after"]
    c.close(before.volume, area, VOLUME_REL, "area")
    c.close(before.product, area * O.polar_projection_area(v), O.POLAR_REL_TOL,
            "product against the midpoint-quadrature polar area")
    c.expect(before.product <= BOUND[2] + SLACK, f"product {before.product!r} above the bound")
    c.expect(after.product >= before.product - SLACK,
             f"product fell under symmetrization {before.product!r} -> {after.product!r}")
    c.expect(after.product <= BOUND[2] + SLACK, f"symmetral product {after.product!r} above the bound")
    w = out["symmetral"].vertices
    c.close(O.shoelace(w), area, VOLUME_REL, "symmetral area")
    c.expect(O.polygon_perimeter(w) <= O.polygon_perimeter(v) + SLACK, "perimeter grew")
    c.expect(O.max_norm(w) <= O.max_norm(v) + SLACK, "circumradius grew")
    holds, margin = out["inclusion"]
    c.expect(holds, f"polar-symmetral inclusion failed, margin {margin!r}")
    for disc, product in out["images"]:
        c.expect(disc <= AFFINE_TOL, f"affine support discrepancy {disc!r}")
        c.close(product, before.product, AFFINE_TOL, "product of an SL(2) image")
    return c.failures


def _check_boxes(pb, item: dict, out: dict, sequential: bool) -> list[str]:
    los, his = item["los"], item["his"]
    dim = los.shape[1]
    c = _Checks(f"{dim}D box-union of {len(los)} boxes")
    B = out["set"]
    # the frame spans the input mirrored through the origin, so every
    # centered symmetral fits, and every returned set, so a wrong one is
    # compared cell by cell rather than rejected
    corners = [los, his, -los, -his, B.los, B.his]
    corners += [a for S, _ in out["symmetrals"] for a in (S.los, S.his)]
    frame = O.VoxelFrame.covering(2, *corners)
    try:
        grid = frame.occupancy(los, his)
        c.expect(np.array_equal(frame.occupancy(B.los, B.his), grid), "built union differs from its input")
        c.close(out["report"].product, frame.product(grid), EXACT_REL, "product against the voxel closed form")
        c.close(pb.perimeter(B), frame.perimeter(grid), EXACT_REL, "perimeter against voxel face count")
        c.expect(out["report"].product <= BOUND[dim] + SLACK, "product above the bound")
        volume = frame.volume(grid)
        prev, prev_set = grid, B
        for axis, (S, report) in enumerate(out["symmetrals"]):
            want = frame.symmetral(prev, axis)
            c.expect(np.array_equal(frame.occupancy(S.los, S.his), want),
                     f"symmetral along axis {axis} differs from the voxel column counts")
            c.close(report.volume, volume, VOLUME_REL, f"symmetral volume, axis {axis}")
            c.close(report.product, frame.product(want), EXACT_REL, f"symmetral product, axis {axis}")
            c.expect(report.product <= BOUND[dim] + SLACK, f"symmetral product above the bound, axis {axis}")
            c.expect(pb.perimeter(S) <= pb.perimeter(prev_set) + SLACK * (1.0 + pb.perimeter(prev_set)),
                     f"perimeter grew, axis {axis}")
            c.expect(O.box_corners_max_norm(S.los, S.his)
                     <= O.box_corners_max_norm(prev_set.los, prev_set.his) + SLACK,
                     f"circumradius grew, axis {axis}")
            if sequential:
                prev, prev_set = want, S
        q = out["quadrature"]
        if q is not None:
            closed = frame.polar_projection_volume(grid)
            c.expect(abs(q.value - closed) <= q.error,
                     f"quadrature {q.value!r} +- {q.error!r} misses the closed form {closed!r}")
    except O.OracleError as exc:
        c.expect(False, f"voxel oracle: {exc}")
    return c.failures


def _check_converge(pb, item: dict, out: dict) -> list[str]:
    v = item["vertices"]
    trace = out["trace"]
    rows = trace.steps
    c = _Checks(f"greedy run from {len(v)} vertices")
    c.expect(trace.converged, f"did not converge in {len(rows) - 1} steps")
    area = O.shoelace(v)
    r = math.sqrt(area / math.pi)
    c.close(trace.ball_radius, r, VOLUME_REL, "ball radius")
    c.expect(rows[-1].dh_to_ball <= STOP_TOL * trace.ball_radius, "stopped above the tolerance")
    # replay the recorded directions to recover every iterate
    P = out["set"]
    E = P.translate(-P.centroid())
    iterates = [E]
    for row in rows[1:]:
        E = pb.steiner_symmetrize(E, row.direction)
        iterates.append(E)
    c.expect(np.array_equal(E.vertices, trace.final_set.vertices), "replay differs from the final set")
    prev = None
    for row, It in zip(rows, iterates):
        w = It.vertices
        c.close(row.volume, area, VOLUME_REL, f"volume at step {row.step}")
        c.close(O.shoelace(w), area, VOLUME_REL, f"iterate area at step {row.step}")
        c.close(row.perimeter, O.polygon_perimeter(w), EXACT_REL, f"perimeter at step {row.step}")
        radius = O.max_norm(w)
        c.close(row.circumradius, radius, EXACT_REL, f"circumradius at step {row.step}")
        c.expect(row.petty_product <= BOUND[2] + SLACK, f"product above the bound at step {row.step}")
        # the reported distance is treated as an upper bound: at least the
        # exact polygon-to-disk part, and at least a dense-sample lower
        # estimate less the route's own stated uncertainty
        c.expect(row.dh_to_ball >= radius - r - 1e-12,
                 f"dh {row.dh_to_ball!r} below max|v| - r at step {row.step}")
        slack = 0.0 if O.is_star_shaped(w) else O.sampled_route_step(w, r)
        lower = O.ball_hausdorff_lower(w, r)
        c.expect(row.dh_to_ball >= lower - slack - 1e-12,
                 f"dh {row.dh_to_ball!r} below the sampled lower estimate {lower!r} at step {row.step}")
        if prev is not None:
            c.expect(row.petty_product >= prev.petty_product - SLACK, f"product fell at step {row.step}")
            c.expect(row.perimeter <= prev.perimeter + SLACK, f"perimeter grew at step {row.step}")
            c.expect(row.circumradius <= prev.circumradius + SLACK, f"circumradius grew at step {row.step}")
        prev = row
    return c.failures


def closed_form_failures(pb) -> list[str]:
    """The program's closed-form products: square 2, cube 4/3, staircase
    4/3 -> 2 under symmetrization along e2, regular 256-gon within 1e-3
    of (pi/2)^2."""
    c = _Checks("closed form")
    square = pb.petty_product(pb.PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])).product
    c.expect(abs(square - 2.0) <= 1e-12, f"square product {square!r}")
    cube = pb.petty_product(pb.BoxUnion([[0, 0, 0]], [[1, 1, 1]])).product
    c.expect(abs(cube - 4.0 / 3.0) <= 1e-9, f"cube product {cube!r}")
    stairs = pb.BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])
    before = pb.petty_product(stairs).product
    after = pb.petty_product(pb.steiner_symmetrize(stairs, np.array([0.0, 1.0]))).product
    c.expect(abs(before - 4.0 / 3.0) <= 1e-12, f"staircase product {before!r}")
    c.expect(abs(after - 2.0) <= 1e-12, f"symmetrized staircase product {after!r}")
    ang = 2.0 * math.pi * np.arange(256) / 256
    gon = pb.petty_product(pb.PolygonSet(np.column_stack([np.cos(ang), np.sin(ang)]))).product
    c.expect(abs(gon - BOUND[2]) <= 1e-3 * BOUND[2], f"256-gon product {gon!r}")
    return c.failures
