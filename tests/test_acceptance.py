"""Acceptance gate: ten verification campaigns with pinned tolerances.

Each criterion is one test; `pytest -v` therefore prints one pass/fail
line per criterion, and each test also prints a one-line summary with
the measured margin next to its tolerance.
"""

from __future__ import annotations

import math

import numpy as np

import pettybox
from pettybox import (BoxUnion, DirectionPolicy, PolygonSet,
                      affine_image_check, circle_grid, coarea_check,
                      column_structure, is_regular_direction, perimeter,
                      petty_product, polar_steiner_inclusion_check,
                      projection_body, random_box_union, random_polygon,
                      random_sl2, regular_polygon, run_symmetrization,
                      section_length_gradient, vertical_boundary_measure,
                      volume)
from pettybox.geometry import rotation_2d

# late-bound so the session-wide symmetrization monitor sees these calls
def steiner_symmetrize(E, u):
    return pettybox.steiner_symmetrize(E, u)

BOUND_2D = (math.pi / 2.0) ** 2
BOUND_3D = (4.0 / 3.0) ** 3


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _regular_unit_direction(E, rng, tries: int = 100) -> np.ndarray:
    for _ in range(tries):
        a = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(a), math.sin(a)])
        if is_regular_direction(E, u)[0]:
            return u
    raise AssertionError("could not sample a regular direction")


def test_01_ball_product_matches_sharp_bound():
    product = petty_product(regular_polygon(256)).product
    rel = abs(product - BOUND_2D) / BOUND_2D
    _report("[01] inscribed 256-gon product vs sharp planar bound",
            rel <= 1e-3, f"rel err {rel:.3e}, tol 1e-03")


def test_02_closed_form_products():
    square = petty_product(PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]]))
    cube = petty_product(BoxUnion([[0, 0, 0]], [[1, 1, 1]]))
    stairs = BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])
    before = petty_product(stairs).product
    after = petty_product(steiner_symmetrize(stairs, np.array([0.0, 1.0]))).product
    errs = (abs(square.product - 2.0), abs(cube.product - 4.0 / 3.0),
            abs(before - 4.0 / 3.0), abs(after - 2.0))
    ok = (errs[0] <= 1e-12 and errs[1] <= 1e-9
          and errs[2] <= 1e-12 and errs[3] <= 1e-12)
    _report("[02] closed-form products (square 2, cube 4/3, staircase 4/3 -> 2)",
            ok, "errs " + ", ".join(f"{e:.2e}" for e in errs)
            + ", tols 1e-12/1e-9/1e-12/1e-12")


def test_03_product_bound_campaign():
    min_slack = math.inf
    max_prod = {2: 0.0, 3: 0.0}
    for i in range(1000):
        r = petty_product(random_polygon(31, i))
        min_slack = min(min_slack, r.slack)
        max_prod[2] = max(max_prod[2], r.product)
    for i in range(500):
        r = petty_product(random_box_union(32, i, dim=2))
        min_slack = min(min_slack, r.slack)
        max_prod[2] = max(max_prod[2], r.product)
    for i in range(500):
        r = petty_product(random_box_union(33, i, dim=3))
        min_slack = min(min_slack, r.slack)
        max_prod[3] = max(max_prod[3], r.product)
    gap_2d = BOUND_2D - max_prod[2]
    gap_3d = BOUND_3D - max_prod[3]
    ok = min_slack >= -1e-9 and gap_2d >= 1e-3 and gap_3d >= 1e-3
    _report("[03] product bound over 1000 polygons + 1000 box-unions",
            ok, f"min slack {min_slack:.3e} (tol -1e-09), "
                f"strictness gaps {gap_2d:.3e}/{gap_3d:.3e} (need 1e-03)")


def test_04_product_monotonicity_campaign():
    worst_margin = math.inf
    worst_drift = 0.0
    for i in range(200):
        E = random_polygon(41, i)
        rng = np.random.default_rng((41, i, 7))
        u = _regular_unit_direction(E, rng)
        S = steiner_symmetrize(E, u)
        worst_margin = min(worst_margin,
                           petty_product(S).product - petty_product(E).product)
        worst_drift = max(worst_drift,
                          abs(volume(S) - volume(E)) / volume(E))
    ok = worst_margin >= -1e-9 and worst_drift <= 1e-12
    _report("[04] product growth under 200 regular-direction symmetrizations",
            ok, f"min margin {worst_margin:.3e} (tol -1e-09), "
                f"max volume drift {worst_drift:.3e} (tol 1e-12)")


def test_05_perimeter_monotonicity_everywhere(symmetrization_log):
    worst = math.inf
    for i in range(50):
        E = random_polygon(51, i)
        rng = np.random.default_rng((51, i))
        S = steiner_symmetrize(E, _regular_unit_direction(E, rng))
        worst = min(worst, perimeter(E) - perimeter(S))
    axes_2d = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for i in range(10):
        B = random_box_union(52, i, dim=2)
        for u in axes_2d:
            worst = min(worst, perimeter(B) - perimeter(steiner_symmetrize(B, u)))
    for i in range(5):
        B = random_box_union(53, i, dim=3)
        u = np.array([0.0, 0.0, 1.0])
        worst = min(worst, perimeter(B) - perimeter(steiner_symmetrize(B, u)))
    # the session-wide monitor re-checks perimeter monotonicity on every
    # symmetrization any test performs and raises at teardown on violation
    ok = worst >= -1e-9 and symmetrization_log.count >= 75 \
        and not symmetrization_log.violations
    _report("[05] perimeter never grows under any symmetrization",
            ok, f"min margin {worst:.3e} (tol -1e-09), "
                f"{symmetrization_log.count} monitored calls, "
                f"{len(symmetrization_log.violations)} violations")


def test_06_affine_equivariance_campaign():
    worst_disc = 0.0
    worst_rel = 0.0
    for i in range(20):
        E = random_polygon(61, i)
        base = petty_product(E).product
        for t in range(100):
            A = random_sl2(62, i * 100 + t)
            worst_disc = max(worst_disc, affine_image_check(E, A))
            mapped = petty_product(E.transform(A)).product
            worst_rel = max(worst_rel, abs(mapped - base) / base)
    ok = worst_disc <= 1e-9 and worst_rel <= 1e-9
    _report("[06] equivariance under 100 x 20 volume-preserving maps",
            ok, f"max support discrepancy {worst_disc:.3e}, "
                f"max product drift {worst_rel:.3e} (tols 1e-09)")


def test_07_polar_symmetral_inclusion_campaign():
    e2 = np.array([0.0, 1.0])
    worst = 0.0
    all_hold = True
    for i in range(50):
        rng = np.random.default_rng((71, i))
        E = random_polygon(71, i)
        while True:
            angle = rng.uniform(0.0, math.pi)
            rotated = E.transform(rotation_2d(angle))
            if vertical_boundary_measure(rotated, e2) == 0.0:
                break
        holds, margin = polar_steiner_inclusion_check(rotated, e2)
        all_hold = all_hold and holds
        worst = max(worst, margin)
    ok = all_hold and worst <= 1.0 + 1e-9
    _report("[07] symmetrized polar stays inside polar of symmetral (50 sets)",
            ok, f"max radial ratio {worst:.12f} (tol 1 + 1e-09)")


def test_08_greedy_convergence_to_ball():
    E = PolygonSet([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    trace = run_symmetrization(
        E, DirectionPolicy(kind="cap-cover-greedy", seed=3, candidates=32),
        max_steps=500, stop_tol=0.05)
    ratio = trace.steps[-1].dh_to_ball / trace.ball_radius
    radii = [s.circumradius for s in trace.steps]
    radius_ok = all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))
    vols = [s.volume for s in trace.steps]
    vol_ok = all(abs(v - vols[0]) <= 1e-12 * vols[0] for v in vols)
    steps = len(trace.steps) - 1
    ok = trace.converged and steps <= 500 and ratio < 0.05 \
        and radius_ok and vol_ok
    _report("[08] greedy square-to-ball run",
            ok, f"ratio {ratio:.4f} after {steps} steps (need < 0.05 in 500), "
                f"radius monotone {radius_ok}, volume constant {vol_ok}")


def test_09_projection_body_continuity():
    grid = circle_grid(4096)
    devs = []
    for m in (8, 16, 32, 64, 128):
        P = projection_body(regular_polygon(m))
        devs.append(float(np.max(np.abs(P.support_batch(grid.nodes) - 2.0))))
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    frozen = [0.1517, 0.0381, 0.00948, 0.002334, 0.000565]
    anchored = bool(np.allclose(devs, frozen, rtol=1e-2))
    ok = decreasing and devs[3] <= 5e-3 and anchored
    _report("[09] m-gon projection bodies approach the disk's",
            ok, "sup devs " + ", ".join(f"{d:.3e}" for d in devs)
            + f"; m=64 tol 5e-03, regression anchors {anchored}")


def test_10_slicing_identities():
    worst_coarea = 0.0
    worst_grad = 0.0
    for i in range(20):
        E = random_polygon(101, i)
        cut = float(E.centroid()[0])
        fields = [(lambda p: np.ones(len(p)), ()),
                  (lambda p: p[:, 0] ** 2, ()),
                  (lambda p: (p[:, 0] >= cut).astype(float), (cut,))]
        for g, breaks in fields:
            lhs, rhs = coarea_check(E, g, breakpoints=breaks)
            worst_coarea = max(worst_coarea, abs(lhs - rhs) / (1.0 + abs(lhs)))
        structure = column_structure(E)
        breaks = structure.base_breaks[0]
        lo, hi = float(breaks[0]), float(breaks[-1])
        margin = 1e-4 * (hi - lo)
        rng = np.random.default_rng((102, i))
        drawn = 0
        h = 1e-6
        while drawn < 100:
            x = rng.uniform(lo + margin, hi - margin)
            if np.min(np.abs(breaks - x)) <= margin:
                continue
            grad = section_length_gradient(E, np.array([x]))[0]
            fd = (structure.section_length(x + h)
                  - structure.section_length(x - h)) / (2.0 * h)
            worst_grad = max(worst_grad, abs(grad - fd))
            drawn += 1
    ok = worst_coarea <= 1e-9 and worst_grad <= 1e-5
    _report("[10] slicing identities: boundary integral split and section gradient",
            ok, f"max coarea mismatch {worst_coarea:.3e} (tol 1e-09), "
                f"max gradient FD gap {worst_grad:.3e} (tol 1e-05)")
