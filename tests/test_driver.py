"""Symmetrization driver: direction policies, convergence traces, budget
handling, and the CSV trace format."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pettybox import (BoxUnion, DirectionPolicy, InputError,
                      PathologicalInputError, PolygonSet,
                      cap_cover_greedy_step, run_symmetrization)
from pettybox.corpus import random_polygon, regular_polygon
from pettybox.geometry import rotation_2d


def unit_square():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def centered_square():
    return PolygonSet([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


CSV_HEADER = ("step,u_1,u_2,volume,perimeter,circumradius,"
              "petty_product,dh_to_ball,resamples")


# ------------------------------------------------------------------ policies

def test_policy_validation():
    with pytest.raises(InputError):
        DirectionPolicy(kind="steepest-descent")
    with pytest.raises(InputError):
        DirectionPolicy(kind="cap-cover-greedy", candidates=0)
    p = DirectionPolicy(kind="uniform-random", seed=4)
    assert p.seed == 4


def test_run_input_validation():
    sq = unit_square()
    policy = DirectionPolicy(kind="uniform-random")
    with pytest.raises(InputError):
        run_symmetrization(BoxUnion([[0, 0]], [[1, 1]]), policy)
    with pytest.raises(InputError):
        run_symmetrization(sq, policy, stop_tol=0.0)
    with pytest.raises(InputError):
        run_symmetrization(sq, policy, max_steps=-1)


# --------------------------------------------------------------- greedy step

def test_greedy_step_requires_candidates():
    with pytest.raises(InputError):
        cap_cover_greedy_step(unit_square(), [])


def test_greedy_step_single_candidate():
    u = np.array([math.cos(0.4), math.sin(0.4)])
    got = cap_cover_greedy_step(unit_square(), [u])
    assert np.allclose(got, u)


def test_greedy_step_perturbed_axis_beats_diagonal():
    # both diagonals are symmetry axes of the centered square, so the
    # diagonal symmetral is the square itself; a slightly tilted axis
    # strictly shrinks the circumradius and must win
    E = centered_square()
    diag = np.array([math.sqrt(0.5), math.sqrt(0.5)])
    tilted = rotation_2d(5e-4) @ np.array([0.0, 1.0])
    got = cap_cover_greedy_step(E, [diag, tilted])
    assert np.allclose(got, tilted)


# -------------------------------------------------------------------- traces

def test_greedy_run_on_square_converges():
    trace = run_symmetrization(
        unit_square(), DirectionPolicy(kind="cap-cover-greedy", seed=3))
    assert trace.converged
    assert len(trace.steps) <= 10
    assert abs(trace.ball_radius - 1.0 / math.sqrt(math.pi)) <= 1e-12
    vols = [s.volume for s in trace.steps]
    radii = [s.circumradius for s in trace.steps]
    prods = [s.petty_product for s in trace.steps]
    for v in vols:
        assert abs(v - 1.0) <= 1e-12
    for a, b in zip(radii, radii[1:]):
        assert b <= a + 1e-12
    for a, b in zip(prods, prods[1:]):
        assert b >= a - 1e-12
    last = trace.steps[-1]
    assert last.dh_to_ball / trace.ball_radius <= 0.05
    assert trace.steps[0].direction is None
    assert trace.final_set is not None


def test_uniform_random_run_converges():
    trace = run_symmetrization(
        unit_square(), DirectionPolicy(kind="uniform-random", seed=11),
        max_steps=12)
    assert trace.converged
    assert len(trace.steps) <= 13
    # the square has boundary mass on both axes, so axis draws would be
    # rejected; uniform draws almost surely never hit them
    assert trace.steps[0].resamples == 0


def test_coordinate_cycle_records_resamples():
    # the exact axes carry boundary mass on the square, so the first
    # cycle step must nudge off the axis and record the rejection
    trace = run_symmetrization(
        unit_square(), DirectionPolicy(kind="coordinate-cycle", seed=0),
        max_steps=6)
    assert len(trace.steps) == 7
    assert not trace.converged
    assert trace.steps[0].resamples == 0
    assert trace.steps[1].resamples >= 1
    u1 = trace.steps[1].direction
    # nudge stays within the perturbation window of the first axis
    assert abs(abs(u1[0]) - 1.0) <= 1e-3


def test_ball_like_input_stops_immediately():
    trace = run_symmetrization(
        regular_polygon(96), DirectionPolicy(kind="uniform-random", seed=1))
    assert trace.converged
    assert len(trace.steps) == 1
    assert trace.steps[0].direction is None


def test_zero_step_budget_reports_not_converged():
    trace = run_symmetrization(
        unit_square(), DirectionPolicy(kind="uniform-random", seed=0),
        max_steps=0)
    assert not trace.converged
    assert len(trace.steps) == 1


def test_resample_budget_exhaustion_is_pathological():
    with pytest.raises(PathologicalInputError):
        run_symmetrization(
            unit_square(), DirectionPolicy(kind="coordinate-cycle", seed=0),
            max_steps=6, resample_budget=0)


def test_recentering_makes_runs_translation_invariant():
    policy = DirectionPolicy(kind="cap-cover-greedy", seed=3)
    a = run_symmetrization(unit_square(), policy).to_csv()
    b = run_symmetrization(centered_square(), policy).to_csv()
    assert a == b


def test_greedy_iterates_keep_area_near_edge_directions():
    # this run's third symmetral has two tip vertices 1.3e-12 off the
    # axis; collinear pruning once dropped both and lost 1.7e-9 of area
    E = PolygonSet([
        [-0.5546824154296315, 0.702171987092689], [-0.8866130567393434, 0.41659811105426925],
        [-0.7432400543193423, -0.05931668120160046], [-1.0640668241502553, -0.3255949457032556],
        [-0.6104613184282447, -0.6124149600451626], [-0.35599337728814373, -0.7382262299857564],
        [-0.02027360469124798, -0.8511185767640486], [0.5984071589897832, -1.110108775579755],
        [0.7305464457425784, -0.45163647967097725], [1.0740969548948553, -0.13956339991060793],
        [0.8132205556471928, 0.14356191069349739], [0.9203447897023722, 0.5464712190019754],
        [0.4671722855370798, 0.9534316179030021], [0.045750248989485626, 1.1504833217718202],
        [-0.35525553528719694, 1.241404923198343]])
    policy = DirectionPolicy(kind="cap-cover-greedy", seed=289478823, candidates=32)
    trace = run_symmetrization(E, policy, stop_tol=0.05)
    assert len(trace.steps) > 3
    for s in trace.steps:
        assert abs(s.volume - E.volume()) <= 1e-12 * E.volume()


def test_nonconvex_star_converges():
    trace = run_symmetrization(
        random_polygon(19), DirectionPolicy(kind="cap-cover-greedy", seed=2))
    assert trace.converged
    radii = [s.circumradius for s in trace.steps]
    for x, y in zip(radii, radii[1:]):
        assert y <= x + 1e-12


# ----------------------------------------------------------------- CSV format

def test_trace_csv_schema_and_roundtrip():
    trace = run_symmetrization(
        unit_square(), DirectionPolicy(kind="cap-cover-greedy", seed=3))
    text = trace.to_csv(comments=("config: demo",))
    lines = text.strip().split("\n")
    assert lines[0] == "# config: demo"
    assert lines[1] == CSV_HEADER
    first = lines[2].split(",")
    assert first[0] == "0"
    assert first[1] == "" and first[2] == ""
    # numeric cells round-trip exactly through the %.17g format
    for line, step in zip(lines[3:], trace.steps[1:]):
        cells = line.split(",")
        assert float(cells[1]) == step.direction[0]
        assert float(cells[3]) == step.volume
        assert float(cells[6]) == step.petty_product
        assert int(cells[8]) == step.resamples
