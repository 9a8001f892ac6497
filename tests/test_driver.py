"""Symmetrization driver: direction policies, convergence traces, budget
handling, and the CSV trace format."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import pettybox.driver
import pettybox.geometry
from pettybox import (BoxUnion, DirectionPolicy, InputError, NumericalError,
                      PathologicalInputError, PolygonSet, affine_image_check,
                      cap_cover_greedy_step, is_regular_direction,
                      petty_product, polar_steiner_inclusion_check,
                      polar_volume, projection_body, run_symmetrization,
                      set_to_json, steiner_symmetrize)
from pettybox.cli import main
from pettybox.corpus import (random_box_union, random_polygon, random_sl2,
                             regular_polygon)
from pettybox.driver import (POLICY_KINDS, RESAMPLE_BUDGET, ResampleBudget,
                             draw_direction)
from pettybox.geometry import (NEAR_TIE, rotation_2d, section_incidence,
                               steiner_ring, symmetral_radii)
from pettybox.sets import SurfaceMeasure

from recorders import bodies_built, measures_built, rings_built  # noqa: F401
from reference_forms import (draw_direction_loops, roll_incidence_block,
                             rotated_symmetral_radii)


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


def test_policy_candidate_count_is_an_integer():
    # np.arange(2.5) has 3 elements, so a float count would run a fan of
    # 3 directions 0.4 pi apart; a bool is an int to operator.index
    for count in (2.5, 32.0, np.float64(8.0), "8", None, True, False, np.True_):
        with pytest.raises(InputError, match="candidate count must be an integer"):
            DirectionPolicy(kind="cap-cover-greedy", candidates=count)
    for count in (np.int64(8), np.int32(1)):
        policy = DirectionPolicy(kind="cap-cover-greedy", seed=3, candidates=count)
        trace = run_symmetrization(unit_square(), policy, max_steps=2, stop_tol=1e-9)
        assert len(trace.steps) == 3
    with pytest.raises(InputError, match="at least 1"):
        DirectionPolicy(kind="cap-cover-greedy", candidates=np.int64(0))


def test_policy_seed_is_a_nonnegative_integer():
    # numpy seeds its generators from nonnegative integers only, so a bad
    # seed is refused here rather than by numpy at the first draw
    for seed in (2.5, 3.0, np.float64(1.0), "3", None, True, False, np.True_):
        with pytest.raises(InputError, match="seed must be an integer"):
            DirectionPolicy(kind="uniform-random", seed=seed)
    for seed in (-1, np.int64(-5)):
        with pytest.raises(InputError, match="seed must be at least 0"):
            DirectionPolicy(kind="uniform-random", seed=seed)
    runs = [run_symmetrization(unit_square(), DirectionPolicy(kind="uniform-random", seed=seed),
                               max_steps=2, stop_tol=1e-9).to_csv()
            for seed in (3, np.int64(3), np.uint32(3))]
    assert runs[0] == runs[1] == runs[2]


def test_step_budget_is_a_nonnegative_integer():
    # a nan budget never stops the loop (step >= nan is false), 2.5 would
    # run 3 steps and True 1: each is refused before the first step, by
    # the same test the policy runs on its seed and candidate count
    policy = DirectionPolicy(kind="coordinate-cycle", seed=1)
    for steps in (2.5, 3.0, np.float64(2.0), "3", None, True, False, np.True_, math.nan):
        with pytest.raises(InputError, match="step budget must be an integer"):
            run_symmetrization(unit_square(), policy, max_steps=steps)
    for steps in (-1, np.int64(-2)):
        with pytest.raises(InputError, match="step budget must be at least 0"):
            run_symmetrization(unit_square(), policy, max_steps=steps)
    runs = [run_symmetrization(unit_square(), policy, max_steps=steps, stop_tol=1e-9).to_csv()
            for steps in (2, np.int64(2), np.uint8(2))]
    assert runs[0] == runs[1] == runs[2]
    assert len(run_symmetrization(unit_square(), policy, max_steps=0).steps) == 1


def test_run_input_validation():
    sq = unit_square()
    policy = DirectionPolicy(kind="uniform-random")
    with pytest.raises(InputError):
        run_symmetrization(BoxUnion([[0, 0]], [[1, 1]]), policy)
    for stop_tol in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            run_symmetrization(sq, policy, max_steps=3, stop_tol=stop_tol)
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


def _fan(count, offset):
    angles = (np.arange(count) + offset) * math.pi / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _scored_fans():
    """Random star polygons from 5 to ~900 vertices (seeds whose draws are
    quick to sample), each with a fan of 32 directions; the larger ones
    cut the fan into several blocks of the batched kernel."""
    rng = np.random.default_rng(17)
    polygons = [random_polygon(0, max_vertices=5)] + [random_polygon(seed) for seed in range(4)]
    polygons += [random_polygon(seed, max_vertices=900) for seed in (1, 4, 8, 10)]
    return [(E, _fan(32, rng.uniform())) for E in polygons]


def _frame_stack(E, fan) -> np.ndarray:
    # each direction u taken to the vertical by the rotation with rows (perp, u)
    return np.stack([E.vertices @ np.array([[u[1], -u[0]], u]).T for u in fan])


def _blocks(E, fan) -> int:
    return len(_block_rows(E, fan))


def _block_rows(E, fan) -> list[slice]:
    return [block[0] for block in section_incidence(_frame_stack(E, fan))]


def _blocks_outside_the_window(E, fan, radii) -> int:
    """The blocks of the batched kernel whose least radius lies outside
    the near-tie window of the least radius of the whole fan."""
    return sum(radii[rows].min() > radii.min() * (1.0 + NEAR_TIE)
               for rows in _block_rows(E, fan))


def _ring_radii(E, fan) -> np.ndarray:
    """max |v| over the ring of each symmetral, one steiner_ring each."""
    return np.array([np.max(np.linalg.norm(steiner_ring(E.vertices, u), axis=1))
                     for u in fan])


def test_batched_scores_match_each_ring():
    # the ~900-vertex fans are cut into several blocks, and on some of
    # them even a block's least radius lies outside the near-tie window of
    # the least of all: the scorer keeps none of their chains, and their
    # radii stay readings in the candidate's own frame
    blocked = apart = 0
    for E, fan in _scored_fans():
        blocked += _blocks(E, fan) > 1
        want = _ring_radii(E, fan)
        apart += _blocks_outside_the_window(E, fan, want)
        got, ring = symmetral_radii(E.vertices, fan)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert int(np.argmin(got)) == int(np.argmin(want))
        assert ring.tobytes() == steiner_ring(E.vertices, fan[np.argmin(want)]).tobytes()
        assert np.array_equal(cap_cover_greedy_step(E, fan), fan[np.argmin(want)])
    assert blocked >= 1
    assert apart >= 1


@pytest.fixture
def kernel_passes(monkeypatch):
    """The direction count of every call of the section kernel
    (geometry._symmetral_chains) from here on."""
    calls = []
    original = pettybox.geometry._symmetral_chains

    def counted(vertices, directions):
        calls.append(len(directions))
        return original(vertices, directions)

    monkeypatch.setattr(pettybox.geometry, "_symmetral_chains", counted)
    return calls


def test_greedy_winner_is_served_from_the_slot(kernel_passes):
    # single- and multi-block fans, and two centred regular polygons on
    # fans whose ring radii tie exactly: the square's (candidates 1 and 5)
    # and the 9-gon's (five candidates), whose winner is the first of the
    # equal minima; the near ties are scored again within the one pass
    tied = [(centered_square(), _fan(8, 0.5)), (regular_polygon(9), _fan(12, 0.5))]
    cases = _scored_fans() + tied
    assert {_blocks(E, fan) > 1 for E, fan in cases} == {False, True}
    for k, (E, fan) in enumerate(cases):
        want = _ring_radii(E, fan)
        ties = np.flatnonzero(want == want.min())
        assert len(ties) >= 2 or k < len(cases) - len(tied)
        del kernel_passes[:]
        u = cap_cover_greedy_step(E, fan)
        S = steiner_symmetrize(E, u)
        again = steiner_symmetrize(E, u)
        assert kernel_passes == [len(fan)]
        assert np.array_equal(u, fan[ties[0]])
        fresh = steiner_ring(E.vertices, u)
        assert S.vertices.tobytes() == again.vertices.tobytes() == fresh.tobytes()
        assert not S.vertices.flags.writeable
        # one ulp off in either component misses the slot, and the miss
        # refills it, so a repeat along the new direction is a hit
        for k in (0, 1):
            v = u.copy()
            v[k] = np.nextafter(v[k], np.inf)
            del kernel_passes[:]
            T = steiner_symmetrize(E, v)
            steiner_symmetrize(E, v)
            assert kernel_passes == [1]
            assert T.vertices.tobytes() == steiner_ring(E.vertices, v).tobytes()
        del kernel_passes[:]
        steiner_symmetrize(E, u)
        assert kernel_passes == [1]


def test_box_symmetrals_are_unaffected_by_the_slot(kernel_passes):
    B = BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])
    u = np.array([0.0, 1.0])
    first = steiner_symmetrize(B, u)
    second = steiner_symmetrize(B, u)
    for S in (first, second):
        # both columns have length 2, and the two halves merge
        assert np.array_equal(S.los, [[0.0, -1.0]])
        assert np.array_equal(S.his, [[2.0, 1.0]])
    assert not hasattr(B, "_symmetral")
    assert kernel_passes == []
    with pytest.raises(InputError):
        cap_cover_greedy_step(B, [u])


def test_greedy_step_runs_the_section_kernel_once(kernel_passes, symmetrization_log):
    # a long rectangle is far from its ball, so every one of the three
    # steps runs; the conftest monitor still sees each symmetral
    E = PolygonSet([[0, 0], [4, 0], [4, 1], [0, 1]])
    before = symmetrization_log.count
    trace = run_symmetrization(E, DirectionPolicy(kind="cap-cover-greedy", seed=3),
                               max_steps=3, stop_tol=1e-9)
    assert len(trace.steps) == 4
    assert len(kernel_passes) == 3
    assert symmetrization_log.count - before == 3


def test_greedy_step_on_a_sliver_raises_at_the_kernel_check():
    # 1e-20 of its length wide: no candidate's symmetral is resolved by the
    # section kernel, and scoring stops at its check instead of reading a
    # radius off a chain of fewer than 3 vertices
    T = PolygonSet([[0.0, 0.0], [1e10, 0.0], [1e10, 1e-10]])
    with pytest.raises(NumericalError, match="^symmetral degenerated to fewer than 3 vertices$"):
        cap_cover_greedy_step(T, _fan(32, 0.5))


def test_greedy_step_ties_go_to_the_lowest_index():
    # the centered square is symmetric under quarter turns, and on this
    # fan candidates 3 and 7 give symmetrals of exactly equal circumradius
    E = centered_square()
    fan = _fan(8, 0.5)
    want = _ring_radii(E, fan)
    ties = np.flatnonzero(want == want.min())
    assert len(ties) >= 2
    assert np.array_equal(cap_cover_greedy_step(E, fan), fan[ties[0]])
    assert np.array_equal(cap_cover_greedy_step(E, fan[::-1]), fan[::-1][7 - ties[-1]])


def _oracle_cases():
    """_scored_fans, the centred regular 3- to 12-gons on fans of 8, 12
    and 32 directions at four offsets (many with exact ties), a fan
    whose directions are unit only to within 5e-13, and a kite with a
    1e-12 step at its widest section.  Along the vertical, which does not
    win, that step is below the kernel's jump tolerance, so the chain
    point there is the mean of the two one-sided limits, 2.5e-13 below
    the limit from the right that the scorer must not read."""
    cases = _scored_fans()
    cases += [(regular_polygon(m), _fan(count, offset)) for m in range(3, 13)
              for count in (8, 12, 32) for offset in (0.0, 0.25, 0.5, 0.75)]
    rng = np.random.default_rng(5)
    cases.append((random_polygon(2), _fan(32, 0.3) * rng.uniform(1 - 5e-13, 1 + 5e-13, (32, 1))))
    kite = PolygonSet([[-0.5, 0.0], [0.0, -1.0], [0.0, -1.0 - 1e-12], [0.5, 0.0], [0.0, 1.0]])
    fan = _fan(8, 0.0)
    fan[4] = [0.0, 1.0]
    cases.append((kite, fan))
    return cases


def test_greedy_winner_follows_the_rotated_oracle():
    # the scorer reads radii in each candidate's frame and, after the last
    # block, scores the near ties of the least of all again by the ring
    # rotated back; its winner, the least radius and the ring must be
    # those of the scorer that rotates every chain, also where a block's
    # own least lies outside that window
    tied = apart = 0
    for E, fan in _oracle_cases():
        want, want_ring = rotated_symmetral_radii(E.vertices, fan)
        tied += np.count_nonzero(want == want.min()) >= 2
        apart += _blocks_outside_the_window(E, fan, want)
        winner = fan[np.argmin(want)]
        got, ring = symmetral_radii(E.vertices, fan)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert got.min() == want.min()
        assert ring.tobytes() == want_ring.tobytes() == steiner_ring(E.vertices, winner).tobytes()
        assert np.array_equal(cap_cover_greedy_step(E, fan), winner)
    assert tied >= 20
    assert apart >= 1


def test_section_incidence_matches_the_roll_form():
    # single rings, convex and not, and stacks of frames, some cut into
    # several blocks: every field of every block's tuple, bit for bit
    comb = PolygonSet([[0, 0], [5, 0], [5, 3], [4, 3], [4, 1], [3, 1], [3, 3],
                       [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]])
    rings = [unit_square(), comb, PolygonSet([[0, 0], [3, 0], [3, 2], [1.5, 0.4], [0, 2]]),
             random_polygon(3), random_polygon(8, max_vertices=900), regular_polygon(7)]
    stacks = [_frame_stack(E, fan) for E, fan in _scored_fans()]
    stacks += [_frame_stack(E, _fan(32, 0.1)) for E in (comb, regular_polygon(200))]
    assert max(len(list(section_incidence(w))) for w in stacks) > 1
    for w in [E.vertices for E in rings] + stacks:
        w3 = w[None] if w.ndim == 2 else w
        for got in section_incidence(w):
            want = roll_incidence_block(w3[got[0]], got[0].start)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


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


def test_greedy_run_builds_one_surface_measure_per_drawn_direction(measures_built):
    # a trace row's product reads the iterate's edges, so only the
    # regularity test of a direction draw builds a measure: one for each
    # of the five iterates that draw one, none for the final iterate
    trace = run_symmetrization(random_polygon(3), DirectionPolicy(kind="cap-cover-greedy", seed=2),
                               max_steps=5, stop_tol=1e-9)
    assert len(trace.steps) == 6
    assert len(measures_built) == 5
    last = measures_built[-1]
    assert not (last.normals.flags.writeable or last.masses.flags.writeable)


def test_slot_symmetral_is_built_once(rings_built):
    # the symmetral's product and the inclusion check's second
    # symmetrization share one set: the only polygon ring built after P
    # is the symmetral's.  (Products and projection bodies build no
    # measure since they read edges, so the rings are what count.)
    P = random_polygon(3)
    u = np.array([0.2, 1.0]) / math.hypot(0.2, 1.0)
    rings_built.clear()
    S = steiner_symmetrize(P, u)
    petty_product(S)
    assert polar_steiner_inclusion_check(P, u)[0]
    assert [R for R in rings_built if isinstance(R, PolygonSet)] == [S]
    assert steiner_symmetrize(P, u) is S


def test_campaign_polygon_operation_builds_each_body_once(measures_built, bodies_built,
                                                          rings_built):
    # the benchmark campaign's operation on one polygon.  P, its symmetral
    # and its three images each get one ring; the inclusion check reads
    # the polar's and its symmetral's vertices as arrays and adds none.  Only
    # P's regularity questions build a measure, and only the inclusion
    # check builds zonotopes, P's body for its ring and the symmetral's
    # for its support: products and the affine check read the edges.
    # Building every derived object again gives 13 bodies, 8 measures and
    # 11 rings
    P = random_polygon(3)
    u = np.array([0.2, 1.0]) / math.hypot(0.2, 1.0)
    base = petty_product(P).product
    assert is_regular_direction(P, u)[0]
    S = steiner_symmetrize(P, u)
    assert petty_product(S).product >= base - 1e-9
    assert polar_steiner_inclusion_check(P, u)[0]
    for i in range(3):
        A = random_sl2(5, i)
        assert affine_image_check(P, A) <= 1e-9
        assert abs(petty_product(P.transform(A)).product - base) <= 1e-9
    assert (len(bodies_built), len(measures_built), len(rings_built)) == (2, 1, 5)
    assert measures_built == [P.surface_measure()]
    assert [len(Z.generators) for Z in bodies_built] == [len(P.edges), len(S.edges)]


def test_affine_campaign_builds_each_image_once(tmp_path, capsys, measures_built,
                                                rings_built):
    # the check and the product of one trial share the image's ring, and
    # neither builds a measure: both read the edges
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(set_to_json(random_polygon(3))))
    rings_built.clear()
    assert main(["affine", "--input", str(path), "--seed", "1", "--trials", "3"]) == 0
    capsys.readouterr()
    assert len(rings_built) == 1 + 3
    assert measures_built == []


def test_box_union_measure_is_built_once(measures_built, bodies_built):
    # the benchmark voxels operation on one 3D box union: the product and
    # the quadrature cross-check share B's measure, and each symmetral has
    # its own.  projection_body builds a fresh zonotope on every call, so
    # B's body is built twice, once per reader
    B = random_box_union(3, dim=3)
    petty_product(B)
    current = B
    for axis in range(3):
        current = steiner_symmetrize(current, np.eye(3)[axis])
        petty_product(current)
    polar_volume(projection_body(B), method="quadrature")
    mu = B.surface_measure()
    assert measures_built[0] is mu and len(measures_built) == 1 + 3
    assert not (mu.normals.flags.writeable or mu.masses.flags.writeable)
    assert len(bodies_built) == 1 + 3 + 1
    assert np.array_equal(bodies_built[0].generators, bodies_built[-1].generators)


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


def test_resample_budget_exhaustion_is_pathological(monkeypatch):
    # both axes carry the square's boundary mass, so the first draw
    # rejects one direction and overruns an empty budget
    monkeypatch.setattr(pettybox.driver, "RESAMPLE_BUDGET", 0)
    with pytest.raises(PathologicalInputError):
        run_symmetrization(
            unit_square(), DirectionPolicy(kind="coordinate-cycle", seed=0), max_steps=6)


# draw_direction offers each policy's fan to one orthogonal_atoms pass;
# the per-policy loops it replaced are kept in tests/reference_forms.py,
# and the two must draw the same directions, reject the same count,
# charge the budget the same and leave the generator in the same state

def staircase_polygon():
    return PolygonSet([[0, 0], [1, 0], [1, 1], [2, 1], [2, 3], [1, 3], [1, 2], [0, 2]])


def _draws_agree(E, policy, steps=4):
    """Draw `steps` directions with both forms, symmetrizing along each,
    and return the rejected counts."""
    rngs = [np.random.default_rng((policy.seed, 5)) for _ in range(2)]
    budgets = [ResampleBudget(RESAMPLE_BUDGET) for _ in range(2)]
    counts = []
    for step in range(1, steps + 1):
        got = draw_direction(E, policy, rngs[0], step, budgets[0])
        want = draw_direction_loops(E, policy, rngs[1], step, budgets[1])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        assert budgets[0].spent == budgets[1].spent
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        counts.append(got[1])
        E = steiner_symmetrize(E, got[0])
    return counts


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_one_draw_loop_matches_the_policy_loops(kind):
    sets = [unit_square(), staircase_polygon()] + [random_polygon(seed) for seed in range(3)]
    for seed in (0, 7):
        counts = [_draws_agree(E, DirectionPolicy(kind=kind, seed=seed, candidates=8))
                  for E in sets]
        if kind == "coordinate-cycle":
            # both axes carry boundary mass on the square and the
            # staircase, so their first steps take the nudge path
            assert counts[0][0] >= 1 and counts[1][0] >= 1


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_one_draw_loop_matches_the_policy_loops_on_a_forced_rejection(kind, monkeypatch):
    # every atom counts as orthogonal on the first attempt of each draw
    atoms = SurfaceMeasure.orthogonal_atoms
    calls = []

    def reject_first(self, directions):
        mask = atoms(self, directions)
        calls.append(mask.shape[1])
        return np.ones_like(mask) if len(calls) == 1 else mask

    monkeypatch.setattr(SurfaceMeasure, "orthogonal_atoms", reject_first)
    policy = DirectionPolicy(kind=kind, seed=3, candidates=8)
    for E in (unit_square(), staircase_polygon(), random_polygon(2)):
        results = []
        for draw in (draw_direction, draw_direction_loops):
            calls.clear()
            rng = np.random.default_rng(3)
            budget = ResampleBudget(RESAMPLE_BUDGET)
            u, rejected = draw(E, policy, rng, 1, budget)
            results.append((u.tobytes(), rejected, budget.spent, rng.bit_generator.state))
        assert results[0] == results[1]
        assert results[0][1] >= calls[0] >= 1


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
