"""Iterated Steiner symmetrization toward the volume-matched ball.

The driver recenters the input once, then repeatedly symmetrizes along
directions drawn from a policy, recording volume, perimeter,
circumradius, the product report, and the Hausdorff gap to the ball of
equal volume.  Directions with boundary mass orthogonal to them are
rejected and redrawn; the rejection count is part of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convex import Ball
from .errors import InputError, PathologicalInputError
from .geometry import hausdorff_distance, rotation_2d
from .projection import petty_product
from .sets import PolygonSet, cap_cover_greedy_step, steiner_symmetrize

POLICY_KINDS = ("uniform-random", "coordinate-cycle", "cap-cover-greedy")
RESAMPLE_BUDGET = 1_000_000
AXIS_PERTURBATION = 1e-3  # radians; upper end of the nudge off a bad axis


@dataclass(frozen=True)
class DirectionPolicy:
    """How the driver picks symmetrization directions.

    uniform-random draws directions uniformly; coordinate-cycle walks
    the coordinate axes, nudging an axis by a random angle in
    (0, 1e-3] radians when it carries orthogonal boundary mass;
    cap-cover-greedy spins a fan of `candidates` directions each step
    and keeps the one whose symmetral has the smallest circumradius.

    coordinate-cycle need not converge to a ball: symmetrals along a
    finite set of directions converge, but their limit need not be a
    ball (Klain, "Steiner symmetrization using a finite set of
    directions", Adv. Appl. Math. 2012).  From the unit square it
    reaches 8,194 vertices after 12 steps with the Hausdorff distance to
    the ball still 0.250 of the ball's radius.
    """

    kind: str
    seed: int = 0
    candidates: int = 32

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InputError(f"unknown policy kind {self.kind!r}; "
                             f"expected one of {', '.join(POLICY_KINDS)}")
        if self.candidates < 1:
            raise InputError("candidate count must be at least 1")


@dataclass(frozen=True, eq=False)
class TraceStep:
    step: int
    direction: np.ndarray | None  # None on the initial row
    volume: float
    perimeter: float
    circumradius: float
    petty_product: float
    dh_to_ball: float
    resamples: int


@dataclass
class SymmetrizationTrace:
    steps: list[TraceStep] = field(default_factory=list)
    ball_radius: float = 0.0
    converged: bool = False
    final_set: PolygonSet | None = None

    def to_csv(self, comments=()) -> str:
        """One row per step; the direction columns u_1, u_2 are empty on
        the initial row; %.17g keeps round-trips exact."""
        lines = [f"# {line}" for line in comments]
        lines.append("step,u_1,u_2,volume,perimeter,circumradius,petty_product,"
                     "dh_to_ball,resamples")
        for s in self.steps:
            u_cols = ["", ""] if s.direction is None else [f"{c:.17g}" for c in s.direction]
            row = [str(s.step)] + u_cols + [
                f"{s.volume:.17g}", f"{s.perimeter:.17g}",
                f"{s.circumradius:.17g}", f"{s.petty_product:.17g}",
                f"{s.dh_to_ball:.17g}", str(s.resamples)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


class ResampleBudget:
    """A count of rejected direction draws shared by the draws it is
    passed to; spending past the limit raises PathologicalInputError."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, count: int = 1) -> None:
        self.spent += count
        if self.spent > self.limit:
            raise PathologicalInputError(
                f"direction resampling exceeded the budget of {self.limit}; "
                "the input's boundary mass blocks almost every draw")


def draw_direction(E: PolygonSet, policy: DirectionPolicy,
                   rng: np.random.Generator, step: int,
                   budget: ResampleBudget) -> tuple[np.ndarray, int]:
    """One regular direction for the given (1-based) step plus the number
    of rejected draws, each charged to the budget.

    Every attempt offers a fan of unit directions and keeps its regular
    ones, tested over all atoms of the surface measure in one
    orthogonal_atoms pass.  uniform-random offers one uniform direction;
    coordinate-cycle offers the step's axis, and after a rejection that
    axis nudged by a random angle; cap-cover-greedy offers a randomly
    rotated fan of evenly spread directions and keeps the best of its
    regular ones.
    """
    mu = E.surface_measure()
    rejected = 0
    while True:
        if policy.kind == "uniform-random":
            a = rng.uniform(0.0, 2.0 * math.pi)
            fan = np.array([[math.cos(a), math.sin(a)]])
        elif policy.kind == "coordinate-cycle":
            axis = np.zeros(2)
            axis[(step - 1) % 2] = 1.0
            if rejected:
                axis = rotation_2d(rng.uniform(0.0, AXIS_PERTURBATION)) @ axis
            fan = axis[None]
        else:
            offset = rng.uniform(0.0, 1.0)
            angles = (np.arange(policy.candidates) + offset) * math.pi / policy.candidates
            fan = np.column_stack([np.cos(angles), np.sin(angles)])
        regular = fan[~np.any(mu.orthogonal_atoms(fan), axis=0)]
        dropped = len(fan) - len(regular)
        rejected += dropped
        if dropped:
            budget.charge(dropped)
        if not len(regular):
            continue
        if policy.kind == "cap-cover-greedy":
            return cap_cover_greedy_step(E, regular), rejected
        return regular[0], rejected


def run_symmetrization(E0: PolygonSet, policy: DirectionPolicy,
                       max_steps: int = 500, stop_tol: float = 0.05,
                       resample_budget: int = RESAMPLE_BUDGET,
                       ) -> SymmetrizationTrace:
    """Symmetrize E0 until it is within stop_tol (relative to the ball
    radius) of the equal-volume centered ball in Hausdorff distance, or
    max_steps is exhausted.

    The input is translated once so its centroid sits at the origin;
    after that every iterate stays inside the initial circumball, which
    is what makes the circumradius column non-increasing.  The stop test
    runs on the recorded row before any direction is drawn, so a
    ball-like input stops at step 0.
    """
    if not isinstance(E0, PolygonSet):
        raise InputError("the symmetrization driver runs on polygons")
    # a nan tolerance fails every comparison, so it is tested this way
    # round; an infinite one would stop every run at step 0
    if not 0.0 < stop_tol < math.inf:
        raise InputError("stop tolerance must be positive")
    if max_steps < 0:
        raise InputError("step budget must be nonnegative")
    E = E0.translate(-E0.centroid())
    r_star = math.sqrt(E.volume() / math.pi)
    ball = Ball(r_star)
    rng = np.random.default_rng(policy.seed)
    budget = ResampleBudget(resample_budget)
    trace = SymmetrizationTrace(ball_radius=r_star)
    step = 0
    direction = None
    resamples = 0
    while True:
        dh = hausdorff_distance(E, ball)
        trace.steps.append(TraceStep(
            step=step,
            direction=direction,
            volume=E.volume(),
            perimeter=E.perimeter(),
            circumradius=E.max_norm(),
            petty_product=petty_product(E).product,
            dh_to_ball=dh,
            resamples=resamples,
        ))
        if dh / r_star <= stop_tol:
            trace.converged = True
            break
        if step >= max_steps:
            trace.converged = False
            break
        direction, resamples = draw_direction(E, policy, rng, step + 1, budget)
        E = steiner_symmetrize(E, direction)
        step += 1
    trace.final_set = E
    return trace
