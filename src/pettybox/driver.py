"""Iterated Steiner symmetrization toward the volume-matched ball.

The driver recenters the input once, then repeatedly symmetrizes along
directions drawn from a policy, recording volume, perimeter,
circumradius, the product report, and the Hausdorff gap to the ball of
equal volume.  Directions with boundary mass orthogonal to them are
rejected and redrawn; the rejection count is part of the trace.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .convex import Ball
from .errors import InputError, PathologicalInputError
from .geometry import hausdorff_distance, rotation_2d, steiner_ring
from .projection import petty_product
from .sets import PolygonSet, is_regular_direction, steiner_symmetrize

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


@dataclass(frozen=True)
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

    @property
    def dim(self) -> int:
        return 2 if self.final_set is None else self.final_set.dim

    def write_csv(self, stream: io.TextIOBase, comments=()) -> None:
        """One row per step; direction columns are empty on the initial
        row; %.17g keeps round-trips exact."""
        for line in comments:
            stream.write(f"# {line}\n")
        n = self.dim
        cols = ["step"] + [f"u_{k + 1}" for k in range(n)] + [
            "volume", "perimeter", "circumradius", "petty_product",
            "dh_to_ball", "resamples"]
        stream.write(",".join(cols) + "\n")
        for s in self.steps:
            if s.direction is None:
                u_cols = [""] * n
            else:
                u_cols = [f"{c:.17g}" for c in s.direction]
            row = [str(s.step)] + u_cols + [
                f"{s.volume:.17g}", f"{s.perimeter:.17g}",
                f"{s.circumradius:.17g}", f"{s.petty_product:.17g}",
                f"{s.dh_to_ball:.17g}", str(s.resamples)]
            stream.write(",".join(row) + "\n")

    def to_csv(self, comments=()) -> str:
        buf = io.StringIO()
        self.write_csv(buf, comments)
        return buf.getvalue()


def cap_cover_greedy_step(E: PolygonSet, candidates) -> np.ndarray:
    """The candidate whose symmetral has the smallest circumradius; ties
    break toward the lowest index.  Candidates must all be regular.

    Each candidate is scored on the symmetral's vertex ring from
    geometry.steiner_ring, rotated back to the input frame, as max |v|
    (the formula of PolygonSet.max_norm); no symmetral set is built."""
    best_u = None
    best_r = math.inf
    for u in candidates:
        r = float(np.max(np.linalg.norm(steiner_ring(E.vertices, u), axis=1)))
        if r < best_r:
            best_r = r
            best_u = np.asarray(u, dtype=float)
    if best_u is None:
        raise InputError("greedy step needs at least one candidate direction")
    return best_u


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, count: int = 1) -> None:
        self.spent += count
        if self.spent > self.limit:
            raise PathologicalInputError(
                f"direction resampling exceeded the budget of {self.limit}; "
                "the input's boundary mass blocks almost every draw")


def _draw_direction(E: PolygonSet, policy: DirectionPolicy,
                    rng: np.random.Generator, step: int,
                    budget: _Budget) -> tuple[np.ndarray, int]:
    """One regular direction plus the number of rejected draws."""
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
    # cap-cover-greedy: a randomly rotated fan of evenly spread
    # directions, filtered to regular ones
    while True:
        offset = rng.uniform(0.0, 1.0)
        angles = (np.arange(policy.candidates) + offset) * math.pi / policy.candidates
        fan = np.column_stack([np.cos(angles), np.sin(angles)])
        regular = [u for u in fan if is_regular_direction(E, u)[0]]
        dropped = policy.candidates - len(regular)
        rejected += dropped
        if dropped:
            budget.charge(dropped)
        if regular:
            return cap_cover_greedy_step(E, regular), rejected


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
    if stop_tol <= 0.0:
        raise InputError("stop tolerance must be positive")
    if max_steps < 0:
        raise InputError("step budget must be nonnegative")
    E = E0.translate(-E0.centroid())
    r_star = math.sqrt(E.volume() / math.pi)
    ball = Ball(r_star)
    rng = np.random.default_rng(policy.seed)
    budget = _Budget(resample_budget)
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
        direction, resamples = _draw_direction(E, policy, rng, step + 1, budget)
        E = steiner_symmetrize(E, direction)
        step += 1
    trace.final_set = E
    return trace
