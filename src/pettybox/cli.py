"""Command-line surface.

Subcommands load set description files, run verification campaigns, and
emit JSON or CSV with the resolved run configuration and toolkit version
embedded, so identical configurations reproduce byte-identical outputs.

Exit codes: 0 all checks passed, 1 a step/convergence budget ran out or
a checked bound failed, 2 invalid input, 3 numerical failure (including
direction-resampling exhaustion).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .corpus import random_polygon, random_sl2
from .driver import (POLICY_KINDS, DirectionPolicy, ResampleBudget,
                     draw_direction, run_symmetrization)
from .errors import (BudgetError, ConditionViolationError, InputError,
                     NumericalError)
from .geometry import unit_vector
from .projection import (affine_image_check, petty_product,
                         polar_steiner_inclusion_check)
from .sets import (BoxUnion, coarea_check, load_set_file, steiner_symmetrize,
                   vertical_boundary_measure)

DEFAULT_TOL = 1e-9
# the exit code of each error kind, subclasses included
EXIT_CODES = {BudgetError: 1, InputError: 2, NumericalError: 3}


def _config(args) -> dict:
    """The run configuration embedded in every output: each parsed option
    of the subcommand, less the unset (None) and off (False) ones."""
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "needs_input") and v is not None and v is not False}


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_report(payload: dict, args) -> str:
    doc = {"version": __version__, "config": _config(args)}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_comments(args) -> list[str]:
    return [f"version: {__version__}",
            "config: " + json.dumps(_config(args), sort_keys=True)]


def _csv(header: list[str], rows: list[list[str]], args) -> str:
    lines = [f"# {c}" for c in _csv_comments(args)]
    lines.append(",".join(header))
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_direction(text: str, dim: int) -> np.ndarray:
    try:
        parts = np.asarray([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise InputError(f"direction {text!r} is not a comma-separated vector") from exc
    if parts.shape != (dim,):
        raise InputError(f"direction needs {dim} components, got {parts.shape[0]}")
    return unit_vector(parts)


def _cmd_petty(args) -> int:
    E = load_set_file(args.input)
    report = petty_product(E)
    _emit(_json_report(report.to_json(), args), args.out)
    return 0 if report.slack >= -args.tol else 1


def _monotonicity_row(E, u, set_id: int, resamples: int, exploratory: bool,
                      rows: list[list[str]]) -> float:
    before = petty_product(E).product
    after = petty_product(steiner_symmetrize(E, u)).product
    margin = after - before
    rows.append([str(set_id)] + [_fmt(c) for c in u]
                + [_fmt(before), _fmt(after), _fmt(margin), str(resamples),
                   "1" if exploratory else "0"])
    return margin


def _cmd_monotonicity(args) -> int:
    if (args.input is None) == (args.count is None):
        raise InputError("pass exactly one of --input (single set) or "
                         "--count (random campaign)")
    # an option the chosen mode never reads would stand in the config
    # without acting on any row
    if args.count is not None and (args.direction is not None or args.exploratory):
        raise InputError("--direction and --exploratory apply to --input; "
                         "a --count campaign draws each direction")
    if args.input is not None and args.seed is not None:
        raise InputError("--seed applies to --count; a single set (--input) draws nothing")
    if args.count is not None and args.count < 1:
        raise InputError("set count must be at least 1")
    rows: list[list[str]] = []
    worst = np.inf
    dim = 2
    if args.input is not None:
        E = load_set_file(args.input)
        dim = E.dim
        if args.direction is None:
            raise InputError("--direction is required with --input")
        u = _parse_direction(args.direction, dim)
        mass = vertical_boundary_measure(E, u)
        exploratory = mass > 0.0 or isinstance(E, BoxUnion)
        if exploratory and not args.exploratory:
            raise ConditionViolationError(
                f"boundary mass {mass:.17g} orthogonal to the direction puts "
                "this run outside the monotonicity hypothesis; pass "
                "--exploratory to record it anyway", mass)
        margin = _monotonicity_row(E, u, 0, 0, exploratory, rows)
        if not exploratory:
            worst = margin
    else:
        if args.seed is None:
            raise InputError("--seed is required for a random campaign")
        uniform = DirectionPolicy(kind="uniform-random")
        for i in range(args.count):
            E = random_polygon(args.seed, i)
            rng = np.random.default_rng((args.seed, i, 1))
            u, resamples = draw_direction(E, uniform, rng, 1, ResampleBudget(10_000))
            margin = _monotonicity_row(E, u, i, resamples, False, rows)
            worst = min(worst, margin)
    header = ["set_id"] + [f"u_{k + 1}" for k in range(dim)] + [
        "product_before", "product_after", "margin", "resamples", "exploratory"]
    _emit(_csv(header, rows, args), args.out)
    return 0 if (worst is np.inf or worst >= -args.tol) else 1


def _cmd_converge(args) -> int:
    E = load_set_file(args.input)
    policy = DirectionPolicy(kind=args.policy, seed=args.seed,
                             candidates=args.candidates)
    trace = run_symmetrization(E, policy, max_steps=args.max_steps,
                               stop_tol=args.stop_tol)
    _emit(trace.to_csv(comments=_csv_comments(args)), args.out)
    return 0 if trace.converged else 1


def _cmd_affine(args) -> int:
    E = load_set_file(args.input)
    if E.dim != 2:
        raise InputError("the equivariance check is a planar computation")
    if args.seed is None:
        raise InputError("--seed is required for a random campaign")
    if args.trials < 1:
        raise InputError("trial count must be at least 1")
    base_product = petty_product(E).product
    rows: list[list[str]] = []
    worst = 0.0
    for t in range(args.trials):
        A = random_sl2(args.seed, t)
        disc = affine_image_check(E, A)
        mapped = petty_product(E.transform(A)).product
        rel = abs(mapped - base_product) / base_product
        rows.append([str(t), _fmt(A[0, 0]), _fmt(A[0, 1]), _fmt(A[1, 0]),
                     _fmt(A[1, 1]), _fmt(disc), _fmt(rel)])
        worst = max(worst, disc)
    header = ["trial", "a11", "a12", "a21", "a22", "discrepancy",
              "product_rel_diff"]
    _emit(_csv(header, rows, args), args.out)
    return 0 if worst <= args.tol else 1


def _cmd_coarea(args) -> int:
    E = load_set_file(args.input)
    # the first check rejects a set that is not a polygon before the
    # centroid is read
    sides = [("one", coarea_check(E, lambda p: np.ones(len(p))))]
    cut = float(E.centroid()[0])
    sides += [("x_squared", coarea_check(E, lambda p: p[:, 0] ** 2)),
              ("halfplane", coarea_check(E, lambda p: (p[:, 0] >= cut).astype(float),
                                         breakpoints=(cut,)))]
    rows = []
    ok = True
    for name, (lhs, rhs) in sides:
        diff = abs(lhs - rhs)
        ok = ok and diff <= args.tol * (1.0 + abs(lhs))
        rows.append([name, _fmt(lhs), _fmt(rhs), _fmt(diff)])
    _emit(_csv(["field", "lhs", "rhs", "abs_diff"], rows, args), args.out)
    return 0 if ok else 1


def _cmd_polar_symmetral(args) -> int:
    E = load_set_file(args.input)
    u = _parse_direction(args.direction, E.dim)
    holds, margin = polar_steiner_inclusion_check(E, u, factor_tol=args.tol)
    _emit(_json_report({"holds": holds, "margin": margin,
                        "direction": [float(c) for c in u]}, args), args.out)
    return 0 if holds else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pettybox",
        description="Projection bodies, symmetrization, and the sharp "
                    "product bound for polygons and box-unions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=False,
                       help="set description file (JSON)")
        p.add_argument("--out", help="also write the report to this file")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="pass/fail tolerance (default 1e-9)")

    p = sub.add_parser("petty", help="product-bound report for one set")
    common(p)
    p.set_defaults(func=_cmd_petty, needs_input=True)

    p = sub.add_parser("monotonicity",
                       help="product growth under one symmetrization")
    common(p)
    p.add_argument("--direction", help="symmetrization direction 'x,y'")
    p.add_argument("--count", type=int, help="random-campaign corpus size")
    p.add_argument("--seed", type=int, help="campaign seed")
    p.add_argument("--exploratory", action="store_true",
                   help="allow runs outside the monotonicity hypothesis; "
                        "such rows never gate the exit code")
    p.set_defaults(func=_cmd_monotonicity, needs_input=False)

    p = sub.add_parser("converge", help="iterated-symmetrization trace")
    common(p)
    p.add_argument("--policy", default="cap-cover-greedy", choices=POLICY_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--candidates", type=int, default=32)
    p.add_argument("--max-steps", type=int, default=500)
    p.add_argument("--stop-tol", type=float, default=0.05)
    p.set_defaults(func=_cmd_converge, needs_input=True)

    p = sub.add_parser("affine", help="equivariance under random "
                                      "volume-preserving maps")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_affine, needs_input=True)

    p = sub.add_parser("coarea-check",
                       help="boundary-slicing identity on one polygon")
    common(p)
    p.set_defaults(func=_cmd_coarea, needs_input=True)

    p = sub.add_parser("polar-symmetral-check",
                       help="symmetrized polar body stays inside the polar "
                            "body of the symmetral")
    common(p)
    p.add_argument("--direction", default="0,1",
                   help="symmetrization direction (default '0,1')")
    p.set_defaults(func=_cmd_polar_symmetral, needs_input=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.needs_input and args.input is None:
            raise InputError(f"{args.command} requires --input")
        # a nan tolerance would fail every verdict, and an infinite one pass it
        if not (np.isfinite(args.tol) and args.tol >= 0.0):
            raise InputError(f"--tol must be finite and nonnegative, got {args.tol!r}")
        # numpy seeds its generators from nonnegative integers only
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
