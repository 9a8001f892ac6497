"""Digests of the package's outputs, for showing that a change leaves them
byte-identical.  Pytest does not collect this file; run it from a
checkout's root:

    PYTHONPATH=src python tests/output_digest.py

It prints one line per case and a total per part.

- converge: for each of three seed-5 converge rounds of
  pettybench/inputs.py, every item under cap-cover-greedy and under
  uniform-random (the item's policy seed, 32 candidates, 8 steps), then
  random_polygon(9, i), i < 40, under uniform-random with seed i and 4
  steps.  A case's digest is the sha256 of its trace's to_csv() followed
  by its final vertices' bytes; the total chains the same bytes of every
  case, then min_boundary_norm() of random_polygon(17, i), i < 200, as
  float64 bytes.
- cli: 85 pettybox commands, run in process from a temporary directory
  that holds the set files under fixed relative names, since a report's
  config embeds the input path.  A case's line gives the argv, the exit
  code (or the type of an exception that escapes main), and the sha256
  of stdout followed by stderr.  Warnings are recorded per command and
  appended to stderr as "Category: message" lines.  Commands 75-79 are
  monotonicity --exploratory along each axis on two voxel walks with
  non-dyadic corners, where surface masses round.  The last six take the
  unit square along diagonal directions whose squared norms overflow or
  underflow, through monotonicity and polar-symmetral-check.
- columns: the column structure along each axis of those two voxel walks
  and of random_box_union(i, dim=d), i < 40, d in (2, 3).  A case's
  digest is the sha256 of the bytes of its cell_bounds and of its
  section_length at every filled cell's centre.  Polygons stay out:
  their section lengths may move by rounding.

Run it in the two checkouts and compare the lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "pettybench"))

import inputs  # noqa: E402  (pettybench/inputs.py)

from pettybox import (BoxUnion, DirectionPolicy, PolygonSet,  # noqa: E402
                      column_structure, random_box_union, random_polygon,
                      regular_polygon, run_symmetrization)
from pettybox.cli import main  # noqa: E402
from pettybox.sets import set_from_json, set_to_json  # noqa: E402


def _trace_bytes(P: PolygonSet, kind: str, seed: int, steps: int) -> tuple[int, bytes]:
    policy = DirectionPolicy(kind=kind, seed=seed, candidates=32)
    trace = run_symmetrization(P, policy, max_steps=steps)
    return len(trace.steps), trace.to_csv().encode() + trace.final_set.vertices.tobytes()


def converge_digest() -> None:
    total = hashlib.sha256()
    rows = 0
    cases = []
    for r in range(3):
        for k, item in enumerate(inputs.make_round("converge", 5, r)):
            for kind in ("cap-cover-greedy", "uniform-random"):
                cases.append((f"round {r} item {k} {kind}", item["vertices"], kind,
                              item["policy_seed"], 8))
    for i in range(40):
        cases.append((f"random_polygon(9, {i}) uniform-random", random_polygon(9, i).vertices,
                      "uniform-random", i, 4))
    for name, vertices, kind, seed, steps in cases:
        count, data = _trace_bytes(PolygonSet(vertices), kind, seed, steps)
        rows += count
        total.update(data)
        print(f"converge {name}: rows={count} sha256={hashlib.sha256(data).hexdigest()}")
    norms = np.array([random_polygon(17, i).min_boundary_norm() for i in range(200)])
    total.update(norms.tobytes())
    print(f"converge total: {rows} rows, sha256={total.hexdigest()}")


def _square(side: float) -> dict:
    return {"polygon": [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]]}


def _cube(side: float) -> dict:
    return {"boxes": [{"lo": [0.0, 0.0, 0.0], "hi": [side, side, side]}]}


SETS = {
    "square": _square(1.0),
    "disk64": set_to_json(regular_polygon(64)),
    "poly3_0": set_to_json(random_polygon(3, 0)),
    "poly11_4": set_to_json(random_polygon(11, 4)),
    "notch": {"polygon": [[0, 0], [2, 0], [2, 2], [1, 1], [0, 2]]},
    "staircase": set_to_json(BoxUnion([[0, 0], [1, 1]], [[1, 2], [2, 3]])),
    "boxes3d": set_to_json(random_box_union(5, 2, dim=3)),
    "boxes2d": set_to_json(random_box_union(7, 1, dim=2)),
}
SCALE_PROBES = {
    "cube_1e60": _cube(1e60),
    "square_1e-160": _square(1e-160),
    "cube_1e-110": _cube(1e-110),
    "square_1e-100": _square(1e-100),
    "square_1e150": _square(1e150),
    "cube_1e-55": _cube(1e-55),
    "boxsquare_1e-162": {"boxes": [{"lo": [0.0, 0.0], "hi": [1e-162, 1e-162]}]},
}
# voxel walks with corners scaled by 0.37 and shifted by 0.011, so that
# their symmetrals' widths, half-lengths and surface masses round
NON_DYADIC = {
    f"voxels{dim}d_{count}": set_to_json(BoxUnion(lo * 0.37 + 0.011, hi * 0.37 + 0.011))
    for dim, count in ((3, 40), (2, 60))
    for lo, hi in [inputs.voxel_walk(np.random.default_rng(3400), dim, count)]
}
# disjoint boxes whose column along x sums past float range
COLUMN_OVERFLOW = {"boxes": [{"lo": [-1e308, 0, 0], "hi": [-1e307, 1e-100, 1e-100]},
                             {"lo": [1e307, 0, 0], "hi": [1e308, 1e-100, 1e-100]}]}
CHECK = ["polar-symmetral-check", "--direction", "0.6,0.8"]


def cli_commands() -> list[list[str]]:
    commands = []
    for name in SETS:
        f = ["--input", f"{name}.json"]
        commands += [["petty", *f], [*CHECK, *f],
                     ["monotonicity", *f, "--direction", "0.6,0.8"],
                     ["monotonicity", *f, "--direction", "0,1", "--exploratory"],
                     ["affine", *f, "--seed", "3", "--trials", "5"],
                     ["coarea-check", *f]]
    for name in ("square", "poly3_0", "notch"):
        for policy in ("cap-cover-greedy", "uniform-random", "coordinate-cycle"):
            commands.append(["converge", "--input", f"{name}.json", "--policy", policy,
                             "--seed", "2", "--max-steps", "12"])
    commands.append(["monotonicity", "--count", "20", "--seed", "4"])
    for name in SCALE_PROBES:
        commands += [["petty", "--input", f"{name}.json"],
                     [*CHECK, "--input", f"{name}.json"]]
    f = ["--input", "column_overflow.json"]
    commands += [["petty", *f], ["monotonicity", *f, "--direction", "1,0,0", "--exploratory"]]
    for name, doc in NON_DYADIC.items():
        for axis in np.eye(len(doc["boxes"][0]["lo"]), dtype=int):
            commands.append(["monotonicity", "--input", f"{name}.json", "--direction",
                             ",".join(map(str, axis)), "--exploratory"])
    for command in ("monotonicity", "polar-symmetral-check"):
        for direction in ("1e200,1e200", "1e-170,1e-170", "1e-200,1e-200"):
            commands.append([command, "--input", "square.json", "--direction", direction])
    return commands


def _run(argv: list[str]) -> tuple[str, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            status = f"exit {main(argv)}"
        except Exception as exc:  # an escape from main is itself an output
            status = f"raised {type(exc).__name__}"
    notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return status, (out.getvalue() + err.getvalue() + notes).encode()


def cli_digest() -> None:
    total = hashlib.sha256()
    statuses = Counter()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in {**SETS, **SCALE_PROBES, "column_overflow": COLUMN_OVERFLOW,
                              **NON_DYADIC}.items():
                Path(f"{name}.json").write_text(json.dumps(doc))
            for argv in cli_commands():
                status, data = _run(argv)
                statuses[status] += 1
                total.update(data)
                print(f"cli {' '.join(argv)}: {status} sha256={hashlib.sha256(data).hexdigest()}")
        finally:
            os.chdir(cwd)
    counts = ", ".join(f"{n} x {s}" for s, n in sorted(statuses.items()))
    print(f"cli total: {sum(statuses.values())} commands ({counts}), sha256={total.hexdigest()}")


def columns_digest() -> None:
    total = hashlib.sha256()
    cells = 0
    unions = [(name, set_from_json(doc)) for name, doc in NON_DYADIC.items()]
    unions += [(f"random_box_union({i}, dim={dim})", random_box_union(i, dim=dim))
               for dim in (2, 3) for i in range(40)]
    for name, B in unions:
        for axis in range(B.dim):
            cs = column_structure(B, axis)
            lo, hi = cs.cell_bounds
            lengths = np.array([cs.section_length(0.5 * (a + b)) for a, b in zip(lo, hi)])
            data = lo.tobytes() + hi.tobytes() + lengths.tobytes()
            cells += len(lengths)
            total.update(data)
            print(f"columns {name} axis {axis}: cells={len(lengths)} "
                  f"sha256={hashlib.sha256(data).hexdigest()}")
    print(f"columns total: {cells} cells, sha256={total.hexdigest()}")


if __name__ == "__main__":
    converge_digest()
    cli_digest()
    columns_digest()
