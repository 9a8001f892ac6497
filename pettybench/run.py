"""pettybox benchmark.

    python3 pettybench/run.py --workload {campaign,converge,voxels} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; pettybox is imported from ./src, nothing
needs installing.  Each workload runs in a child process of its own with
the BLAS thread pools pinned to one thread.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics
(setup_s, run_s, op_p50_ms, peak_rss_mib); with --trace 1 it holds the
per-layer metrics of a separate, traced child.  Times are scaled to a
fixed reference speed by a kernel timed next to them (reference.py).  Results and span dumps
also go to pettybench/out/.  See pettybench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_EXTRA = 3          # set-up-only children before and again after the measured one
DEADLINE_S = 170.0       # a run ends, its workers killed, within this
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}


def _layer_unit(name: str) -> str:
    if name.endswith("self_ms"):
        return "ms"
    return "s" if name.endswith("run_s") else "count"


class ChildFailed(RuntimeError):
    pass


def _child(args, extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns its set-up time (spawn to READY) and the
    JSON object on its last line, if it printed one.  The worker is
    killed at the deadline and always waited for."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **PINNED_ENV), cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise ChildFailed(f"worker exited with code {proc.returncode}"
                          + ("" if ready else " before finishing set-up"))
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    return setup, (json.loads(lines[-1]) if lines else None)


def _setup_child(args, deadline: float) -> tuple[float, float]:
    setup, result = _child(args, ["--setup-only"], deadline)
    if result is None:
        raise ChildFailed("set-up worker printed no reference time")
    return setup, result["setup_ref_s"]


def measure(args) -> dict:
    """setup_s is the median over the measured child and set-up-only
    children on both sides of it, each set-up scaled by the reference
    kernel timed in the same child right after it."""
    deadline = time.monotonic() + DEADLINE_S
    extra_setups = 0 if args.trace else SETUP_EXTRA
    setups = [_setup_child(args, deadline) for _ in range(extra_setups)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--trace-file", str(OUT / f"spans-{stem}.json")] if args.trace else []
    setup, result = _child(args, extra, deadline)
    if result is None:
        raise ChildFailed("worker printed no result")
    setups.append((setup, result["setup_ref_s"]))
    setups += [_setup_child(args, deadline) for _ in range(extra_setups)]
    result["wall_setup_samples_s"] = [wall for wall, _ in setups]
    result["setup_samples_s"] = [wall * reference.NOMINAL_S / ref for wall, ref in setups]
    result["setup_s"] = statistics.median(result["setup_samples_s"])
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pettybox benchmark")
    ap.add_argument("--workload", required=True, choices=("campaign", "converge", "voxels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pettybox" / "__init__.py").is_file():
        print(f"pettybox sources not found under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  {result['rounds']} rounds of {result['ops_per_round']} operations, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for msg in result["failures"]:
        print(f"  CHECK FAILED: {msg}")
    for msg in result["errors"]:
        print(f"  OPERATION FAILED: {msg}")
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
        print("  per-layer figures per round (self times exclude child spans;")
        print("  quadrature.nodes is computed from the grid sizes):")
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        print(f"  setup_s is the median of {len(result['setup_samples_s'])} set-ups; "
              f"run_s the mean of {result['rounds']} rounds; "
              f"op_p50_ms the median of {result['op_samples']} operations;")
        print(f"  all scaled to the reference speed, median scale {result['scale_p50']:.4f} "
              f"(wall: setup {statistics.median(result['wall_setup_samples_s']):.4g} s, "
              f"round {result['wall_run_s']:.4g} s, operation {result['wall_op_p50_ms']:.4g} ms)")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
