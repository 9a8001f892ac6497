"""One workload process: set up, then time whole rounds of operations.

Started by run.py with the BLAS thread pools pinned.  Prints ``READY``
once set-up is done (interpreter, imports, first round of inputs) so the
parent can time set-up, and times the reference kernel right after it.
Unless --setup-only, it then times whole rounds until --seconds have
passed, with the reference kernel timed right after every operation
(more times after a long one), checks every output untimed right after its operation, and
prints a JSON object with the measurements as its last line.  Times
are scaled to the reference speed (see reference.py); the wall times
are kept beside them.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pettybox as pb  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 20
SETUP_REFERENCE_SAMPLES = 5
# after an operation the reference kernel runs for about this share of
# the operation's time (at least once, at most MAX_AFTER_SAMPLES times),
# so its samples cover a long operation's stretch of the run as well
AFTER_SHARE = 0.05
MAX_AFTER_SAMPLES = 25
WINDOW_S = 1.0


def _after_samples(op_s: float) -> int:
    return min(MAX_AFTER_SAMPLES, max(1, round(AFTER_SHARE * op_s / reference.NOMINAL_S)))


def _scales(op_spans, ref_samples) -> list[float]:
    """Each operation's factor to the reference speed: NOMINAL_S over the
    mean kernel time of the samples taken within WINDOW_S of the
    operation.  The host's speed flickers within a second, so a kernel
    sample far from the operation says little about it, and a single one
    next to it is noisy; the window keeps a few close ones."""
    times = [t for t, _ in ref_samples]
    prefix = [0.0]
    for _, dr in ref_samples:
        prefix.append(prefix[-1] + dr)
    scales = []
    for t0, t1 in op_spans:
        lo = bisect.bisect_left(times, t0 - WINDOW_S)
        hi = max(bisect.bisect_right(times, t1 + WINDOW_S), lo + 1)
        scales.append(reference.NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return scales


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("campaign", "converge", "voxels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    first_round = inputs.make_round(args.workload, args.seed, 0)
    print("READY", flush=True)
    setup_ref_s = statistics.median(reference.sample() for _ in range(SETUP_REFERENCE_SAMPLES))
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref_s}), flush=True)
        return 0

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer, pb)

    op_spans: list[tuple[float, float]] = []     # (start, end) of each timed operation
    op_rounds: list[int] = []
    ref_samples: list[tuple[float, float]] = []  # (midpoint, seconds) of each kernel run
    attempted = failed = 0
    failures: list[str] = []     # failed checks: the run is not correct
    errors: list[str] = []       # operations that raised: counted as failed
    deadline = time.perf_counter() + args.seconds
    index = 0
    items = first_round
    while True:
        for item in items:
            attempted += 1
            tracer.active = bool(args.trace)
            try:
                t0 = time.perf_counter()
                with tracer.span("bench.op"):
                    out = workloads.run(pb, args.workload, item)
                t1 = time.perf_counter()
            except Exception:   # a failed operation is counted, not fatal
                tracer.active = False
                failed += 1
                errors.append(traceback.format_exc(limit=3))
                continue
            tracer.active = False
            op_spans.append((t0, t1))
            op_rounds.append(index)
            for _ in range(_after_samples(t1 - t0)):
                r0 = time.perf_counter()
                dr = reference.sample()
                ref_samples.append((r0 + 0.5 * dr, dr))
            failures.extend(workloads.check(pb, args.workload, item, out))
        index += 1
        if time.perf_counter() >= deadline:
            break
        items = inputs.make_round(args.workload, args.seed, index)

    scales = _scales(op_spans, ref_samples)
    wall_op_times = [t1 - t0 for t0, t1 in op_spans]
    op_times = [dt * k for dt, k in zip(wall_op_times, scales)]
    round_times = [0.0] * index
    for r, dt in zip(op_rounds, op_times):
        round_times[r] += dt

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = oracles.self_check() + workloads.closed_form_failures(pb)
    result = {
        "rounds": index,
        "ops_per_round": len(first_round),
        "attempted": attempted,
        "failed": failed,
        "correct": not failures and not checks,
        "failures": (failures + checks)[:MAX_REPORTED_FAILURES],
        "errors": errors[:MAX_REPORTED_FAILURES],
        "round_times_s": round_times,
        "op_samples": len(op_times),
        # mean over rounds: campaign and voxels draw fresh inputs every
        # round, and the mean weighs each round's work in full
        "run_s": statistics.fmean(round_times),
        "op_p50_ms": 1e3 * statistics.median(op_times) if op_times else float("nan"),
        "peak_rss_mib": peak_rss_mib,
        "setup_ref_s": setup_ref_s,
        "wall_run_s": sum(wall_op_times) / index,
        "wall_op_p50_ms": 1e3 * statistics.median(wall_op_times) if wall_op_times else float("nan"),
        "scale_p50": statistics.median(scales) if scales else float("nan"),
        "timeline": {"op_spans": op_spans, "op_rounds": op_rounds, "ref_samples": ref_samples},
    }
    if args.trace:
        result["layers"] = tracer.report(index)
        result["layers"]["traced.run_s"] = result["run_s"]
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
