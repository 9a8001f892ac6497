"""A fixed reference kernel that measures the host's current speed.

The host this benchmark runs on is shared: its speed drifts by tens of
per cent over seconds to minutes, with CPU time equal to wall time, so
the slowdown is in the core itself (clock, shared caches), not in
scheduling.  The benchmark therefore times this kernel next to every
operation and reports each operation's wall time scaled by
``NOMINAL_S / kernel time``: seconds at a fixed reference speed.  A
change to pettybox changes the operation's time and not the kernel's,
so it shows in full.

The kernel never imports pettybox.  It mixes what pettybox spends its
time on: a Python loop over the vertices of a small polygon that
indexes, subtracts and takes cross products of numpy rows, and
vectorised numpy calls on arrays of a few hundred entries.
"""

from __future__ import annotations

import math
import time

import numpy as np

# kernel seconds at the reference speed: about the kernel's median on a
# 2-vCPU Intel Xeon container (Python 3.11, numpy 2.4), so scaled
# figures read close to wall seconds on that host
NOMINAL_S = 4.0e-3
REPEATS = 20

_ANGLES = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
_POLYGON = (1.0 + 0.3 * np.cos(3.0 * _ANGLES))[:, None] * np.column_stack(
    [np.cos(_ANGLES), np.sin(_ANGLES)])
_CLOUD = np.random.default_rng(0).uniform(-1.0, 1.0, (256, 2))


def _kernel() -> float:
    v = _POLYGON
    m = len(v)
    acc = 0.0
    for i in range(m):
        a, b, c = v[(i - 1) % m], v[i], v[(i + 1) % m]
        chord = c - a
        d = b - a
        acc += abs(float(chord[0] * d[1] - chord[1] * d[0])) / float(np.hypot(chord[0], chord[1]))
    w = np.roll(v, -1, axis=0)
    acc += 0.5 * float(np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))
    h = np.max(_CLOUD @ v.T, axis=0)
    acc += float(np.sum(np.sort(h)[::4]))
    acc += float(np.linalg.det(np.cov(_CLOUD.T)))
    return acc


def sample() -> float:
    """Seconds the kernel takes now, REPEATS times over."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return time.perf_counter() - t0
