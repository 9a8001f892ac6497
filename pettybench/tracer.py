"""Per-layer tracing from outside the program.

The traced run replaces each measured public function at every module
binding that holds it (the package namespace and each module that
imported it by name), and the two set constructors at their class, so
every call the program makes to one of them opens a span.  Spans (name,
start, end, parent) and counters stay in memory and are written out when
the run ends.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every traced function, by layer name
TRACED_FUNCTIONS = {
    "sets.steiner_symmetrize": ("pettybox.sets", "steiner_symmetrize"),
    "sets.is_regular_direction": ("pettybox.sets", "is_regular_direction"),
    "sets.surface_measure": ("pettybox.sets", "surface_measure"),
    "projection.petty_product": ("pettybox.projection", "petty_product"),
    "projection.polar_steiner_inclusion_check": ("pettybox.projection", "polar_steiner_inclusion_check"),
    "projection.affine_image_check": ("pettybox.projection", "affine_image_check"),
    "convex.polar_polygon": ("pettybox.convex", "polar_polygon"),
    "convex.polar_volume": ("pettybox.convex", "polar_volume"),
    "geometry.prune_collinear": ("pettybox.geometry", "prune_collinear"),
    "geometry.hausdorff_distance": ("pettybox.geometry", "hausdorff_distance"),
    "driver.run_symmetrization": ("pettybox.driver", "run_symmetrization"),
    "driver.cap_cover_greedy_step": ("pettybox.driver", "cap_cover_greedy_step"),
}
TRACED_CONSTRUCTORS = {
    "sets.PolygonSet": ("pettybox.sets", "PolygonSet"),
    "sets.BoxUnion": ("pettybox.sets", "BoxUnion"),
}
LAYERS = tuple(TRACED_CONSTRUCTORS) + tuple(TRACED_FUNCTIONS)

# counters beyond "<layer>.calls", as reported per round
EXTRA_COUNTERS = (
    "sets.BoxUnion.boxes_in", "sets.BoxUnion.boxes_out",
    "sets.steiner_symmetrize.vertices_out", "sets.steiner_symmetrize.boxes_out",
    "convex.polar_volume.exact.calls", "convex.polar_volume.quadrature.calls",
    "convex.polar_volume.quadrature.nodes",
    "geometry.prune_collinear.vertices_in",
    "geometry.hausdorff_distance.star_bound.calls",
    "geometry.hausdorff_distance.sampled.calls",
    "driver.candidates_scored", "driver.steps", "driver.resamples",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []   # name id, start ns, end ns, parent
        self._stack: list[list[int]] = []                  # [span index, start ns, child ns]
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._name_id(name), 0, 0, parent))
        frame = [index, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - frame[1]
            self.self_ns[name] += duration - frame[2]
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][2] += duration
            self.spans[index] = (self.spans[index][0], frame[1], end, parent)

    def report(self, rounds: int) -> dict:
        """Self time (ms) and counters per round, for every layer."""
        out = {}
        for layer in LAYERS:
            out[layer + ".self_ms"] = self.self_ns[layer] / 1e6 / rounds
            out[layer + ".calls"] = self.counts[layer + ".calls"] / rounds
        for name in EXTRA_COUNTERS:
            out[name] = self.counts[name] / rounds
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _quadrature_nodes(dim: int, size: int) -> int:
    """Support evaluations of one quadrature polar volume, computed from
    the grid size: the main grid plus the two coarser error levels."""
    if dim == 3:
        rows = max(2, int(round(math.sqrt(size / 2))))
        return size + sum(2 * max(2, rows // k) ** 2 for k in (2, 4))
    return size + max(8, size // 2) + max(8, size // 4)


def _polar_volume_route(pb, K, grid=None, method="auto") -> str:
    """The route polar_volume takes, read off its arguments."""
    if method == "auto":
        if isinstance(K, (pb.Ball, pb.PolarWrapper)) or K.dim == 2:
            return "exact"
        if isinstance(K, pb.Zonotope) and K.axis_box_halfwidths() is not None:
            return "exact"
    return "quadrature"


def _hausdorff_route(pb, a, b) -> str | None:
    """star_bound for a centered ball against a star-shaped polygon,
    sampled for a ball against any other polygon, None otherwise."""
    for ball, other in ((a, b), (b, a)):
        if isinstance(ball, pb.Ball) and isinstance(other, pb.PolygonSet):
            return "star_bound" if other.is_star_shaped() else "sampled"
    return None


def _count(tracer: Tracer, pb, layer: str, args, kwargs, result, default_sizes: dict) -> None:
    """The counters of one completed call, beyond its span."""
    c = tracer.counts
    if layer == "sets.steiner_symmetrize":
        if isinstance(result, pb.PolygonSet):
            c["sets.steiner_symmetrize.vertices_out"] += len(result.vertices)
        else:
            c["sets.steiner_symmetrize.boxes_out"] += result.box_count
    elif layer == "geometry.prune_collinear":
        c["geometry.prune_collinear.vertices_in"] += len(args[0])
    elif layer == "driver.cap_cover_greedy_step":
        c["driver.candidates_scored"] += len(args[1])
    elif layer == "driver.run_symmetrization":
        c["driver.steps"] += len(result.steps) - 1
        c["driver.resamples"] += sum(s.resamples for s in result.steps)
    elif layer == "convex.polar_volume":
        route = _polar_volume_route(pb, *args, **kwargs)
        c[f"convex.polar_volume.{route}.calls"] += 1
        if route == "quadrature":
            grid = args[1] if len(args) > 1 else kwargs.get("grid")
            dim = args[0].dim
            size = grid.size if grid is not None else default_sizes[dim]
            c["convex.polar_volume.quadrature.nodes"] += _quadrature_nodes(dim, size)
    elif layer == "geometry.hausdorff_distance":
        route = _hausdorff_route(pb, args[0], args[1])
        if route is not None:
            c[f"geometry.hausdorff_distance.{route}.calls"] += 1


def install(tracer: Tracer, pb) -> None:
    """Wrap every traced function at each pettybox module binding that
    holds the original, and the set constructors at their classes."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "pettybox" or name.startswith("pettybox."))]
    default_sizes = {dim: pb.default_grid(dim).size for dim in (2, 3)}
    for layer, (module_name, attr) in TRACED_FUNCTIONS.items():
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap_function(tracer, pb, layer, original, default_sizes)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    for layer, (module_name, attr) in TRACED_CONSTRUCTORS.items():
        cls = getattr(sys.modules[module_name], attr)
        cls.__init__ = _wrap_constructor(tracer, layer, cls.__init__)


def _wrap_function(tracer: Tracer, pb, layer: str, fn, default_sizes: dict):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        _count(tracer, pb, layer, args, kwargs, result, default_sizes)
        return result

    return traced


def _wrap_constructor(tracer: Tracer, layer: str, init):
    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        if not tracer.active:
            return init(self, *args, **kwargs)
        with tracer.span(layer):
            init(self, *args, **kwargs)
        if layer == "sets.BoxUnion":
            los = args[0] if args else kwargs["los"]
            tracer.counts["sets.BoxUnion.boxes_in"] += len(np.atleast_2d(np.asarray(los)))
            tracer.counts["sets.BoxUnion.boxes_out"] += self.box_count

    return traced_init

