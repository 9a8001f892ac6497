"""The benchmark's tracer wraps package functions and constructors that it
names by (module, attribute); a name that no longer resolves breaks every
traced benchmark run.  So does a package name or a result attribute that
the benchmark reads.  The package's own export list must resolve too, and
so must the package names the README gives.  The tracer's Hausdorff route
counter must name the route the package takes, and a traced layer must
be reached through the module binding the tracer wraps."""

from __future__ import annotations

import builtins
import functools
import importlib
import importlib.util
import itertools
import pkgutil
import re
from pathlib import Path

import pytest

import pettybox
import pettybox.projection
from pettybox import (Ball, BoxUnion, InputError, PolygonSet, SphericalGrid,
                      Zonotope)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "pettybench"
TRACER = BENCH / "tracer.py"


@functools.cache
def _tracer():
    spec = importlib.util.spec_from_file_location("pettybench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _modules():
    return [pettybox] + [importlib.import_module(f"pettybox.{m.name}")
                         for m in pkgutil.iter_modules(pettybox.__path__)]


def test_traced_names_resolve_on_the_package():
    tracer = _tracer()
    targets = {**tracer.TRACED_FUNCTIONS, **tracer.TRACED_CONSTRUCTORS}
    assert len(targets) == len(tracer.LAYERS)
    for layer, (module, attr) in targets.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), layer


def test_each_traced_name_binds_one_function():
    # the tracer wraps the object at every module binding that holds it, so
    # a second definition under a traced name would run untraced
    for layer, (module, attr) in _tracer().TRACED_FUNCTIONS.items():
        traced = getattr(importlib.import_module(module), attr)
        for mod in _modules():
            if hasattr(mod, attr):
                assert getattr(mod, attr) is traced, f"{layer}: {mod.__name__}.{attr}"


def test_benchmark_names_resolve_on_the_package():
    # the benchmark reads the package as pb; the tracer also reads these
    # attributes off results and grids
    names = {name for path in BENCH.glob("*.py")
             for name in re.findall(r"\bpb\.(\w+)", path.read_text())}
    assert "PolarWrapper" in names and "default_grid" in names
    for name in sorted(names):
        assert hasattr(pettybox, name), name
    for cls, attr in [(BoxUnion, "box_count"), (Zonotope, "axis_box_halfwidths"),
                      (PolygonSet, "is_star_shaped"), (SphericalGrid, "size")]:
        assert hasattr(cls, attr), f"{cls.__name__}.{attr}"


def test_exported_names_resolve_on_the_package():
    assert len(set(pettybox.__all__)) == len(pettybox.__all__)
    for name in pettybox.__all__:
        assert hasattr(pettybox, name), name


def test_readme_names_resolve_on_the_package():
    # a backticked dotted name that starts at a pettybox module or export
    # (`geometry.steiner_ring`, `Zonotope._half_turn`), and a backticked
    # call of a bare name (`hausdorff_distance(A, B)`), must resolve
    roots = {m.name: importlib.import_module(f"pettybox.{m.name}")
             for m in pkgutil.iter_modules(pettybox.__path__)}
    roots.update({name: getattr(pettybox, name) for name in pettybox.__all__})
    checked = 0
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        head, rest, call = re.match(r"(\w*)((?:\.\w+)*)(\(?)", span).groups()
        if rest and head in roots:
            target = roots[head]
            for part in rest[1:].split("."):
                assert hasattr(target, part), span
                target = getattr(target, part)
        elif call and not rest and head and not hasattr(builtins, head):
            assert hasattr(pettybox, head), span
        else:
            continue
        checked += 1
    assert checked > 0


# one handle of each planar kind; the first polygon is star-shaped about
# the origin, the second has the origin at a corner
HANDLES = {
    "ball": Ball(1.0),
    "star-polygon": PolygonSet([[-1, -1], [1, -1], [1, 1], [-1, 1]]),
    "polygon": PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]]),
    # the diamond |x| + |y| <= 1 as the zonotope on its half edges; the key
    # keeps its test ids
    "facets": Zonotope([[0.5, 0.5], [-0.5, 0.5]]),
    "zonotope": Zonotope([[1.0, 0.0], [0.3, 1.0]]),
    "boxes": BoxUnion([[-1, -1]], [[1, 1]]),
}


@pytest.mark.parametrize("first,second", itertools.product(HANDLES, repeat=2))
def test_tracer_counts_the_hausdorff_route_the_package_takes(first, second, hausdorff_routes):
    # the classifier names the route the call takes, and None exactly for
    # a pair the call rejects
    a, b = HANDLES[first], HANDLES[second]
    counted = _tracer()._hausdorff_route(pettybox, a, b)
    try:
        pettybox.hausdorff_distance(a, b)
    except InputError:
        assert counted is None and hausdorff_routes == []
    else:
        assert hausdorff_routes == [counted]


def test_inclusion_check_reaches_the_polar_ring_through_its_binding(monkeypatch):
    # the tracer counts convex.polar_polygon at every module binding that
    # holds it; the inclusion check must call it through projection's, once,
    # or the layer reads 0 calls while the work still runs
    calls = []
    original = pettybox.projection.polar_polygon

    def counted(K):
        calls.append(K)
        return original(K)

    monkeypatch.setattr(pettybox.projection, "polar_polygon", counted)
    square = PolygonSet([[0, 0], [1, 0], [1, 1], [0, 1]])
    holds, _ = pettybox.polar_steiner_inclusion_check(square, [0.6, 0.8])
    assert holds
    assert len(calls) == 1 and isinstance(calls[0], Zonotope)
