"""One round of each pettybench workload, run and checked as the benchmark
does it, so that a kernel change that breaks a benchmark oracle fails
here too.  The benchmark's modules are imported read-only, without
writing bytecode next to them."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import pettybox

BENCH = Path(__file__).resolve().parents[1] / "pettybench"
MODULES = ("inputs", "oracles", "workloads")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        for name in MODULES:
            mp.delitem(sys.modules, name, raising=False)
        yield {name: importlib.import_module(name) for name in MODULES}
        for name in MODULES:
            sys.modules.pop(name, None)


def test_benchmark_oracles_hold_on_their_closed_forms(bench):
    assert bench["oracles"].self_check() == []
    assert bench["workloads"].closed_form_failures(pettybox) == []


@pytest.mark.parametrize("workload", ["campaign", "converge", "voxels"])
def test_one_round_passes_every_check(bench, workload):
    workloads = bench["workloads"]
    failures = []
    for item in bench["inputs"].make_round(workload, 0, 0):
        out = workloads.run(pettybox, workload, item)
        failures += workloads.check(pettybox, workload, item, out)
    assert failures == []


def test_box_quadrature_error_holds_on_the_voxels_bodies(bench):
    # the 3D unions whose projection bodies the voxels cross-check
    # integrates, seed 5 rounds 0-3: the octant rule meets the closed form
    # within its estimate, and both within 1e-12 of each other
    bodies = [pettybox.projection_body(pettybox.BoxUnion(item["los"], item["his"]))
              for r in range(4) for item in bench["inputs"].make_round("voxels", 5, r)
              if len(item["los"][0]) == 3]
    assert len(bodies) == 24
    for Z in bodies:
        exact = pettybox.polar_volume(Z).value
        q = pettybox.polar_volume(Z, method="quadrature")
        assert abs(q.value - exact) <= q.error <= 1e-12 * exact
