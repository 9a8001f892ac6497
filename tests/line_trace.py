"""Statements of the package that never run under its system-level
callers, from a standard-library line trace (sys.settrace); no coverage
tool is needed.  Pytest does not collect this file; run it from a
checkout's root:

    python tests/line_trace.py [--rounds N]

In one process, with the trace on before pettybox is imported, it runs:
- the three parts of tests/output_digest.py (converge traces, CLI
  commands, column structures), their output discarded;
- tests/test_acceptance.py, through pytest in process;
- N seed-5 rounds (default 2) of each benchmark workload, made by
  pettybench/inputs.py and run and checked by pettybench/workloads.py,
  then its closed-form checks.

It then prints, for each module of src/pettybox, every statement with a
line that never ran, as "module.py:line: first line of the statement",
and a count per module.  A line counts when the compiler gives it
bytecode (code.co_lines); a line belongs to the innermost statement
around it (ast).  pettybench/ is only imported: no bytecode is written
(sys.dont_write_bytecode).  The exit code is 1 when a workload check or
an acceptance test fails, else 0.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pettybox"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "pettybench"))

_ran: dict[str, set[int]] = defaultdict(set)
_inside: dict[str, str | None] = {}


def _package_file(filename: str) -> str | None:
    """The absolute path of a code object's file when it is in the
    package, else None; cached per file name."""
    if filename not in _inside:
        path = os.path.abspath(filename)
        _inside[filename] = path if os.path.dirname(path) == str(PACKAGE) else None
    return _inside[filename]


def _trace(frame, event, arg):
    path = _package_file(frame.f_code.co_filename)
    if path is None:
        return None
    lines = _ran[path]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _missed_statements(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(first line, its text) of each statement or except clause that
    owns a line with bytecode that never ran; a decorated definition
    starts at its first decorator."""
    source = path.read_text()
    missed = _code_lines(compile(source, str(path), "exec")) - ran
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((start, node.end_lineno))
    text = source.splitlines()
    starts = set()
    for line in missed:
        around = [s for s in spans if s[0] <= line <= s[1]]
        starts.add(min(around, key=lambda s: s[1] - s[0])[0] if around else line)
    return [(start, text[start - 1].strip()) for start in sorted(starts)]


def _run_callers(rounds: int) -> list[str]:
    """Run every caller under the trace; returns the failures."""
    import pytest

    import pettybox as pb

    import inputs  # pettybench/inputs.py
    import output_digest  # tests/output_digest.py
    import workloads  # pettybench/workloads.py

    with contextlib.redirect_stdout(io.StringIO()):
        output_digest.converge_digest()
        output_digest.cli_digest()
        output_digest.columns_digest()
    failures = []
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          str(ROOT / "tests" / "test_acceptance.py")])
    if status != 0:
        failures.append(f"tests/test_acceptance.py exited {int(status)}")
    for workload in ("campaign", "converge", "voxels"):
        for index in range(rounds):
            for item in inputs.make_round(workload, 5, index):
                out = workloads.run(pb, workload, item)
                failures += workloads.check(pb, workload, item, out)
    return failures + workloads.closed_form_failures(pb)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=2,
                    help="seed-5 rounds of each workload (default 2)")
    args = ap.parse_args(argv)
    if "pettybox" in sys.modules:
        raise RuntimeError("pettybox was imported before the trace started")
    sys.settrace(_trace)
    try:
        failures = _run_callers(args.rounds)
    finally:
        sys.settrace(None)
    for failure in failures:
        print(f"check failed: {failure}")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = _missed_statements(path, _ran[str(path)])
        total += len(missed)
        for line, text in missed:
            print(f"{path.name}:{line}: {text}")
        print(f"{path.name}: {len(missed)} statements with lines that never ran")
    print(f"total: {total} statements")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
