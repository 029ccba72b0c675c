"""Run ``bundle_arith.cli.main`` in a fresh interpreter.

The package has no ``__main__.py``, ``python -m bundle_arith.cli`` exits
0 without printing anything, and the ``bundle-arith`` script is only
there after an install, so the benchmark starts ``python -c`` with
``src`` on the path.  One child makes a list of invocations, one after
another, each as ``main(["--json", *argv])`` with its stdout captured,
and prints one JSON line with, per invocation, the exit code, the
captured stdout, the interval spent inside ``main`` and the ``elapsed``
and interval of each acceptance criterion it ran, plus the calibration
loops it timed before every invocation and every criterion.  The parent insists that each captured stdout holds
exactly one JSON document, so a silent no-op cannot pass as a fast run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

_CHILD = r"""
import contextlib, io, json, sys, time
from bundle_arith import acceptance, cli
import calibration

calls, marks, criteria = [], [], {}
run_one = acceptance.run

def timed_run(key):
    marks.append(calibration.mark())
    t0 = time.perf_counter()
    result = run_one(key)
    criteria[key] = (result.elapsed, t0, time.perf_counter())
    return result

acceptance.run = timed_run
for argv in json.loads(sys.argv[1]):
    criteria.clear()
    out = io.StringIO()
    marks.append(calibration.mark())
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", *argv])
    t1 = time.perf_counter()
    calls.append({"code": code, "stdout": out.getvalue(), "start": t0, "end": t1,
                  "acceptance": dict(criteria)})
marks.append(calibration.mark())
print(json.dumps({"calls": calls, "marks": marks}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    return env


@dataclass
class Invocation:
    """One CLI call made in a child: exit code, JSON document, time inside ``main``."""

    argv: tuple[str, ...]
    code: int | None
    doc: dict | None
    start: float = 0.0
    end: float = 0.0
    acceptance: dict = field(default_factory=dict)  # criterion -> (elapsed, start, end)

    @property
    def main_s(self) -> float:
        return self.end - self.start


@dataclass
class Child:
    """One fresh interpreter and the invocations it made."""

    start: float
    end: float
    calls: list[Invocation]
    marks: list  # (when, loop time) of the calibration loops it ran

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def invoke(argvs, timeout: float) -> Child | None:
    """Run ``bundle-arith --json <argv>`` for each argv in one fresh interpreter.

    Returns None when the child runs past ``timeout`` wall seconds (it is
    killed and waited for).  A child that crashes yields invocations
    without a document, which no check accepts.
    """
    argvs = [tuple(a) for a in argvs]
    cmd = [sys.executable, "-c", _CHILD, json.dumps(argvs)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    t1 = time.perf_counter()
    try:
        report = json.loads(proc.stdout) if proc.returncode == 0 else {}
    except json.JSONDecodeError:
        report = {}
    calls = report.get("calls", [])
    if len(calls) != len(argvs):
        sys.stderr.write(proc.stderr[-2000:])
        return Child(t0, t1, [Invocation(argv, None, None) for argv in argvs], [])
    out = []
    for argv, call in zip(argvs, calls):
        try:
            doc = json.loads(call["stdout"])  # exactly one document, or this raises
        except json.JSONDecodeError:
            doc = None
        out.append(Invocation(argv, call["code"], doc, call["start"], call["end"], call["acceptance"]))
    return Child(t0, t1, out, report["marks"])
