"""Benchmark for bundle-arith.

    python3 bench/run.py --workload feasibility-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Prints, as the last line of stdout,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Progress and any failed or
wrong operation go to stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import calibration
import clirun
import spans
import workloads
from calibration import Timed, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# The child times itself from just before ``import bundle_arith`` to the
# end of round 0's inputs, between two calibration loops of its own.  The
# bare interpreter start before that is not the program's code, and on a
# shared host it steps between levels that no reference tracks.
SETUP_CHILD = (
    "import json, sys, time, calibration, workloads; before = calibration.mark(); "
    "t0 = time.perf_counter(); import bundle_arith; "
    "workloads.Inputs(sys.argv[1], int(sys.argv[2])).round(0); "
    "t1 = time.perf_counter(); print(json.dumps([t0, t1, [before, calibration.mark()]]))"
)
RATES = {
    "feasible_cold_per_s": "1/s",
    "feasible_warm_per_s": "1/s",
    "lattice_per_s": "1/s",
    "closure_states_per_s": "1/s",
    "coverage_s": "s",
    "split_per_s": "1/s",
    "witness_per_s": "1/s",
}


def setup_probe(workload: str, seed: int, cal) -> Timed:
    """A fresh interpreter importing the package and making round 0's inputs."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, workload, str(seed)],
        env=clirun.child_env(), check=True, timeout=60, capture_output=True, text=True,
    )
    cal.mark()
    t0, t1, marks = json.loads(proc.stdout)
    cal.add(marks)
    return Timed(t1 - t0, t0, t1)


def run_rounds(args, cal, one_round, setup):
    """Call ``one_round(r)`` for whole rounds until ``args.seconds`` have passed.

    Without tracing, the setup probes are spread over the run, one
    before each round, so that their median does not hang on one moment.
    """
    def probe():
        if not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed, cal))

    rounds = []
    start = time.perf_counter()
    while len(rounds) < workloads.MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        probe()
        r = len(rounds)
        rounds.append(one_round(r))
        print(f"round {r} done at {time.perf_counter() - start:.1f} s", file=sys.stderr)
    while not args.trace and len(setup) < SETUP_PROBES:
        probe()
    return rounds


def busy_s(r, cal) -> float:
    return sum(cal.seconds(t) for t in r.busy)


def layer_metrics(cal, rounds, summary, cli) -> dict:
    """Per-layer metrics: spans of the first traced round, CLI figures of every round.

    ``rounds`` is [(traced, library round)]; span times are scaled by the
    calibration over the first traced round.
    """
    first = next(r for traced, r in rounds if traced)
    factor = cal.factor(first.busy[0].start, first.busy[-1].end)
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    out = {}
    for module, fn in spans.TRACED:
        name = f"{module}.{fn}"
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) * factor, "s")
    feasible_calls = calls.get(spans.FEASIBLE, 0)
    out["cohomology.is_feasible.repeat_share"] = (
        counters["feasible_repeats"] / feasible_calls if feasible_calls else 0.0, "share"
    )
    out["rank2.generation_closure.states"] = (counters["closure_states"], "count")
    out["diophantine.coverage_check.family1_candidates"] = (
        counters["family1_candidates"], "count-computed"
    )
    for key in workloads.CRITERIA:
        times = [cal.seconds(cr.acceptance[key]) for cr in cli if key in cr.acceptance]
        out[f"acceptance.{key}.s"] = (median(times), "s")
    out["cli.main.s"] = (median([cal.seconds(t) for cr in cli for t in cr.examples]), "s")
    out["cli.startup.s"] = (
        median([sum(cal.seconds(t) for t in cr.startup) for cr in cli if cr.startup]), "s"
    )
    traced = median([busy_s(r, cal) for t, r in rounds if t])
    plain = median([busy_s(r, cal) for t, r in rounds if not t])
    out["trace.overhead"] = (100.0 * (traced / plain - 1.0) if plain else 0.0, "%")
    out["trace.round_s"] = (busy_s(first, cal), "s")
    return out


def measure(run, args, package, cal, setup) -> dict:
    inputs = workloads.Inputs(args.workload, args.seed)
    mix = workloads.MIXES[args.workload]
    state = {}

    def one_round(r):
        traced = args.trace and r % 2 == 0
        data = inputs.round(r)
        if traced:
            run.recorder = spans.Recorder().install()
        try:
            lr = workloads.library_round(run, package, data, mix, cal)
        finally:
            if run.recorder is not None:
                run.recorder.uninstall()
                state.setdefault("spans", run.recorder.summary())
                run.recorder = None
        if r == 0:
            # after a fixed amount of work, so a faster build cannot look fatter
            state["rss"] = workloads.peak_rss_mb()
        return traced, lr, workloads.cli_round(run, cal)

    rounds = run_rounds(args, cal, one_round, setup)
    cli = [cr for _, _, cr in rounds]
    if args.trace:
        return layer_metrics(cal, [(t, lr) for t, lr, _ in rounds], state["spans"], cli)
    per_round = [lr.metrics(cal) for _, lr, _ in rounds]
    out = {
        name: (median([m[name] for m in per_round if name in m]), unit)
        for name, unit in RATES.items()
    }
    out["report_s"] = (median([cal.seconds(cr.report) for cr in cli if cr.report]), "s")
    out["cli_p50_ms"] = (1000.0 * median([cal.seconds(t) for cr in cli for t in cr.examples]), "ms")
    out["peak_rss_mb"] = (state["rss"], "MB")
    out["setup_s"] = (median([cal.seconds(t) for t in setup]), "s")
    return out


def expected_names(trace: bool) -> list[str] | None:
    """Metric names BENCHMARK.json promises for this mode, when it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bundle_arith" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bundle_arith

    if Path(bundle_arith.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported {bundle_arith.__file__}, not the checkout", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the calibration
    # loop runs where the measured work runs: the CPUs of a shared host
    # slow down independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal = calibration.Calibrator()
    setup: list[Timed] = []
    run = workloads.Run()
    metrics = measure(run, args, bundle_arith, cal, setup)

    names = expected_names(bool(args.trace))
    if names is not None and names != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {names}", file=sys.stderr)
        return 1
    print(f"calibration loop: median {1000 * median([c for _, c in cal.marks]):.2f} ms "
          f"over {len(cal.marks)}, reference {1000 * calibration.REFERENCE_S:.2f} ms", file=sys.stderr)
    for label in run.failures:
        print(f"failed: {label}", file=sys.stderr)
    for label in run.wrong:
        print(f"wrong: {label}", file=sys.stderr)
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
