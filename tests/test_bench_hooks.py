"""The benchmark's traced names and call shapes still work on the package.

``bench/spans.py`` wraps package functions by (module, function) name,
so a rename in ``bundle_arith`` would silently break
``bench/run.py --trace 1``.  This loads that file as it is and checks
every name it traces.  ``bench/workloads.py`` and ``bench/clirun.py``
call the package with fixed argument shapes and read fixed attributes
of the results; a signature change there would fail only a benchmark
run, so the same calls are made here on small inputs.
"""

import importlib
import importlib.util
from pathlib import Path

import bundle_arith as pkg

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, function in spans.TRACED:
        mod = importlib.import_module(f"bundle_arith.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_benchmark_call_shapes():
    # each call as bench/workloads.py (or clirun.py) makes it, with what it reads back
    v = pkg.cohomology.ChernVector(*(2, 3, (1, 2)))
    assert pkg.cohomology.is_feasible(v) in (True, False)
    assert (v.rank, v.dim, v.c) == (2, 3, (1, 2))  # spans.py keys repeats on these
    assert pkg.cohomology.feasible_c3_lattice(3, 0, 24) > 0

    report = pkg.rank2.generation_closure(*(-2, 0, 2, -4, 0, 4))
    r = report.reached[0]
    assert (r.cls.c1, r.cls.c2, r.cls.alpha, r.cost) == (-2, -2, 0, 3)
    assert r.witness.startswith("tensor(")
    assert not report.unreached and report.searched > 0

    cover = pkg.diophantine.coverage_check(3, 0, 6, 2)
    assert [s.triple for s, _ in cover.matched] + [s.triple for s in cover.unmatched]
    assert all((p.kind, p.params) for _, p in cover.matched)

    assert pkg.rank3.is_split_realizable(*(3, 3, 1)) == (1, 1, 1)
    group = pkg.rank3.make_group(*(3, 0), 24)
    cls = pkg.rank3.Rank3BundleClass(*(3, 0, -4))
    p, verified = pkg.rank3.prime_witness(group, cls)
    assert p > 0 and verified in (True, False)

    assert pkg.acceptance.run("alpha-case-table").elapsed >= 0
