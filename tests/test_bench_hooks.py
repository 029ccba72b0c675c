"""The benchmark's traced names still exist in the package.

``bench/spans.py`` wraps package functions by (module, function) name,
so a rename in ``bundle_arith`` would silently break
``bench/run.py --trace 1``.  This loads that file as it is and checks
every name it traces.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, function in spans.TRACED:
        mod = importlib.import_module(f"bundle_arith.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
