"""Span recorder for the benchmark's traced runs.

The recorder wraps the package's public functions at every name through
which they are called: the defining module's attribute and every
from-import binding (``rank3`` binds ``is_feasible`` and
``feasible_c3_lattice`` that way).  A span opens only where a call
crosses into the function's module from outside it, which is a layer
boundary; calls made inside the module are counted in ``calls`` but
open no span, so their time stays in the enclosing span's self time and
hot inner loops pay only for a counter.

Per name the recorder keeps calls and self time (span time minus the
time of child spans), plus counters computed from arguments or results.
Everything stays in memory; :meth:`Recorder.summary` hands it out when
the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function) pairs with a per-layer metric
TRACED = (
    ("cohomology", "is_feasible"),
    ("cohomology", "euler_characteristic"),
    ("cohomology", "chern_character"),
    ("cohomology", "feasible_c3_lattice"),
    ("rank2", "generation_closure"),
    ("rank2", "tensor_line"),
    ("rank2", "horrocks_sum"),
    ("rank2", "agreement_check"),
    ("rank2", "add"),
    ("rank2", "add_shifted"),
    ("rank3", "is_split_realizable"),
    ("rank3", "prime_witness"),
    ("rank3", "make_group"),
    ("rank3", "subgroup_index"),
    ("rank3", "smallest_nonsplit_multiple"),
    ("diophantine", "coverage_check"),
    ("diophantine", "brute_force_solutions"),
)
MODULES = ("cohomology", "rank2", "rank3", "diophantine", "acceptance", "cli")

FEASIBLE = "cohomology.is_feasible"
CLOSURE = "rank2.generation_closure"
COVERAGE = "diophantine.coverage_check"


class Recorder:
    """Counts and self times per traced function, for one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {"feasible_repeats": 0, "closure_states": 0, "family1_candidates": 0}
        self._seen: set = set()
        self._stack: list[float] = []
        self._restore: list = []

    def install(self) -> "Recorder":
        modules = {name: importlib.import_module(f"bundle_arith.{name}") for name in MODULES}
        for mod_name, fn_name in TRACED:
            fn = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn):
        home = fn.__globals__
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        before = self._observe_args(name)
        after = self._observe_result(name)
        clock = time.perf_counter
        frame = sys._getframe

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            if frame(1).f_globals is home:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _observe_args(self, name):
        counters = self.counters
        if name == FEASIBLE:
            seen = self._seen

            def before(args, kwargs):
                v = args[0] if args else kwargs["v"]
                key = (v.rank, v.dim, v.c)
                if key in seen:
                    counters["feasible_repeats"] += 1
                else:
                    seen.add(key)

            return before
        if name == COVERAGE:

            def before(args, kwargs):
                bound = args[3] if len(args) > 3 else kwargs["param_bound"]
                # the family-1 scan visits every (u, v, l, w) in the bound:
                # computed from the argument, not counted inside the loop
                counters["family1_candidates"] += (2 * bound + 1) ** 4

            return before
        return None

    def _observe_result(self, name):
        if name == CLOSURE:
            counters = self.counters

            def after(report):
                counters["closure_states"] += report.searched

            return after
        return None

    def snapshot(self):
        return dict(self.calls), dict(self.self_s), dict(self.counters)

    def rollback(self, snap) -> None:
        """Forget what happened since ``snap``: the operation failed."""
        calls, self_s, counters = snap
        self.calls.update(calls)
        self.self_s.update(self_s)
        self.counters.update(counters)
        self._stack.clear()

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters)}
