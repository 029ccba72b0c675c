"""The benchmark's workloads: seeded inputs, timed rounds, output checks.

A run repeats whole rounds until its time is up.  Every round of a
workload attempts the same operations on inputs drawn fresh from the
seed, so the share of failed operations is the same in every run and
no round is served by the caches an earlier round filled.

- ``feasibility-sweep``: library calls in this process, mostly
  ``is_feasible`` on distinct vectors, then the same vectors again, then
  c3 lattice scans over bases that no earlier phase touched.
- ``search-scans``: library calls in this process, mostly the
  combinatorial searches: the generation closure, the quadric coverage
  scan, split answers on large |c3| and prime witnesses.

Both workloads also run every other kind of library operation a little,
and end every round with the same CLI pass: the README examples, twice,
and ``report --json``, each in a fresh interpreter, so that every
workload reports every end-to-end metric and the CLI always starts with
cold caches.
"""

from __future__ import annotations

import random
import resource
import signal
import time
from dataclasses import dataclass, field

import clirun
import oracle
import spans
from calibration import Calibrator, Timed

WORKLOADS = ("feasibility-sweep", "search-scans")
CRITERIA = (
    "realizability-law",
    "horrocks-agreement",
    "alpha-case-table",
    "small-index-example",
    "nonsplit-witnesses",
    "group-axioms",
    "generation-closure",
    "quadric-coverage",
    "oracle-consistency",
)
MIN_ROUNDS = 2

# CPU seconds an in-process operation may use before it counts as failed.
LIMIT_PASS = 30.0  # one chunk or pass of a phase's vectors
LIMIT_SCAN = 30.0  # one lattice scan, closure or coverage call
LIMIT_ANSWER = 0.5  # one split answer or prime witness: milliseconds when healthy
# New vectors are classified in chunks, so that the calibration loop runs
# between them (see library_round), and any operation that takes
# MARK_AFTER_S or more is followed by a calibration loop.
COLD_CHUNK = 500
MARK_AFTER_S = 0.005
# Wall seconds a CLI child may take: the README examples, or the report.
TIMEOUT_EXAMPLES = 30.0
TIMEOUT_REPORT = 60.0

# Operations that fail because of known faults in the package.  They stay
# in every round and are counted as failed until the package mends them.
SPLIT_FAULT = (0, 0, 10**18 + 3)  # _divisors trial-divides up to sqrt|c3|
WITNESS_FAULT = ((3, 0), (3, 0, -4 * 10**11))  # trial-division primality
AGREE_FAULT = ("agree", "--c2-bound", "-5")  # exits 0 with "cases: 0"

ACCEPTANCE_BOX = (-6, 0, 8, -12, 0, 16)
DOUBLED_BOX = (-12, 0, 16, -24, 0, 32)
QUADRIC_BOX = 6
QUADRIC_BASES = tuple(
    (a, b)
    for a in range(-4, 5)
    for b in range(-4, 5)
    if oracle.quadric_solutions(a, b, QUADRIC_BOX) - {oracle.canonical((a, b, 0))}
)


class Deadline(Exception):
    """An operation used up its CPU-time limit."""


def _expire(signum, frame):
    raise Deadline


class Run:
    """Counts, samples and wrong answers of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.recorder: spans.Recorder | None = None
        signal.signal(signal.SIGPROF, _expire)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def attempt(self, label: str, fn, limit: float, count: int = 1):
        """(Timed, result) of ``fn()``, or None when it ran past ``limit``.

        The limit is CPU time of this process, enforced by SIGPROF, so
        the operation is interrupted where it runs and nothing else is
        started.  A failed operation leaves no trace in any metric.
        """
        self.attempted += count
        snap = self.recorder.snapshot() if self.recorder else None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_PROF, limit)
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except Deadline:
            self.failed += count
            self.failures.append(label)
            if snap is not None:
                self.recorder.rollback(snap)
            return None
        t1 = time.perf_counter()
        return Timed(t1 - t0, t0, t1), result


# ------------------------------------------------------------------- inputs


def split_case(rng: random.Random, index: int, scale: int):
    """((c1, c2, c3), answer) with |c3| near ``scale``; answer known by construction.

    Even indices are split: three chosen twists.  Odd indices have c3
    odd and c1 + c2 odd, so t^3 - c1 t^2 + c2 t - c3 is odd at every
    integer and has no integer root at all.
    """
    target = rng.randint(scale * 4 // 5, scale * 6 // 5)
    if index % 2 == 0:
        x = rng.choice((-1, 1)) * rng.randint(50, 2000)
        y = rng.choice((-1, 1)) * rng.randint(50, 2000)
        z = rng.choice((-1, 1)) * max(1, target // abs(x * y))
        return oracle.symmetric3(x, y, z), oracle.canonical((x, y, z))
    c3 = rng.choice((-1, 1)) * (target | 1)
    c1 = rng.randint(-5000, 5000)
    c2 = rng.randint(-10**6, 10**6)
    if (c1 + c2) % 2 == 0:
        c2 += 1
    return (c1, c2, c3), None


@dataclass(frozen=True)
class Mix:
    """How much of each operation one round of a library workload runs."""

    cold: int  # distinct vectors per rank
    warm_passes: int
    lattice: int
    closures: tuple
    coverage_bounds: tuple
    splits: int
    split_c3: int
    witnesses: int
    witness_c3: tuple
    faults: bool


MIXES = {
    "feasibility-sweep": Mix(
        cold=3000, warm_passes=24, lattice=30, closures=(ACCEPTANCE_BOX,),
        coverage_bounds=(12, 12), splits=300, split_c3=10**6, witnesses=30,
        witness_c3=(10**3, 5 * 10**3), faults=False,
    ),
    "search-scans": Mix(
        cold=250, warm_passes=160, lattice=16, closures=(ACCEPTANCE_BOX, DOUBLED_BOX),
        coverage_bounds=(16, 20), splits=20, split_c3=10**9, witnesses=50,
        witness_c3=(5 * 10**4, 10**5), faults=True,
    ),
}


@dataclass
class LibraryInputs:
    cold: list  # (rank, dim, chern) never seen before in the run
    lattice: list  # bases (c1, c2) whose scans no earlier phase touched
    coverage: list  # (a, b, box, param_bound)
    splits: list  # ((c1, c2, c3), answer)
    witnesses: list  # ((base_c1, base_c2), (c1, c2, c3))


@dataclass
class CliCall:
    argv: tuple
    check: object  # (call, doc, exit code) -> bool
    fault: bool = False


class Inputs:
    """Seeded inputs of one workload, fresh in every round of a run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._seen: set = set()

    def _rng(self, r: int) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{r}")

    def _fresh(self, make):
        while True:
            item = make()
            if item not in self._seen:
                self._seen.add(item)
                return item

    def _base(self, rng, c1_range, c2_range):
        """A feasible base (c1, c2) not drawn before in this run."""
        while True:
            base = self._fresh(lambda: (rng.randint(*c1_range), rng.randint(*c2_range)))
            if oracle.feasible(3, 5, base + (0,)):
                return base

    def _witness(self, rng, band):
        c1, c2 = self._base(rng, (-1000, 1000), (-10**5, 10**5))
        d = oracle.c3_spacing(c1, c2)
        c3 = rng.choice((-1, 1)) * d * rng.randint(band[0] // d, band[1] // d)
        return (c1, c2), (c1, c2, c3)

    def round(self, r: int) -> LibraryInputs:
        mix = MIXES[self.workload]
        rng = self._rng(r)
        big = (-10**6, 10**6)
        cold = [
            self._fresh(lambda: (2, 3, (rng.randint(*big), rng.randint(*big))))
            for _ in range(mix.cold)
        ] + [
            self._fresh(lambda: (3, 5, (rng.randint(-10**4, 10**4), rng.randint(*big), rng.randint(*big))))
            for _ in range(mix.cold)
        ]
        # c1 outside the cold vectors' range: these scans share no input with them
        lattice = [self._base(rng, (2 * 10**4, 10**5), big) for _ in range(mix.lattice)]
        coverage = [
            rng.choice(QUADRIC_BASES) + (QUADRIC_BOX, bound) for bound in mix.coverage_bounds
        ]
        splits = [split_case(rng, i, mix.split_c3) for i in range(mix.splits)]
        witnesses = [self._witness(rng, mix.witness_c3) for _ in range(mix.witnesses)]
        return LibraryInputs(cold, lattice, coverage, splits, witnesses)


# ------------------------------------------------------------------- checks


def check_closure(reached, unreached, box) -> bool:
    """Every realizable class in the report box is reached by a valid witness.

    ``reached`` holds (class, cost, witness); each witness is re-evaluated
    with the oracle's split, twist and Horrocks formulas and must land on
    its class at its stated cost.
    """
    expected = oracle.realizable_classes(box[0], box[1], box[2])
    if unreached or {cls for cls, _, _ in reached} != expected or len(reached) != len(expected):
        return False
    for cls, cost, witness in reached:
        try:
            value, ops = oracle.evaluate_witness(witness)
        except ValueError:
            return False
        if value != cls or ops != cost:
            return False
    return True


def check_coverage(a, b, box, bound, solutions, generators) -> bool:
    """matched + unmatched is the brute-force set; each generator regenerates its triple."""
    triples = [oracle.canonical(s) for s in solutions]
    if len(set(triples)) != len(triples) or set(triples) != oracle.quadric_solutions(a, b, box):
        return False
    for triple, (kind, params) in generators:
        if kind == "family1" and len(params) == 4 and max(map(abs, params)) <= bound:
            x, y, z, ga, gb = oracle.family1(*params)
        elif kind == "family2" and len(params) == 3:
            x, y, z, ga, gb = oracle.family2(*params)
        else:
            return False
        if oracle.canonical((x, y, z)) != oracle.canonical(triple) or {ga, gb} != {a, b}:
            return False
    return True


def check_witness(chern, p, verified) -> bool:
    c1, _, c3 = chern
    return p == oracle.next_prime(max(3 * abs(c1), 3 * abs(c3))) and verified is True


def _payload(doc, code):
    if code != 0 or not isinstance(doc, dict) or doc.get("status") != "ok":
        return None
    return doc["payload"]


def _cls(p) -> tuple:
    return (p["c1"], p["c2"], p["alpha"])


def _ints(argv, flag, n):
    i = argv.index(flag) + 1
    return tuple(int(x) for x in argv[i:i + n])


def _check_feasible(call, doc, code) -> bool:
    p = _payload(doc, code)
    rank, dim, *chern = (int(x) for x in call.argv[1:])
    if rank == 2:
        expected = oracle.rank2_realizable(*chern)
    else:
        expected = oracle.feasible(rank, dim, chern)
    return p is not None and p["feasible"] is expected


def _check_index(call, doc, code) -> bool:
    p = _payload(doc, code)
    c1, c2, c3 = _ints(call.argv, "--class", 3)
    kernel = "Z/3" if oracle.kernel_is_z3(c1, c2) else "trivial"
    return (
        p is not None
        and p["index"] == oracle.subgroup_index(c1, c2, c3)
        and p["c3_generator"] == oracle.c3_spacing(c1, c2)
        and p["kernel"] == kernel
    )


def _check_small_split(call, doc, code) -> bool:
    p = _payload(doc, code)
    if p is None:
        return False
    answer = oracle.split_roots_small(*_ints(call.argv, "--class", 3))
    got = oracle.canonical(p["twists"]) if p["twists"] else None
    return p["splittable"] is (answer is not None) and got == answer


def _check_witness(call, doc, code) -> bool:
    p = _payload(doc, code)
    return p is not None and check_witness(_ints(call.argv, "--w", 3), p["p"], p["verified"])


def _check_generate(call, doc, code) -> bool:
    p = _payload(doc, code)
    if p is None:
        return False
    box = tuple(_ints(call.argv, flag, 1)[0] for flag in ("--c1-min", "--c1-max", "--c2-bound"))
    reached = [(_cls(r["class"]), r["cost"], r["witness"]) for r in p["reached"]]
    return check_closure(reached, p["unreached"], box) and p["states_settled"] >= len(reached)


def _solution_triple(s) -> tuple:
    return (s["x"], s["y"], s["z"])


def _check_cover(call, doc, code) -> bool:
    p = _payload(doc, code)
    if p is None:
        return False
    solutions = [_solution_triple(m["solution"]) for m in p["matched"]]
    solutions += [_solution_triple(s) for s in p["unmatched"]]
    generators = [
        (_solution_triple(m["solution"]), (m["generator"]["kind"], tuple(m["generator"]["params"])))
        for m in p["matched"]
    ]
    return check_coverage(p["a"], p["b"], p["box"], p["param_bound"], solutions, generators)


def _check_solve(call, doc, code) -> bool:
    p = _payload(doc, code)
    if p is None:
        return False
    triples = [_solution_triple(s) for s in p["solutions"]]
    return len(set(triples)) == len(triples) and set(triples) == oracle.quadric_solutions(
        p["a"], p["b"], p["box"]
    ) and all((s["a"], s["b"]) == (p["a"], p["b"]) for s in p["solutions"])


def _check_domain_error(call, doc, code) -> bool:
    return code == 2 and isinstance(doc, dict) and doc.get("status") == "domain_error"


def _check_report(call, doc, code) -> bool:
    """Exactly small-index-example fails, reporting the index the oracle derives.

    Over the base (3, 0) the oracle's lattice is 4Z and the kernel Z/3,
    so the class (3, 0, -4) generates a subgroup of index 3.
    """
    if code != 3 or not isinstance(doc, dict) or doc.get("status") != "ok":
        return False
    criteria = doc["payload"]["criteria"]
    failing = [c for c in criteria if not c["passed"]]
    index = oracle.subgroup_index(3, 0, -4)
    return (
        sorted(c["key"] for c in criteria) == sorted(CRITERIA)
        and [c["key"] for c in failing] == ["small-index-example"]
        and f"expected 6, got {index}" in failing[0]["details"]
        and doc["payload"]["all_passed"] is False
    )


def _simple(check):
    def wrapped(call, doc, code) -> bool:
        p = _payload(doc, code)
        return p is not None and check(p)

    return wrapped


README_EXAMPLES = (
    ("feasible 2 3 1 2", _check_feasible),
    ("count-rank2 1 1",
     _simple(lambda p: p["count"] == oracle.count_rank2(1, 1))),
    ("alpha --split 2 -2",
     _simple(lambda p: _cls(p) == oracle.split2(2, -2))),
    ("add-rank2 --a1 0 --v 0 -1 0 --w 0 -4 1",
     _simple(lambda p: _cls(p["sum"]) == oracle.add2(0, (0, -1, 0), (0, -4, 1)))),
    ("horrocks --v -4 0 1 --w -4 0 1",
     _simple(lambda p: _cls(p["sum"]) == oracle.horrocks2((-4, 0, 1), (-4, 0, 1)))),
    ("agree --c1-min -40 --c2-bound 10",
     _simple(lambda p: p["cases"] == oracle.agree_cases(-40, 10)
             and p["all_agree"] is True and p["epsilon_rule_verified"] is True)),
    ("tensor --v 2 3 0 --k 1",
     _simple(lambda p: _cls(p["class"]) == oracle.twist2((2, 3, 0), 1))),
    ("generate --c1-min -6 --c1-max 0 --c2-bound 8 --search-c1-min -12 --search-c2-bound 16",
     _check_generate),
    ("rank3 index --base 3 0 --class 3 0 -4", _check_index),
    ("rank3 split --class 3 0 -8", _check_small_split),
    ("rank3 prime-witness --base 3 0 --w 3 0 -4", _check_witness),
    ("quadric solve 3 0 --box 6", _check_solve),
    # positional order u l v w
    ("quadric param1 1 0 1 1",
     _simple(lambda p: _solution_triple(p["solution"]) + (p["solution"]["a"], p["solution"]["b"])
             == oracle.family1(u=1, v=1, l=0, w=1))),
    ("quadric cover 3 0 --box 6 --param-bound 12", _check_cover),
)


# ------------------------------------------------------------- CLI rounds


EXAMPLE_CALLS = tuple(CliCall(tuple(line.split()), check) for line, check in README_EXAMPLES)
# Each child is one fresh interpreter, so the CLI always starts with cold
# caches.  The examples run in README order, so that every pass meets the
# same caches, and in two passes per round: the small ones take a few
# milliseconds, and one pass's median moves by 10% with the host.  The
# report gets a child of its own.
EXAMPLE_PASSES = 2
CLI_CHILDREN = (
    (EXAMPLE_CALLS + (CliCall(AGREE_FAULT, _check_domain_error, fault=True),), TIMEOUT_EXAMPLES),
) * EXAMPLE_PASSES + (
    ((CliCall(("report",), _check_report),), TIMEOUT_REPORT),
)


@dataclass
class CliRound:
    examples: list = field(default_factory=list)  # Timed inside main, per README example
    report: Timed | None = None  # the report child, start to exit
    startup: list = field(default_factory=list)  # the report child's Timed outside main
    acceptance: dict = field(default_factory=dict)  # criterion -> Timed


def cli_round(run: Run, cal: Calibrator) -> CliRound:
    """Run each CLI child, one at a time, and check every invocation's answer."""
    out = CliRound()
    for calls, timeout in CLI_CHILDREN:
        run.attempted += len(calls)
        child = clirun.invoke([call.argv for call in calls], timeout)
        cal.mark()
        if child is None:
            run.failed += len(calls)
            run.failures.extend(" ".join(call.argv) for call in calls)
            continue
        cal.add(child.marks)
        for call, inv in zip(calls, child.calls):
            label = " ".join(call.argv)
            ok = call.check(call, inv.doc, inv.code)
            if call.fault and not ok and inv.doc is not None:
                run.failed += 1  # the known fault: a wrong exit, counted as failed
                run.failures.append(label)
                continue
            run.check(ok, f"cli {label}")
            if not ok:
                continue
            if call in EXAMPLE_CALLS:
                out.examples.append(Timed(inv.main_s, inv.start, inv.end))
            for key, (elapsed, start, end) in inv.acceptance.items():
                out.acceptance[key] = Timed(elapsed, start, end)
            if call.argv == ("report",):
                out.report = Timed(child.wall_s, child.start, child.end)
                out.startup = [Timed(inv.start - child.start, child.start, inv.start),
                               Timed(child.end - inv.end, inv.end, child.end)]
    return out


# --------------------------------------------------------- library rounds


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


@dataclass
class LibraryRound:
    busy: list = field(default_factory=list)  # Timed of each finished operation
    phases: dict = field(default_factory=dict)  # metric -> (units of work, [Timed])

    def metrics(self, cal: Calibrator) -> dict:
        out = {}
        for name, (work, timed) in self.phases.items():
            seconds = sum(cal.seconds(t) for t in timed)
            out[name] = seconds if work is None else _rate(work, seconds)
        return out


def library_round(run: Run, pkg, inputs: LibraryInputs, mix: Mix, cal: Calibrator) -> LibraryRound:
    """One round of library calls; each answer is checked after it is timed."""
    cohomology, rank2, rank3, diophantine = pkg.cohomology, pkg.rank2, pkg.rank3, pkg.diophantine
    ChernVector = cohomology.ChernVector
    out = LibraryRound()

    def phase(name, ops, work=None):
        """Run (label, fn, limit, count, check) in order and time those that finish.

        ``work`` maps the finished results to units of work for a rate;
        without it the phase reports seconds.  The calibration loop runs
        before the phase, after it, and after every operation that took
        MARK_AFTER_S or more, so that each long operation is scaled by
        the loops right around it.
        """
        done = []
        cal.mark()
        for label, fn, limit, count, check in ops:
            res = run.attempt(label, fn, limit, count)
            if res is not None:
                done.append((res[0], check, res[1]))
                if res[0].seconds >= MARK_AFTER_S:
                    cal.mark()
        cal.mark()
        out.busy.extend(t for t, _, _ in done)
        if done and name is not None:
            results = [r for _, _, r in done]
            out.phases[name] = (None if work is None else work(results), [t for t, _, _ in done])
        for _, check, result in done:
            check(result)

    expected = [
        oracle.rank2_realizable(*c) if rank == 2 else oracle.feasible(rank, dim, c)
        for rank, dim, c in inputs.cold
    ]

    def classify(vectors):
        return [cohomology.is_feasible(ChernVector(*v)) for v in vectors]

    def classify_op(lo, hi, what):
        return (what, lambda: classify(inputs.cold[lo:hi]), LIMIT_PASS, hi - lo,
                lambda got: run.check(got == expected[lo:hi], f"is_feasible on {what} vectors"))

    n = len(inputs.cold)
    def vectors(results):
        return sum(map(len, results))

    phase("feasible_cold_per_s", [
        classify_op(lo, min(lo + COLD_CHUNK, n), "new") for lo in range(0, n, COLD_CHUNK)
    ], work=vectors)
    phase("feasible_warm_per_s", [classify_op(0, n, "repeated")] * mix.warm_passes, work=vectors)

    phase("lattice_per_s", [
        (f"lattice {c1} {c2}", lambda c1=c1, c2=c2: cohomology.feasible_c3_lattice(c1, c2, 24),
         LIMIT_SCAN, 1,
         lambda d, c1=c1, c2=c2: run.check(d == oracle.c3_spacing(c1, c2), f"lattice over ({c1}, {c2})"))
        for c1, c2 in inputs.lattice
    ], work=len)

    def check_report(box):
        def check(report):
            reached = [((r.cls.c1, r.cls.c2, r.cls.alpha), r.cost, r.witness) for r in report.reached]
            run.check(check_closure(reached, report.unreached, box), f"closure {box}")
        return check

    phase("closure_states_per_s", [
        (f"closure {box}", lambda box=box: rank2.generation_closure(*box), LIMIT_SCAN, 1, check_report(box))
        for box in mix.closures
    ], work=lambda reports: sum(r.searched for r in reports))

    def check_cover(a, b, box, bound):
        def check(report):
            solutions = [s.triple for s, _ in report.matched] + [s.triple for s in report.unmatched]
            generators = [(s.triple, (p.kind, p.params)) for s, p in report.matched]
            run.check(check_coverage(a, b, box, bound, solutions, generators), f"coverage ({a}, {b}) P={bound}")
        return check

    phase("coverage_s", [
        (f"coverage {a} {b} {bound}", lambda args=(a, b, box, bound): diophantine.coverage_check(*args),
         LIMIT_SCAN, 1, check_cover(a, b, box, bound))
        for a, b, box, bound in inputs.coverage
    ])

    def check_split(chern, answer):
        def check(got):
            run.check((oracle.canonical(got) if got else None) == answer, f"split {chern}")
        return check

    phase("split_per_s", [
        (f"split {chern}", lambda chern=chern: rank3.is_split_realizable(*chern), LIMIT_ANSWER, 1,
         check_split(chern, answer))
        for chern, answer in inputs.splits
    ], work=len)

    def witness_op(base, chern):
        # the group and class are built before the timer starts
        group = rank3.make_group(*base, 24)
        cls = rank3.Rank3BundleClass(*chern)
        return (f"witness {chern}", lambda: rank3.prime_witness(group, cls), LIMIT_ANSWER, 1,
                lambda res: run.check(check_witness(chern, *res), f"witness {chern}"))

    phase("witness_per_s", [witness_op(base, chern) for base, chern in inputs.witnesses], work=len)

    if mix.faults:
        # when mended: 10**18 + 3 is no cube, so the cubic has no integer root
        phase(None, [
            ("split fault", lambda: rank3.is_split_realizable(*SPLIT_FAULT), LIMIT_ANSWER, 1,
             lambda got: run.check(got is None, "split fault")),
            witness_op(*WITNESS_FAULT),
        ])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
