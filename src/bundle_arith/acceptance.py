"""Executable shipping checks, one per release criterion.

Each check re-derives its expected values from an independent oracle
(binomials, exponential sums, exhaustive scans) or from frozen facts,
compares them with the library's closed forms, and times itself against
its budget.  The checks are exposed both to the test suite and to the
``bundle-arith report`` subcommand; they are side-effect free and
deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology, diophantine, rank2, rank3
from .cohomology import ChernVector

__all__ = ["CriterionResult", "CRITERIA", "run", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    key: str
    passed: bool
    elapsed: float
    budget: float | None
    details: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _result(key, t0, budget, ok, details) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    passed = bool(ok)
    if budget is not None and elapsed >= budget:
        passed = False
        details += f"; exceeded the {budget:g} s budget ({elapsed:.2f} s)"
    return CriterionResult(key, passed, elapsed, budget, details)


def check_realizability_law() -> CriterionResult:
    """Engine feasibility on CP^3 rank 2 equals the parity rule c1*c2 = 0 (mod 2)."""
    t0 = time.perf_counter()
    mismatches = []
    cases = 0
    for c1 in range(-50, 51):
        for c2 in range(-50, 51):
            cases += 1
            expected = (c1 * c2) % 2 == 0
            actual = cohomology.is_feasible(ChernVector(2, 3, (c1, c2)))
            if actual != expected:
                mismatches.append((c1, c2))
    ok = not mismatches
    details = f"{cases} Chern pairs with |c1|,|c2| <= 50"
    if mismatches:
        details += f"; first mismatches: {mismatches[:5]}"
    return _result("realizability-law", t0, 10.0, ok, details)


def check_horrocks_agreement() -> CriterionResult:
    """Horrocks sum equals the plain group sum wherever both are defined.

    Compares every pair of classes literally and requires the same
    answer from :func:`rank2.agreement_sweep`'s mod-4 argument.
    """
    t0 = time.perf_counter()
    rows = [list(rank2.realizable_classes(c1, c1, 10)) for c1 in range(0, -41, -2)]
    checks = [rank2.agreement_check(v, w) for row in rows for v in row for w in row]
    rule = all(rank2.epsilon(-2 * n) == (1 if n % 4 == 2 else 0) for n in range(21))
    cases = len(checks)
    ok = all(checks) and rule and (cases, True, True) == rank2.agreement_sweep(-40, 10)
    details = f"{cases} pairs across c1 = 0, -2, ..., -40; epsilon rule for n = 0..20"
    return _result("horrocks-agreement", t0, 1.0, ok, details)


def check_alpha_case_table() -> CriterionResult:
    """alpha of O(-b) + O(b) is 1 iff b = 2 (mod 4), by two independent routes."""
    t0 = time.perf_counter()
    bad = []
    for b in range(-100, 101):
        closed = rank2.alpha_extendable(0, -b * b)
        divisibility = rank2.alpha_balanced_split(b)
        case_rule = 1 if b % 4 == 2 else 0
        if not (closed == divisibility == case_rule):
            bad.append(b)
    details = "both alpha routes agree with the mod-4 case rule for |b| <= 100"
    if bad:
        details = f"disagreement at b in {bad[:10]}"
    return _result("alpha-case-table", t0, None, not bad, details)


def check_small_index_example() -> CriterionResult:
    """End-to-end small-index example over the base O(3) + O(0).

    Checks, exactly as stated: the parametrized solution (1,1,0,1) gives
    the split triple (2,-1,2) over base (3,0); the feasible c3 values
    with |c3| <= 20 are exactly the even ones; the subgroup generated by
    the resulting class has index 6.
    """
    t0 = time.perf_counter()
    parts = []

    sol = diophantine.param_family1(1, 1, 0, 1)
    ok_param = sol.triple == (2, -1, 2) and sol.base == (3, 0)
    w_class = rank3.split_rank3(2, -1, 2)
    ok_param = ok_param and (w_class.c1, w_class.c2, w_class.c3) == (3, 0, -4)
    parts.append(f"param (1,1,0,1) -> {sol.triple} over {sol.base}: "
                 f"{'ok' if ok_param else 'MISMATCH'}")

    feasible = [
        k for k in range(-20, 21)
        if cohomology.is_feasible(ChernVector(3, 5, (3, 0, k)))
    ]
    evens = [k for k in range(-20, 21) if k % 2 == 0]
    ok_lattice = feasible == evens
    if ok_lattice:
        parts.append("feasible c3 over (3,0) in |c3| <= 20: exactly the even ones")
    else:
        parts.append(
            f"feasible c3 over (3,0) in |c3| <= 20 is {feasible}, not all evens"
        )

    group = rank3.make_group(3, 0, 20)
    index = rank3.subgroup_index(group, w_class)
    ok_index = index == 6
    parts.append(f"subgroup index of {w_class.c3}: expected 6, got {index}")

    ok = ok_param and ok_lattice and ok_index
    return _result("small-index-example", t0, 30.0, ok, "; ".join(parts))


def check_nonsplit_witnesses() -> CriterionResult:
    """Multiples of split classes leave the split locus at predictable points."""
    t0 = time.perf_counter()
    parts = []

    group = rank3.make_group(3, 0, 24)
    w = rank3.split_rank3(2, -1, 2)
    smallest = rank3.smallest_nonsplit_multiple(group, w, 10)
    ok = smallest == 2
    parts.append(f"smallest non-split multiple of (3,0,-4): {smallest} (expected 2)")

    p, verified = rank3.prime_witness(group, w)
    ok = ok and p == 13 and verified
    parts.append(f"prime witness: p = {p} (expected 13), verified = {verified}")

    rng = random.Random(20260810)
    samples = 0
    while samples < 20:
        u, v, l, ww = (rng.randint(-2, 2) for _ in range(4))
        sol = diophantine.param_family1(u, v, l, ww)
        if sol.x * sol.y * sol.z == 0:
            continue
        samples += 1
        g = rank3.make_group(sol.a + sol.b, sol.a * sol.b, 24)
        cls = rank3.split_rank3(*sol.triple)
        _, v_ok = rank3.prime_witness(g, cls)
        if not v_ok:
            ok = False
            parts.append(f"prime witness FAILED for {sol.triple} over {sol.base}")
    parts.append("20 parametrized samples with xyz != 0 verified")
    return _result("nonsplit-witnesses", t0, None, ok, "; ".join(parts))


def _rank2_axioms(rng, descriptor, triples):
    """Associativity, commutativity, identity, inverses for one descriptor."""
    a1 = descriptor.a1
    plain = rank2.GroupDescriptorA1(a1)
    shifted = descriptor.b is not None

    def sum_(x, y):
        return rank2.add_shifted(descriptor, x, y) if shifted else rank2.add(descriptor, x, y)

    def rand_class():
        c2 = rng.randint(-30, 30)
        if a1 % 2:
            c2 *= 2
            return rank2.Rank2BundleClass(a1, c2)
        return rank2.Rank2BundleClass(a1, c2, rng.randint(0, 1))

    e = descriptor.identity
    for _ in range(triples):
        x, y, z = rand_class(), rand_class(), rand_class()
        if sum_(sum_(x, y), z) != sum_(x, sum_(y, z)):
            return False
        if sum_(x, y) != sum_(y, x):
            return False
        if sum_(x, e) != x:
            return False
        if shifted:
            # inverse of x is e + e - x in the plain arithmetic
            inv = rank2.add(plain, rank2.add(plain, e, e), rank2.negate(plain, x))
        else:
            inv = rank2.negate(plain, x)
        if sum_(x, inv) != e:
            return False
    return True


def check_group_axioms() -> CriterionResult:
    """Random property suites for the three group structures plus mixed associativity."""
    t0 = time.perf_counter()
    rng = random.Random(1729)
    parts = []

    plain_cases = 0
    ok = True
    for a1 in range(-10, 11):
        if not _rank2_axioms(rng, rank2.GroupDescriptorA1(a1), 1000):
            ok = False
        plain_cases += 1000
    parts.append(f"plain law: {plain_cases} random triples over a1 in [-10, 10]")

    shifted_cases = 0
    for a1 in range(-10, 11):
        for b in range(-5, 6):
            if not _rank2_axioms(rng, rank2.GroupDescriptorA1(a1, b), 10):
                ok = False
            shifted_cases += 10
    parts.append(f"shifted law: {shifted_cases} random triples, b in [-5, 5]")

    mixed = 0
    for _ in range(120):
        a1 = rng.randint(-10, 10)
        b = rng.randint(-5, 5)
        plain = rank2.GroupDescriptorA1(a1)
        shifted = rank2.GroupDescriptorA1(a1, b)

        def rand_class():
            c2 = rng.randint(-30, 30)
            if a1 % 2:
                return rank2.Rank2BundleClass(a1, 2 * c2)
            return rank2.Rank2BundleClass(a1, c2, rng.randint(0, 1))

        v, w, z = rand_class(), rand_class(), rand_class()
        lhs = rank2.add_shifted(shifted, rank2.add(plain, v, w), z)
        rhs = rank2.add(plain, v, rank2.add_shifted(shifted, w, z))
        if lhs != rhs:
            ok = False
        mixed += 1
    parts.append(f"mixed associativity: {mixed} triples")

    rank3_cases = 0
    bases = [(3, 0), (0, 0), (1, 0), (5, 4), (2, 0)]
    while len(bases) < 10:
        pair = (rng.randint(-5, 5), rng.randint(-5, 5))
        base = (pair[0] + pair[1], pair[0] * pair[1])
        if base not in bases:
            bases.append(base)
    for base_c1, base_c2 in bases:
        g = rank3.make_group(base_c1, base_c2, 24)
        e = g.identity

        def rand3():
            return rank3.Rank3BundleClass(
                base_c1, base_c2, g.c3_generator * rng.randint(-12, 12)
            )

        for _ in range(110):
            x, y, z = rand3(), rand3(), rand3()
            if rank3.add(g, rank3.add(g, x, y), z) != rank3.add(g, x, rank3.add(g, y, z)):
                ok = False
            if rank3.add(g, x, y) != rank3.add(g, y, x):
                ok = False
            if rank3.add(g, x, e) != x:
                ok = False
            inv = rank3.Rank3BundleClass(base_c1, base_c2, -x.c3)
            if rank3.add(g, x, inv) != e:
                ok = False
            rank3_cases += 1
    parts.append(f"rank-3 law: {rank3_cases} random triples over {len(bases)} bases")
    return _result("group-axioms", t0, None, ok, "; ".join(parts))


def check_generation_closure() -> CriterionResult:
    """Split classes generate every realizable class in the report box."""
    t0 = time.perf_counter()
    report = rank2.generation_closure(-6, 0, 8, -12, 0, 16)
    ok = report.all_reached
    details = (
        f"{len(report.reached)} classes reached in c1 in [-6, 0], |c2| <= 8 "
        f"(search box doubled, {report.searched} states settled)"
    )
    if not ok:
        details += f"; UNREACHED: {[_fmt_r2(c) for c in report.unreached[:8]]}"
    return _result("generation-closure", t0, 60.0, ok, details)


def _fmt_r2(cls) -> str:
    return f"({cls.c1},{cls.c2},{cls.alpha if cls.alpha is not None else '-'})"


def check_quadric_coverage() -> CriterionResult:
    """Brute-force quadric solutions are explained by the two parametrized families."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    must_match = {(2, 2, -1), (3, 0, 0)}  # the small-index example's solutions
    for a, b in ((3, 0), (0, 0), (4, 1)):
        report = diophantine.coverage_check(a, b, 6, 12)
        rate = report.match_rate
        parts.append(
            f"({a},{b}): {len(report.matched)}/{report.total} matched "
            f"(rate {rate.numerator}/{rate.denominator})"
        )
        if (a, b) == (3, 0):
            unmatched_triples = {s.triple for s in report.unmatched}
            if must_match & unmatched_triples:
                ok = False
                parts.append(f"REQUIRED solutions unmatched: {must_match & unmatched_triples}")
        if not report.all_matched:
            parts.append(
                f"({a},{b}) findings: {[s.triple for s in report.unmatched]}"
            )
    return _result("quadric-coverage", t0, 60.0, ok, "; ".join(parts))


def check_oracle_consistency() -> CriterionResult:
    """Chern characters match exponential sums; Euler characteristics match binomials."""
    t0 = time.perf_counter()
    ok = True
    ch_cases = 0
    for dim in range(1, 6):
        for r in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(range(-10, 11), r):
                v = cohomology.split_chern_vector(dim, combo)
                got = cohomology.chern_character(v)
                expected = tuple(
                    sum(Fraction(t**k, math.factorial(k)) for t in combo)
                    for k in range(dim + 1)
                )
                if got != expected:
                    ok = False
                ch_cases += 1
    chi_cases = 0
    for dim in range(1, 6):
        for d in range(0, 6):
            v = ChernVector(1, dim, (d,))
            if cohomology.euler_characteristic(v, 0) != math.comb(dim + d, dim):
                ok = False
            chi_cases += 1
    rng = random.Random(422)
    for _ in range(300):
        dim = rng.randint(1, 5)
        r = rng.randint(1, 3)
        twists = tuple(rng.randint(-6, 6) for _ in range(r))
        shift = -min(twists)
        t = shift + rng.randint(0, 4)  # keeps every twist non-negative
        v = cohomology.split_chern_vector(dim, twists)
        expected = sum(math.comb(dim + a + t, dim) for a in twists)
        if cohomology.euler_characteristic(v, t) != expected:
            ok = False
        chi_cases += 1
    details = f"{ch_cases} split Chern characters, {chi_cases} Euler characteristics"
    return _result("oracle-consistency", t0, None, ok, details)


CRITERIA = {
    "realizability-law": check_realizability_law,
    "horrocks-agreement": check_horrocks_agreement,
    "alpha-case-table": check_alpha_case_table,
    "small-index-example": check_small_index_example,
    "nonsplit-witnesses": check_nonsplit_witnesses,
    "group-axioms": check_group_axioms,
    "generation-closure": check_generation_closure,
    "quadric-coverage": check_quadric_coverage,
    "oracle-consistency": check_oracle_consistency,
}


def run(key: str) -> CriterionResult:
    return CRITERIA[key]()


def run_all(keys=None) -> list[CriterionResult]:
    selected = list(CRITERIA) if keys is None else list(keys)
    return [run(key) for key in selected]
