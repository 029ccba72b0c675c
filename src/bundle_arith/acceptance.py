"""Executable shipping checks, one per release criterion.

Each check re-derives its expected values from an independent oracle
(binomials, exponential sums, exhaustive scans) or from frozen facts,
compares them with the library's closed forms; :func:`run` times each
against its budget.  The checks are exposed both to the test suite and
to the ``bundle-arith report`` subcommand; they are side-effect free and
deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from functools import partial

from . import cohomology, diophantine, rank2, rank3
from .cohomology import ChernVector

__all__ = ["CriterionResult", "CRITERIA", "run"]


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


def check_realizability_law() -> tuple[bool, str]:
    """Engine feasibility on CP^3 rank 2 equals the parity rule c1*c2 = 0 (mod 2)."""
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
    return ok, details


def check_horrocks_agreement() -> tuple[bool, str]:
    """Horrocks sum equals the plain group sum wherever both are defined.

    Compares every pair of classes literally and requires the same
    answer from :func:`rank2.agreement_sweep`'s mod-4 argument.
    """
    rows = [list(rank2.realizable_classes(c1, c1, 10)) for c1 in range(0, -41, -2)]
    checks = [rank2.agreement_check(v, w) for row in rows for v in row for w in row]
    ns = range(21)
    rule = all(rank2.epsilon(-2 * n) == (1 if n % 4 == 2 else 0) for n in ns)
    cases = len(checks)
    ok = all(checks) and rule and (cases, True, True) == rank2.agreement_sweep(-40, 10)
    details = f"{cases} pairs across c1 = 0, -2, ..., -40; epsilon rule for n = 0..{ns[-1]}"
    return ok, details


def check_alpha_case_table() -> tuple[bool, str]:
    """alpha of O(-b) + O(b) is 1 iff b = 2 (mod 4), by two independent routes."""
    bad, bound = [], 100
    for b in range(-bound, bound + 1):
        closed = rank2.alpha_extendable(0, -b * b)
        divisibility = rank2.alpha_balanced_split(b)
        case_rule = 1 if b % 4 == 2 else 0
        if not (closed == divisibility == case_rule):
            bad.append(b)
    details = f"both alpha routes agree with the mod-4 case rule for |b| <= {bound}"
    if bad:
        details = f"disagreement at b in {bad[:10]}"
    return not bad, details


def check_small_index_example() -> tuple[bool, str]:
    """End-to-end small-index example over the base O(3) + O(0).

    Checks, exactly as stated: the parametrized solution (1,1,0,1) gives
    the split triple (2,-1,2) over base (3,0); the feasible c3 values
    with |c3| <= 20 are exactly the even ones; the subgroup generated by
    the resulting class has index 6.
    """
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
    return ok, "; ".join(parts)


def check_nonsplit_witnesses() -> tuple[bool, str]:
    """Multiples of split classes leave the split locus at predictable points."""
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
    parts.append(f"{samples} parametrized samples with xyz != 0 verified")
    return ok, "; ".join(parts)


def _rank2_pool(a1):
    """Every class :func:`_rand_rank2` can draw over a1, built once by the checked constructor.

    Row i has c2 = i - 30 (doubled at odd a1); at even a1 it is the
    pair of classes with alpha 0 and 1.
    """
    if a1 % 2:
        return [rank2.Rank2BundleClass(a1, 2 * c2) for c2 in range(-30, 31)]
    return [
        (rank2.Rank2BundleClass(a1, c2, 0), rank2.Rank2BundleClass(a1, c2, 1))
        for c2 in range(-30, 31)
    ]


def _rand_rank2(rng, pool):
    """A random class from a pool: one draw for the row, one for even a1's alpha.

    ``rng.choice(seq)`` makes the same ``_randbelow(len(seq))`` call as
    ``randint`` over a range of that length, so the draws and the RNG
    state are those of ``randint(-30, 30)`` and then ``randint(0, 1)``.
    """
    row = rng.choice(pool)
    return rng.choice(row) if type(row) is tuple else row


def _rank3_pool(g):
    """Every class the rank-3 draw can return over g's base: c3 = k d for k in [-12, 12].

    ``rng.choice`` on it draws as ``randint(-12, 12)`` does (see :func:`_rand_rank2`).
    """
    return [
        rank3.Rank3BundleClass(g.base_c1, g.base_c2, g.c3_generator * k)
        for k in range(-12, 13)
    ]


def _axioms(draw, add, e, inverse, triples) -> bool:
    """Associativity, commutativity, identity e and inverses on random triples.

    Each triple is three calls of ``draw``; ``inverse`` is an independent
    route to the inverse under ``add``.
    """
    for _ in range(triples):
        x, y, z = draw(), draw(), draw()
        xy = add(x, y)
        if (
            add(xy, z) != add(x, add(y, z))
            or xy != add(y, x)
            or add(x, e) != x
            or add(x, inverse(x)) != e
        ):
            return False
    return True


def check_group_axioms() -> tuple[bool, str]:
    """Random property suites for the three group structures plus mixed associativity."""
    rng = random.Random(1729)
    a1s = range(-10, 11)
    pools = {a1: _rank2_pool(a1) for a1 in a1s}
    # triples per a1, per (a1, b) and per rank-3 base; the details count from these
    plain_n, shifted_n, rank3_n = 1000, 10, 110
    ok = True

    for a1 in a1s:
        plain = rank2.GroupDescriptorA1(a1)
        draw = partial(_rand_rank2, rng, pools[a1])
        inverse = partial(rank2.negate, plain)
        ok &= _axioms(draw, partial(rank2.add, plain), plain.identity, inverse, plain_n)
    parts = [f"plain law: {len(a1s) * plain_n} random triples over a1 in [-10, 10]"]

    bs = range(-5, 6)
    for a1 in a1s:
        plain = rank2.GroupDescriptorA1(a1)
        draw = partial(_rand_rank2, rng, pools[a1])
        for b in bs:
            g = rank2.GroupDescriptorA1(a1, b)
            e = g.identity
            if b:
                # the inverse of x is e + e - x in the plain arithmetic
                ee = rank2.add(plain, e, e)

                def inverse(x):
                    return rank2.add(plain, ee, rank2.negate(plain, x))
            else:
                inverse = partial(rank2.negate, plain)
            ok &= _axioms(draw, partial(rank2.add, g), e, inverse, shifted_n)
    parts.append(f"shifted law: {len(a1s) * len(bs) * shifted_n} random triples, b in [-5, 5]")

    mixed = 120
    for _ in range(mixed):
        a1 = rng.randint(-10, 10)
        b = rng.randint(-5, 5)
        plain = rank2.GroupDescriptorA1(a1)
        shifted = rank2.GroupDescriptorA1(a1, b)
        v, w, z = (_rand_rank2(rng, pools[a1]) for _ in range(3))
        lhs = rank2.add(shifted, rank2.add(plain, v, w), z)
        rhs = rank2.add(plain, v, rank2.add(shifted, w, z))
        ok &= lhs == rhs
    parts.append(f"mixed associativity: {mixed} triples")

    bases = [(3, 0), (0, 0), (1, 0), (5, 4), (2, 0)]
    while len(bases) < 10:
        pair = (rng.randint(-5, 5), rng.randint(-5, 5))
        base = (pair[0] + pair[1], pair[0] * pair[1])
        if base not in bases:
            bases.append(base)
    for base in bases:
        g = rank3.GroupDescriptorV0(*base)
        draw = partial(rng.choice, _rank3_pool(g))

        def inverse(x):
            return rank3.Rank3BundleClass(*base, -x.c3)

        ok &= _axioms(draw, partial(rank3.add, g), g.identity, inverse, rank3_n)
    parts.append(f"rank-3 law: {len(bases) * rank3_n} random triples over {len(bases)} bases")
    return ok, "; ".join(parts)


def check_generation_closure() -> tuple[bool, str]:
    """Split classes generate every realizable class in the report box."""
    report = rank2.generation_closure(-6, 0, 8, -12, 0, 16)
    ok = report.all_reached
    details = (
        f"{len(report.reached)} classes reached in c1 in [-6, 0], |c2| <= 8 "
        f"(search box doubled, {report.searched} states settled)"
    )
    if not ok:
        details += f"; UNREACHED: {[_fmt_r2(c) for c in report.unreached[:8]]}"
    return ok, details


def _fmt_r2(cls) -> str:
    return f"({cls.c1},{cls.c2},{cls.alpha if cls.alpha is not None else '-'})"


def check_quadric_coverage() -> tuple[bool, str]:
    """Brute-force quadric solutions are explained by the two parametrized families."""
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
    return ok, "; ".join(parts)


def check_oracle_consistency() -> tuple[bool, str]:
    """Chern characters match exponential sums; Euler characteristics match binomials."""
    ok = True
    ch_cases = 0
    for dim in range(1, 6):
        for r in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(range(-10, 11), r):
                v = cohomology.split_chern_vector(dim, combo)
                got = cohomology.chern_character(v)
                # ch_k of O(t_1) + ... + O(t_r) read off sum exp(t_i): no Newton's identities.
                # ch_k = (sum t^k) / k! is compared by cross-multiplying, in integers
                if len(got) != dim + 1 or any(
                    g.numerator * math.factorial(k) != sum(t**k for t in combo) * g.denominator
                    for k, g in enumerate(got)
                ):
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
    return ok, details


# key -> (check, time budget in seconds or None)
CRITERIA = {
    "realizability-law": (check_realizability_law, 10.0),
    "horrocks-agreement": (check_horrocks_agreement, 1.0),
    "alpha-case-table": (check_alpha_case_table, None),
    "small-index-example": (check_small_index_example, 30.0),
    "nonsplit-witnesses": (check_nonsplit_witnesses, None),
    "group-axioms": (check_group_axioms, None),
    "generation-closure": (check_generation_closure, 60.0),
    "quadric-coverage": (check_quadric_coverage, 60.0),
    "oracle-consistency": (check_oracle_consistency, None),
}


def run(key: str) -> CriterionResult:
    """Run one criterion, timed; overrunning its budget fails it."""
    check, budget = CRITERIA[key]
    t0 = time.perf_counter()
    ok, details = check()
    elapsed = time.perf_counter() - t0
    passed = bool(ok)
    if budget is not None and elapsed >= budget:
        passed = False
        details += f"; exceeded the {budget:g} s budget ({elapsed:.2f} s)"
    return CriterionResult(key, passed, elapsed, budget, details)
