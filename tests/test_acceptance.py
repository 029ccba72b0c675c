"""The release gate: every shipping criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line with the check's
details.  The expected values are re-derived inside
:mod:`bundle_arith.acceptance` from independent oracles (binomials,
exponential sums, exhaustive scans) or frozen desk-checked facts.

The ``small-index-example`` criterion is expected to fail: its asserted
lattice ("feasible c3 over (3,0) are exactly the even ones") contradicts
exact integrality, which every actual bundle satisfies.  Binomial
arithmetic alone certifies this: chi of the split classes (3,0,0) and
(3,0,-4) at twist 1 are 138 and 113, pinning the affine dependence of
chi on c3 to 25/4 per unit, so c3 = 2 would give the non-integer 301/2.
The computed lattice is 4Z and the resulting subgroup index 3.  The
check is kept exactly as stated and reports the mismatch.
"""

import math
import random
from fractions import Fraction

import pytest

from bundle_arith import acceptance, cohomology, rank2, rank3

# Each passing criterion's details name its sweep sizes, so a check that
# quietly narrows its sweep changes its line.
PINNED_DETAILS = {
    "realizability-law": "10201 Chern pairs with |c1|,|c2| <= 50",
    "horrocks-agreement": "37044 pairs across c1 = 0, -2, ..., -40; epsilon rule for n = 0..20",
    "alpha-case-table": "both alpha routes agree with the mod-4 case rule for |b| <= 100",
    "nonsplit-witnesses": (
        "smallest non-split multiple of (3,0,-4): 2 (expected 2); "
        "prime witness: p = 13 (expected 13), verified = True; "
        "20 parametrized samples with xyz != 0 verified"
    ),
    "group-axioms": (
        "plain law: 21000 random triples over a1 in [-10, 10]; "
        "shifted law: 2310 random triples, b in [-5, 5]; "
        "mixed associativity: 120 triples; "
        "rank-3 law: 1100 random triples over 10 bases"
    ),
    "generation-closure": (
        "163 classes reached in c1 in [-6, 0], |c2| <= 8 "
        "(search box doubled, 564 states settled)"
    ),
    "quadric-coverage": (
        "(3,0): 2/2 matched (rate 1/1); (0,0): 1/1 matched (rate 1/1); "
        "(4,1): 1/1 matched (rate 1/1)"
    ),
    "oracle-consistency": "10115 split Chern characters, 330 Euler characteristics",
}


@pytest.mark.parametrize("key", list(acceptance.CRITERIA), ids=str)
def test_criterion(key):
    result = acceptance.run(key)
    line = f"[{result.status}] {result.key}: {result.details}"
    print(line)
    assert result.passed, line
    assert result.details == PINNED_DETAILS[key]


def _randint_rank2(rng, a1):
    """The draw path before pooling: randint for c2 and alpha, then the checked constructor."""
    c2 = rng.randint(-30, 30)
    if a1 % 2:
        return rank2.Rank2BundleClass(a1, 2 * c2)
    return rank2.Rank2BundleClass(a1, c2, rng.randint(0, 1))


def test_pooled_rank2_draws_match_randint_draws():
    for a1 in range(-10, 11):
        pooled, direct = random.Random(1729), random.Random(1729)
        pool = acceptance._rank2_pool(a1)
        got = [acceptance._rand_rank2(pooled, pool) for _ in range(5000)]
        assert got == [_randint_rank2(direct, a1) for _ in range(5000)]
        assert pooled.getstate() == direct.getstate()


def test_pooled_rank3_draws_match_randint_draws():
    for base in [(3, 0), (0, 0), (1, 0), (5, 4), (2, 0)]:
        g = rank3.GroupDescriptorV0(*base)
        pooled, direct = random.Random(1729), random.Random(1729)
        pool = acceptance._rank3_pool(g)
        got = [pooled.choice(pool) for _ in range(5000)]
        d = g.c3_generator
        want = [rank3.Rank3BundleClass(*base, d * direct.randint(-12, 12)) for _ in range(5000)]
        assert got == want
        assert pooled.getstate() == direct.getstate()


def test_overrunning_the_budget_fails(monkeypatch):
    monkeypatch.setitem(acceptance.CRITERIA, "alpha-case-table", (lambda: (True, "x"), 0.0))
    result = acceptance.run("alpha-case-table")
    assert not result.passed
    assert isinstance(result.elapsed, float) and result.elapsed >= 0
    assert result.budget == 0.0
    assert result.details.startswith("x; exceeded the 0 s budget (")


@pytest.mark.parametrize(
    "target,k",
    [((1, 1, (-10,)), 0), ((3, 5, (30, 300, 1000)), 5)],
    ids=["first-input-ch0", "last-input-ch5"],
)
def test_oracle_catches_one_wrong_chern_character(monkeypatch, target, k):
    # A library wrong in one coefficient of one input of the sweep
    real = cohomology.chern_character

    def wrong(v):
        ch = real(v)
        if (v.rank, v.dim, v.c) != target:
            return ch
        return (*ch[:k], ch[k] + Fraction(1, math.factorial(v.dim + 1)), *ch[k + 1:])

    monkeypatch.setattr(cohomology, "chern_character", wrong)
    ok, _ = acceptance.check_oracle_consistency()
    assert not ok


def _add_without_e(g, v, w):
    alpha = None if v.alpha is None else (v.alpha + w.alpha) % 2
    return rank2._class(g.a1, v.c2 + w.c2, alpha)


def _negate_off_by_two(g, v):
    return rank2._class(g.a1, 2 * g.identity.c2 - v.c2 + 2, v.alpha)


def _rank3_add_plus_d(g, v, w):
    return rank3._class(g.base_c1, g.base_c2, v.c3 + w.c3 + g.c3_generator)


@pytest.mark.parametrize(
    "module,name,wrong",
    [
        (rank2, "add", _add_without_e),
        (rank2, "negate", _negate_off_by_two),
        (rank3, "add", _rank3_add_plus_d),
    ],
    ids=["rank2-add-without-e", "rank2-negate-off-by-2", "rank3-add-plus-d"],
)
def test_group_axioms_catch_a_wrong_law(monkeypatch, module, name, wrong):
    monkeypatch.setattr(module, name, wrong)
    ok, _ = acceptance.check_group_axioms()
    assert not ok
