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
from fractions import Fraction

import pytest

from bundle_arith import acceptance, cohomology, rank2, rank3


@pytest.mark.parametrize("key", list(acceptance.CRITERIA), ids=str)
def test_criterion(key):
    result = acceptance.run(key)
    line = f"[{result.status}] {result.key}: {result.details}"
    print(line)
    assert result.passed, line


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
