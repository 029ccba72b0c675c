"""The group laws build their results without re-validation; check them.

The laws in :mod:`bundle_arith.rank2` and :mod:`bundle_arith.rank3`
skip the constructors' checks because their results are valid by proof.
The quadric solution builders in :mod:`bundle_arith.diophantine` build
through the public constructor, which checks the fields and both
equations.  This oracle rebuilds every result through the public
constructor, which runs the full validation, and requires an equal value
with int fields.
"""

import random
from itertools import product

import pytest

from bundle_arith import diophantine, rank2, rank3
from bundle_arith.errors import DomainError

# The group-axioms criterion's a1 range, plus larger odd and positive c1
A1_VALUES = (*range(-10, 11), -23, -17, 13, 31, 40)


def _check_rank2(r):
    assert type(r.c1) is int and type(r.c2) is int
    if r.c1 % 2:
        assert r.alpha is None
    else:
        assert type(r.alpha) is int
    assert rank2.Rank2BundleClass(r.c1, r.c2, r.alpha) == r
    return r


def _check_rank3(r):
    assert type(r.c1) is int and type(r.c2) is int and type(r.c3) is int
    assert rank3.Rank3BundleClass(r.c1, r.c2, r.c3) == r
    return r


def _rand_rank2(rng, c1):
    c2 = rng.randint(-30, 30) * (2 if c1 % 2 else 1)
    if c1 % 2:
        return rank2.Rank2BundleClass(c1, c2)
    return rank2.Rank2BundleClass(c1, c2, rng.randint(0, 1))


def test_rank2_law_results_pass_the_constructor():
    rng = random.Random(1212)
    for a1 in A1_VALUES:
        for b in range(-5, 6):
            g = rank2.GroupDescriptorA1(a1, b)
            for _ in range(6):
                v, w = _rand_rank2(rng, a1), _rand_rank2(rng, a1)
                s = _check_rank2(rank2.add(g, v, w))
                _check_rank2(rank2.add(g, s, _check_rank2(rank2.negate(g, v))))
                for k in (rng.randint(-6, -1), rng.randint(1, 6)):
                    _check_rank2(rank2.tensor_line(s, k))
    # Horrocks sums at c1 = -2n for n = 0..7 (two of each n mod 4) and odd c1 <= 0
    for c1 in (*range(0, -15, -2), -1, -3, -5, -23):
        for _ in range(40):
            v, w = _rand_rank2(rng, c1), _rand_rank2(rng, c1)
            h = _check_rank2(rank2.horrocks_sum(v, w))
            _check_rank2(rank2.horrocks_sum(h, v))


def test_realizable_classes_pass_the_constructor():
    classes = list(rank2.realizable_classes(-7, 6, 5))
    assert len(classes) == 7 * 2 * 11 + 7 * 5  # two alphas at even c1, even c2 at odd c1
    for cls in classes:
        _check_rank2(cls)


@pytest.mark.parametrize(
    "base,kernel",
    [((3, 0), rank3.KERNEL_Z3), ((0, 3), rank3.KERNEL_Z3), ((1, 0), rank3.KERNEL_TRIVIAL),
     ((5, 4), rank3.KERNEL_TRIVIAL), ((-2, 1), rank3.KERNEL_TRIVIAL)],
    ids=str,
)
def test_rank3_law_results_pass_the_constructor(base, kernel):
    rng = random.Random(1213)
    g = rank3.make_group(*base, 24)
    assert g.kernel_kind == kernel
    for _ in range(60):
        v, w = (rank3.Rank3BundleClass(*base, g.c3_generator * rng.randint(-12, 12))
                for _ in range(2))
        s = _check_rank3(rank3.add(g, v, w))
        _check_rank3(rank3.iterate(g, s, rng.randint(1, 40)))


def _check_solution(s):
    fields = (s.x, s.y, s.z, s.a, s.b)
    assert all(type(f) is int for f in fields)
    assert diophantine.QuadricSolution(*fields, s.provenance) == s
    return s


@pytest.mark.parametrize(
    "base", [(3, 0), (0, 3), (5, 4), (-2, 1), (7, -7), (0, 0), (60, -36), (84, -28)], ids=str
)
def test_quadric_builder_results_pass_the_constructor(base):
    for box in (0, 3, 9, 200):
        for raw in (False, True):
            for s in diophantine.brute_force_solutions(*base, box, raw):
                _check_solution(s)
    for t, l in product(range(-4, 5), repeat=2):
        for s in diophantine.param_family2(t + base[0], l + base[1]):
            _check_solution(s)


def test_family1_results_pass_the_constructor():
    for u, v, l, w in product(range(-3, 4), repeat=4):
        _check_solution(diophantine.param_family1(u, v, l, w))


def test_quadric_constructor_checks_both_equations():
    with pytest.raises(DomainError, match="a \\+ b"):
        diophantine.QuadricSolution(1, 0, 0, 0, 0, diophantine.Provenance("brute_force"))
    with pytest.raises(DomainError, match="differs from ab"):
        diophantine.QuadricSolution(1, 1, 0, 2, 0, diophantine.Provenance("brute_force"))
