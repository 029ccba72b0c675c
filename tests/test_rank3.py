"""Tests for rank-3 classes on CP^5 and the groups over a rank-2 base."""

import itertools
import math
import random
import time

import pytest

from bundle_arith.errors import DomainError
from bundle_arith.rank3 import (
    _PRIMALITY_BOUND,
    _is_prime,
    KERNEL_TRIVIAL,
    KERNEL_Z3,
    RHO_UNTRACKED,
    GroupDescriptorV0,
    Rank3BundleClass,
    add,
    is_split_realizable,
    iterate,
    make_group,
    prime_witness,
    smallest_nonsplit_multiple,
    split_rank3,
    subgroup_index,
)


class TestSplitRank3:
    def test_examples(self):
        assert split_rank3(2, -1, 2) == Rank3BundleClass(3, 0, -4)
        assert split_rank3(0, 0, 0) == Rank3BundleClass(0, 0, 0)
        assert split_rank3(1, 1, 1) == Rank3BundleClass(3, 3, 1)

    def test_rho_is_only_a_marker(self):
        assert split_rank3(2, -1, 2).rho == RHO_UNTRACKED

    def test_infeasible_chern_data_rejected(self):
        with pytest.raises(DomainError):
            Rank3BundleClass(1, 0, 1)  # off the (1,0) lattice
        with pytest.raises(DomainError):
            Rank3BundleClass(3, 3, 0)  # no rank-2 base with data (3,3) exists

    def test_bool_classes_rejected(self):
        # True == 1, but a Chern class is an int, not a bool
        with pytest.raises(DomainError):
            Rank3BundleClass(True, False, 0)
        with pytest.raises(DomainError):
            GroupDescriptorV0(True, 0)


class TestSplitRealizability:
    def test_examples(self):
        assert is_split_realizable(3, 0, -4) == (2, 2, -1)
        assert is_split_realizable(3, 0, -8) is None
        assert is_split_realizable(0, 0, 0) == (0, 0, 0)

    def test_recovers_twists(self):
        # every multiset with entries in [-30, 30]; recovery is symmetric
        for x in range(-30, 31):
            for y in range(x, 31):
                for z in range(y, 31):
                    e1, e2, e3 = x + y + z, x * y + y * z + z * x, x * y * z
                    assert is_split_realizable(e1, e2, e3) == (z, y, x)

    def test_matches_multiset_search(self):
        # oracle: every multiset of twists landing in the grid; on the grid
        # x^2 + y^2 + z^2 = c1^2 - 2 c2 <= 204, so |twist| <= 14 suffices
        expected = {}
        for x in range(-14, 15):
            for y in range(x, 15):
                for z in range(y, 15):
                    expected[(x + y + z, x * y + y * z + z * x, x * y * z)] = (z, y, x)
        splittable = 0
        for c1 in range(-12, 13):
            for c2 in range(-30, 31):
                for c3 in range(-60, 61):
                    answer = expected.get((c1, c2, c3))
                    assert is_split_realizable(c1, c2, c3) == answer
                    splittable += answer is not None
        assert 0 < splittable < 25 * 61 * 121

    def test_bisection_bracket_holds_every_integer_root(self):
        # The bisection stops at max(lo, |c1|, |c2|, |c3|).  Each root of an
        # integer triple divides c3 when c3 != 0; when c3 = 0 the roots are
        # 0, r and s, and |r| <= max(|r + s|, |rs|).  The box checks the bound,
        # and O(r) + O(0) + O(0) attains it, so the bracket cannot shrink.
        for x, y, z in itertools.product(range(-15, 16), repeat=3):
            c = (x + y + z, x * y + y * z + z * x, x * y * z)
            assert max(abs(x), abs(y), abs(z)) <= max(map(abs, c)), (x, y, z)
        for r in range(-60, 61):
            assert is_split_realizable(r, 0, 0) == tuple(sorted((r, 0, 0), reverse=True))

    def test_large_c3_answers_quickly(self):
        t0 = time.perf_counter()
        assert is_split_realizable(0, 0, 10**18 + 3) is None
        big = split_rank3(10**9 + 7, -3, 10**6)
        assert is_split_realizable(big.c1, big.c2, big.c3) == (10**9 + 7, 10**6, -3)
        assert time.perf_counter() - t0 < 1.0

    def test_zero_c3_with_integer_quadratic(self):
        # t^3 - 5t^2 + 4t = t(t-1)(t-4)
        assert is_split_realizable(5, 4, 0) == (4, 1, 0)
        # t^3 - 3t^2 + 3t = t(t^2 - 3t + 3): no further integer roots
        assert is_split_realizable(3, 3, 0) is None


class TestMakeGroup:
    def test_base_3_0(self):
        g = make_group(3, 0, 20)
        assert g.kernel_kind == KERNEL_Z3
        assert g.c3_generator == 4
        assert g.identity == Rank3BundleClass(3, 0, 0)

    def test_base_1_0_has_trivial_kernel(self):
        g = make_group(1, 0, 24)
        assert g.kernel_kind == KERNEL_TRIVIAL
        assert g.c3_generator == 12

    def test_base_0_3_has_z3_kernel(self):
        g = make_group(0, 3, 24)
        assert g.kernel_kind == KERNEL_Z3
        assert g.c3_generator == 4

    def test_infeasible_identity_rejected(self):
        with pytest.raises(DomainError):
            make_group(3, 3, 24)
        with pytest.raises(DomainError):
            GroupDescriptorV0(3, 3)

    def test_descriptor_derives_the_generator(self):
        # the generator comes from the base; no caller can pass a wrong one
        g = GroupDescriptorV0(3, 0)
        assert g.c3_generator == 4
        assert subgroup_index(g, Rank3BundleClass(3, 0, -4)) == 3
        with pytest.raises(TypeError):
            GroupDescriptorV0(3, 0, 1)


class TestGroupOperations:
    def test_identity_and_addition(self):
        g = make_group(3, 0, 24)
        w = split_rank3(2, -1, 2)
        assert add(g, w, g.identity) == w
        assert add(g, w, w) == Rank3BundleClass(3, 0, -8)
        assert is_split_realizable(3, 0, -8) is None

    def test_inverse_at_c3_level(self):
        g = make_group(0, 0, 12)
        v = Rank3BundleClass(0, 0, 16)
        w = Rank3BundleClass(0, 0, -16)
        assert add(g, v, w) == g.identity

    def test_c3_is_additive(self):
        rng = random.Random(37)
        g = make_group(1, 0, 24)
        for _ in range(200):
            v = Rank3BundleClass(1, 0, 12 * rng.randint(-10, 10))
            w = Rank3BundleClass(1, 0, 12 * rng.randint(-10, 10))
            assert add(g, v, w).c3 == v.c3 + w.c3

    def test_membership_enforced(self):
        g = make_group(3, 0, 24)
        with pytest.raises(DomainError):
            add(g, split_rank3(1, 0, 0), split_rank3(2, -1, 2))

    def test_iterate(self):
        g = make_group(3, 0, 24)
        w = split_rank3(2, -1, 2)
        assert iterate(g, w, 1) == w
        assert iterate(g, w, 2) == Rank3BundleClass(3, 0, -8)
        for n in range(1, 51):
            assert iterate(g, w, n).c3 == -4 * n
        with pytest.raises(DomainError):
            iterate(g, w, 0)


class TestNonSplitMultiples:
    def test_example_class(self):
        g = make_group(3, 0, 24)
        assert smallest_nonsplit_multiple(g, split_rank3(2, -1, 2), 10) == 2

    def test_identity_over_split_base_stays_split(self):
        g = make_group(3, 0, 24)
        assert smallest_nonsplit_multiple(g, g.identity, 50) is None

    def test_prime_witness_example(self):
        g = make_group(3, 0, 24)
        assert prime_witness(g, split_rank3(2, -1, 2)) == (13, True)

    def test_prime_witness_large_c3_answers_quickly(self):
        g = make_group(3, 0, 24)
        t0 = time.perf_counter()
        assert prime_witness(g, Rank3BundleClass(3, 0, -4 * 10**11)) == (
            1200000000053,
            True,
        )
        assert time.perf_counter() - t0 < 1.0

    def test_prime_witness_beyond_proven_primality_is_domain_error(self):
        g = make_group(3, 0, 24)
        c3 = -4 * (_PRIMALITY_BOUND // 12 + 1)  # 3|c3| passes the bound
        with pytest.raises(DomainError):
            prime_witness(g, Rank3BundleClass(3, 0, c3))

    def test_prime_witness_rejects_zero_c3(self):
        g = make_group(3, 0, 24)
        with pytest.raises(DomainError):
            prime_witness(g, g.identity)

    def test_finite_index_whenever_c3_nonzero(self):
        rng = random.Random(41)
        g = make_group(3, 0, 24)
        for _ in range(20):
            w = Rank3BundleClass(3, 0, 4 * rng.choice([k for k in range(-9, 10) if k]))
            assert subgroup_index(g, w) != math.inf


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestPrimality:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))

        for n in range(-2, 20000):
            assert _is_prime(n) == trial(n), n

    def test_strong_pseudoprimes_rejected(self):
        # 2047 fools base 2 alone; 3215031751 fools bases 2, 3, 5 and 7.
        # The next five are the least strong pseudoprimes to the first 5, 6,
        # 8, 11 and 12 prime bases (Jaeschke, "On strong pseudoprimes to
        # several bases", Math. Comp. 61, 1993; Sorenson and Webster, Math.
        # Comp. 86, 2017), so every proper prefix of _MR_BASES lets one through.
        for n in (2047, 3215031751, 2152302898747, 3474749660383, 341550071728321,
                  3825123056546413051, 399165290221 * 798330580441):
            assert n < _PRIMALITY_BOUND
            assert not _is_prime(n), n
        assert _is_prime(1200000000053)


class TestSubgroupIndex:
    def test_z3_kernel_example(self):
        g = make_group(3, 0, 24)
        assert subgroup_index(g, split_rank3(2, -1, 2)) == 3

    def test_trivial_kernel(self):
        g = make_group(1, 0, 24)
        assert subgroup_index(g, Rank3BundleClass(1, 0, 60)) == 5

    def test_index_six_case(self):
        g = make_group(0, 0, 12)
        assert subgroup_index(g, Rank3BundleClass(0, 0, 16)) == 6

    def test_z3_index_is_presentation_determinant(self):
        # Z/3 kernel: the cokernel of [[k, r], [0, 3]] for every residue r
        for base in ((3, 0), (0, 0), (0, 3), (6, 9)):
            g = make_group(*base, 24)
            assert g.kernel_kind == KERNEL_Z3
            for k in list(range(-6, 0)) + list(range(1, 7)):
                w = Rank3BundleClass(*base, k * g.c3_generator)
                for r in (0, 1, 2):
                    assert subgroup_index(g, w) == abs(_det([[k, r], [0, 3]]))

    def test_zero_c3_is_infinite(self):
        g = make_group(3, 0, 24)
        assert subgroup_index(g, g.identity) == math.inf
