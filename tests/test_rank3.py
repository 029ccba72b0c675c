"""Tests for rank-3 classes on CP^5 and the groups over a rank-2 base."""

import itertools
import math
import random
import time

import pytest

import oracle
from bundle_arith import rank3
from bundle_arith.errors import DomainError
from bundle_arith.rank3 import (
    _MR_BASES,
    _PRIMALITY_BOUND,
    _PSEUDOPRIMES,
    _SMALL_PRIMES,
    _TRIAL_BOUND,
    _is_prime,
    _next_prime,
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
                    e1, e2, e3 = oracle.symmetric3(x, y, z)
                    assert is_split_realizable(e1, e2, e3) == (z, y, x)

    def test_matches_multiset_search(self):
        # oracle: every multiset of twists landing in the grid; on the grid
        # x^2 + y^2 + z^2 = c1^2 - 2 c2 <= 204, so |twist| <= 14 suffices
        expected = {}
        for x in range(-14, 15):
            for y in range(x, 15):
                for z in range(y, 15):
                    expected[oracle.symmetric3(x, y, z)] = (z, y, x)
        splittable = 0
        for c1 in range(-12, 13):
            for c2 in range(-30, 31):
                for c3 in range(-60, 61):
                    answer = expected.get((c1, c2, c3))
                    assert is_split_realizable(c1, c2, c3) == answer
                    splittable += answer is not None
        assert 0 < splittable < 25 * 61 * 121

    def test_gap_descent_steps_hold_on_every_triple(self):
        """Each step of the gap descent, on the box and on large roots.

        With roots x >= y >= z and gaps a = x - y, b = y - z, the
        discriminant is (a b (a + b))^2 and d = c1^2 - 3 c2 = a^2 + a b + b^2,
        so sigma = a + b solves t^3 - d t - s with s = a b (a + b).  The
        identity 27 disc = 4 d^3 - q^2 keeps the descent's end at most
        2 sqrt(d / 3) when f does not split; as a polynomial identity of
        degree 6 in the roots, it holds once it holds on the box.  The
        descent starts at isqrt(4d // 3), at or right of sigma, since
        3 sigma^2 <= 4d, and g'(t) = 3t^2 - d >= 2d on [sigma, start], since
        3t^2 - d increases for t >= 0 and 3 sigma^2 - d = 2d + 3ab.  On the
        integers g' can exceed g near the root: each of the 882 split
        triples in [-12, 12]^3 (of 2,925) that start right of a + b reaches
        a step there where g // g' is 0, so the unit step max(1, ...) is
        what ends the descent; test_recovers_twists runs them all.
        """
        rng = random.Random(8)
        big = [tuple(rng.randint(-10**30, 10**30) for _ in range(3)) for _ in range(2000)]
        for roots in itertools.chain(itertools.product(range(-15, 16), repeat=3), big):
            x, y, z = oracle.canonical(roots)
            c1, c2, c3 = oracle.symmetric3(x, y, z)
            a, b = x - y, y - z
            disc = c1**2 * c2**2 - 4 * c2**3 - 4 * c1**3 * c3 + 18 * c1 * c2 * c3 - 27 * c3**2
            d = c1 * c1 - 3 * c2
            assert disc == (a * b * (a + b)) ** 2 and d == a * a + a * b + b * b, roots
            assert 27 * disc == 4 * d**3 - (2 * c1**3 - 9 * c1 * c2 + 27 * c3) ** 2, roots
            start = math.isqrt(4 * d // 3)
            assert start >= a + b, roots
            for t in (a + b, start):
                assert 3 * t * t - d >= 2 * d, roots
        # (1024, -2093091, 675391266) is O(2146) + O(-561) + O(-561), a double root
        assert is_split_realizable(1024, -2093091, 675391266) == (2146, -561, -561)
        # O(r) + O(0) + O(0): gaps |r| and 0, in either order by the sign of r
        for r in range(-60, 61):
            assert is_split_realizable(r, 0, 0) == oracle.canonical((r, 0, 0))

    def test_matches_max_coefficient_bisection(self):
        # oracle: the bisection up to max(|c1|, |c2|, |c3|), which bounds every
        # root of an integer triple since each divides c3 != 0, or (c3 = 0)
        # they are 0, r and s with |r| <= max(|r + s|, |rs|)
        rng = random.Random(25)
        splittable = 0
        for i in range(20000):
            shape = i % 4
            if shape == 0:  # the benchmark's split cases: three twists
                x, y = (rng.choice((-1, 1)) * rng.randint(50, 2000) for _ in range(2))
                z = rng.choice((-1, 1)) * max(1, rng.randint(8 * 10**5, 12 * 10**5) // abs(x * y))
                c = oracle.symmetric3(x, y, z)
            elif shape == 1:  # and its others: c3 and c1 + c2 odd, so no integer root
                c1, c2 = rng.randint(-5000, 5000), rng.randint(-10**6, 10**6)
                c3 = rng.choice((-1, 1)) * (rng.randint(10**5, 10**7) | 1)
                c = (c1, c2 + (c1 + c2 + 1) % 2, c3)
            elif shape == 2:  # clustered roots, perturbed off a split class or not
                r = rng.choice((-1, 1)) * rng.randint(0, 10**12)
                x, y, z = (r + rng.randint(-3, 3) for _ in range(3))
                c1, c2, c3 = oracle.symmetric3(x, y, z)
                c = (c1, c2, c3 + rng.choice((0, 0, 1, -1)))
            else:  # c3 = 0: roots 0, r and s, or a quadratic with no integer root
                r, s = (rng.randint(-10**9, 10**9) for _ in range(2))
                c = (r + s, r * s + rng.choice((0, 0, 1, 2)), 0)
            answer = _max_coefficient_split(*c)
            assert is_split_realizable(*c) == answer, c
            splittable += answer is not None
        assert 0 < splittable < 20000

    def test_huge_classes_answer_within_a_second(self):
        # h has 4,299 digits, the most argparse reads; the last two classes
        # are built from roots of that size, so their c2 and c3 are larger
        h = 10**4299 - 1
        cases = [
            ((0, 0, h), None),
            ((3, 0, h - 3), None),
            ((h, 0, 0), (h, 0, 0)),
            # no integer root r: h (r^2 - r - 1) = -r^3 fails at r = 0 and 1,
            # has sides of opposite signs at r >= 2, and at r <= -1 gives
            # h = |r|^3 / (r^2 + |r| - 1) < |r| unless h = 1, while r divides h
            ((-h, -h, h), None),
            ((2 * h + 1, h * (h + 1), 0), (h + 1, h, 0)),
            ((3 * h, 3 * h * h, h**3), (h, h, h)),
        ]
        for c, expected in cases:
            t0 = time.perf_counter()
            assert is_split_realizable(*c) == expected
            assert time.perf_counter() - t0 < 1.0

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

    def test_spacing_derived_once_per_group(self, record_calls):
        # the descriptor derives d; make_group checks its scan against it
        calls = record_calls(rank3, "feasible_c3_lattice")
        bases = ((3, 0, 24), (0, 0, 8), (1, 0, 12), (0, 3, 4), (2, 0, 24))
        for base_c1, base_c2, scan in bases:
            assert make_group(base_c1, base_c2, scan).c3_generator <= scan
        assert len(calls) == len(bases)


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

    def test_zero_c3_is_decided_by_its_first_multiple(self):
        # every multiple of a class with c3 = 0 is the class itself
        t0 = time.perf_counter()
        for base, expected in (((3, 0), None), ((0, 0), None), ((1, 0), None), ((0, 3), 1)):
            g = make_group(*base, 24)
            assert smallest_nonsplit_multiple(g, g.identity, 10**12) == expected, base
        assert time.perf_counter() - t0 < 1.0

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

    def test_witness_primes_below_trial_bound_squared_skip_miller_rabin(self, record_calls):
        # every candidate below _TRIAL_BOUND^2 is decided by the gcd alone
        calls = record_calls(rank3, "_miller_rabin")
        g = make_group(3, 0, 24)
        assert prime_witness(g, split_rank3(2, -1, 2)) == (13, True)
        assert prime_witness(g, Rank3BundleClass(3, 0, 10**5)) == (300007, True)
        assert prime_witness(g, Rank3BundleClass(3, 0, -(10**5))) == (300007, True)
        assert len(calls) == 0
        assert prime_witness(g, Rank3BundleClass(3, 0, 4 * 10**6)) == (12000017, True)
        assert len(calls) >= 1

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


def _max_coefficient_split(c1, c2, c3):
    """is_split_realizable by bisection up to max(|c1|, |c2|, |c3|)."""

    def value(t):
        return ((t - c1) * t + c2) * t - c3

    d = c1 * c1 - 3 * c2
    if d < 0:
        return None
    root_d = math.isqrt(d)
    root_d += root_d * root_d != d
    lo = -(-(c1 + root_d) // 3)
    hi = max(lo, abs(c1), abs(c2), abs(c3))
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    if value(lo):
        return None
    p = lo - c1
    disc = p * p - 4 * (c2 + lo * p)
    if disc < 0 or math.isqrt(disc) ** 2 != disc:
        return None
    s = math.isqrt(disc)
    return oracle.canonical((lo, (-p + s) // 2, (-p - s) // 2))


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestPrimality:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))

        for n in range(-2, 20000):
            assert _is_prime(n) == trial(n), n

    def test_strong_pseudoprimes_rejected(self):
        # 2047, 1373653, 25326001 and 3215031751 fool the first 1, 2, 3 and 4
        # prime bases.  The next five are the least strong pseudoprimes to the
        # first 5, 6, 8, 11 and 12 prime bases (Jaeschke, "On strong
        # pseudoprimes to several bases", Math. Comp. 61, 1993; Sorenson and
        # Webster, Math. Comp. 86, 2017), so every proper prefix of _MR_BASES
        # lets one through, and so does each tier run with one base fewer.
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 399165290221 * 798330580441):
            assert n < _PRIMALITY_BOUND
            assert not _is_prime(n), n
        assert _is_prime(1200000000053)

    def test_pseudoprime_table(self):
        # psi_k, the least strong pseudoprime to the first k prime bases, by
        # its factors; the first k bases are proven enough below it
        factors = [(23, 89), (829, 1657), (2251, 11251), (151, 751, 28351),
                   (6763, 10627, 29947), (1303, 16927, 157543), (10670053, 32010157),
                   (10670053, 32010157), (149491, 747451, 34233211),
                   (149491, 747451, 34233211), (149491, 747451, 34233211),
                   (399165290221, 798330580441), (1287836182261, 2575672364521)]
        assert _PSEUDOPRIMES == tuple(math.prod(f) for f in factors)
        assert list(_PSEUDOPRIMES) == sorted(_PSEUDOPRIMES)
        assert _PSEUDOPRIMES[-1] == _PRIMALITY_BOUND == 3317044064679887385961981
        bases = _MR_BASES + (43,)
        for k, n in enumerate(_PSEUDOPRIMES, 1):
            # psi_k fools the first j >= k bases, where j is its last place in
            # the table, and base j + 1 exposes it
            j = len(_PSEUDOPRIMES) - _PSEUDOPRIMES[::-1].index(n)
            assert [_strong_probable_prime(n, a) for a in bases[: j + 1]] == [True] * j + [False], k

    def test_next_prime_matches_thirteen_base_oracle(self):
        # the benchmark's oracle: trial division by, then Miller-Rabin to,
        # its own 13 bases 2..41, below its 3 * 10^24 guard
        rng = random.Random(2025)
        draws = [rng.randrange(10, 10 ** rng.randint(2, 24)) for _ in range(20000)]
        windows = [m for n in _PSEUDOPRIMES if n < 10**12 for m in range(n - 500, n + 501)]
        for n in draws + windows:
            assert _next_prime(n) == oracle.next_prime(n), n

    def test_trial_bound_is_exact(self):
        def trial(n):
            return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))

        t0 = time.perf_counter()
        b = _TRIAL_BOUND
        assert _SMALL_PRIMES == {n for n in range(b) if trial(n)}
        # q^2, for the least prime q >= b, is the least composite coprime to
        # every small prime: the gcd lets it through, Miller-Rabin rejects it
        q = next(n for n in itertools.count(b) if trial(n))
        for p in _SMALL_PRIMES:
            assert not _is_prime(p * p) and not _is_prime(p * q), p
        assert not _is_prime(q * q)
        # around b^2, where Miller-Rabin takes over from the gcd: trial
        # division by the primes up to the window's square root
        divisors = [n for n in range(2, math.isqrt(b * b + 2000) + 1) if trial(n)]
        for n in range(b * b - 2000, b * b + 2001):
            assert _is_prime(n) == all(n % p for p in divisors), n
        assert time.perf_counter() - t0 < 0.1


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
