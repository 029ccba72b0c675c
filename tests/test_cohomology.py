"""Tests for Riemann-Roch on CP^n and the feasibility predicate.

The library computes chi from the integer identity
n! chi(V(t)) = sum_k p_k e_{n-k}(t + 1, ..., t + n).  Its oracle is
``oracle.chi`` in ``bench/oracle.py``, which takes the Todd-class route
instead: td_0..td_n of CP^n read off the polynomial C(n + a, n) in a
(``oracle.todd_coefficients``), and chi(V(t)) = sum_m td_{n-m} ch_m(V(t))
with ch_m = p_m / m!, the twist applied to the power sums by binomial
expansion.  The predicate's path before its per-dimension plan and the
c3 lattice before its closed form stay here, as the oracles for those
two.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest

import oracle
from bundle_arith import cohomology
from bundle_arith.cohomology import (
    ChernVector,
    _feasible,
    chern_character,
    euler_characteristic,
    feasible_c3_lattice,
    is_feasible,
    split_chern_vector,
)
from bundle_arith.errors import DomainError
from bundle_arith.rank3 import (
    KERNEL_Z3,
    GroupDescriptorV0,
    Rank3BundleClass,
    make_group,
    subgroup_index,
)


# The predicate's path before the per-dimension plan, kept as an oracle:
# the sign-folded classes and a second pass reducing them, n! from
# math.factorial, rows from their own cache, and generators over the twists.
def _old_power_sums(rank, dim, c, m=0):
    s = [-ci if i % 2 == 0 else ci for i, ci in enumerate(c[:dim], start=1)]
    s = [si % m for si in s] if m else s
    back = []  # p_{k-1}, ..., p_1
    for k in range(1, dim + 1):
        acc = sum(map(mul, s, back), k * s[k - 1] if k <= len(s) else 0)
        back.insert(0, acc % m if m else acc)
    return [rank, *reversed(back)]


@lru_cache(maxsize=None)
def _old_rows(n):
    return tuple(tuple(cohomology._elementary(range(t + 1, t + n + 1))[::-1]) for t in range(n + 1))


def _old_chis(rank, dim, c, twists, m=0):
    p = _old_power_sums(rank, dim, c, m)
    rows = _old_rows(dim)
    for t in twists:
        row = rows[t] if 0 <= t <= dim else cohomology._elementary(range(t + 1, t + dim + 1))[::-1]
        yield sum(map(mul, p, row))


def _old_feasible(rank, dim, c):
    m = math.factorial(dim)
    return all(x % m == 0 for x in _old_chis(rank, dim, c, range(dim - 1), m))


# The c3 lattice before its closed form, also kept as an oracle.  On CP^5
# the power sums p_1..p_5 are affine in c3 (c3^2 first enters p_6), so
# chi(c1, c2, c3; t) = chi(c1, c2, 0; t) + c3 * s(t), where s has degree at
# most 2 in t as c3 first enters ch_3.  Over a feasible base 120 *
# chi(c1, c2, 0; t) = 0 (mod 120), so 120 * chi(c1, c2, 1; t) = 120 * s(t)
# (mod 120), and the feasible c3 are exactly dZ with d = 120 / gcd(120,
# 120 * chi(c1, c2, 1; t) for t = 0..2): one pass of integer Riemann-Roch,
# run on the classes mod 120 since 120 * chi is an integer polynomial in them.
# Its two messages are phrases of the library's, which tells the rejections apart.
def _old_c3_lattice(c1, c2, scan):
    if not _old_feasible(3, 5, (c1, c2, 0)):
        raise DomainError("is not feasible")
    d = 120 // math.gcd(120, *_old_chis(3, 5, (c1, c2, 1), range(3), 120))
    if d > scan:
        raise DomainError("the scan window is too small")
    return d


def _old_lattice_outcome(c1, c2, scan):
    """_old_c3_lattice's spacing or message, checked against feasible_c3_lattice."""
    try:
        expected = _old_c3_lattice(c1, c2, scan)
    except DomainError as exc:
        with pytest.raises(DomainError, match=str(exc)):
            feasible_c3_lattice(c1, c2, scan)
        return str(exc)
    assert feasible_c3_lattice(c1, c2, scan) == expected
    return expected


class TestToddClass:
    def test_line(self):
        assert oracle.todd_coefficients(1) == (1, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unit_leading_term(self, n):
        # Td_0 = 1: chi(V(t)) = rank t^n / n! + lower terms, so the n-th
        # finite difference of chi in the twist is the rank
        assert oracle.todd_coefficients(n)[0] == 1
        v = ChernVector(3, n, (2, -1, 5))
        diff = sum(
            (-1) ** (n - i) * math.comb(n, i) * euler_characteristic(v, i)
            for i in range(n + 1)
        )
        assert diff == 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structure_sheaf_has_unit_characteristic(self, n):
        # equivalent to the top Todd coefficient carrying chi(O) = 1
        assert euler_characteristic(ChernVector(1, n, (0,)), 0) == 1


class TestChernCharacter:
    def test_line_bundle_is_exponential(self):
        for a in range(-6, 7):
            v = ChernVector(1, 3, (a,))
            expected = tuple(Fraction(a**k, math.factorial(k)) for k in range(4))
            assert chern_character(v) == expected

    def test_rank2_closed_form(self):
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                got = chern_character(ChernVector(2, 3, (c1, c2)))
                expected = (
                    2,
                    c1,
                    Fraction(c1 * c1 - 2 * c2, 2),
                    Fraction(c1**3 - 3 * c1 * c2, 6),
                )
                assert got == expected

    def test_split_example_on_five_space(self):
        v = split_chern_vector(5, (2, -1, 2))
        assert v == ChernVector(3, 5, (3, 0, -4))
        expected = tuple(
            sum(Fraction(t**k, math.factorial(k)) for t in (2, -1, 2))
            for k in range(6)
        )
        assert chern_character(v) == expected

    def test_split_oracle_random_box(self):
        rng = random.Random(7)
        for _ in range(250):
            n = rng.randint(1, 5)
            r = rng.randint(1, 3)
            twists = tuple(rng.randint(-10, 10) for _ in range(r))
            got = chern_character(split_chern_vector(n, twists))
            oracle = tuple(
                sum(Fraction(t**k, math.factorial(k)) for t in twists)
                for k in range(n + 1)
            )
            assert got == oracle


class TestEulerCharacteristic:
    def test_trivial_line_bundle(self):
        for n in range(1, 6):
            assert euler_characteristic(ChernVector(1, n, (0,)), 0) == 1

    def test_binomial_oracle(self):
        for n in range(1, 6):
            for d in range(0, 6):
                got = euler_characteristic(ChernVector(1, n, (d,)), 0)
                assert got == math.comb(n + d, n)

    def test_split_additivity_with_twists(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 5)
            twists = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
            t = -min(twists) + rng.randint(0, 3)
            got = euler_characteristic(split_chern_vector(n, twists), t)
            assert got == sum(math.comb(n + a + t, n) for a in twists)

    def test_polynomial_of_degree_dim_in_twist(self):
        # the (dim+1)-st finite difference of a degree-dim polynomial vanishes
        vectors = [
            ChernVector(2, 3, (1, 2)),
            ChernVector(3, 5, (3, 0, -4)),
            ChernVector(2, 5, (0, -7)),
            ChernVector(3, 4, (2, 2, 2)),
        ]
        for v in vectors:
            n = v.dim
            diff = sum(
                (-1) ** i * math.comb(n + 1, i) * euler_characteristic(v, i)
                for i in range(n + 2)
            )
            assert diff == 0

    def test_split_binomial_sum_outside_cached_twists(self):
        # chi(O(x)) = C(n + x, n), by Serre duality (-1)^n C(-x - 1, n) for
        # x < -n; the twists lie outside 0..dim, where no cached row exists
        def binomial(n, x):
            return math.comb(n + x, n) if x >= -n else (-1) ** n * math.comb(-x - 1, n)

        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 10)
            twists = tuple(rng.randint(-10, 10) for _ in range(rng.randint(1, 4)))
            v = split_chern_vector(n, twists)
            for t in (rng.randint(-40, -1), rng.randint(n + 1, n + 40), 10**6, -(10**6)):
                expected = sum(binomial(n, a + t) for a in twists)
                assert euler_characteristic(v, t) == expected, (v, t)

    def test_matches_series_oracle(self):
        rng = random.Random(20230214)
        for _ in range(20_000):
            rank, dim = rng.randint(1, 4), rng.randint(1, 8)
            bound = rng.choice((5, 100, 10**6))
            c = tuple(rng.randint(-bound, bound) for _ in range(rank))
            v, twist = ChernVector(rank, dim, c), rng.randint(-10, 10)
            assert euler_characteristic(v, twist) == oracle.chi(rank, dim, c, twist)


class TestFeasibility:
    def test_rank2_paper_examples(self):
        assert not is_feasible(ChernVector(2, 3, (1, 1)))
        assert is_feasible(ChernVector(2, 3, (1, 2)))

    def test_split_rank3_example(self):
        assert is_feasible(ChernVector(3, 5, (3, 0, -4)))

    def test_rank2_parity_rule_small_box(self):
        for c1 in range(-15, 16):
            for c2 in range(-15, 16):
                assert is_feasible(ChernVector(2, 3, (c1, c2))) == oracle.rank2_realizable(c1, c2)

    def test_every_split_vector_is_feasible(self):
        # all twist multisets with r <= 3, |a_i| <= 10, on CP^1..CP^5
        multisets = [(a,) for a in range(-10, 11)]
        multisets += [(a, b) for a in range(-10, 11) for b in range(a, 11)]
        multisets += [
            (a, b, c)
            for a in range(-10, 11)
            for b in range(a, 11)
            for c in range(b, 11)
        ]
        for n in range(1, 6):
            for twists in multisets:
                assert is_feasible(split_chern_vector(n, twists))

    def test_mod_factorial_matches_fraction_oracle(self):
        # the literal definition: chi(v(t)) is an integer at t = 0..dim
        _feasible.cache_clear()
        rng = random.Random(20261018)
        verdicts = []
        for _ in range(1500):
            rank, dim = rng.randint(1, 6), rng.randint(1, 10)
            bound = rng.choice((3, 10**30))
            c = [rng.randint(-bound, bound) for _ in range(rank)]
            if rng.random() < 0.5:
                # a split vector, moved off the lattice about half the time
                c = list(split_chern_vector(dim, c).c)
                c[rng.randrange(rank)] += rng.choice((0, rng.randint(-bound, bound)))
            v = ChernVector(rank, dim, tuple(c))
            expected = all(
                euler_characteristic(v, t).denominator == 1 for t in range(dim + 1)
            )
            assert is_feasible(v) == expected, v
            verdicts.append(expected)
        assert 200 < sum(verdicts) < 1300

    def test_plan_matches_old_path(self):
        # the plan, the one-pass power sums and the early-exit loop against
        # the old path: exact and mod n! power sums, verdicts, chi, lattice
        _feasible.cache_clear()
        rng = random.Random(20261020)
        verdicts = {}
        for _ in range(1200):  # dim 64 in one draw of 25: its exact chi is the costly part
            rank, dim = rng.randint(1, 6), rng.choice((*range(1, 13), *range(1, 13), 64))
            bound = rng.choice((3, 10**6, 10**30))
            c = [rng.randint(-bound, bound) for _ in range(rank)]
            if rng.random() < 0.5:
                # a split vector, moved off the lattice about half the time
                c = list(split_chern_vector(dim, c).c)
                c[rng.randrange(rank)] += rng.choice((0, rng.randint(-bound, bound)))
            c = tuple(c)
            m = math.factorial(dim)
            assert cohomology._power_sums(rank, dim, c) == _old_power_sums(rank, dim, c)
            assert cohomology._power_sums(rank, dim, c, m) == _old_power_sums(rank, dim, c, m)
            v, expected = ChernVector(rank, dim, c), _old_feasible(rank, dim, c)
            assert is_feasible(v) == expected, v
            verdicts.setdefault(dim, []).append(expected)
            t = rng.randint(-3, dim + 3)
            assert euler_characteristic(v, t) == Fraction(next(_old_chis(rank, dim, c, (t,))), m)
        # no twist to test on CP^1; on CP^2 only t = 0, where chi = rank +
        # c1 (c1 + 3) / 2 - c2 is always an integer
        assert all(verdicts[1]) and all(verdicts[2])
        assert 0 < sum(verdicts[64]) < len(verdicts[64])
        assert 500 < sum(map(sum, verdicts.values())) < 800  # 650 of 1200
        outcomes = set()
        for _ in range(300):
            bound, scan = rng.choice((3, 10**6, 10**30)), rng.choice((1, 4, 24))
            c1, c2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
            outcomes.add(_old_lattice_outcome(c1, c2, scan))
        assert outcomes >= {"is not feasible", "the scan window is too small", 4, 8, 12, 24}
        _feasible.cache_clear()

    def test_twists_0_to_dim_minus_3_settle_every_twist(self):
        # With n = dim, ch_k adds degree n - k in t and the t^(n-1) term of
        # c1's part is that of c1 C(t + n, n - 1), so r(t) = chi(v(t)) -
        # rank C(t + n, n) - c1 C(t + n, n - 1) has degree <= n - 2: its
        # (n-1)-th difference, of degree <= 1, vanishes at t = 0 and 1, hence
        # everywhere.  One degree lower: write v = sum_k a_k (1 - O(-1))^k
        # rationally, so chi(v(t)) = sum_k a_k C(t + n - k, n - k) with the
        # integers a_0 = rank, a_1 = c1 and a_2 = c1 (c1 + 1) / 2 - c2.  Then
        # r2(t) = chi(v(t)) - sum_{k <= 2} a_k C(t + n - k, n - k) has degree
        # <= n - 3: its (n-2)-th difference, of degree <= 2, vanishes at t = 0,
        # 1 and 2, hence everywhere.  The binomials are integer-valued, so
        # integer chi at t = 0..n-3 makes r2, and so chi, integer at every
        # twist; on CP^1 and CP^2 r2 = 0 and every vector is feasible.
        def binomial(x, k):  # C(x, k) as a polynomial in x, 0 for k < 0
            return math.prod(range(x - k + 1, x + 1)) // math.factorial(k) if k >= 0 else 0

        rng = random.Random(20261019)
        for _ in range(1000):
            rank, n = rng.randint(1, 6), rng.randint(1, 12)
            c = tuple(rng.randint(-(10**9), 10**9) for _ in range(rank))
            v = ChernVector(rank, n, c)
            chi = [euler_characteristic(v, t) for t in range(n + 3)]
            r = [
                chi[t] - rank * binomial(t + n, n) - c[0] * binomial(t + n, n - 1)
                for t in range(n + 1)
            ]
            for t0 in (0, 1):
                diff = sum((-1) ** i * math.comb(n - 1, i) * r[t0 + i] for i in range(n))
                assert diff == 0, (v, t0)
            a2 = c[0] * (c[0] + 1) // 2 - (c[1] if rank > 1 else 0)
            r2 = [
                chi[t] - rank * binomial(t + n, n) - c[0] * binomial(t + n - 1, n - 1)
                - a2 * binomial(t + n - 2, n - 2)
                for t in range(n + 3)
            ]
            order = max(n - 2, 0)
            for t0 in (0, 1, 2):
                diff = sum((-1) ** i * math.comb(order, i) * r2[t0 + i] for i in range(order + 1))
                assert diff == 0, (v, t0)
            if n <= 2:
                assert is_feasible(v), v

    def test_predicate_and_lattice_read_only_their_proven_twists(self, monkeypatch):
        # the predicate reads dim - 2 twists and the c3 lattice none, as its
        # base check is a residue rule: every twist t in 0..dim is a read of
        # row t of the plan
        read = []
        real = cohomology._plan

        class CountingRows(tuple):
            def __getitem__(self, t):
                read.append(t)
                return super().__getitem__(t)

        def counting(n):
            n_fact, rows = real(n)
            return n_fact, CountingRows(rows)

        monkeypatch.setattr(cohomology, "_plan", counting)
        _feasible.cache_clear()
        assert is_feasible(ChernVector(2, 3, (1, 2)))
        assert read == [0]
        read.clear()
        assert is_feasible(ChernVector(3, 5, (3, 0, -4)))
        assert read == [0, 1, 2]
        read.clear()
        cached = _feasible.cache_info().currsize
        assert feasible_c3_lattice(3, 0, 24) == 4
        assert read == []  # no Riemann-Roch pass, not even for the base
        assert _feasible.cache_info().currsize == cached
        _feasible.cache_clear()

    def test_predicate_cache_is_bounded(self):
        # a sweep of distinct classes fills the cache to its bound, no further
        maxsize = _feasible.cache_info().maxsize
        assert maxsize == 2**15
        _feasible.cache_clear()
        for i in range(maxsize + 1000):
            is_feasible(ChernVector(2, 3, (i, 2 * i)))
        info = _feasible.cache_info()
        assert info.misses == maxsize + 1000
        assert info.currsize <= maxsize
        _feasible.cache_clear()

    def test_huge_classes_decided_promptly(self):
        _feasible.cache_clear()
        v = ChernVector(64, 64, (int("9" * 4000),) * 64)
        t0 = time.perf_counter()
        is_feasible(v)
        assert time.perf_counter() - t0 < 1.0

    def test_tensor_shift_invariance(self):
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                base = is_feasible(ChernVector(2, 3, (c1, c2)))
                for k in range(-5, 6):
                    shifted = ChernVector(2, 3, (c1 + 2 * k, c2 + k * c1 + k * k))
                    assert is_feasible(shifted) == base


class TestC3Lattice:
    def test_infeasible_identity_rejected(self):
        with pytest.raises(DomainError):
            feasible_c3_lattice(3, 3, 12)

    def test_matches_window_scan(self):
        # oracle: the feasible c3 in a window are exactly the multiples of d
        spacings = set()
        bases = 0
        for c1 in range(-6, 7):
            for c2 in range(-12, 13):
                if not is_feasible(ChernVector(3, 5, (c1, c2, 0))):
                    continue
                bases += 1
                d = feasible_c3_lattice(c1, c2, 24)
                spacings.add(d)
                feasible = [
                    k for k in range(-24, 25)
                    if is_feasible(ChernVector(3, 5, (c1, c2, k)))
                ]
                assert feasible == [k for k in range(-24, 25) if k % d == 0]
                with pytest.raises(DomainError, match="scan window"):
                    feasible_c3_lattice(c1, c2, d - 1)
        assert bases == 117
        assert spacings == {4, 8, 12, 24}

    def test_large_bases_match_window_scan(self):
        # the benchmark's range of bases and 30-digit ones, against a literal
        # scan with oracle.feasible: chi(v(t)) an integer at t = 0..5
        rng = random.Random(120)
        ranges = [((2 * 10**4, 10**5), (-(10**6), 10**6))] * 40
        ranges += [((-(10**30), 10**30), (-(10**30), 10**30))] * 12
        spacings = set()
        for c1_range, c2_range in ranges:
            c1, c2 = rng.randint(*c1_range), rng.randint(*c2_range)
            while not oracle.feasible(3, 5, (c1, c2, 0)):
                with pytest.raises(DomainError):
                    feasible_c3_lattice(c1, c2, 24)
                c1, c2 = rng.randint(*c1_range), rng.randint(*c2_range)
            d = feasible_c3_lattice(c1, c2, 24)
            spacings.add(d)
            window = [k for k in range(-24, 25) if oracle.feasible(3, 5, (c1, c2, k))]
            assert window == [k for k in range(-24, 25) if k % d == 0], (c1, c2)
            with pytest.raises(DomainError, match="scan window"):
                feasible_c3_lattice(c1, c2, d - 1)
        assert spacings == {4, 8, 12, 24}

    def test_c3_part_of_chi_has_degree_two(self):
        # c3 first enters ch_3, so s(t) = chi(c1, c2, 1; t) - chi(c1, c2, 0; t)
        # has degree <= 2 in t and c3 s(t) is an integer at every twist iff it
        # is one at t = 0..2.  The third difference of s is a polynomial of
        # degree <= 2 in t and <= 5 in each of c1, c2 (120 chi is), so its
        # vanishing on {0..5}^2 x {0..2} proves it vanishes everywhere.
        def s(c1, c2, t):
            v0, v1 = ChernVector(3, 5, (c1, c2, 0)), ChernVector(3, 5, (c1, c2, 1))
            return euler_characteristic(v1, t) - euler_characteristic(v0, t)

        for c1, c2, t0 in itertools.product(range(6), range(6), range(3)):
            diff = sum((-1) ** i * math.comb(3, i) * s(c1, c2, t0 + i) for i in range(4))
            assert diff == 0, (c1, c2, t0)

    def test_scan_too_small_fails_loudly(self):
        # base (2, 0) has spacing 24: a narrower window sees only c3 = 0, and is bad input
        with pytest.raises(DomainError, match="scan window is too small"):
            feasible_c3_lattice(2, 0, 20)
        assert feasible_c3_lattice(2, 0, 24) == 24

    def test_huge_bases_match_riemann_roch(self):
        # the residue rules on 4299-digit bases, one per residue pair mod 12,
        # against the mod-120 Riemann-Roch pass they replaced
        low = -(10**4299 - 1)
        outcomes = {
            _old_lattice_outcome(low + i, low + j, 24)
            for i, j in itertools.product(range(12), repeat=2)
        }
        assert outcomes == {"is not feasible", 4, 8, 12, 24}


class TestRank2Law:
    """Rank-2 feasibility on CP^3 has period 2, so it is the parity rule."""

    def test_period_two_by_finite_differences(self):
        # 6 chi is an integer polynomial of degree <= 3 in each of c1, c2, t
        # (c2 enters ch only linearly), and so is each difference
        # below: vanishing mod 6 on {0..3}^3 makes every finite difference at
        # 0 vanish mod 6, hence every value.  Feasibility at each twist then
        # has period 2 in c1 and in c2, and four residue pairs decide it.
        def scaled_chi(c1, c2, t):
            return 6 * euler_characteristic(ChernVector(2, 3, (c1, c2)), t)

        for c1, c2, t in itertools.product(range(4), repeat=3):
            base = scaled_chi(c1, c2, t)
            assert (scaled_chi(c1 + 2, c2, t) - base) % 6 == 0
            assert (scaled_chi(c1, c2 + 2, t) - base) % 6 == 0
        for c1, c2 in itertools.product(range(2), repeat=2):
            assert is_feasible(ChernVector(2, 3, (c1, c2))) == oracle.rank2_realizable(c1, c2)


class TestRank3Law:
    """Rank-3 feasibility on CP^5 has period 24 and a mod-3 rule for c3."""

    @staticmethod
    def _scaled_chi(c, t):
        return 120 * euler_characteristic(ChernVector(3, 5, c), t)

    def test_period_24_by_finite_differences(self):
        # 120 chi is a polynomial of degree <= 5 in each of c1, c2, c3, t, and
        # so is each difference below: vanishing mod 120 on {0..5}^4 makes
        # every finite difference at 0 vanish mod 120, hence every value
        for c in itertools.product(range(6), repeat=3):
            for t in range(6):
                base = self._scaled_chi(c, t)
                for i in range(3):
                    shifted = tuple(ci + 24 * (j == i) for j, ci in enumerate(c))
                    assert (self._scaled_chi(shifted, t) - base) % 120 == 0

    @staticmethod
    @lru_cache(maxsize=None)
    def _classes_mod_24():
        return tuple(
            c for c in itertools.product(range(24), repeat=3)
            if is_feasible(ChernVector(3, 5, c))
        )

    def test_generator_divides_every_member_c3(self):
        # subgroup_index divides c3 by the generator d without a remainder
        # check.  120 chi mod 120 has period 24 in each class (above), so
        # feasibility and d's formula read only residues mod 24, and d divides
        # 24: the feasible classes mod 24 over a feasible base cover every member.
        members = 0
        for c1, c2, c3 in self._classes_mod_24():
            if is_feasible(ChernVector(3, 5, (c1, c2, 0))):
                d = GroupDescriptorV0(c1, c2).c3_generator
                assert 24 % d == 0 and c3 % d == 0, (c1, c2, c3)
                members += 1
        assert members == 448

    # The c3 mod 8 that feasible classes allow, by c1 mod 8 and then c2 mod 8
    _EMPTY = frozenset()
    _MOD_8 = {
        (0, 4): ({0}, {2, 6}, _EMPTY, {0, 4}, {0}, {2, 6}, _EMPTY, {0, 4}),
        (2, 6): ({0}, {0, 4}, _EMPTY, {2, 6}, {0}, {0, 4}, _EMPTY, {2, 6}),
        (1,): ({0, 4}, _EMPTY, {0, 4}, {3}, {0, 4}, _EMPTY, {0, 4}, {7}),
        (3,): ({0, 4}, _EMPTY, {0, 4}, {1}, {0, 4}, _EMPTY, {0, 4}, {5}),
        (5,): ({0, 4}, _EMPTY, {0, 4}, {7}, {0, 4}, _EMPTY, {0, 4}, {3}),
        (7,): ({0, 4}, _EMPTY, {0, 4}, {5}, {0, 4}, _EMPTY, {0, 4}, {1}),
    }

    @classmethod
    def _mod_8_entry(cls, c1, c2):
        row = next(r for key, r in cls._MOD_8.items() if c1 % 8 in key)
        return row[c2 % 8]

    def test_classes_mod_24(self):
        feasible = self._classes_mod_24()
        assert len(feasible) == 800
        # the c3 mod 3 that feasible classes allow over each (c1, c2) mod 3
        allowed = {(c1, c2): set() for c1 in range(3) for c2 in range(3)}
        for c1, c2, c3 in feasible:
            allowed[c1 % 3, c2 % 3].add(c3 % 3)
        table = {(0, 0): {0, 1, 2}, (0, 1): set(), (1, 2): {2}, (2, 2): {1}}
        assert allowed == {key: table.get(key, {0}) for key in allowed}

    def test_classes_mod_8(self):
        allowed = {(c1, c2): set() for c1 in range(8) for c2 in range(8)}
        for c1, c2, c3 in self._classes_mod_24():
            allowed[c1 % 8, c2 % 8].add(c3 % 8)
        assert allowed == {key: self._mod_8_entry(*key) for key in allowed}

    def test_lattice_spacing_is_d8_times_d3(self):
        # Over a feasible base the c3 lattice is dZ with d = d8 * d3: d8 = 8
        # when the mod-8 table allows only c3 = 0 mod 8, else 4; d3 = 1 when
        # (c1, c2) = (0, 0) mod 3, else 3.  The kernel is Z/3 iff d3 = 1.
        # The base check is a residue rule mod 12 (feasible_c3_lattice).
        # Feasibility and d depend only on (c1, c2) mod 24
        # (test_period_24_by_finite_differences) and the sweep covers every
        # residue pair, so feasible_c3_lattice agreeing with integer
        # Riemann-Roch here, on every base, proves both rules.
        bases = 0
        for c1 in range(-40, 41):
            for c2 in range(-40, 41):
                if not is_feasible(ChernVector(3, 5, (c1, c2, 0))):
                    with pytest.raises(DomainError, match="is not feasible"):
                        feasible_c3_lattice(c1, c2, 24)
                    continue
                bases += 1
                d8 = 8 if self._mod_8_entry(c1, c2) == {0} else 4
                d3 = 1 if c1 % 3 == 0 and c2 % 3 == 0 else 3
                g = make_group(c1, c2, 24)
                assert g.c3_generator == d8 * d3
                assert (g.kernel_kind == KERNEL_Z3) == (d3 == 1)
                # the descriptor derives the same group from the base alone
                derived = GroupDescriptorV0(c1, c2)
                assert derived == g and derived.c3_generator == g.c3_generator
                w = Rank3BundleClass(c1, c2, 24)  # 24 is a multiple of every d
                assert subgroup_index(derived, w) == subgroup_index(g, w)
                # the closed form against the Riemann-Roch pass it replaced
                assert feasible_c3_lattice(c1, c2, 24) == _old_c3_lattice(c1, c2, 24)
        assert bases == 2208


class TestValidation:
    def test_bool_fields_rejected(self):
        # True == 1, but rank, dim and Chern classes are ints, not bools
        with pytest.raises(DomainError):
            ChernVector(2, 3, (True, 2))
        with pytest.raises(DomainError):
            ChernVector(True, 3, (1,))
        with pytest.raises(DomainError):
            ChernVector(1, True, (1,))
