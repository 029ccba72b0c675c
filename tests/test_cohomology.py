"""Tests for Riemann-Roch on CP^n and the feasibility predicate.

The library computes chi from the integer identity
n! chi(V(t)) = sum_k p_k e_{n-k}(t + 1, ..., t + n).  The oracle here
takes the textbook route instead: the h^n coefficient of
ch(V) Td(CP^n) e^(th) over plain Fraction lists, with ch read off
log c(V) rather than Newton's identities.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from bundle_arith.cohomology import (
    MAX_DIM,
    ChernVector,
    chern_character,
    euler_characteristic,
    feasible_c3_lattice,
    is_feasible,
    split_chern_vector,
)
from bundle_arith.errors import ConsistencyError, DomainError
from bundle_arith.rank3 import KERNEL_Z3, make_group


def _mul(a, b):
    """Product of two series in h of the same length, truncated to it."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _inverse(a):
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-out[0] * sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _exp(n, t):
    """e^(th) truncated at degree n."""
    return [Fraction(t**k, math.factorial(k)) for k in range(n + 1)]


@lru_cache(maxsize=None)
def _todd(n):
    """Todd class of CP^n: (h / (1 - e^(-h)))^(n+1), truncated at degree n."""
    base = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(n + 1)]
    td, inv = [Fraction(1)] + [Fraction(0)] * n, _inverse(base)
    for _ in range(n + 1):
        td = _mul(td, inv)
    return tuple(td)


@lru_cache(maxsize=None)
def _twisted_todd(n, twist):
    """Td(CP^n) e^(twist h), truncated at degree n."""
    return _mul(list(_todd(n)), _exp(n, twist))


def _chi_oracle(v, twist):
    """h^n coefficient of ch(v) Td(CP^n) e^(twist h), ch from log c(v)."""
    n = v.dim
    x = [0] + list(v.c[:n]) + [0] * (n - min(v.rank, n))  # c(v) - 1
    # log c(v) = sum_m (-1)^(m+1) x^m / m = sum_k (-1)^(k+1) p_k h^k / k,
    # summed in integers scaled by lcm(1..n)
    scale = math.lcm(*range(1, n + 1))
    log, power = [0] * (n + 1), [1] + [0] * n
    for m in range(1, n + 1):
        power = _mul(power, x)
        log = [a + (-1) ** (m + 1) * (scale // m) * b for a, b in zip(log, power)]
    ch = [Fraction(v.rank)] + [
        Fraction((-1) ** (k + 1) * k * log[k], scale * math.factorial(k))
        for k in range(1, n + 1)
    ]
    td = _twisted_todd(n, twist)
    return sum(ch[k] * td[n - k] for k in range(n + 1))


class TestSeries:
    """The oracle's series arithmetic."""

    def test_difference_of_squares(self):
        assert _mul([1, 1, 0, 0], [1, -1, 0, 0]) == [1, 0, -1, 0]

    def test_one_is_neutral(self):
        s = [3, Fraction(1, 2), 0, -7, 2]
        assert _mul(s, [1, 0, 0, 0, 0]) == s

    def test_truncation_drops_high_degrees(self):
        assert _mul([1, 1, 1], [1, 1, 0]) == [1, 2, 2]

    def test_inverse_roundtrip(self):
        s = [1, 2, Fraction(-1, 3), 0, 4, 1]
        assert _mul(s, _inverse(s)) == [1, 0, 0, 0, 0, 0]

    def test_exponential_sums_exponents(self):
        assert _mul(_exp(6, 2), _exp(6, 3)) == _exp(6, 5)


class TestToddClass:
    def test_line(self):
        assert _todd(1) == (1, 1)

    def test_three_space(self):
        assert _todd(3) == (1, 2, Fraction(11, 6), 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unit_leading_term(self, n):
        # Td_0 = 1: chi(V(t)) = rank t^n / n! + lower terms, so the n-th
        # finite difference of chi in the twist is the rank
        assert _todd(n)[0] == 1
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
            assert chern_character(v) == tuple(_exp(3, a))

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

    def test_matches_series_oracle(self):
        rng = random.Random(20230214)
        for _ in range(20_000):
            rank, dim = rng.randint(1, 4), rng.randint(1, 8)
            bound = rng.choice((5, 100, 10**6))
            c = tuple(rng.randint(-bound, bound) for _ in range(rank))
            v, twist = ChernVector(rank, dim, c), rng.randint(-10, 10)
            assert euler_characteristic(v, twist) == _chi_oracle(v, twist)


class TestFeasibility:
    def test_rank2_paper_examples(self):
        assert not is_feasible(ChernVector(2, 3, (1, 1)))
        assert is_feasible(ChernVector(2, 3, (1, 2)))

    def test_split_rank3_example(self):
        assert is_feasible(ChernVector(3, 5, (3, 0, -4)))

    def test_rank2_parity_rule_small_box(self):
        for c1 in range(-15, 16):
            for c2 in range(-15, 16):
                expected = (c1 * c2) % 2 == 0
                assert is_feasible(ChernVector(2, 3, (c1, c2))) == expected

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

    def test_tensor_shift_invariance(self):
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                base = is_feasible(ChernVector(2, 3, (c1, c2)))
                for k in range(-5, 6):
                    shifted = ChernVector(2, 3, (c1 + 2 * k, c2 + k * c1 + k * k))
                    assert is_feasible(shifted) == base


class TestC3Lattice:
    def test_base_3_0(self):
        # the closed-form spacing; every feasible value is a multiple of it
        assert feasible_c3_lattice(3, 0, 20) == 4
        feasible = [
            k for k in range(-20, 21) if is_feasible(ChernVector(3, 5, (3, 0, k)))
        ]
        assert feasible == [k for k in range(-20, 21) if k % 4 == 0]

    def test_base_0_0(self):
        assert feasible_c3_lattice(0, 0, 12) == 8

    def test_base_1_0(self):
        assert feasible_c3_lattice(1, 0, 24) == 12

    def test_spacing_divides_every_feasible_value(self):
        d = feasible_c3_lattice(0, 3, 24)
        assert d == 4
        for k in range(-24, 25):
            if is_feasible(ChernVector(3, 5, (0, 3, k))):
                assert k % d == 0

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
                with pytest.raises(ConsistencyError):
                    feasible_c3_lattice(c1, c2, d - 1)
        assert bases == 117
        assert spacings == {4, 8, 12, 24}

    def test_scan_too_small_fails_loudly(self):
        # base (2, 0) has spacing 24: a narrower window sees only c3 = 0
        with pytest.raises(ConsistencyError):
            feasible_c3_lattice(2, 0, 20)
        assert feasible_c3_lattice(2, 0, 24) == 24


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
        bases = 0
        for c1 in range(-40, 41):
            for c2 in range(-40, 41):
                if not is_feasible(ChernVector(3, 5, (c1, c2, 0))):
                    continue
                bases += 1
                d8 = 8 if self._mod_8_entry(c1, c2) == {0} else 4
                d3 = 1 if c1 % 3 == 0 and c2 % 3 == 0 else 3
                g = make_group(c1, c2, 24)
                assert g.c3_generator == d8 * d3
                assert (g.kernel_kind == KERNEL_Z3) == (d3 == 1)
        assert bases == 2208

class TestValidation:
    def test_chern_vector_shape(self):
        with pytest.raises(DomainError):
            ChernVector(2, 3, (1,))
        with pytest.raises(DomainError):
            ChernVector(0, 3, ())
        with pytest.raises(DomainError):
            ChernVector(1, 3, (Fraction(1, 2),))
        with pytest.raises(DomainError):
            ChernVector(1, MAX_DIM + 1, (1,))
        assert is_feasible(ChernVector(1, MAX_DIM, (1,)))

    def test_twist_must_be_integer(self):
        with pytest.raises(DomainError):
            euler_characteristic(ChernVector(1, 2, (1,)), Fraction(1, 2))
