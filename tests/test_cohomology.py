"""Tests for the truncated-series engine and the feasibility predicate."""

import math
import random
from fractions import Fraction

import pytest

from bundle_arith.cohomology import (
    ChernVector,
    TruncatedSeries,
    chern_character,
    euler_characteristic,
    feasible_c3_lattice,
    is_feasible,
    split_chern_vector,
    todd_class,
)
from bundle_arith.errors import ConsistencyError, DomainError


def series(cap, *coeffs):
    padded = tuple(coeffs) + (0,) * (cap + 1 - len(coeffs))
    return TruncatedSeries(cap, padded)


class TestSeries:
    def test_difference_of_squares(self):
        product = series(3, 1, 1) * series(3, 1, -1)
        assert product == series(3, 1, 0, -1)

    def test_one_is_neutral(self):
        s = series(4, 3, Fraction(1, 2), 0, -7, 2)
        assert s * TruncatedSeries.constant(4) == s

    def test_truncation_drops_high_degrees(self):
        product = series(2, 1, 1, 1) * series(2, 1, 1)
        assert product == series(2, 1, 2, 2)

    def test_cap_mismatch_rejected(self):
        with pytest.raises(DomainError):
            series(2, 1) * series(3, 1)

    def test_float_coefficients_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries(1, (1.0, 2))

    def test_inverse_roundtrip(self):
        s = series(5, 1, 2, Fraction(-1, 3), 0, 4, 1)
        assert s * s.inverse() == TruncatedSeries.constant(5)

    def test_inverse_needs_unit(self):
        with pytest.raises(DomainError):
            series(2, 0, 1).inverse()

    def test_exponential_sums_exponents(self):
        a = TruncatedSeries.exponential(6, 2)
        b = TruncatedSeries.exponential(6, 3)
        assert a * b == TruncatedSeries.exponential(6, 5)


class TestToddClass:
    def test_line(self):
        assert todd_class(1) == series(1, 1, 1)

    def test_three_space(self):
        assert todd_class(3) == series(3, 1, 2, Fraction(11, 6), 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unit_leading_term(self, n):
        assert todd_class(n).coeffs[0] == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structure_sheaf_has_unit_characteristic(self, n):
        # equivalent to the top Todd coefficient carrying chi(O) = 1
        assert euler_characteristic(ChernVector(1, n, (0,)), 0) == 1


class TestChernCharacter:
    def test_line_bundle_is_exponential(self):
        for a in range(-6, 7):
            v = ChernVector(1, 3, (a,))
            assert chern_character(v) == TruncatedSeries.exponential(3, a)

    def test_rank2_closed_form(self):
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                got = chern_character(ChernVector(2, 3, (c1, c2)))
                expected = series(
                    3,
                    2,
                    c1,
                    Fraction(c1 * c1 - 2 * c2, 2),
                    Fraction(c1**3 - 3 * c1 * c2, 6),
                )
                assert got == expected

    def test_split_example_on_five_space(self):
        v = split_chern_vector(5, (2, -1, 2))
        assert v == ChernVector(3, 5, (3, 0, -4))
        expected = TruncatedSeries(
            5,
            tuple(
                sum(Fraction(t**k, math.factorial(k)) for t in (2, -1, 2))
                for k in range(6)
            ),
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
            assert got.coeffs == oracle


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


class TestValidation:
    def test_chern_vector_shape(self):
        with pytest.raises(DomainError):
            ChernVector(2, 3, (1,))
        with pytest.raises(DomainError):
            ChernVector(0, 3, ())
        with pytest.raises(DomainError):
            ChernVector(1, 3, (Fraction(1, 2),))

    def test_twist_must_be_integer(self):
        with pytest.raises(DomainError):
            euler_characteristic(ChernVector(1, 2, (1,)), Fraction(1, 2))
