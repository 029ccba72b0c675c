"""Pins for the benchmark's oracle: ``python3 -m unittest discover -s bench``."""

import math
import random
import unittest
from fractions import Fraction

import oracle
import workloads


class RiemannRoch(unittest.TestCase):
    def test_line_bundles_count_monomials(self):
        for n in range(1, 7):
            for d in range(0, 9):
                self.assertEqual(oracle.chi(1, n, (d,)), math.comb(n + d, n))

    def test_todd_class_of_cp3(self):
        self.assertEqual(oracle.todd_coefficients(3), (1, 2, Fraction(11, 6), 1))

    def test_readme_certificate(self):
        # split classes (3,0,0) and (3,0,-4): chi 138 and 113 at twist 1,
        # slope 25/4 per unit of c3, so c3 = 2 would give 301/2
        self.assertEqual(oracle.chi(3, 5, (3, 0, 0), 1), 138)
        self.assertEqual(oracle.chi(3, 5, (3, 0, -4), 1), 113)
        self.assertEqual(oracle.chi(3, 5, (3, 0, 2), 1), Fraction(301, 2))
        self.assertEqual(oracle.c3_spacing(3, 0), 4)
        self.assertEqual(oracle.subgroup_index(3, 0, -4), 3)

    def test_split_bundles_add_line_bundle_counts(self):
        rng = random.Random(7)
        for _ in range(200):
            twists = [rng.randint(-2, 9) for _ in range(3)]
            c = oracle.symmetric3(*twists)
            self.assertTrue(oracle.feasible(3, 5, c))
            self.assertEqual(oracle.chi(3, 5, c, 2), sum(math.comb(7 + t, 5) for t in twists))

    def test_rank2_feasibility_is_the_parity_rule(self):
        for c1 in range(-12, 13):
            for c2 in range(-12, 13):
                self.assertEqual(oracle.feasible(2, 3, (c1, c2)), oracle.rank2_realizable(c1, c2))


class Rank2(unittest.TestCase):
    def test_alpha_mod4_rule_matches_discriminant_formula(self):
        for x in range(-20, 21):
            for y in range(-20, 21):
                if (x + y) % 2 == 0:
                    d = ((x - y) // 2) ** 2
                    self.assertEqual(oracle.split2(x, y)[2], (d * (d - 1) // 12) % 2)

    def test_witness_evaluation(self):
        cls, cost = oracle.evaluate_witness("horrocks(tensor(split(-3,1), -1), split(-2,-2))")
        inner = oracle.twist2(oracle.split2(-3, 1), -1)
        self.assertEqual(cls, oracle.horrocks2(inner, oracle.split2(-2, -2)))
        self.assertEqual(cost, 2)


class Rank3(unittest.TestCase):
    def test_primality_against_trial_division(self):
        for n in range(-3, 5000):
            slow = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
            self.assertEqual(oracle.is_prime(n), slow)
        self.assertEqual(oracle.next_prime(12), 13)

    def test_constructed_split_answers(self):
        rng = random.Random(11)
        for i in range(40):
            chern, answer = workloads.split_case(rng, i, 10**6)
            self.assertEqual(oracle.split_roots_small(*chern), answer)


class Quadric(unittest.TestCase):
    def test_small_index_parameters(self):
        self.assertEqual(oracle.family1(u=1, v=1, l=0, w=1), (2, -1, 2, 3, 0))

    def test_families_solve_the_equations(self):
        rng = random.Random(3)
        for _ in range(200):
            x, y, z, a, b = oracle.family1(*(rng.randint(-4, 4) for _ in range(4)))
            self.assertEqual((x + y + z, x * y + y * z + z * x), (a + b, a * b))


if __name__ == "__main__":
    unittest.main()
