"""Tests for rank-2 classes, their group laws, and the generation search.

The oracles use ``bench/oracle.py``'s rank-2 formulas, not the laws they
check: ``alpha_balanced`` for the alpha rule; ``split2``, ``twist2``,
``horrocks2`` and ``realizable_classes`` for the object-based closure;
``evaluate_witness`` for the closure's witnesses.
"""

import hashlib
import heapq
import itertools
import math
import random
import time
from functools import lru_cache

import pytest

import oracle
from bundle_arith import rank2
from bundle_arith.errors import (
    DomainError,
    FormulaNotApplicableError,
    HorrocksUndefinedError,
)
from bundle_arith.rank2 import (
    MAX_SEARCH_EXTENT,
    GenerationReport,
    GroupDescriptorA1,
    Rank2BundleClass,
    ReachedClass,
    add,
    add_shifted,
    agreement_check,
    agreement_sweep,
    alpha_balanced_split,
    alpha_extendable,
    count_classes,
    delta,
    epsilon,
    generation_closure,
    horrocks_sum,
    negate,
    split_rank2,
    tensor_line,
)


class TestEpsilon:
    @pytest.mark.parametrize("a,expected", [(4, 1), (0, 0), (-4, 1), (12, 1), (8, 0), (-12, 1), (2, 0)])
    def test_values(self, a, expected):
        assert epsilon(a) == expected

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            epsilon(3)


class TestDelta:
    @pytest.mark.parametrize("c1,c2,expected", [(0, -4, 4), (2, 1, 0), (6, 5, 4), (0, -9, 9)])
    def test_values(self, c1, c2, expected):
        assert delta(c1, c2) == expected

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            delta(1, 1)


class TestAlphaFormulas:
    def test_balanced_pair_cases(self):
        # Delta = b^2: 1 exactly when b = 2 (mod 4)
        assert alpha_extendable(0, -4) == 1
        assert alpha_extendable(0, 0) == 0
        assert alpha_extendable(0, -16) == 0
        assert alpha_extendable(0, -9) == 0

    def test_not_applicable_is_distinct_from_domain_error(self):
        # Delta = 2 gives Delta(Delta-1) = 2, not divisible by 12
        with pytest.raises(FormulaNotApplicableError):
            alpha_extendable(0, -2)
        # odd c1 is a plain domain error, not the formula's own subclass
        with pytest.raises(DomainError) as info:
            alpha_extendable(1, 0)
        assert not isinstance(info.value, FormulaNotApplicableError)

    def test_divisibility_route_matches_case_rule(self):
        for b in range(-100, 101):
            assert alpha_balanced_split(b) == oracle.alpha_balanced(b)

    def test_two_routes_agree_on_all_even_splits(self):
        for x in range(-50, 51):
            for y in range(-50, 51):
                if (x + y) % 2:
                    continue
                b = (x - y) // 2
                assert alpha_extendable(x + y, x * y) == oracle.alpha_balanced(b)


class TestSplitAndClassValidation:
    def test_split_examples(self):
        assert split_rank2(2, -2) == Rank2BundleClass(0, -4, 1)
        assert split_rank2(0, 0) == Rank2BundleClass(0, 0, 0)
        assert split_rank2(3, 0) == Rank2BundleClass(3, 0)

    def test_unrealizable_pair_rejected(self):
        with pytest.raises(DomainError):
            Rank2BundleClass(1, 1)


def _random_class(rng, a1, r):
    """A seeded class over a1: c2 from -r..r (doubled at odd a1), then alpha at even a1."""
    c2 = rng.randint(-r, r) * (2 if a1 % 2 else 1)
    return Rank2BundleClass(a1, c2) if a1 % 2 else Rank2BundleClass(a1, c2, rng.randint(0, 1))


class TestPlainGroup:
    def test_identity_alpha_is_epsilon(self):
        for a1 in range(-4000, 4001, 2):
            assert GroupDescriptorA1(a1).identity.alpha == epsilon(a1), a1

    def test_identity_alpha_is_epsilon_for_every_even_a1(self):
        # The plain identity O(2n) + O has delta = n^2, so its alpha is
        # f(n)/12 mod 2 with f(n) = n^2 (n^2 - 1), and epsilon(2n) is
        # [n = 2 (mod 4)].  f(n + 24) - f(n) has integer coefficients all
        # divisible by 24, and 12 divides f(n), so alpha depends only on
        # n mod 24, as epsilon does; 24 residues then prove the equality.
        f = (0, 0, -1, 0, 1)  # coefficients of f, lowest degree first
        shift = [sum(f[j] * math.comb(j, k) * 24 ** (j - k) for j in range(k, 5)) - f[k]
                 for k in range(5)]
        assert all(c % 24 == 0 for c in shift)
        for n in range(24):
            assert (n * n * (n * n - 1)) % 12 == 0
            assert GroupDescriptorA1(2 * n).identity.alpha == epsilon(2 * n), n

    def test_identity_axiom(self):
        rng = random.Random(3)
        for _ in range(50):
            a1 = rng.randint(-10, 10)
            g = GroupDescriptorA1(a1)
            v = _random_class(rng, a1, 20)
            assert add(g, v, g.identity) == v

    def test_add_examples(self):
        g0 = GroupDescriptorA1(0)
        assert add(g0, split_rank2(1, -1), split_rank2(2, -2)) == Rank2BundleClass(0, -5, 1)
        g4 = GroupDescriptorA1(4)
        assert add(g4, split_rank2(2, 2), split_rank2(2, 2)) == Rank2BundleClass(4, 8, 1)

    def test_c2_is_additive(self):
        rng = random.Random(5)
        for _ in range(200):
            a1 = rng.randint(-10, 10)
            g = GroupDescriptorA1(a1)
            v, w = (_random_class(rng, a1, 30) for _ in range(2))
            assert add(g, v, w).c2 == v.c2 + w.c2

    def test_alpha_additive_at_zero(self):
        g = GroupDescriptorA1(0)
        for av in (0, 1):
            for aw in (0, 1):
                v = Rank2BundleClass(0, 3, av)
                w = Rank2BundleClass(0, -8, aw)
                assert add(g, v, w).alpha == (av + aw) % 2

    def test_negate_examples(self):
        g = GroupDescriptorA1(0)
        assert negate(g, g.identity) == g.identity
        assert negate(g, Rank2BundleClass(0, 5, 1)) == Rank2BundleClass(0, -5, 1)

    def test_inverse_axiom(self):
        rng = random.Random(9)
        for _ in range(50):
            a1 = rng.randint(-10, 10)
            g = GroupDescriptorA1(a1)
            v = _random_class(rng, a1, 40)
            assert add(g, v, negate(g, v)) == g.identity

    def test_c1_mismatch_rejected(self):
        g = GroupDescriptorA1(0)
        with pytest.raises(DomainError):
            add(g, split_rank2(1, 1), split_rank2(0, 0))

    @pytest.mark.parametrize(
        "v,w,message",
        [
            ((2, 1, 0), (-2, 4, 1), "class has c1 = 2, expected a1 = -2"),
            ((-2, 4, 1), (-3, 0, None), "class has c1 = -3, expected a1 = -2"),
            ((2, 1, 0), (-3, 0, None), "class has c1 = 2, expected a1 = -2"),
        ],
        ids=["v", "w", "both-names-v"],
    )
    def test_non_member_message(self, v, w, message):
        g = GroupDescriptorA1(-2, 1)
        v, w = Rank2BundleClass(*v), Rank2BundleClass(*w)
        with pytest.raises(DomainError) as info:
            add(g, v, w)
        assert str(info.value) == message
        if v.c1 != g.a1:
            with pytest.raises(DomainError) as info:
                negate(g, v)
            assert str(info.value) == message


class TestSingleDescriptor:
    def test_default_shift_is_zero(self):
        rng = random.Random(31)
        for a1 in range(-10, 11):
            plain = GroupDescriptorA1(a1)
            zero = GroupDescriptorA1(a1, 0)
            assert plain == zero
            assert hash(plain) == hash(zero)
            assert plain.b == 0
            assert plain.identity == zero.identity == split_rank2(a1, 0)

            for _ in range(5):
                v, w = (_random_class(rng, a1, 30) for _ in range(2))
                assert add(plain, v, w) == add(zero, v, w)
                assert negate(plain, v) == negate(zero, v)

    @pytest.mark.parametrize("b", [None, 1.5])
    def test_non_integer_shift_rejected(self, b):
        with pytest.raises(DomainError):
            GroupDescriptorA1(0, b)


class TestShiftedGroup:
    def test_identity(self):
        rng = random.Random(17)
        for _ in range(60):
            a1 = rng.randint(-10, 10)
            b = rng.randint(-5, 5)
            g = GroupDescriptorA1(a1, b)
            assert g.identity == split_rank2(a1 - b, b)
            v = _random_class(rng, a1, 20)
            assert add_shifted(g, v, g.identity) == v

    def test_zero_shift_reduces_to_plain(self):
        plain = GroupDescriptorA1(6)
        shifted = GroupDescriptorA1(6, 0)
        v = Rank2BundleClass(6, 4, 1)
        w = Rank2BundleClass(6, -3, 0)
        assert add_shifted(shifted, v, w) == add(plain, v, w)

    def test_mixed_associativity(self):
        rng = random.Random(23)
        for _ in range(120):
            a1 = rng.randint(-10, 10)
            b = rng.randint(-5, 5)
            plain = GroupDescriptorA1(a1)
            shifted = GroupDescriptorA1(a1, b)
            v, w, z = (_random_class(rng, a1, 30) for _ in range(3))
            lhs = add_shifted(shifted, add(plain, v, w), z)
            rhs = add(plain, v, add_shifted(shifted, w, z))
            assert lhs == rhs

    def test_add_shifted_is_add(self):
        # b = 0 included: add_shifted is add under its older name
        v = Rank2BundleClass(0, 3, 1)
        w = Rank2BundleClass(0, -7, 0)
        for b in range(-5, 6):
            g = GroupDescriptorA1(0, b)
            assert add_shifted(g, v, w) == add(g, v, w)
            assert add_shifted(g, w, v) == add(g, w, v)

    def test_negate_is_plain_e_plus_e_minus_x(self):
        rng = random.Random(29)
        for _ in range(300):
            a1 = rng.randint(-12, 12)
            g = GroupDescriptorA1(a1, rng.randint(-6, 6))
            plain = GroupDescriptorA1(a1)
            x = _random_class(rng, a1, 40)
            e = g.identity
            assert negate(g, x) == add(plain, add(plain, e, e), negate(plain, x))
            assert add(g, x, negate(g, x)) == g.identity


class TestHorrocksSum:
    def test_alpha_flips_at_minus_four(self):
        v = Rank2BundleClass(-4, 1, 0)
        w = Rank2BundleClass(-4, 2, 0)
        assert horrocks_sum(v, w) == Rank2BundleClass(-4, 3, 1)

    def test_alpha_adds_at_minus_two(self):
        v = Rank2BundleClass(-2, 1, 1)
        w = Rank2BundleClass(-2, 0, 0)
        assert horrocks_sum(v, w) == Rank2BundleClass(-2, 1, 1)

    def test_odd_c1_only_adds_c2(self):
        v = Rank2BundleClass(-1, 2)
        w = Rank2BundleClass(-1, 4)
        assert horrocks_sum(v, w) == Rank2BundleClass(-1, 6)

    def test_positive_c1_undefined(self):
        v = Rank2BundleClass(2, 1, 0)
        with pytest.raises(HorrocksUndefinedError):
            horrocks_sum(v, v)

    def test_dedicated_errors_are_domain_errors(self):
        # one error type for bad input: the CLI catches DomainError alone
        assert issubclass(HorrocksUndefinedError, DomainError)
        assert issubclass(FormulaNotApplicableError, DomainError)

    def test_mismatched_c1_is_domain_error(self):
        with pytest.raises(DomainError):
            horrocks_sum(Rank2BundleClass(0, 0, 0), Rank2BundleClass(-2, 0, 0))


class TestAgreement:
    def test_desk_scale_sweep(self):
        for c1 in range(0, -17, -2):
            classes = [
                Rank2BundleClass(c1, c2, a) for c2 in range(-4, 5) for a in (0, 1)
            ]
            for v in classes:
                for w in classes:
                    assert agreement_check(v, w)

    def test_closed_form_matches_literal_sweep(self):
        # c1_min in {0, -2, ..., -24}: each c1 extends the previous sweep's pairs
        for c2_bound in range(6):
            cases = 0
            all_agree = True
            for c1_min in range(0, -25, -2):
                classes = [
                    Rank2BundleClass(c1_min, c2, a)
                    for c2 in range(-c2_bound, c2_bound + 1)
                    for a in (0, 1)
                ]
                for v in classes:
                    for w in classes:
                        cases += 1
                        all_agree = agreement_check(v, w) and all_agree
                rule = all(
                    epsilon(-2 * n) == oracle.alpha_balanced(n)
                    for n in range(-c1_min // 2 + 1)
                )
                expected = (cases, all_agree, rule)
                assert agreement_sweep(c1_min, c2_bound) == expected

    def test_sweep_answers_huge_bounds(self):
        # (-c1_min/2 + 1) (4 c2_bound + 2)^2 pairs; the CLI default is 37,044
        assert agreement_sweep(-40, 10) == (37044, True, True)
        start = time.perf_counter()
        answer = agreement_sweep(-(10**6), 10**6)
        assert time.perf_counter() - start < 1.0
        assert answer == ((10**6 // 2 + 1) * (4 * 10**6 + 2) ** 2, True, True)

    def test_wrong_epsilon_breaks_agreement_and_rule(self, monkeypatch):
        # the Horrocks sum reads epsilon; the plain identity's alpha and the rule's
        # divisibility route do not, so each wrong residue of n mod 4 shows twice
        right = rank2.epsilon
        for r in range(4):
            monkeypatch.setattr(rank2, "epsilon", lambda a, r=r: right(a) ^ ((-a // 2) % 4 == r))
            assert agreement_sweep(-40, 10) == (37044, False, False), r

    def test_wrong_divisibility_route_breaks_rule(self, monkeypatch):
        right = rank2.alpha_balanced_split
        monkeypatch.setattr(rank2, "alpha_balanced_split", lambda b: 1 - right(b))
        assert agreement_sweep(-40, 10) == (37044, True, False)

    def test_minus_four_both_give_alpha_one(self):
        v = Rank2BundleClass(-4, 0, 0)
        w = Rank2BundleClass(-4, 2, 0)
        assert horrocks_sum(v, w).alpha == 1
        assert add(GroupDescriptorA1(-4), v, w).alpha == 1
        assert agreement_check(v, w)

    def test_zero_is_purely_additive(self):
        v = Rank2BundleClass(0, 5, 1)
        w = Rank2BundleClass(0, -2, 1)
        assert horrocks_sum(v, w).alpha == 0
        assert agreement_check(v, w)

    def test_odd_case(self):
        assert agreement_check(Rank2BundleClass(-3, 2), Rank2BundleClass(-3, 4))


class TestTensorLine:
    def test_matches_split_shift(self):
        for x in range(-10, 11):
            for y in range(-10, 11):
                for k in range(-10, 11):
                    assert tensor_line(split_rank2(x, y), k) == split_rank2(x + k, y + k)

    def test_zero_twist_is_identity(self):
        v = Rank2BundleClass(-4, 7, 1)
        assert tensor_line(v, 0) == v

    def test_composition(self):
        v = Rank2BundleClass(1, 6)
        for j in range(-4, 5):
            for k in range(-4, 5):
                assert tensor_line(tensor_line(v, j), k) == tensor_line(v, j + k)

    def test_twist_keeps_discriminant_and_composes_on_a_grid(self):
        # Each side is a polynomial of degree <= 2 in every variable, so three
        # points per axis prove both identities for all integers (Alon 1999,
        # Lemma 2.1); the fourth point is a spare.  The closure keys its twist
        # orbits by (c1^2 - 4 c2, alpha) on the strength of this.
        for c1, c2, j, k in itertools.product(range(4), repeat=4):
            t1, t2 = rank2._twist(c1, c2, j)
            assert t1 * t1 - 4 * t2 == c1 * c1 - 4 * c2
            assert rank2._twist(t1, t2, k) == rank2._twist(c1, c2, j + k)

    def test_twist_shifts_a_splits_twists_on_a_grid(self):
        # O(x) + O(y) tensored with O(k) is O(x + k) + O(y + k).  Both sides
        # have degree <= 2 in x, y and k, so three points per axis prove it for
        # all integers (Alon 1999, Lemma 2.1); the fourth point is a spare.
        for x, y, k in itertools.product(range(4), repeat=3):
            assert rank2._twist(x + y, x * y, k) == (x + y + 2 * k, (x + k) * (y + k))

    def test_alpha_preserved_under_normalization(self):
        assert split_rank2(3, -1).alpha == 1
        assert tensor_line(split_rank2(3, -1), -1) == split_rank2(2, -2)
        assert split_rank2(2, -2).alpha == 1


class TestCountClasses:
    @pytest.mark.parametrize(
        "c1,c2,expected", [(0, 0, 2), (1, 2, 1), (1, 1, 0), (-4, 7, 2), (3, 5, 0)]
    )
    def test_values(self, c1, c2, expected):
        assert count_classes(c1, c2) == expected


class TestGenerationClosure:
    def test_splits_reached_at_cost_zero(self):
        report = generation_closure(-2, 0, 4, -2, 0, 4)
        by_class = {r.cls: r for r in report.reached}
        for x, y in [(0, 0), (1, -1), (-2, 0), (0, -2), (-1, -1)]:
            cls = split_rank2(x, y)
            assert by_class[cls].cost == 0
            assert by_class[cls].witness.startswith("split(")

    def test_every_class_at_c1_zero_reached(self):
        report = generation_closure(0, 0, 10, -4, 0, 16)
        assert report.all_reached
        assert len(report.reached) == 42  # 21 values of c2, two alphas each

    def test_nonsplit_partner_of_identity_at_minus_four(self):
        # split(-4, 0) carries alpha = 1; its partner needs Horrocks sums
        report = generation_closure(-4, -4, 0, -4, -4, 10)
        by_class = {r.cls: r for r in report.reached}
        partner = Rank2BundleClass(-4, 0, 0)
        assert partner in by_class
        witness = by_class[partner]
        assert "horrocks(" in witness.witness
        assert witness.cost == 4
        assert by_class[Rank2BundleClass(-4, 0, 1)].cost == 0

    def test_unreached_classes_are_reported_not_raised(self):
        # a tiny search box cannot build positive c2 at c1 = 0
        report = generation_closure(0, 0, 2, 0, 0, 2)
        assert not report.all_reached
        reached = {r.cls for r in report.reached}
        assert Rank2BundleClass(0, 0, 0) in reached
        assert Rank2BundleClass(0, 2, 0) in set(report.unreached)

    def test_search_box_must_contain_report_box(self):
        with pytest.raises(DomainError):
            generation_closure(-4, 0, 8, -4, 0, 2)

    def test_search_box_cap(self):
        # the doubled acceptance box, c1 in [-24, 0] with |c2| <= 32, is under the cap
        assert generation_closure(-12, 0, 16, -24, 0, 32).all_reached
        over_cap = MAX_SEARCH_EXTENT - 24 + 1
        for box in ((-12, 0, 16, -24, 0, over_cap), (-(10**6), 0, 0, -(10**6), 0, 0)):
            with pytest.raises(DomainError, match="exceeds"):
                generation_closure(*box)

    def test_deterministic(self):
        a = generation_closure(-4, 0, 6, -8, 0, 10)
        b = generation_closure(-4, 0, 6, -8, 0, 10)
        assert a == b


@lru_cache(maxsize=None)
def _object_search(s1min, s1max, s2):
    """The heap-ordered uniform-cost search of the closure, kept as an oracle.

    Its classes are (c1, c2, alpha) tuples from ``oracle.split2``,
    ``oracle.twist2`` and ``oracle.horrocks2``.  Returns the settled classes,
    in settling order, with their cost and witness.  Cached per search box:
    boxes sharing one search the same.
    """
    xb = max(abs(s1min), abs(s1max)) + s2
    heap = []

    def push(cost, expr, cls):
        c1, c2, alpha = cls
        heapq.heappush(heap, (cost, c1, c2, -1 if alpha is None else alpha, expr, cls))

    for x in range(-xb, xb + 1):
        for y in range(x, xb + 1):
            if s1min <= x + y <= s1max and abs(x * y) <= s2:
                push(0, f"split({x},{y})", oracle.split2(x, y))

    settled = {}
    peers_by_c1 = {}
    while heap:
        cost, c1, _c2, _a, expr, cls = heapq.heappop(heap)
        if cls in settled:
            continue
        settled[cls] = (cost, expr)
        peers = peers_by_c1.setdefault(c1, [])
        peers.append((cls, cost, expr))

        for k in range(-((c1 - s1min) // 2), (s1max - c1) // 2 + 1):
            twisted = oracle.twist2(cls, k)
            if k and abs(twisted[1]) <= s2 and twisted not in settled:
                push(cost + 1, f"tensor({expr}, {k})", twisted)

        if c1 <= 0:
            for other, other_cost, other_expr in peers:
                combined = oracle.horrocks2(cls, other)
                if abs(combined[1]) <= s2 and combined not in settled:
                    first, second = sorted((expr, other_expr))
                    push(cost + other_cost + 1, f"horrocks({first}, {second})", combined)
    return settled


def _object_closure(c1_min, c1_max, c2_bound, s1min, s1max, s2):
    """generation_closure by the object search: the oracle for the int search.

    Sorting ``oracle.realizable_classes`` gives the library's class order;
    the value classes are built only for the comparison.
    """
    settled = _object_search(s1min, s1max, s2)
    reached, unreached = [], []
    for c1, c2, alpha in sorted(oracle.realizable_classes(c1_min, c1_max, c2_bound)):
        cls = Rank2BundleClass(c1, c2, alpha)
        if (c1, c2, alpha) in settled:
            reached.append(ReachedClass(cls, *settled[c1, c2, alpha]))
        else:
            unreached.append(cls)
    return GenerationReport(tuple(reached), tuple(unreached), len(settled))


# Odd and positive c1, unreached classes, and the doubled box at two report sizes
ORACLE_BOXES = [
    (-6, 0, 8, -12, 0, 16),
    (-12, 0, 16, -24, 0, 32),
    (-3, 3, 4, -9, 5, 10),
    (0, 0, 2, 0, 0, 2),
    (-4, -4, 0, -4, -4, 10),
    (5, 9, 6, 1, 15, 12),
    (-24, 0, 32, -24, 0, 32),
    (0, 6, 5, -3, 8, 12),
]


@pytest.mark.parametrize("box", ORACLE_BOXES, ids=str)
def test_closure_matches_object_oracle(box):
    # classes, costs, witness strings, unreached classes and the states count
    assert generation_closure(*box) == _object_closure(*box)


def _random_small_boxes(seed, count, extent):
    """Seeded report and search boxes with max|c1| + c2 bound <= extent."""
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        s1min = rng.randint(-extent + 4, 3)
        s1max = rng.randint(s1min, 8)
        room = extent - max(abs(s1min), abs(s1max))
        s2 = rng.randint(room // 2, room)
        c1_min = rng.randint(s1min, s1max)
        c1_max = rng.randint(c1_min, s1max)
        boxes.append((c1_min, c1_max, rng.randint(0, s2), s1min, s1max, s2))
    return boxes


def test_closure_matches_object_oracle_on_random_small_boxes():
    # At this size equal-cost offers often meet at one class: a search that
    # kept the first of them instead of the smallest witness fails 18 boxes.
    boxes = _random_small_boxes(2024, 40, 16)
    assert any(c1 % 2 for b in boxes for c1 in range(b[0], b[1] + 1))
    assert any(b[1] > 0 for b in boxes)
    assert any(b[:3] != b[3:] for b in boxes)  # report box strictly inside
    for box in boxes:
        assert max(abs(box[3]), abs(box[4])) + box[5] <= 16
        assert generation_closure(*box) == _object_closure(*box), box


def test_wrong_epsilon_separates_closure_from_object_oracle(monkeypatch):
    # the object oracle adds Horrocks' correction by oracle.horrocks2, so a
    # wrong rank2.epsilon moves the closure's alphas and not the oracle's
    monkeypatch.setattr(rank2, "epsilon", lambda a: 1 if a % 8 == 0 else 0)
    _object_search.cache_clear()  # a search cached before the patch would hide a dependence
    box = ORACLE_BOXES[0]
    assert generation_closure(*box) != _object_closure(*box)


def test_doubled_box_witnesses_evaluate_to_their_classes():
    # independent of the search and of the library: each witness, evaluated
    # by the split, twist and Horrocks formulas of bench/oracle.py, lands on
    # its class at its stated cost
    report = generation_closure(-24, 0, 32, -24, 0, 32)
    assert report.all_reached and len(report.reached) == 2086
    for r in report.reached:
        cls = (r.cls.c1, r.cls.c2, r.cls.alpha)
        assert oracle.evaluate_witness(r.witness) == (cls, r.cost), r.witness


def test_twist_loops_run_once_per_orbit_level(record_calls):
    # Only the cheapest members of a twist orbit run the twist loop: a dearer
    # member's offers reach the same classes one step dearer.  Every search
    # state is reached here, so the report gives the count: 11,887 calls,
    # against 26,722 with a twist loop for every state.
    calls = record_calls(rank2, "_twist")
    s1min, s1max = -24, 0
    report = generation_closure(-24, 0, 32, s1min, s1max, 32)

    def orbit(r):
        return r.cls.c1 * r.cls.c1 - 4 * r.cls.c2, r.cls.alpha or 0

    least = {}
    for r in report.reached:
        least[orbit(r)] = min(least.get(orbit(r), r.cost), r.cost)
    assert len(calls) == sum(
        (s1max - r.cls.c1) // 2 + (r.cls.c1 - s1min) // 2 + 1
        for r in report.reached
        if r.cost == least[orbit(r)]
    )


# Cap-sized search boxes, too slow for the object oracle in tier-1 (1.2-1.4 s
# on the first): the SHA-256 of the report's repr and its states count, as the
# heap-ordered search and the object oracle both compute them.
CAP_SHAPES = [
    ((-22, 22, 44, -22, 22, 44), 5084,
     "7f07a862ef40ac8e44efd3f3d5c4dc6616649e2cbffe49d03b81613c28be7735"),
    ((-33, 0, 33, -33, 0, 33), 2823,
     "a3a2fdd30eb4d0ba69ebb7b5d58e727557cdff6e1e2631cbc9f62f05b2e8c024"),
    ((-30, 30, 36, -30, 30, 36), 5636,
     "c48d0dad932b462d096b46ab714baa9083a6b292f9b09534c43eeea2f0507669"),
]


@pytest.mark.parametrize("box, searched, digest", CAP_SHAPES, ids=[str(s[0]) for s in CAP_SHAPES])
def test_cap_shapes_pinned(box, searched, digest):
    report = generation_closure(*box)
    assert report.searched == searched
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest
