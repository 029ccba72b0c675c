"""Tests for the quadric parametrization of split elements.

The exhaustive searches that the library no longer runs serve as
oracles.  The enumeration is checked against the box^2 scan over (x, y)
in ``bench/oracle.py`` (``oracle.quadric_solutions``, in the order of
``oracle.canonical``).  The coverage report, where coverage_check now
solves each solution for its generators, is checked against two scans
kept here: one over all four family-1 parameters (u, v, l, w), the
definition, on small boxes, and one over every (u, v) solved for l on
the large seeded sweep.  Both take their points from ``oracle.family1``
and ``oracle.family2``, not from the library.  The quadric form Q and the
coordinate change onto it live here too, as the oracles for the family-1
derivation.
"""

import json
import random
import time
from itertools import permutations, product
from pathlib import Path

import pytest

import oracle
from bundle_arith import diophantine
from bundle_arith.cli import build_parser
from bundle_arith.diophantine import (
    BRUTE_FORCE,
    FAMILY1,
    FAMILY2,
    MAX_PARAM_BOUND,
    MAX_SCAN_RADIUS,
    CoverageReport,
    Provenance,
    QuadricSolution,
    brute_force_solutions,
    coverage_check,
    param_family1,
    param_family2,
)
from bundle_arith.errors import DomainError, require_int

GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")


def quadric_Q(a, b, c, d):
    """The quadric form c^2 + d^2 - bd - ac + cd."""
    return c * c + d * d - b * d - a * c + c * d


def solution_to_point(s):
    """The point (a, b, c, d) with c = a - x, d = b - y, checked to lie on Q = 0."""
    c = s.a - s.x
    d = s.b - s.y
    point = (s.a, s.b, c, d)
    assert s.z == c + d  # forced by the first symmetric equation
    assert any(point), "projective coordinates must not all vanish"
    assert quadric_Q(*point) == 0
    return point


def _coverage_scan(a, b, box, param_bound):
    """Matched (triple, kind, params) and unmatched triples, scanning (u, v, l, w).

    Both identity-type variants of ``oracle.family2`` are tried, then the
    first family-1 generator in (u, v, l, w) order is recorded for each
    triple, from one ``oracle.family1`` point per (u, v, l), scaled by w.
    """
    targets = sorted(oracle.quadric_solutions(a, b, box))
    matches = {}
    for t, l, variant in ((b, a, 1), (a, b, 2)):  # both variants lie over (a, b)
        if max(abs(t), abs(l)) <= param_bound:
            x, y, z, _, _ = oracle.family2(t, l, variant)
            matches.setdefault(oracle.canonical((x, y, z)), (FAMILY2, (t, l, variant)))
    span = range(-param_bound, param_bound + 1)
    if set(targets) - set(matches):
        for u, v, l in product(span, repeat=3):
            x0, y0, z0, a0, b0 = oracle.family1(u, v, l, 1)
            for w in span:
                if (w * a0, w * b0) in ((a, b), (b, a)):
                    key = oracle.canonical((w * x0, w * y0, w * z0))
                    matches.setdefault(key, (FAMILY1, (u, v, l, w)))
    matched = [(t, *matches[t]) for t in targets if t in matches]
    return matched, [t for t in targets if t not in matches]


def _uv_scan(a, b, box, param_bound):
    """Matched (triple, kind, params) and unmatched triples, scanning every (u, v).

    The identity-type match (``oracle.family2``) comes first.  Each (u, v)
    is then solved for the l its base allows,
    l (p u + q v) = q (u^2 + uv + v^2) for (p, q) = (a, b) or (b, a), and
    its ``oracle.family1`` point tried with at most two scales; the first
    generator in (u, v, l, w) order is recorded, and the scan stops once
    every triple has one.  The targets are the library's enumeration,
    checked by test_matches_box_scan.  It raises DomainError as
    coverage_check does.
    """
    require_int(param_bound, "param_bound", 0)
    if param_bound > MAX_PARAM_BOUND:
        raise DomainError(f"param_bound = {param_bound} exceeds {MAX_PARAM_BOUND}")
    targets = brute_force_solutions(a, b, box)
    if not targets:
        raise DomainError(f"no solution over ({a}, {b}) lies in box {box}")
    matches = {}
    if max(abs(a), abs(b)) <= param_bound:
        matches[oracle.canonical(oracle.family2(b, a, 1)[:3])] = (FAMILY2, (b, a, 1))

    wanted = {s.triple for s in targets} - set(matches)
    span = range(-param_bound, param_bound + 1)
    for u, v in product(span, repeat=2):
        if not wanted:
            break
        # w (a0, b0) = (p, q) with (a0, b0) = (A - v l, u l) forces l (p u + q v) = q A
        big_a = u * u + u * v + v * v
        ls = set()
        for p, q in ((a, b), (b, a)):
            c = p * u + q * v
            if c:
                l, r = divmod(q * big_a, c)
                if not r and abs(l) <= param_bound:
                    ls.add(l)
            elif not q * big_a:
                ls.update(span)
        for l in sorted(ls):
            x0, y0, z0, a0, b0 = oracle.family1(u, v, l, 1)
            if not (a0 or b0):
                continue  # the zero triple, matched above as the identity one
            for w in sorted({p // a0 if a0 else q // b0 for p, q in ((a, b), (b, a))}):
                if abs(w) <= param_bound and (w * a0, w * b0) in ((a, b), (b, a)):
                    key = oracle.canonical((w * x0, w * y0, w * z0))
                    if key in wanted:
                        matches[key] = (FAMILY1, (u, v, l, w))
                        wanted.discard(key)
    matched = [(s.triple, *matches[s.triple]) for s in targets if s.triple in matches]
    return matched, [s.triple for s in targets if s.triple not in matches]


class TestQuadricForm:
    def test_base_point(self):
        assert quadric_Q(1, 0, 0, 0) == 0

    def test_line_family(self):
        for t, l in [(5, 7), (1, 1), (-3, 4)]:
            assert quadric_Q(t, l, 0, l) == 0

    def test_generic_value(self):
        assert quadric_Q(1, 1, 1, 1) == 1


class TestSolutionToPoint:
    def test_small_index_data(self):
        s = QuadricSolution(2, -1, 2, 3, 0)
        assert solution_to_point(s) == (3, 0, 1, 1)
        assert quadric_Q(3, 0, 1, 1) == 0

    def test_line_family_image(self):
        for t, l in product(range(-6, 7), repeat=2):
            if t == 0 and l == 0:
                continue
            s = QuadricSolution(t, l, 0, l, t)
            assert solution_to_point(s) == (l, t, l - t, t - l)

    def test_identity_style_solutions(self):
        for a, b in [(3, 0), (2, 5), (-1, 4)]:
            s = QuadricSolution(a, b, 0, a, b)
            assert solution_to_point(s) == (a, b, 0, 0)

    def test_invariant_violation_rejected(self):
        with pytest.raises(DomainError):
            QuadricSolution(1, 1, 1, 1, 1)

    def test_round_trip_z_equals_c_plus_d(self):
        rng = random.Random(61)
        checked = 0
        while checked < 100:
            u, v, l, w = (rng.randint(-6, 6) for _ in range(4))
            s = param_family1(u, v, l, w)
            if not any((s.a, s.b, s.a - s.x, s.b - s.y)):
                continue  # the all-zero solution has no projective image
            _, _, c, d = solution_to_point(s)
            assert s.z == c + d
            checked += 1

    def test_zero_solution_has_no_projective_image(self):
        with pytest.raises(AssertionError, match="must not all vanish"):
            solution_to_point(param_family1(0, 0, 0, 0))


class TestParamFamily1:
    def test_small_index_parameters(self):
        s = param_family1(1, 1, 0, 1)
        assert (s.x, s.y, s.z, s.a, s.b) == (2, -1, 2, 3, 0)
        assert s.provenance == Provenance(FAMILY1, (1, 1, 0, 1))

    def test_zero_scale(self):
        s = param_family1(3, -2, 5, 0)
        assert (s.x, s.y, s.z, s.a, s.b) == (0, 0, 0, 0, 0)

    def test_unit_point(self):
        s = param_family1(1, 0, 0, 1)
        assert (s.x, s.y, s.z, s.a, s.b) == (0, 0, 1, 1, 0)

    def test_family1_point_identities_on_a_grid(self):
        # Scaled coordinates have degree <= 2 per variable, so {0..3}^4 proves
        # these relations for all integers with a spare point per axis, and
        # {0..4}^4 the equations, of degree <= 4 (Alon 1999, Lemma 2.1).  So a
        # coverage preimage's point is its solution, with z = c + d; at u = 0
        # it is (w v (v - l), 0, 0) over (w v (v - l), 0).
        for u, v, l, w in product(range(4), repeat=4):
            x, y, z, a, b = (w * t for t in diophantine._family1_point(u, v, l))
            assert (a - x, b, b - y, z, x) == (
                w * u * u, w * u * l, w * u * v, (a - x) + (b - y), w * v * (v + u - l)
            ), (u, v, l, w)
        for u, v, l, w in product(range(5), repeat=4):
            x, y, z, a, b = (w * t for t in diophantine._family1_point(u, v, l))
            assert x + y + z == a + b and x * y + y * z + z * x == a * b, (u, v, l, w)

    def test_equations_hold_identically(self):
        # construction re-checks both symmetric equations for every tuple
        for u, v, l, w in product(range(-10, 11), repeat=4):
            param_family1(u, v, l, w)


class TestParamFamily2:
    def test_example(self):
        first, second = param_family2(5, 7)
        assert (first.x, first.y, first.z, first.a, first.b) == (5, 7, 0, 7, 5)
        assert (second.x, second.y, second.z, second.a, second.b) == (5, 0, 7, 5, 7)

    def test_zero_parameters(self):
        first, second = param_family2(0, 0)
        assert first.triple == (0, 0, 0)
        assert second.triple == (0, 0, 0)

    def test_identity_type_everywhere(self):
        for t, l in product(range(-20, 21), repeat=2):
            for s in param_family2(t, l):
                assert s.x * s.y * s.z == 0


class TestLineSubstitutionIdentity:
    def test_polynomial_identity_on_grid(self):
        # Q(t, l s, u s, v s) = (u^2 + v^2 - l v + u v) s^2 - u t s.
        # Degrees per variable are at most (u:2, l:1, v:2, s:2, t:1), so
        # agreement on a grid one larger per variable proves the identity.
        for u in (0, 1, 2):
            for l in (0, 1):
                for v in (0, 1, 2):
                    for s in (0, 1, 2):
                        for t in (0, 1):
                            lhs = quadric_Q(t, l * s, u * s, v * s)
                            rhs = (u * u + v * v - l * v + u * v) * s * s - u * t * s
                            assert lhs == rhs

    def test_random_points(self):
        rng = random.Random(67)
        for _ in range(20):
            u, l, v, s, t = (rng.randint(-50, 50) for _ in range(5))
            lhs = quadric_Q(t, l * s, u * s, v * s)
            rhs = (u * u + v * v - l * v + u * v) * s * s - u * t * s
            assert lhs == rhs


class TestBruteForce:
    def test_base_3_0(self):
        canonical = [s.triple for s in brute_force_solutions(3, 0, 3)]
        assert canonical == [(2, 2, -1), (3, 0, 0)]
        raw = {s.triple for s in brute_force_solutions(3, 0, 3, include_permutations=True)}
        assert raw == set(permutations((2, 2, -1))) | set(permutations((3, 0, 0)))

    def test_base_0_0(self):
        assert [s.triple for s in brute_force_solutions(0, 0, 2)] == [(0, 0, 0)]

    def test_permutation_closed(self):
        for a, b in [(3, 0), (4, 1), (1, -2)]:
            raw = {s.triple for s in brute_force_solutions(a, b, 5, include_permutations=True)}
            for triple in raw:
                assert set(permutations(triple)) <= raw

    def test_all_solutions_validate(self):
        # QuadricSolution re-checks both equations on construction
        sols = brute_force_solutions(4, 1, 6)
        assert all(s.provenance.kind == BRUTE_FORCE for s in sols)

    def test_matches_box_scan(self):
        for a, b in product(range(-15, 16), repeat=2):
            for box in (0, 2, 6, 25):
                expected = oracle.quadric_solutions(a, b, box)
                sols = brute_force_solutions(a, b, box)
                assert [s.triple for s in sols] == sorted(expected)
                # the box and both equations are symmetric in (x, y, z)
                raw = {p for t in expected for p in permutations(t)}
                sols = brute_force_solutions(a, b, box, include_permutations=True)
                assert [s.triple for s in sols] == sorted(raw)

    def test_sphere_bound_answers_large_boxes(self):
        # x^2 + y^2 + z^2 = a^2 + b^2 bounds the scan, not the box
        start = time.perf_counter()
        sols = brute_force_solutions(3, 0, 10**18)
        assert [s.triple for s in sols] == [(2, 2, -1), (3, 0, 0)]
        big = brute_force_solutions(MAX_SCAN_RADIUS, 0, 10**18)
        assert oracle.canonical((MAX_SCAN_RADIUS, 0, 0)) in {s.triple for s in big}
        assert time.perf_counter() - start < 1.0

    def test_scan_radius_cap(self):
        with pytest.raises(DomainError, match=str(MAX_SCAN_RADIUS)):
            brute_force_solutions(MAX_SCAN_RADIUS + 1, 0, MAX_SCAN_RADIUS + 1)
        with pytest.raises(DomainError):
            brute_force_solutions(10**18, 10**18, 10**18)
        # a small box keeps the scan short whatever the base
        assert brute_force_solutions(10**18, 0, 5) == []


class TestCoverage:
    def test_small_index_box(self):
        report = coverage_check(3, 0, 3, 5)
        assert report.all_matched
        by_triple = {sol.triple: prov for sol, prov in report.matched}
        assert by_triple[(2, 2, -1)].kind == FAMILY1
        assert by_triple[(3, 0, 0)].kind == FAMILY2

    def test_family1_generator_reproduces_solution(self):
        report = coverage_check(3, 0, 3, 5)
        prov = dict((s.triple, p) for s, p in report.matched)[(2, 2, -1)]
        regenerated = param_family1(*prov.params)
        assert oracle.canonical(regenerated.triple) == (2, 2, -1)
        assert set(regenerated.base) == {3, 0}

    def test_identity_like_bases(self):
        for a, b in [(0, 0), (4, 1)]:
            report = coverage_check(a, b, 6, 12)
            assert report.all_matched
            assert report.match_rate == 1

    def test_unmatched_reported_not_raised(self):
        # with parameter bound 0 only the zero solution can be produced
        report = coverage_check(3, 0, 3, 0)
        assert not report.all_matched
        assert {s.triple for s in report.unmatched} == {(2, 2, -1), (3, 0, 0)}

    def test_matches_four_parameter_scan(self):
        for a, b in product(range(-6, 7), repeat=2):
            for box, bound in ((3, 3), (6, 5), (9, 6)):
                expected_matched, expected_unmatched = _coverage_scan(a, b, box, bound)
                if not expected_matched and not expected_unmatched:
                    with pytest.raises(DomainError, match="no solution"):
                        coverage_check(a, b, box, bound)
                    continue
                report = coverage_check(a, b, box, bound)
                matched = [(s.triple, p.kind, p.params) for s, p in report.matched]
                assert matched == expected_matched, (a, b, box, bound)
                assert [s.triple for s in report.unmatched] == expected_unmatched

    def test_matches_uv_scan_on_seeded_sweep(self):
        rng = random.Random(1)
        cases = [
            (rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(0, 30), rng.randint(0, 24))
            for _ in range(6000)
        ]
        cases += [(-34, -25, 40, MAX_PARAM_BOUND), (0, -31, 40, MAX_PARAM_BOUND)]
        cases += [(a, b, 6, bound)
                  for a, b in ((3, 0), (-3, -3), (4, -1), (0, 3)) for bound in (16, 20)]
        for case in json.loads(GOLDEN_CLI.read_text()):
            if case["argv"].startswith("quadric cover "):
                args = build_parser().parse_args(case["argv"].split())
                cases.append((args.a, args.b, args.box, args.param_bound))
        assert len(cases) == 6013
        solvable = u_zero_generators = 0
        for args in cases:
            try:
                expected = _uv_scan(*args)
            except DomainError as exc:
                with pytest.raises(DomainError) as info:
                    coverage_check(*args)
                assert str(info.value) == str(exc), args
                continue
            report = coverage_check(*args)
            matched = [(s.triple, p.kind, p.params) for s, p in report.matched]
            assert (matched, [s.triple for s in report.unmatched]) == expected, args
            solvable += 1
            u_zero_generators += sum(kind == FAMILY1 and params[0] == 0 for _, kind, params in matched)
        assert solvable == 1469 + 2 + 8 + 2
        assert u_zero_generators  # some generators come from the u = 0 divisor branch

    def test_preimages_scale_with_solutions(self, record_calls):
        # the inversion yields a few preimages per solution, the same at either
        # bound, and evaluates no family-1 point: the grid test in
        # TestParamFamily1 proves every preimage's point is its solution
        preimages = diophantine._preimages
        points = record_calls(diophantine, "_family1_point")
        calls = record_calls(diophantine, "_preimages")
        for (a, b, box), yielded in zip(((-34, -25, 40), (0, -31, 40), (3, 0, 6)), (4, 22, 8)):
            for bound in (12, MAX_PARAM_BOUND):
                calls.clear()
                total = coverage_check(a, b, box, bound).total
                count = sum(len(list(preimages(*args))) for args, _ in calls)
                assert (len(points), count) == (0, yielded), (a, b, bound)
                assert count <= 16 * total, (a, b, bound, total)

    def test_opposite_base_records_the_smaller_scale(self):
        # over (4, -4) both w = -1 and w = 1 reach (4, 0, -4); -1 comes first
        report = coverage_check(4, -4, 6, 2)
        assert [(s.triple, p.params) for s, p in report.matched] == [
            ((4, 0, -4), (-2, 0, 2, -1))
        ]

    def test_empty_box_is_domain_error(self):
        # x^2 + y^2 + z^2 = 20000 has no solution with every |coordinate| <= 1
        with pytest.raises(DomainError, match="no solution"):
            coverage_check(100, 100, 1, 3)
        # so no caller sees an empty report, whose match rate reads 1
        assert CoverageReport((), ()).match_rate == 1

    def test_param_bound_cap(self):
        assert coverage_check(3, 0, 6, MAX_PARAM_BOUND).all_matched
        for bound in (MAX_PARAM_BOUND + 1, 10**18, -1):
            with pytest.raises(DomainError, match="param_bound"):
                coverage_check(3, 0, 6, bound)
