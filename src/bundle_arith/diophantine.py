"""Split elements of the rank-3 groups as integer points of a quadric.

A split class O(x) + O(y) + O(z) lies in the group over the base
O(a) + O(b) exactly when

    x + y + z = a + b        and        xy + yz + zx = ab.

Substituting c = a - x, d = b - y turns the system into the projective
quadric Q = c^2 + d^2 - bd - ac + cd = 0 in [a : b : c : d].  Lines
through the rational point [1:0:0:0] sweep out its points, which gives
two explicit solution families after clearing denominators: a
four-parameter family (u, v, l, w) and the two-parameter family of
identity-type solutions (those with a zero coordinate).  Brute-force
enumeration, which never uses the families, is the independent check
that they cover every solution in a box, each solved for its own line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

from .errors import DomainError, require_int

__all__ = [
    "Provenance",
    "QuadricSolution",
    "param_family1",
    "param_family2",
    "brute_force_solutions",
    "coverage_check",
    "CoverageReport",
    "MAX_SCAN_RADIUS",
    "MAX_PARAM_BOUND",
]

FAMILY1 = "family1"
FAMILY2 = "family2"
BRUTE_FORCE = "brute_force"

# Caps with their worst-case times on a 2-core x86 VM.
MAX_SCAN_RADIUS = 10**5  # |x| <= min(box, isqrt(a^2 + b^2)) walked: 0.15 s
MAX_PARAM_BOUND = 24  # u <= param_bound per ordering, divisor pairs of p at u = 0: 3 ms


@dataclass(frozen=True)
class Provenance:
    """Where a solution came from.

    kind is one of "family1" (params (u, v, l, w)), "family2"
    (params (t, l, variant)), or "brute_force" (no params).
    """

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (FAMILY1, FAMILY2, BRUTE_FORCE):
            raise DomainError(f"unknown provenance kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))


@dataclass(frozen=True)
class QuadricSolution:
    """Integer solution (x, y, z, a, b) of both equations, which the constructor checks."""

    x: int
    y: int
    z: int
    a: int
    b: int
    provenance: Provenance = Provenance(BRUTE_FORCE)

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "a", "b"):
            require_int(getattr(self, name), name)
        if self.x + self.y + self.z != self.a + self.b:
            raise DomainError(
                f"x + y + z = {self.x + self.y + self.z} differs from "
                f"a + b = {self.a + self.b}"
            )
        if self.x * self.y + self.y * self.z + self.z * self.x != self.a * self.b:
            raise DomainError(
                "xy + yz + zx differs from ab for "
                f"({self.x}, {self.y}, {self.z}, {self.a}, {self.b})"
            )

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    @property
    def base(self) -> tuple[int, int]:
        return (self.a, self.b)


def _family1_point(u: int, v: int, l: int) -> tuple[int, int, int, int, int]:
    """The family-1 solution (x, y, z, a, b) at scale w = 1."""
    x = v * v + u * v - l * v
    return x, u * (l - v), u * (u + v), u * u + x, u * l


def param_family1(u: int, v: int, l: int, w: int) -> QuadricSolution:
    """Four-parameter solution family from lines through [1:0:0:0].

    The line through [0 : l : u : v] meets the quadric again at a
    rational point; clearing denominators with the overall scale w gives
    an integer solution for every (u, v, l, w).
    """
    for name, value in (("u", u), ("v", v), ("l", l), ("w", w)):
        require_int(value, name)
    x, y, z, a, b = (w * c for c in _family1_point(u, v, l))
    return QuadricSolution(x, y, z, a, b, Provenance(FAMILY1, (u, v, l, w)))


def param_family2(t: int, l: int) -> tuple[QuadricSolution, QuadricSolution]:
    """The two identity-type solutions for (t, l): a coordinate of the triple is 0.

    These come from entire lines contained in the quadric and correspond
    to identity elements O(t) + O(l) + O of the groups they live in.
    """
    require_int(t, "t")
    require_int(l, "l")
    first = QuadricSolution(t, l, 0, l, t, Provenance(FAMILY2, (t, l, 1)))
    second = QuadricSolution(t, 0, l, t, l, Provenance(FAMILY2, (t, l, 2)))
    return first, second


def _canonical(triple: tuple[int, int, int]) -> tuple[int, int, int]:
    ordered = sorted(triple, reverse=True)
    return (ordered[0], ordered[1], ordered[2])


def brute_force_solutions(
    a: int, b: int, box: int, include_permutations: bool = False
) -> list[QuadricSolution]:
    """All solutions with max(|x|, |y|, |z|) <= box, exhaustively.

    x^2 + y^2 + z^2 = a^2 + b^2, so x runs over |x| <= min(box, R) with
    R = isqrt(a^2 + b^2), capped at :data:`MAX_SCAN_RADIUS`; y and z are
    the integer roots of t^2 - (a + b - x) t + ab - x (a + b - x).

    By default triples are canonicalized by sorting descending and
    deduplicated; ``include_permutations`` returns every ordered triple
    instead.  Output order is deterministic either way.
    """
    require_int(a, "a")
    require_int(b, "b")
    require_int(box, "box", 0)
    radius = min(box, isqrt(a * a + b * b))
    if radius > MAX_SCAN_RADIUS:
        raise DomainError(
            f"min(box, isqrt(a^2 + b^2)) = {radius} exceeds {MAX_SCAN_RADIUS}"
        )
    found: list[tuple[int, int, int]] = []
    for x in range(-radius, radius + 1):
        s = a + b - x  # y + z, with yz = ab - xs
        disc = s * s - 4 * (a * b - x * s)
        if disc >= 0 and (r := isqrt(disc)) * r == disc:
            for y in {(s - r) // 2, (s + r) // 2}:
                if max(abs(y), abs(s - y)) <= box:
                    found.append((x, y, s - y))
    if not include_permutations:
        found = sorted({_canonical(t) for t in found})
    else:
        found.sort()
    return [QuadricSolution(x, y, z, a, b, Provenance(BRUTE_FORCE)) for x, y, z in found]


@dataclass(frozen=True)
class CoverageReport:
    """How much of a brute-force box the two parametrized families explain.

    ``matched`` pairs each canonical solution with the provenance of a
    generator found within the parameter bound (permutations of the
    triple allowed, and the base pair may appear swapped since the
    equations are symmetric in a and b).  ``unmatched`` solutions are
    findings, never silently dropped.
    """

    matched: tuple[tuple[QuadricSolution, Provenance], ...]
    unmatched: tuple[QuadricSolution, ...]

    @property
    def total(self) -> int:
        return len(self.matched) + len(self.unmatched)

    @property
    def all_matched(self) -> bool:
        return not self.unmatched

    @property
    def match_rate(self) -> Fraction:
        if self.total == 0:
            return Fraction(1)
        return Fraction(len(self.matched), self.total)


def _preimages(x: int, y: int, p: int, q: int, bound: int):
    """Family-1 (u, v, l, w) that may carry w (x0, y0, a0, b0) to (x, y, p, q).

    With c = p - x and d = q - y: c = w u^2, d = w u v and q = w u l.  At c = 0,
    u = 0 (w = 0 reaches only the zero triple), so y = q = 0 and w v (v - l) = p.
    """
    c, d = p - x, q - y
    if c:
        for u in range(1, min(bound, isqrt(abs(c))) + 1):
            w, r = divmod(c, u * u)
            if not (r or d % (w * u) or q % (w * u)):
                yield from ((s, d // (w * s), q // (w * s), w) for s in (-u, u))
    elif p and q == y == 0:
        divisors = [k for k in range(1, bound + 1) if not p % k]
        for v, w in product(divisors + [-k for k in divisors], repeat=2):
            if not p % (v * w):
                yield 0, v, v - p // (v * w), w


def _least_preimage(triple: tuple[int, int, int], a: int, b: int, bound: int):
    """The least (u, v, l, w) within ``bound`` whose family-1 point is ``triple`` over (a, b)."""
    bases = {(a, b), (b, a)}
    found = sorted(
        params
        for p, q in bases
        for x, y, _ in set(permutations(triple))
        for params in _preimages(x, y, p, q, bound)
        if max(map(abs, params)) <= bound
    )
    for u, v, l, w in found:
        x0, y0, z0, a0, b0 = _family1_point(u, v, l)
        if (w * a0, w * b0) in bases and _canonical((w * x0, w * y0, w * z0)) == triple:
            return u, v, l, w
    return None


def coverage_check(a: int, b: int, box: int, param_bound: int) -> CoverageReport:
    """Match every brute-force solution against the two families.

    The identity-type solution (a, b, 0) is matched by the two-parameter
    family first when max(|a|, |b|) <= param_bound (at most
    :data:`MAX_PARAM_BOUND`).  Every other solution is inverted: each
    ordering (x, y, z) of it over each orientation (p, q) of the base
    fixes its generators by (c, q, d) = w u (u, l, v), c = p - x and
    d = q - y.  The least (u, v, l, w) with every |parameter| <=
    param_bound, confirmed on its family-1 point, is recorded: the one a
    walk over every (u, v, l, w) records first.  A solution without one
    is unmatched.  A box holding no solution raises :class:`DomainError`.
    """
    require_int(param_bound, "param_bound", 0)
    if param_bound > MAX_PARAM_BOUND:
        raise DomainError(f"param_bound = {param_bound} exceeds {MAX_PARAM_BOUND}")
    targets = brute_force_solutions(a, b, box)
    if not targets:
        raise DomainError(f"no solution over ({a}, {b}) lies in box {box}")
    identity = _canonical((a, b, 0)) if max(abs(a), abs(b)) <= param_bound else None
    matched, unmatched = [], []
    for sol in targets:
        if sol.triple == identity:
            matched.append((sol, param_family2(b, a)[0].provenance))
        elif params := _least_preimage(sol.triple, a, b, param_bound):
            matched.append((sol, Provenance(FAMILY1, params)))
        else:
            unmatched.append(sol)
    return CoverageReport(tuple(matched), tuple(unmatched))
