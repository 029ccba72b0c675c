"""Rank-2 topological bundle classes on CP^3 and their additive structures.

A class is the complete invariant triple (c1, c2, alpha): two integer
Chern classes plus the Z/2 Atiyah-Rees invariant alpha, which exists
exactly when c1 is even.  Realizable Chern pairs are those with c1*c2
even; even-c1 pairs carry two classes (alpha = 0, 1), odd-c1 pairs one.

On the set of classes with a fixed c1 = a1 the module implements one
abelian group law per shift b, the sum v + w - e with the split
identity e = O(a1-b) + O(b) (b = 0 is the plain law, e = O(a1) + O),
the Horrocks-style sum with its alpha correction, tensoring by line
bundles, and a bounded search demonstrating that split classes generate
everything under twisting and Horrocks sums.

Z/2 values are canonical integers 0/1 and every congruence uses
Euclidean remainders, so negative inputs behave correctly.  All values
are immutable and all functions pure.

Classes are validated where callers build them: the constructor rejects
non-integer Chern classes, unrealizable pairs and any alpha that is not
the int 0 or 1 (or None at odd c1).  The laws' results are valid by
proof, as each law's docstring says, so the laws build them with the
private :func:`_class` and skip that re-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    DomainError,
    FormulaNotApplicableError,
    HorrocksUndefinedError,
    require_int,
)

__all__ = [
    "Rank2BundleClass",
    "GroupDescriptorA1",
    "ReachedClass",
    "GenerationReport",
    "epsilon",
    "delta",
    "alpha_extendable",
    "alpha_balanced_split",
    "split_rank2",
    "add",
    "negate",
    "add_shifted",
    "horrocks_sum",
    "agreement_check",
    "agreement_sweep",
    "tensor_line",
    "count_classes",
    "realizable_classes",
    "generation_closure",
    "MAX_SEARCH_EXTENT",
]

# Cap with its worst-case time on a 2-core x86 VM, in a fresh process (BENCH_38.json).
MAX_SEARCH_EXTENT = 66  # max|c1| + c2 bound of generation_closure's search box: 0.07 s


def epsilon(a: int) -> int:
    """Z/2 correction term of the plain group law: 1 iff a = 4 (mod 8)."""
    if type(a) is not int:  # require_int only words the error
        require_int(a, "a")
    if a % 2:
        raise DomainError(f"epsilon is defined for even integers only, got {a}")
    return 1 if a % 8 == 4 else 0


def delta(c1: int, c2: int) -> int:
    """Normalized discriminant (c1^2 - 4*c2) / 4; needs even c1 for integrality."""
    require_int(c1, "c1")
    require_int(c2, "c2")
    if c1 % 2:
        raise DomainError(f"delta needs an even c1, got {c1}")
    return (c1 * c1 - 4 * c2) // 4


def alpha_extendable(c1: int, c2: int) -> int:
    """alpha of an even-c1 class that extends to CP^4: D(D-1)/12 mod 2.

    With D the normalized discriminant, the closed form applies only
    when 12 divides D(D-1); split classes always qualify.  Outside that
    range the formula is silent, so the call fails rather than guess.
    """
    d = delta(c1, c2)  # which checks that c1 and c2 are integers
    m = d * (d - 1)
    if m % 12:
        raise FormulaNotApplicableError(
            f"D(D-1) = {m} is not divisible by 12 for (c1, c2) = ({c1}, {c2}); "
            "the closed-form alpha does not cover this class"
        )
    return (m // 12) % 2


def alpha_balanced_split(b: int) -> int:
    """alpha of O(b) + O(-b) via the 8-divisibility of b^2(b+1)(b-1).

    b^2(b+1)(b-1) is always divisible by 4; alpha is the parity of the
    quotient, which is 1 exactly when b = 2 (mod 4).
    """
    require_int(b, "b")
    m = b * b * (b + 1) * (b - 1)
    return (m // 4) % 2


@dataclass(frozen=True, init=False, slots=True)
class Rank2BundleClass:
    """Topological class of a rank-2 bundle on CP^3: (c1, c2, alpha).

    The constructor checks its arguments before it stores anything; it
    and :func:`_class` store the fields through their slots' descriptors.
    """

    c1: int
    c2: int
    alpha: int | None = None

    def __init__(self, c1: int, c2: int, alpha: int | None = None) -> None:
        if type(c1) is not int:  # require_int only words the error
            require_int(c1, "c1")
        if type(c2) is not int:
            require_int(c2, "c2")
        if (c1 * c2) % 2:
            raise DomainError(f"(c1, c2) = ({c1}, {c2}) is not realizable: c1*c2 must be even")
        if c1 % 2 == 0:
            if type(alpha) is not int or alpha not in (0, 1):
                raise DomainError(f"alpha in {{0, 1}} is required when c1 is even, got {alpha!r}")
        elif alpha is not None:
            raise DomainError(f"alpha is not defined for odd c1 = {c1}")
        _set_c1(self, c1)
        _set_c2(self, c2)
        _set_alpha(self, alpha)


# the slots' setters, bound from the new class that slots=True returned
_set_c1, _set_c2, _set_alpha = (
    getattr(Rank2BundleClass, f).__set__ for f in Rank2BundleClass.__slots__
)


def _class(c1: int, c2: int, alpha: int | None = None) -> Rank2BundleClass:
    """A class built without validation, for law results valid by proof."""
    v = object.__new__(Rank2BundleClass)
    _set_c1(v, c1)
    _set_c2(v, c2)
    _set_alpha(v, alpha)
    return v


def split_rank2(x: int, y: int) -> Rank2BundleClass:
    """Class of the split bundle O(x) + O(y).

    Chern data are the elementary symmetric functions (x+y, x*y); when
    that first class is even, alpha comes from the extendable-class
    formula (split bundles always extend).
    """
    require_int(x, "x")
    require_int(y, "y")
    c1, c2 = x + y, x * y
    if c1 % 2:
        return Rank2BundleClass(c1, c2)
    return Rank2BundleClass(c1, c2, alpha_extendable(c1, c2))


@dataclass(frozen=True)
class GroupDescriptorA1:
    """The group law on the classes with first Chern class ``a1``.

    The shift ``b`` selects the identity O(a1-b) + O(b), built once as
    ``identity``; b = 0 is the plain law, identity O(a1) + O.  The plain
    identity's alpha equals epsilon(a1) for every even a1: it depends
    only on a1/2 mod 24, and the tests check all 24 residues.
    """

    a1: int
    b: int = 0
    identity: Rank2BundleClass = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        require_int(self.a1, "a1")
        require_int(self.b, "shift b")
        object.__setattr__(self, "identity", split_rank2(self.a1 - self.b, self.b))


def _require_member(g: GroupDescriptorA1, v: Rank2BundleClass) -> None:
    if v.c1 != g.a1:
        raise DomainError(f"class has c1 = {v.c1}, expected a1 = {g.a1}")


def add(
    g: GroupDescriptorA1, v: Rank2BundleClass, w: Rank2BundleClass
) -> Rank2BundleClass:
    """Group sum v + w - e: c2(v) + c2(w) - c2(e), alpha(v) + alpha(w) + alpha(e).

    e is the identity of ``g``; at b = 0 it has c2 = 0, alpha = epsilon(a1).
    The sum needs no re-check: for odd a1, e and both summands have even
    c2 (e = O(a1 - b) + O(b) has one even twist), so c2 stays even, and
    for even a1 the alpha is a sum of ints mod 2.
    """
    a1 = g.a1
    if v.c1 != a1 or w.c1 != a1:
        _require_member(g, v)
        _require_member(g, w)
    e = g.identity
    c2 = v.c2 + w.c2 - e.c2
    if e.alpha is None:
        return _class(a1, c2)
    return _class(a1, c2, (v.alpha + w.alpha + e.alpha) % 2)


def negate(g: GroupDescriptorA1, v: Rank2BundleClass) -> Rank2BundleClass:
    """Inverse under v + w - e: (a1, 2 c2(e) - c2(v), alpha(v)).

    add(v, x) = e fixes c2(x) = 2 c2(e) - c2(v), and alpha(v) +
    alpha(x) + alpha(e) = alpha(e) forces alpha(x) = alpha(v).  The
    inverse needs no re-check: for odd a1, c2(v) is even, so
    2 c2(e) - c2(v) is too, and alpha is carried over.
    """
    if v.c1 != g.a1:
        _require_member(g, v)
    return _class(g.a1, 2 * g.identity.c2 - v.c2, v.alpha)


def add_shifted(
    g: GroupDescriptorA1, v: Rank2BundleClass, w: Rank2BundleClass
) -> Rank2BundleClass:
    """:func:`add` under its older name: every descriptor's law is v + w - e."""
    return add(g, v, w)


def horrocks_sum(v: Rank2BundleClass, w: Rank2BundleClass) -> Rank2BundleClass:
    """Extension-style sum of two classes with shared c1 = -m, m >= 0.

    c2 is additive.  For even c1 = -2n, alpha picks up Horrocks'
    correction, an extra 1 exactly when n = 2 (mod 4): epsilon(c1), the
    plain law's own correction (:func:`epsilon`).  Positive shared c1
    leaves no regular sections to glue along, so the sum is undefined
    there.  The sum needs no re-check: for odd c1 both
    summands have even c2, so their sum is even, and for even c1 the
    alpha is a sum of ints mod 2.
    """
    if v.c1 != w.c1:
        raise DomainError(f"summands must share c1, got {v.c1} and {w.c1}")
    if v.c1 > 0:
        raise HorrocksUndefinedError(
            f"Horrocks sum undefined for shared c1 = {v.c1} > 0"
        )
    c2 = v.c2 + w.c2
    if v.c1 % 2:
        return _class(v.c1, c2)
    return _class(v.c1, c2, (v.alpha + w.alpha + epsilon(v.c1)) % 2)


def agreement_check(v: Rank2BundleClass, w: Rank2BundleClass) -> bool:
    """Whether the Horrocks sum and the plain group sum of (v, w) coincide.

    Both must be defined (shared c1 <= 0).  Both add c2, and both add
    epsilon(c1) to the summands' alphas at even c1, the plain law as its
    identity's alpha and the Horrocks sum as its correction.
    """
    return horrocks_sum(v, w) == add(_plain_group(v.c1), v, w)


@lru_cache(maxsize=64)
def _plain_group(a1: int) -> GroupDescriptorA1:
    return GroupDescriptorA1(a1)


def agreement_sweep(c1_min: int, c2_bound: int) -> tuple[int, bool, bool]:
    """Decide agreement for every pair with c1 = 0, -2, ..., c1_min and |c2| <= c2_bound.

    Returns ``(cases, all_agree, epsilon_rule_verified)``: the pair
    count (-c1_min/2 + 1) (4 c2_bound + 2)^2, whether the Horrocks and
    plain sums agree on every pair, and whether epsilon(-2n) equals
    alpha_balanced_split(n), the alpha of O(n) + O(-n) by the
    divisibility route, for n = 0..-c1_min/2.  Both sums add c2, and at
    c1 = -2n each adds epsilon(-2n) to the summands' alphas: the Horrocks
    sum as its correction, the plain sum as its identity's alpha (see
    :class:`GroupDescriptorA1`).  Both sides of the rule depend only on
    n mod 4, so one pair and one rule check per residue decide the
    sweep.  A positive or odd ``c1_min`` or a negative ``c2_bound``
    raises :class:`DomainError`: the sweep would be empty or stop short
    of ``c1_min``.
    """
    require_int(c1_min, "c1_min")
    if c1_min > 0 or c1_min % 2:
        raise DomainError(f"c1_min must be a non-positive even integer, got {c1_min}")
    require_int(c2_bound, "c2_bound", 0)
    residues = range(min(4, -c1_min // 2 + 1))
    all_agree = all(
        agreement_check(Rank2BundleClass(-2 * n, 0, 0), Rank2BundleClass(-2 * n, 0, 0))
        for n in residues
    )
    rule = all(epsilon(-2 * n) == alpha_balanced_split(n) for n in residues)
    cases = (-c1_min // 2 + 1) * (4 * c2_bound + 2) ** 2
    return cases, all_agree, rule


def tensor_line(v: Rank2BundleClass, k: int) -> Rank2BundleClass:
    """Tensor with O(k): (c1 + 2k, c2 + k*c1 + k^2), alpha unchanged.

    alpha depends only on the class normalized to c1 = 0, which is
    unchanged by further twisting, and the parity of c1 is preserved so
    alpha's presence is too.  The result needs no re-check: for odd c1,
    k(c1 + k) is even (k or c1 + k is), so c2 keeps its even parity.
    """
    require_int(k, "twist k")
    return _class(*_twist(v.c1, v.c2, k), v.alpha)


def _twist(c1: int, c2: int, k: int) -> tuple[int, int]:
    """Chern pair after tensoring with O(k): (c1 + 2k, c2 + k*c1 + k^2)."""
    return c1 + 2 * k, c2 + k * c1 + k * k


def count_classes(c1: int, c2: int) -> int:
    """Number of rank-2 classes on CP^3 with the given Chern pair: 0, 1, or 2."""
    require_int(c1, "c1")
    require_int(c2, "c2")
    if (c1 * c2) % 2:
        return 0
    return 2 if c1 % 2 == 0 else 1


@dataclass(frozen=True)
class ReachedClass:
    """A class reached by the generation search, with a cheapest witness."""

    cls: Rank2BundleClass
    cost: int
    witness: str


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of the bounded generation search.

    ``reached``/``unreached`` cover every realizable class in the report
    box; the search itself may roam the (possibly larger) search box.
    Unreached classes are findings, not errors: witnesses may need
    intermediate classes outside any fixed box.
    """

    reached: tuple[ReachedClass, ...]
    unreached: tuple[Rank2BundleClass, ...]
    searched: int

    @property
    def all_reached(self) -> bool:
        return not self.unreached


def realizable_classes(c1_min: int, c1_max: int, c2_bound: int):
    """All realizable classes in the box, in sorted order; valid by construction."""
    require_int(c1_min, "c1_min")
    require_int(c1_max, "c1_max")
    require_int(c2_bound, "c2_bound")
    for c1 in range(c1_min, c1_max + 1):
        for c2 in range(-c2_bound, c2_bound + 1):
            if (c1 * c2) % 2:
                continue
            if c1 % 2 == 0:
                yield _class(c1, c2, 0)
                yield _class(c1, c2, 1)
            else:
                yield _class(c1, c2)


def generation_closure(
    c1_min: int,
    c1_max: int,
    c2_bound: int,
    search_c1_min: int,
    search_c1_max: int,
    search_c2_bound: int,
) -> GenerationReport:
    """Closure of split classes under twisting and Horrocks sums, inside a box.

    Starts from every split class inside the search box and combines
    reached classes with tensor_line (any twist staying in the box) and
    horrocks_sum (pairs sharing a non-positive c1).  A cheapest witness
    expression, counted in operations applied to splits, is recorded for
    each reached class by a uniform-cost search, one cost level at a time.
    Each row finds its Horrocks partners by bitmask, and only the cheapest
    members of a twist orbit run the twist loop (README, design notes).  A
    search box with max |c1| + c2 bound above :data:`MAX_SEARCH_EXTENT`
    raises :class:`DomainError`.
    """
    s1min, s1max, s2 = search_c1_min, search_c1_max, search_c2_bound
    names = "c1_min c1_max c2_bound search_c1_min search_c1_max search_c2_bound".split()
    for name, value in zip(names, (c1_min, c1_max, c2_bound, s1min, s1max, s2)):
        require_int(value, name)
    if c1_min > c1_max or c2_bound < 0:
        raise DomainError("empty report box")
    if s1min > c1_min or s1max < c1_max or s2 < c2_bound:
        raise DomainError("the search box must contain the report box")
    # Any split O(x) + O(y) in the box has |x|, |y| bounded by the roots
    # of t^2 - c1*t + c2 over the box, hence by max|c1| + c2_bound.
    xb = max(abs(s1min), abs(s1max)) + s2
    if xb > MAX_SEARCH_EXTENT:
        raise DomainError(
            f"search box max|c1| + c2 bound = {xb} exceeds {MAX_SEARCH_EXTENT}"
        )

    # States are keyed by row: best[c1][code] holds the pending (cost, witness)
    # of the class (c1, code >> 1, alpha), with code = 2*c2 + alpha (alpha read
    # as 0 at odd c1), and levels[cost] lists (c1, code) pairs.  Levels are
    # settled in cost order: every offer costs more than each state it is built
    # from, so all of a level's offers exist before it is reached, and the
    # smallest witness among them is kept.
    best: dict[int, dict[int, tuple[int, str]]] = {c1: {} for c1 in range(s1min, s1max + 1)}
    levels: dict[int, list[tuple[int, int]]] = {0: []}
    for x in range(-xb, xb + 1):
        for y in range(x, xb + 1):
            if s1min <= x + y <= s1max and abs(x * y) <= s2:
                cls = split_rank2(x, y)
                code = 2 * cls.c2 + (cls.alpha or 0)
                best[cls.c1][code] = (0, f"split({x},{y})")
                levels[0].append((cls.c1, code))
    # Codes as int bitmasks, bit code + off: soon marks the codes whose pending
    # offer costs at most the level + 1, and rows c1 <= 0 keep their open codes
    # and their settled codes by level, plain and with the alpha bits swapped.
    off = 2 * s2
    rows = range(s1min, min(s1max, 0) + 1)
    open_by_c1 = {c1: sum(1 << (2 * c2 + a + off) for c2 in range(-s2, s2 + 1) if c1 * c2 % 2 == 0
                          for a in ((0,) if c1 % 2 else (0, 1))) for c1 in rows}
    settled_by_c1 = {c1: ({}, {}) for c1 in rows}
    soon = dict.fromkeys(best, 0)
    orbit_cost: dict[tuple[int, int], int] = {}  # twist orbit (c1^2 - 4 c2, alpha): least cost
    # The keep rule (cheaper, or as cheap with a smaller witness) is written
    # out in both loops below: against the tuple-keyed search, one shared
    # helper ran the doubled box 1.30x as fast, inlined 1.46-1.50x.
    cost = 0
    while levels:
        for c1, code in levels.get(cost + 1, ()):
            soon[c1] |= 1 << (code + off)
        for c1, code in levels.pop(cost, ()):
            here = best[c1]
            found = here[code]
            if found[0] < cost:  # settled at a lower level
                continue
            c2, bit = code >> 1, code & 1
            expr = found[1]
            step = cost + 1
            # a dearer member of the orbit offers the same twists at a dearer cost
            if orbit_cost.setdefault((c1 * c1 - 4 * c2, bit), cost) == cost:
                for k in range(-((c1 - s1min) // 2), (s1max - c1) // 2 + 1):
                    t1, t2 = _twist(c1, c2, k)
                    if k and abs(t2) <= s2:
                        there, t = best[t1], 2 * t2 + bit  # a twist keeps alpha
                        pending = there.get(t)
                        if pending is None or step < pending[0]:
                            there[t] = (step, f"tensor({expr}, {k})")
                            levels.setdefault(step, []).append((t1, t))
                            soon[t1] |= 1 << (t + off)
                        elif step == pending[0] and (w := f"tensor({expr}, {k})") < pending[1]:
                            there[t] = (step, w)
            if c1 <= 0:
                plain, swapped = settled_by_c1[c1]
                plain[cost] = plain.get(cost, 0) | 1 << (code + off)
                swapped[cost] = swapped.get(cost, 0) | 1 << ((code + off) ^ 1)
                row = open_by_c1[c1] = open_by_c1[c1] & ~(1 << (code + off))
                # partner q sums to target (q xor flip) + 2 c2, flip = alpha + epsilon(c1)
                shift, flip = code - bit, 0 if c1 % 2 else bit ^ epsilon(c1)
                for level, peers in (swapped if flip else plain).items():
                    targets = (peers << shift if shift >= 0 else peers >> -shift) & row
                    if level:  # costs cost + 2 or more: soon's targets cannot win
                        targets &= ~soon[c1]
                    new_cost = step + level
                    while targets:
                        low = targets & -targets
                        targets ^= low
                        t = low.bit_length() - 1 - off
                        pending = here.get(t)
                        if pending is not None and pending[0] < new_cost:
                            continue  # a costlier offer cannot win: no witness built
                        other = here[(t - shift) ^ flip][1]
                        lo, hi = (expr, other) if expr < other else (other, expr)
                        w = f"horrocks({lo}, {hi})"
                        if pending is None or new_cost < pending[0]:
                            here[t] = (new_cost, w)
                            levels.setdefault(new_cost, []).append((c1, t))
                            if not level:
                                soon[c1] |= low
                        elif w < pending[1]:
                            here[t] = (new_cost, w)
        cost += 1

    reached = []
    unreached = []
    for cls in realizable_classes(c1_min, c1_max, c2_bound):
        found = best[cls.c1].get(2 * cls.c2 + (cls.alpha or 0))
        if found is None:
            unreached.append(cls)
        else:
            reached.append(ReachedClass(cls, *found))
    return GenerationReport(tuple(reached), tuple(unreached), sum(map(len, best.values())))
