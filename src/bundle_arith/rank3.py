"""Rank-3 bundle classes on CP^5 and the groups over a fixed rank-2 base.

A class is the Chern triple (c1, c2, c3), validated against the
integrality predicate of :mod:`bundle_arith.cohomology`.  The known Z/3
refinement of the classification is deliberately not modeled: classes
carry an explicit "untracked" marker instead of a value, and the one
place it could matter (subgroup indices over a base with Z/3 kernel)
uses a presentation determinant that is independent of it.

The group over a base (c1, c2) fixes the first two Chern classes and
adds on c3.  The module also decides split realizability by exact
integer root isolation of the characteristic cubic, finds non-split
multiples, and produces the prime witness showing subgroups generated
by split classes contain non-split members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cohomology import ChernVector, feasible_c3_lattice, is_feasible
from .errors import ConsistencyError, DomainError

__all__ = [
    "RHO_UNTRACKED",
    "KERNEL_TRIVIAL",
    "KERNEL_Z3",
    "Rank3BundleClass",
    "GroupDescriptorV0",
    "split_rank3",
    "is_split_realizable",
    "make_group",
    "add",
    "iterate",
    "smallest_nonsplit_multiple",
    "prime_witness",
    "subgroup_index",
]

RHO_UNTRACKED = "untracked"
KERNEL_TRIVIAL = "trivial"
KERNEL_Z3 = "Z/3"


@dataclass(frozen=True)
class Rank3BundleClass:
    """Chern triple (c1, c2, c3) of a rank-3 class on CP^5."""

    c1: int
    c2: int
    c3: int

    def __post_init__(self) -> None:
        if not all(isinstance(c, int) for c in (self.c1, self.c2, self.c3)):
            raise DomainError("Chern classes must be integers")
        if not is_feasible(ChernVector(3, 5, (self.c1, self.c2, self.c3))):
            raise DomainError(
                f"(c1, c2, c3) = ({self.c1}, {self.c2}, {self.c3}) fails the "
                "integrality conditions for rank 3 on CP^5"
            )

    @property
    def rho(self) -> str:
        """The Z/3 refinement is intentionally untracked; never a value."""
        return RHO_UNTRACKED


def split_rank3(x: int, y: int, z: int) -> Rank3BundleClass:
    """Class of O(x) + O(y) + O(z): elementary symmetric functions."""
    return Rank3BundleClass(x + y + z, x * y + y * z + z * x, x * y * z)


def is_split_realizable(c1: int, c2: int, c3: int) -> tuple[int, int, int] | None:
    """Twists (x, y, z) with these symmetric functions, or None.

    The triple exists exactly when f(t) = t^3 - c1 t^2 + c2 t - c3 has
    three integer roots.  With D = c1^2 - 3 c2 < 0 the derivative has no
    real zero, f is strictly increasing and has one real root only.
    Otherwise the largest root lies where f increases, at or right of
    the larger critical point (c1 + sqrt(D)) / 3, and is found by
    bisection on the integers there; once it is found the remaining
    quadratic factors over Z iff its discriminant is a perfect square.
    The work is O(log(|c1| + |c2| + |c3|)) evaluations of f.  Returned
    triples are sorted in descending order.
    """

    def value(t: int) -> int:
        return ((t - c1) * t + c2) * t - c3

    d = c1 * c1 - 3 * c2
    if d < 0:
        return None
    root_d = math.isqrt(d)
    if root_d * root_d != d:
        root_d += 1
    # smallest integer at or right of the larger critical point
    lo = -(-(c1 + root_d) // 3)
    # every root has |t| < 1 + max |coefficient|, so value(hi) > 0
    hi = max(lo, 1 + max(abs(c1), abs(c2), abs(c3)))
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    r = lo
    if value(r):
        return None
    # cubic = (t - r)(t^2 + p t + q)
    p = r - c1
    q = c2 + r * p
    disc = p * p - 4 * q
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    roots = sorted((r, (-p + s) // 2, (-p - s) // 2), reverse=True)
    return (roots[0], roots[1], roots[2])


@dataclass(frozen=True)
class GroupDescriptorV0:
    """Group of rank-3 classes over a rank-2 base with Chern data (base_c1, base_c2).

    ``c3_generator`` is the spacing d of the feasible c3 lattice.  The
    identity (base_c1, base_c2, 0) is built once, as ``identity``; building
    it checks that the base is feasible.  ``kernel_kind`` is the kernel of
    the c3 homomorphism, read off the base by the mod-3 rule.
    """

    base_c1: int
    base_c2: int
    c3_generator: int
    identity: Rank3BundleClass = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.c3_generator, int) or self.c3_generator < 1:
            raise DomainError("c3_generator must be a positive integer")
        e = Rank3BundleClass(self.base_c1, self.base_c2, 0)
        object.__setattr__(self, "identity", e)

    @property
    def kernel_kind(self) -> str:
        """Z/3 when both base classes are divisible by 3, trivial otherwise."""
        if self.base_c1 % 3 == 0 and self.base_c2 % 3 == 0:
            return KERNEL_Z3
        return KERNEL_TRIVIAL


def make_group(base_c1: int, base_c2: int, scan: int) -> GroupDescriptorV0:
    """Descriptor for the group over base (base_c1, base_c2).

    The c3 lattice spacing comes from the closed form of
    :func:`feasible_c3_lattice`, which also rejects an infeasible base; a
    spacing above ``scan`` raises :class:`ConsistencyError`.
    """
    d = feasible_c3_lattice(base_c1, base_c2, scan)
    return GroupDescriptorV0(base_c1, base_c2, d)


def _require_member(g: GroupDescriptorV0, v: Rank3BundleClass) -> None:
    if v.c1 != g.base_c1 or v.c2 != g.base_c2:
        raise DomainError(
            f"class ({v.c1}, {v.c2}, {v.c3}) is not in the group over "
            f"({g.base_c1}, {g.base_c2})"
        )


def add(
    g: GroupDescriptorV0, v: Rank3BundleClass, w: Rank3BundleClass
) -> Rank3BundleClass:
    """Group sum: c1 and c2 stay fixed, c3 adds."""
    _require_member(g, v)
    _require_member(g, w)
    return Rank3BundleClass(g.base_c1, g.base_c2, v.c3 + w.c3)


def iterate(g: GroupDescriptorV0, w: Rank3BundleClass, n: int) -> Rank3BundleClass:
    """n-fold group sum of w with itself: c3 becomes n * c3(w)."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"iteration count must be a positive integer, got {n!r}")
    _require_member(g, w)
    return Rank3BundleClass(g.base_c1, g.base_c2, n * w.c3)


def smallest_nonsplit_multiple(
    g: GroupDescriptorV0, w: Rank3BundleClass, bound: int
) -> int | None:
    """Least 1 <= n <= bound whose n-fold sum of w is not a sum of line bundles.

    None when every multiple within the bound splits, which is guaranteed
    to persist forever when c3(w) = 0 and the base itself splits.
    """
    if not isinstance(bound, int) or bound < 1:
        raise DomainError(f"bound must be a positive integer, got {bound!r}")
    _require_member(g, w)
    for n in range(1, bound + 1):
        m = iterate(g, w, n)
        if is_split_realizable(m.c1, m.c2, m.c3) is None:
            return n
    return None


# The first 13 primes.  Miller-Rabin with these bases has no strong
# pseudoprime below _PRIMALITY_BOUND (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017); the bound
# itself is the least one.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _PRIMALITY_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    """Smallest prime strictly greater than n, if it is below _PRIMALITY_BOUND."""
    for candidate in range(n + 1, _PRIMALITY_BOUND):
        if _is_prime(candidate):
            return candidate
    raise DomainError(
        f"no prime above {n} can be certified: primality is proven "
        f"only below {_PRIMALITY_BOUND}"
    )


def prime_witness(g: GroupDescriptorV0, w: Rank3BundleClass) -> tuple[int, bool]:
    """Prime p and whether the p-fold sum of w fails to split.

    p is the smallest prime exceeding max(3|c1(w)|, 3|c3(w)|).  For such
    p the p-fold sum of a class with c3 != 0 can never be a sum of line
    bundles (any factorization would force a root divisible by p, making
    the root sum too large), so ``verified`` is expected to be True; a
    False would contradict that argument and is reported, not hidden.
    Raises :class:`DomainError` when p would reach the bound below which
    primality is proven.
    """
    _require_member(g, w)
    if w.c3 == 0:
        raise DomainError("prime witness needs a class with c3 != 0")
    p = _next_prime(max(3 * abs(w.c1), 3 * abs(w.c3)))
    m = iterate(g, w, p)
    return p, is_split_realizable(m.c1, m.c2, m.c3) is None


def subgroup_index(g: GroupDescriptorV0, w: Rank3BundleClass):
    """Index of the subgroup generated by w; math.inf when c3(w) = 0.

    With k = c3(w) / c3_generator, a trivial kernel gives |k| directly.
    A Z/3 kernel gives the cokernel order of the presentation
    [[k, r], [0, 3]], which is |det| = 3|k| whatever the untracked
    coordinate r.
    """
    _require_member(g, w)
    if w.c3 == 0:
        return math.inf
    k, remainder = divmod(w.c3, g.c3_generator)
    if remainder:
        raise ConsistencyError(
            f"c3 = {w.c3} is not a multiple of the lattice generator "
            f"{g.c3_generator}; the lattice structure is broken"
        )
    if g.kernel_kind == KERNEL_TRIVIAL:
        return abs(k)
    return 3 * abs(k)
