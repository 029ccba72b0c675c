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

Classes are validated where callers build them: the constructor runs
the integrality predicate.  The laws' results are valid by proof (the
feasible c3 over a base are exactly dZ, closed under sums and
multiples), so the laws build them with the private :func:`_class` and
skip that re-check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .cohomology import ChernVector, _require_within, feasible_c3_lattice, is_feasible
from .errors import DomainError, require_int

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


@dataclass(frozen=True, init=False)
class Rank3BundleClass:
    """Chern triple (c1, c2, c3) of a rank-3 class on CP^5.

    The constructor checks its arguments; only the laws' results, valid by proof, skip it.
    """

    c1: int
    c2: int
    c3: int

    def __init__(self, c1: int, c2: int, c3: int) -> None:
        require_int(c1, "c1")
        require_int(c2, "c2")
        require_int(c3, "c3")
        if not is_feasible(ChernVector(3, 5, (c1, c2, c3))):
            raise DomainError(
                f"(c1, c2, c3) = ({c1}, {c2}, {c3}) fails the "
                "integrality conditions for rank 3 on CP^5"
            )
        self.__dict__.update(c1=c1, c2=c2, c3=c3)

    @property
    def rho(self) -> str:
        """The Z/3 refinement is intentionally untracked; never a value."""
        return RHO_UNTRACKED


def _class(c1: int, c2: int, c3: int) -> Rank3BundleClass:
    """A class built without validation, for law results valid by proof."""
    v = object.__new__(Rank3BundleClass)
    v.__dict__.update(c1=c1, c2=c2, c3=c3)
    return v


def split_rank3(x: int, y: int, z: int) -> Rank3BundleClass:
    """Class of O(x) + O(y) + O(z): elementary symmetric functions."""
    for name, value in (("x", x), ("y", y), ("z", z)):
        require_int(value, name)
    return Rank3BundleClass(x + y + z, x * y + y * z + z * x, x * y * z)


def is_split_realizable(c1: int, c2: int, c3: int) -> tuple[int, int, int] | None:
    """Twists (x, y, z) with these symmetric functions, or None.

    The triple exists exactly when f(t) = t^3 - c1 t^2 + c2 t - c3 has
    three integer roots.  With D = c1^2 - 3 c2 < 0 the derivative has no
    real zero, f is strictly increasing and has one real root only.
    Otherwise the largest root lies where f increases, at or right of
    the larger critical point (c1 + sqrt(D)) / 3, and is found by
    bisection on the integers there, up to Fujiwara's bound
    2 max(|c1|, |c2|^(1/2), |c3|^(1/3)) on every root; once it is found
    the remaining quadratic factors over Z iff its discriminant is a
    perfect square.  The work is O(log(|c1| + |c2| + |c3|)) evaluations
    of f.  Returned triples are sorted in descending order.
    """
    require_int(c1, "c1")
    require_int(c2, "c2")
    require_int(c3, "c3")

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
    # Fujiwara's bound holds every root, and each power of two is at least its term
    hi = max(lo, 2 * max(abs(c1), 1 << -(-c2.bit_length() // 2), 1 << -(-c3.bit_length() // 3)))
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

    The group is determined by its base.  ``c3_generator``, the spacing d
    of the feasible c3 lattice, is derived from the base by the closed
    form of :func:`feasible_c3_lattice`, which also rejects an infeasible
    base; the identity (base_c1, base_c2, 0) is built once, as
    ``identity``.  ``kernel_kind`` is the kernel of the c3 homomorphism,
    read off the base by the mod-3 rule.
    """

    base_c1: int
    base_c2: int
    c3_generator: int = field(init=False, compare=False)
    identity: Rank3BundleClass = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # d divides 120, so the cap of 120 never binds; the call also checks
        # that the base, and so the identity, is feasible
        d = feasible_c3_lattice(self.base_c1, self.base_c2, 120)
        object.__setattr__(self, "c3_generator", d)
        object.__setattr__(self, "identity", _class(self.base_c1, self.base_c2, 0))

    @property
    def kernel_kind(self) -> str:
        """Z/3 when both base classes are divisible by 3, trivial otherwise."""
        if self.base_c1 % 3 == 0 and self.base_c2 % 3 == 0:
            return KERNEL_Z3
        return KERNEL_TRIVIAL


def make_group(base_c1: int, base_c2: int, scan: int) -> GroupDescriptorV0:
    """Descriptor for the group over base (base_c1, base_c2), capped by ``scan``.

    Rejects, in this order, a bad ``scan``, an infeasible base and a c3
    spacing above ``scan``, as :func:`feasible_c3_lattice` does; the
    lattice pass runs once, inside the descriptor.
    """
    require_int(scan, "scan bound", 1)
    g = GroupDescriptorV0(base_c1, base_c2)
    _require_within(base_c1, base_c2, g.c3_generator, scan)
    return g


def _require_member(g: GroupDescriptorV0, v: Rank3BundleClass) -> None:
    if v.c1 != g.base_c1 or v.c2 != g.base_c2:
        raise DomainError(
            f"class ({v.c1}, {v.c2}, {v.c3}) is not in the group over "
            f"({g.base_c1}, {g.base_c2})"
        )


def add(
    g: GroupDescriptorV0, v: Rank3BundleClass, w: Rank3BundleClass
) -> Rank3BundleClass:
    """Group sum: c1 and c2 stay fixed, c3 adds.

    The sum needs no re-check: the feasible c3 over the base are exactly
    dZ (see :func:`feasible_c3_lattice`), so the sum of two feasible c3
    is feasible.
    """
    _require_member(g, v)
    _require_member(g, w)
    return _class(g.base_c1, g.base_c2, v.c3 + w.c3)


def iterate(g: GroupDescriptorV0, w: Rank3BundleClass, n: int) -> Rank3BundleClass:
    """n-fold group sum of w with itself: c3 becomes n * c3(w).

    The result needs no re-check: the feasible c3 over the base are
    exactly dZ, so n * c3(w) is feasible with c3(w).
    """
    require_int(n, "iteration count", 1)
    _require_member(g, w)
    return _class(g.base_c1, g.base_c2, n * w.c3)


def smallest_nonsplit_multiple(
    g: GroupDescriptorV0, w: Rank3BundleClass, bound: int
) -> int | None:
    """Least 1 <= n <= bound whose n-fold sum of w is not a sum of line bundles.

    None when every multiple within the bound splits, which is guaranteed
    to persist forever when c3(w) = 0 and the base itself splits.
    """
    require_int(bound, "bound", 1)
    _require_member(g, w)
    for n in range(1, bound + 1):
        if is_split_realizable(g.base_c1, g.base_c2, n * w.c3) is None:
            return n
    return None


# The first 13 primes, and the least strong pseudoprime psi_k to the first k
# of them for k = 1..13 (Jaeschke, "On strong pseudoprimes to several bases",
# Math. Comp. 61, 1993; Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).  Below psi_k the first k bases decide
# primality; psi_13 is _PRIMALITY_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PRODUCT = math.prod(_MR_BASES)
_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                 341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
                 3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_PRIMALITY_BOUND = _PSEUDOPRIMES[-1]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _PRIMALITY_BOUND.

    One gcd stands in for trial division by the bases; Miller-Rabin then
    runs the first k of them, for the least k with n < psi_k.
    """
    if n < 2:
        return False
    if math.gcd(n, _MR_PRODUCT) != 1:
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_PSEUDOPRIMES, n) + 1]:
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
    """Smallest prime strictly greater than n, if below _PRIMALITY_BOUND; tries odd ones past 2."""
    if n < 2:
        return 2
    for candidate in range(n + 1 + n % 2, _PRIMALITY_BOUND, 2):
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
    return p, is_split_realizable(g.base_c1, g.base_c2, p * w.c3) is None


def subgroup_index(g: GroupDescriptorV0, w: Rank3BundleClass):
    """Index of the subgroup generated by w; math.inf when c3(w) = 0.

    With k = c3(w) / c3_generator, a trivial kernel gives |k| directly.
    A Z/3 kernel gives the cokernel order of the presentation
    [[k, r], [0, 3]], which is |det| = 3|k| whatever the untracked
    coordinate r.  The division is exact: feasibility has period 24, and
    the generator divides c3 on all 800 feasible classes mod 24.
    """
    _require_member(g, w)
    if w.c3 == 0:
        return math.inf
    k = w.c3 // g.c3_generator
    if g.kernel_kind == KERNEL_TRIVIAL:
        return abs(k)
    return 3 * abs(k)
