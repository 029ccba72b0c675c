"""Rank-3 bundle classes on CP^5 and the groups over a fixed rank-2 base.

A class is the Chern triple (c1, c2, c3), validated against the
integrality predicate of :mod:`bundle_arith.cohomology`.  The known Z/3
refinement of the classification is deliberately not modeled: classes
carry an explicit "untracked" marker instead of a value, and the one
place it could matter (subgroup indices over a base with Z/3 kernel)
uses a presentation determinant that is independent of it.

The group over a base (c1, c2) fixes the first two Chern classes and
adds on c3.  The module also decides split realizability from the gaps
between the roots of the characteristic cubic (a discriminant test and
one integer Newton descent), finds non-split multiples, and produces
the prime witness showing subgroups generated by split classes contain
non-split members.

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

from .cohomology import ChernVector, feasible_c3_lattice, is_feasible
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


@dataclass(frozen=True, init=False, slots=True)
class Rank3BundleClass:
    """Chern triple (c1, c2, c3) of a rank-3 class on CP^5.

    The constructor checks its arguments; only the laws' results, valid by proof, skip it.
    Both store the fields through their slots' descriptors.
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
        _set_c1(self, c1)
        _set_c2(self, c2)
        _set_c3(self, c3)

    @property
    def rho(self) -> str:
        """The Z/3 refinement is intentionally untracked; never a value."""
        return RHO_UNTRACKED


# the slots' setters, bound from the new class that slots=True returned
_set_c1, _set_c2, _set_c3 = (
    getattr(Rank3BundleClass, f).__set__ for f in Rank3BundleClass.__slots__
)


def _class(c1: int, c2: int, c3: int) -> Rank3BundleClass:
    """A class built without validation, for law results valid by proof."""
    v = object.__new__(Rank3BundleClass)
    _set_c1(v, c1)
    _set_c2(v, c2)
    _set_c3(v, c3)
    return v


def split_rank3(x: int, y: int, z: int) -> Rank3BundleClass:
    """Class of O(x) + O(y) + O(z): elementary symmetric functions."""
    for name, value in (("x", x), ("y", y), ("z", z)):
        require_int(value, name)
    return Rank3BundleClass(x + y + z, x * y + y * z + z * x, x * y * z)


def is_split_realizable(c1: int, c2: int, c3: int) -> tuple[int, int, int] | None:
    """Twists (x, y, z) with these symmetric functions, or None.

    The triple exists exactly when f(t) = t^3 - c1 t^2 + c2 t - c3 has
    three integer roots x >= y >= z.  With the gaps a = x - y and
    b = y - z, the discriminant of f is (a b (a + b))^2 and
    d = c1^2 - 3 c2 = a^2 + a b + b^2.  So the discriminant must be a
    perfect square s^2, which makes the roots real and d >= 0, and
    a + b is the root of g(t) = t^3 - d t - s in [sqrt(d), 2 sqrt(d / 3)],
    where g' >= 2d.  Whether f splits or not, 27 times its discriminant
    is 4 d^3 minus a square, so the largest root of g lies in that
    interval.  An integer Newton descent from isqrt(4d // 3), at or right
    of a + b, stays at or right of that root, as g is convex there, and
    steps by at least 1 while g > 0: it takes
    O(log log (|c1| + |c2| + |c3|)) steps, however clustered the roots.
    The gaps are then (t +- isqrt(4d - 3 t^2)) / 2 in either order, with
    y = (c1 - a + b) / 3, and (y + a, y, y - b) is returned, in
    descending order, only when its symmetric functions are the class's.
    """
    require_int(c1, "c1")
    require_int(c2, "c2")
    require_int(c3, "c3")
    disc = c2 * c2 * (c1 * c1 - 4 * c2) + c3 * (c1 * (18 * c2 - 4 * c1 * c1) - 27 * c3)
    s = math.isqrt(max(disc, 0))  # a negative discriminant is no square
    if s * s != disc:
        return None
    d = c1 * c1 - 3 * c2
    t = math.isqrt(4 * d // 3)
    while (g := (t * t - d) * t - s) > 0:
        t -= max(1, g // (3 * t * t - d))
    e = math.isqrt(4 * d - 3 * t * t)
    for a, b in (((t + e) // 2, (t - e) // 2), ((t - e) // 2, (t + e) // 2)):
        y = (c1 - a + b) // 3
        x, z = y + a, y - b
        if (x + y + z, x * y + y * z + z * x, x * y * z) == (c1, c2, c3):
            return (x, y, z)
    return None


@dataclass(frozen=True)
class GroupDescriptorV0:
    """Group of rank-3 classes over a rank-2 base with Chern data (base_c1, base_c2).

    The group is determined by its base.  ``c3_generator``, the spacing d
    of the feasible c3 lattice, is derived from the base by the mod-12
    rules of :func:`feasible_c3_lattice`, which also reject an infeasible
    base; the identity (base_c1, base_c2, 0) is built once, as
    ``identity``.  ``kernel_kind`` is the kernel of the c3 homomorphism,
    read off the spacing: Z/3 exactly when its 3-part d3 is 1.
    """

    base_c1: int
    base_c2: int
    c3_generator: int = field(init=False, compare=False)
    identity: Rank3BundleClass = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        require_int(self.base_c1, "base_c1")
        require_int(self.base_c2, "base_c2")
        # d is one of 4, 8, 12, 24, so the cap of 24 never binds; the call
        # also checks that the base, and so the identity, is feasible
        d = feasible_c3_lattice(self.base_c1, self.base_c2, 24)
        object.__setattr__(self, "c3_generator", d)
        object.__setattr__(self, "identity", _class(self.base_c1, self.base_c2, 0))

    @property
    def kernel_kind(self) -> str:
        """Z/3 when 3 does not divide the spacing (d3 = 1), trivial otherwise."""
        return KERNEL_Z3 if self.c3_generator % 3 else KERNEL_TRIVIAL


def make_group(base_c1: int, base_c2: int, scan: int) -> GroupDescriptorV0:
    """Descriptor for the group over base (base_c1, base_c2), capped by ``scan``.

    Rejects with :class:`DomainError`, in this order, a bad ``scan``, a
    base class that is not an int, an infeasible base and a c3 spacing
    above ``scan``.  The descriptor checks the base and derives the
    spacing once; the cap is then checked against ``c3_generator``.
    """
    require_int(scan, "scan bound", 1)
    g = GroupDescriptorV0(base_c1, base_c2)
    if g.c3_generator > scan:
        feasible_c3_lattice(base_c1, base_c2, scan)  # raises, with the cap's one message
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

    None when every multiple within the bound splits.  When c3(w) = 0
    every multiple is w itself, so n = 1 decides whatever the bound.
    """
    require_int(bound, "bound", 1)
    _require_member(g, w)
    for n in range(1, bound + 1 if w.c3 else 2):
        if is_split_realizable(g.base_c1, g.base_c2, n * w.c3) is None:
            return n
    return None


# The first 13 primes, and the least strong pseudoprime psi_k to the first k
# of them for k = 1..13 (Jaeschke, "On strong pseudoprimes to several bases",
# Math. Comp. 61, 1993; Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).  Below psi_k the first k bases decide
# primality; psi_13 is _PRIMALITY_BOUND.  The primes below _TRIAL_BOUND are
# sieved once, and one gcd with their product stands in for trial division
# by them; that alone decides every n below _TRIAL_BOUND^2.  The bound was
# chosen by the sweep over 256, 512, 1000 and 2048 in BENCH_39.json.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                 341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
                 3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_PRIMALITY_BOUND = _PSEUDOPRIMES[-1]
_TRIAL_BOUND = 1000


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_SMALL_PRIMES = frozenset(_primes_below(_TRIAL_BOUND))
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def _is_prime(n: int) -> bool:
    """Deterministic primality test for n < _PRIMALITY_BOUND.

    One gcd with the product of the primes below _TRIAL_BOUND stands in
    for trial division by them.  An n coprime to it has no prime factor
    below the bound, so below _TRIAL_BOUND^2 it is prime: a composite
    would have one under its square root.  From there up, Miller-Rabin
    decides.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    return n < _TRIAL_BOUND * _TRIAL_BOUND or _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin to the first k bases, for the least k with n < psi_k; n is odd and > 41."""
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
