"""Exact Riemann-Roch arithmetic on complex projective space.

A bundle V on CP^n enters only through its integer Chern classes.
Newton's identities turn them into the power sums p_k of the Chern
roots (p_0 = rank), so ch_k = p_k / k!.  As chi(O(x)) = C(n + x, n) =
(x + 1)...(x + n) / n! and chi is linear in ch, summing over the roots
gives the integer form of Riemann-Roch (Hirzebruch, *Topological
Methods in Algebraic Geometry*, Appendix One)

    n! * chi(V(t)) = sum_k p_k * e_{n-k}(t + 1, ..., t + n),

e_j the elementary symmetric functions; no Todd class is needed, and one
plan per n holds n! and the rows e(t + 1, ..., t + n), t = 0..n.  The
integrality predicate deciding which integer tuples can occur as Chern
classes of a topological bundle rests on this identity.

Everything is exact: no floats, no rounding, arbitrary-precision
integers throughout.  All values are immutable and all functions pure,
so concurrent use is safe and results never depend on evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError, require_int

__all__ = [
    "MAX_DIM",
    "ChernVector",
    "split_chern_vector",
    "chern_character",
    "euler_characteristic",
    "is_feasible",
    "feasible_c3_lattice",
]

# Largest ambient dimension accepted.  The predicate works mod dim!, so its cost is
# bounded whatever the class size.  On a shared 2-core x86 VM (Python 3.11.7), at dim 64
# the plan takes 0.012 s to build once (1.0-1.1 s at dim 256), then a cold `is_feasible`
# takes 2.2 ms at most.  The exact chi that `feasible` prints grows with the classes: with
# 4000-digit classes at dim 64 a fresh process exits 2 in 0.26-0.28 s at rank 1,
# 0.59-0.62 s at rank 3 and 3.7-4.5 s at rank 64 (three runs each).
MAX_DIM = 64


@dataclass(frozen=True, init=False, slots=True)
class ChernVector:
    """Integer Chern data c_1..c_rank of a rank-``rank`` bundle on CP^dim.

    Classes above the rank are implicitly zero; classes above the
    ambient dimension die in the ring and are simply carried along.
    ``dim`` is at most :data:`MAX_DIM`.  The constructor checks its
    arguments before it stores anything, and stores ``c`` as a tuple.
    The fields live in slots, stored through their descriptors.
    """

    rank: int
    dim: int
    c: tuple[int, ...]

    def __init__(self, rank: int, dim: int, c: Iterable[int]) -> None:
        if type(rank) is not int or rank < 1:  # require_int only words the error
            require_int(rank, "rank", 1)
        if type(dim) is not int or dim < 1:
            require_int(dim, "dim", 1)
        if dim > MAX_DIM:
            raise DomainError(f"dim must be at most {MAX_DIM}, got {dim}")
        c = tuple(c)
        if len(c) != rank:
            raise DomainError(f"expected {rank} Chern classes for rank {rank}, got {len(c)}")
        for ci in c:  # a loop, not all(...): no generator on the hot is_feasible path
            if type(ci) is not int:
                raise DomainError(f"c must hold integer Chern classes, got {c!r}")
        _set_rank(self, rank)
        _set_dim(self, dim)
        _set_c(self, c)


# the slots' setters, bound from the new class that slots=True returned
_set_rank, _set_dim, _set_c = (getattr(ChernVector, f).__set__ for f in ChernVector.__slots__)


def split_chern_vector(dim: int, twists: tuple[int, ...] | list[int]) -> ChernVector:
    """Chern vector of O(t_1) + ... + O(t_r): elementary symmetric functions."""
    twists = tuple(twists)
    for i, t in enumerate(twists):
        if type(t) is not int:  # the name is formatted only for a bad twist
            require_int(t, f"twists[{i}]")
    return ChernVector(len(twists), dim, tuple(_elementary(twists)[1:]))


def _elementary(xs: Iterable[int]) -> list[int]:
    """Elementary symmetric functions e_0..e_m of the m integers ``xs``."""
    e = [1]
    for x in xs:
        e.append(0)
        for j in range(len(e) - 1, 0, -1):
            e[j] += e[j - 1] * x
    return e


def _power_sums(rank: int, dim: int, c: tuple[int, ...], m: int = 0) -> list[int]:
    """Power sums p_0..p_dim of the Chern roots (p_0 = rank), mod m if m > 0.

    Newton's recurrence p_k = s_1 p_{k-1} + ... + s_{k-1} p_1 + k s_k, with
    the signs folded into s_i = (-1)^(i+1) c_i, has integer coefficients,
    so mod m every p_k stays below m however large the classes: one pass
    folds the signs and reduces the classes.  Classes above the ambient
    dimension do not contribute.
    """
    if m:
        s = [(ci if i % 2 else -ci) % m for i, ci in enumerate(c[:dim], start=1)]
    else:
        s = [ci if i % 2 else -ci for i, ci in enumerate(c[:dim], start=1)]
    r, back = len(s), []  # back holds p_{k-1}, ..., p_1
    for k in range(1, dim + 1):
        acc = sum(map(mul, s, back), k * s[k - 1] if k <= r else 0)
        back.insert(0, acc % m if m else acc)
    return [rank, *reversed(back)]


def chern_character(v: ChernVector) -> tuple[Fraction, ...]:
    """Chern character ch_0..ch_dim of ``v``: ch_k = p_k / k!, ch_0 = rank."""
    p = _power_sums(v.rank, v.dim, v.c)
    return tuple(Fraction(pk, math.factorial(k)) for k, pk in enumerate(p))


@lru_cache(maxsize=None)  # keyed by dim, so MAX_DIM bounds it
def _plan(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """n! and the row cache: row t holds e_{n-k}(t + 1, ..., t + n), k = 0..n, t = 0..n."""
    rows = tuple(tuple(_elementary(range(t + 1, t + n + 1))[::-1]) for t in range(n + 1))
    return math.factorial(n), rows


def _chis(rank: int, dim: int, c: tuple[int, ...], twists: Iterable[int]) -> Iterator[int]:
    """The integers n! * chi(v(t)), v = (rank, dim, c), for t in ``twists``.

    n! * chi = sum_k p_k * e_{n-k}(t + 1, ..., t + n), with n = dim.  The
    power sums, costly for large classes, are computed once per vector,
    and the rows of t = 0..dim come from the row cache of :func:`_plan`;
    any other twist builds its own row.
    """
    p = _power_sums(rank, dim, c)
    rows = _plan(dim)[1]
    for t in twists:
        row = rows[t] if 0 <= t <= dim else _elementary(range(t + 1, t + dim + 1))[::-1]
        yield sum(map(mul, p, row))


def euler_characteristic(v: ChernVector, twist: int = 0) -> Fraction:
    """chi(v tensor O(twist)) on CP^dim, as an exact rational."""
    require_int(twist, "twist")
    return Fraction(next(_chis(v.rank, v.dim, v.c, (twist,))), _plan(v.dim)[0])


# bounded, so a long sweep of distinct classes holds bounded memory
@lru_cache(maxsize=2**15)
def _feasible(rank: int, dim: int, c: tuple[int, ...]) -> bool:
    # n! * chi is an integer polynomial in the classes: mod n! it reads their residues.
    # A plain loop, as generators would cost about as much as the arithmetic
    m, rows = _plan(dim)
    p = _power_sums(rank, dim, c, m)
    for t in range(dim - 2):
        if sum(map(mul, p, rows[t])) % m:
            return False
    return True


def is_feasible(v: ChernVector) -> bool:
    """Whether ``v`` can be the Chern data of a topological bundle.

    That is, whether chi(v(t)) is an integer at every twist t.  With
    n = dim, write v = sum_k a_k (1 - O(-1))^k rationally; then chi(v(t))
    = sum_k a_k C(t + n - k, n - k), and a_0 = rank, a_1 = c1 and a_2 =
    c1 (c1 + 1) / 2 - c2 are integers.  The binomials are integer-valued,
    and the rest of the sum has degree at most n - 3 in t, so the n - 2
    twists t = 0..n-3 settle every twist (none on CP^1 and CP^2).
    """
    return _feasible(v.rank, v.dim, v.c)


def feasible_c3_lattice(c1: int, c2: int, scan: int) -> int:
    """Spacing d of the feasible c3 values over (c1, c2) for rank 3 on CP^5.

    Requires the identity data (c1, c2, 0) to be feasible: with r1, r2 =
    c1, c2 mod 12, exactly when r2 (r2 + 1 - r1) = 0 mod 4 and r2 (r2 + 1
    + r1^2) = 0 mod 3.  The feasible c3 are then dZ with d = d8 * d3: d8 =
    8 when c1 is even and 4 divides c2, else 4, and d3 = 1 when (c1, c2) =
    (0, 0) mod 3, else 3.  Proof: feasibility and d read only (c1, c2) mod
    24 (``test_period_24_by_finite_differences``), and the rules match
    integer Riemann-Roch on every base with |c1|, |c2| <= 40, every
    residue pair mod 24 (``test_lattice_spacing_is_d8_times_d3``).
    ``scan`` caps d: a spacing larger than ``scan`` means the window
    |c3| <= scan holds no nonzero feasible value, so the window is bad
    input and raises :class:`DomainError`.
    """
    require_int(scan, "scan bound", 1)
    if type(c1) is not int:  # require_int only words the error
        require_int(c1, "c1")
    if type(c2) is not int:
        require_int(c2, "c2")
    r1, r2 = c1 % 12, c2 % 12  # both rules read only these residues
    if r2 * (r2 + 1 - r1) % 4 or r2 * (r2 + 1 + r1 * r1) % 3:
        raise DomainError(
            f"identity Chern data ({c1}, {c2}, 0) is not feasible on CP^5"
        )
    d = (8 if r1 % 2 == 0 and r2 % 4 == 0 else 4) * (1 if r1 % 3 == r2 % 3 == 0 else 3)
    if d > scan:
        raise DomainError(
            f"only c3 = 0 is feasible for ({c1}, {c2}) within |c3| <= {scan}; "
            "the scan window is too small to see the lattice"
        )
    return d
