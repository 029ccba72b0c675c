"""Exact Riemann-Roch arithmetic on complex projective space.

A bundle V on CP^n enters only through its integer Chern classes.
Newton's identities turn them into the power sums p_k of the Chern
roots (p_0 = rank), so ch_k = p_k / k!.  As chi(O(x)) = C(n + x, n) =
(x + 1)...(x + n) / n! and chi is linear in ch, summing over the roots
gives the integer form of Riemann-Roch (Hirzebruch, *Topological
Methods in Algebraic Geometry*, Appendix One)

    n! * chi(V(t)) = sum_k p_k * e_{n-k}(t + 1, ..., t + n),

e_j the elementary symmetric functions; no Todd class is needed.  The
integrality predicate deciding which integer tuples can occur as Chern
classes of a topological bundle rests on it.

Everything is exact: no floats, no rounding, arbitrary-precision
integers throughout.  All values are immutable and all functions pure,
so concurrent use is safe and results never depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, DomainError

__all__ = [
    "MAX_DIM",
    "ChernVector",
    "split_chern_vector",
    "chern_character",
    "euler_characteristic",
    "is_feasible",
    "feasible_c3_lattice",
]

# Largest ambient dimension accepted.  chi at all twists 0..dim costs
# about dim^3 big-integer operations: for a line bundle on a 2-core x86
# VM, about 0.02 s at dim 64, 0.2 s at 128 and 2 s at 256.
MAX_DIM = 64


@dataclass(frozen=True)
class ChernVector:
    """Integer Chern data c_1..c_rank of a rank-``rank`` bundle on CP^dim.

    Classes above the rank are implicitly zero; classes above the
    ambient dimension die in the ring and are simply carried along.
    ``dim`` is at most :data:`MAX_DIM`.
    """

    rank: int
    dim: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise DomainError(f"rank must be a positive integer, got {self.rank!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim!r}")
        if self.dim > MAX_DIM:
            raise DomainError(f"dim must be at most {MAX_DIM}, got {self.dim}")
        c = tuple(self.c)
        if len(c) != self.rank:
            raise DomainError(
                f"expected {self.rank} Chern classes for rank {self.rank}, got {len(c)}"
            )
        if not all(isinstance(ci, int) for ci in c):
            raise DomainError(f"Chern classes must be integers, got {c!r}")
        object.__setattr__(self, "c", c)


def split_chern_vector(dim: int, twists: tuple[int, ...] | list[int]) -> ChernVector:
    """Chern vector of O(t_1) + ... + O(t_r): elementary symmetric functions."""
    twists = tuple(twists)
    r = len(twists)
    e = [1] + [0] * r
    for t in twists:
        for i in range(r, 0, -1):
            e[i] += e[i - 1] * t
    return ChernVector(r, dim, tuple(e[1:]))


def _power_sums(v: ChernVector) -> list[int]:
    """Power sums p_0..p_dim of the Chern roots of ``v``, with p_0 = rank.

    Newton's recurrence p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... +- k c_k;
    classes above the ambient dimension do not contribute.
    """
    c = v.c[: v.dim]
    p = [v.rank]
    for k in range(1, v.dim + 1):
        acc = (-1) ** (k + 1) * k * c[k - 1] if k <= len(c) else 0
        for i, ci in enumerate(c[: k - 1], start=1):
            acc += (-1) ** (i + 1) * ci * p[k - i]
        p.append(acc)
    return p


def chern_character(v: ChernVector) -> tuple[Fraction, ...]:
    """Chern character ch_0..ch_dim of ``v``: ch_k = p_k / k!, ch_0 = rank."""
    return tuple(
        Fraction(pk, math.factorial(k)) for k, pk in enumerate(_power_sums(v))
    )


def euler_characteristic(v: ChernVector, twist: int = 0) -> Fraction:
    """chi(v tensor O(twist)) on CP^dim, as an exact rational.

    n! * chi = sum_k p_k * e_{n-k}(twist + 1, ..., twist + n), with n = dim.
    """
    if not isinstance(twist, int):
        raise DomainError(f"twist must be an integer, got {twist!r}")
    n = v.dim
    e = [1] + [0] * n
    for i in range(1, n + 1):
        for j in range(i, 0, -1):
            e[j] += e[j - 1] * (twist + i)
    p = _power_sums(v)
    return Fraction(sum(p[k] * e[n - k] for k in range(n + 1)), math.factorial(n))


@lru_cache(maxsize=None)
def _feasible(rank: int, dim: int, c: tuple[int, ...]) -> bool:
    v = ChernVector(rank, dim, c)
    return all(
        euler_characteristic(v, t).denominator == 1 for t in range(dim + 1)
    )


def is_feasible(v: ChernVector) -> bool:
    """Whether ``v`` can be the Chern data of a topological bundle.

    Tests integrality of chi(v(t)) at the twists t = 0..dim.  chi is a
    polynomial of degree dim in the twist, and an integer-valued
    polynomial of degree d is characterized by integer values at d+1
    consecutive integers, so this finite test settles every twist.
    """
    return _feasible(v.rank, v.dim, v.c)


def feasible_c3_lattice(c1: int, c2: int, scan: int) -> int:
    """Spacing d of the feasible c3 values over (c1, c2) for rank 3 on CP^5.

    Requires the identity data (c1, c2, 0) to be feasible.  On CP^5 the
    power sums p_1..p_5 are affine in c3 (c3^2 first enters p_6), so
    chi(c1, c2, c3; t) = chi(c1, c2, 0; t) + c3 * s(t) with
    s(t) = chi(c1, c2, 1; t) - chi(c1, c2, 0; t).  Over a feasible base
    the feasible c3 are therefore exactly dZ, d the lcm of the
    denominators of s(0..5).  In fact d = d8 * d3, with d8 = 8 when the
    base allows only c3 = 0 mod 8 and 4 otherwise, and d3 = 1 when
    (c1, c2) = (0, 0) mod 3 and 3 otherwise; the tests pin both tables.
    ``scan`` caps d: a spacing larger than ``scan`` means the window
    |c3| <= scan holds no nonzero feasible value, and raises
    :class:`ConsistencyError`.
    """
    if not isinstance(scan, int) or scan < 1:
        raise DomainError(f"scan bound must be a positive integer, got {scan!r}")
    base = ChernVector(3, 5, (c1, c2, 0))
    if not is_feasible(base):
        raise DomainError(
            f"identity Chern data ({c1}, {c2}, 0) is not feasible on CP^5"
        )
    unit = ChernVector(3, 5, (c1, c2, 1))
    d = 1
    for t in range(6):
        step = euler_characteristic(unit, t) - euler_characteristic(base, t)
        d = math.lcm(d, step.denominator)
    if d > scan:
        raise ConsistencyError(
            f"only c3 = 0 is feasible for ({c1}, {c2}) within |c3| <= {scan}; "
            "the scan window is too small to see the lattice"
        )
    return d
