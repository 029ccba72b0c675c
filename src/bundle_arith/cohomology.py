"""Exact arithmetic in the rational cohomology of complex projective space.

The ambient ring H*(CP^n; Q) = Q[h]/(h^(n+1)) is modeled by
:class:`TruncatedSeries` with :class:`fractions.Fraction` coefficients.
On top of it sit the Chern character (computed from Chern classes via
Newton's identities), the Todd class of CP^n, exact twisted Euler
characteristics, and the integrality predicate deciding which integer
tuples can occur as Chern classes of a topological bundle.

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
    "TruncatedSeries",
    "ChernVector",
    "split_chern_vector",
    "chern_character",
    "todd_class",
    "euler_characteristic",
    "is_feasible",
    "feasible_c3_lattice",
]


def _as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(
        f"coefficients must be exact rationals, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial in the hyperplane class h, all terms above degree ``cap`` dropped.

    ``coeffs[i]`` is the exact rational coefficient of h^i; exactly
    ``cap + 1`` coefficients are stored.
    """

    cap: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.cap, int) or self.cap < 0:
            raise DomainError(f"cap must be a non-negative integer, got {self.cap!r}")
        coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        if len(coeffs) != self.cap + 1:
            raise DomainError(
                f"expected {self.cap + 1} coefficients for cap {self.cap}, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, cap: int, value: int | Fraction = 1) -> "TruncatedSeries":
        return cls(cap, (_as_fraction(value),) + (Fraction(0),) * cap)

    @classmethod
    def exponential(cls, cap: int, t: int | Fraction) -> "TruncatedSeries":
        """exp(t*h) truncated at ``cap``."""
        t = _as_fraction(t)
        return cls(cap, tuple(t**k / math.factorial(k) for k in range(cap + 1)))

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of h^k (zero above the cap)."""
        if k < 0:
            raise DomainError(f"degree must be non-negative, got {k}")
        return self.coeffs[k] if k <= self.cap else Fraction(0)

    def _check_cap(self, other: "TruncatedSeries") -> None:
        if self.cap != other.cap:
            raise DomainError(f"series caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_cap(other)
        return TruncatedSeries(
            self.cap, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.cap, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries | int | Fraction") -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            return TruncatedSeries(self.cap, tuple(scalar * a for a in self.coeffs))
        self._check_cap(other)
        out = [Fraction(0)] * (self.cap + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.cap - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(self.cap, tuple(out))

    __rmul__ = __mul__

    def power(self, k: int) -> "TruncatedSeries":
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"exponent must be a non-negative integer, got {k!r}")
        out = TruncatedSeries.constant(self.cap)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a unit constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("series with zero constant term has no inverse")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.cap
        for k in range(1, self.cap + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return TruncatedSeries(self.cap, tuple(out))


@dataclass(frozen=True)
class ChernVector:
    """Integer Chern data c_1..c_rank of a rank-``rank`` bundle on CP^dim.

    Classes above the rank are implicitly zero; classes above the
    ambient dimension die in the ring and are simply carried along.
    """

    rank: int
    dim: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise DomainError(f"rank must be a positive integer, got {self.rank!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim!r}")
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


def chern_character(v: ChernVector) -> TruncatedSeries:
    """Chern character of ``v`` truncated at v.dim.

    The degree-0 coefficient is the rank; the degree-k coefficient is
    p_k / k! where the power sums p_k of the Chern roots come from the
    Newton recurrence p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... +- k c_k.
    """
    n = v.dim
    e = [0] * (n + 1)
    for i, ci in enumerate(v.c[:n], start=1):
        e[i] = ci
    p = [0] * (n + 1)
    for k in range(1, n + 1):
        acc = (-1) ** (k + 1) * k * e[k]
        for i in range(1, k):
            if e[i]:
                acc += (-1) ** (i + 1) * e[i] * p[k - i]
        p[k] = acc
    coeffs = (Fraction(v.rank),) + tuple(
        Fraction(p[k], math.factorial(k)) for k in range(1, n + 1)
    )
    return TruncatedSeries(n, coeffs)


@lru_cache(maxsize=None)
def todd_class(n: int) -> TruncatedSeries:
    """Todd class of CP^n: (h / (1 - exp(-h)))^(n+1), truncated at degree n."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"ambient dimension must be a positive integer, got {n!r}")
    # (1 - exp(-h)) / h = sum_k (-1)^k h^k / (k+1)!
    base = TruncatedSeries(
        n, tuple(Fraction((-1) ** k, math.factorial(k + 1)) for k in range(n + 1))
    )
    return base.inverse().power(n + 1)


@lru_cache(maxsize=None)
def _ch_todd_coeffs(rank: int, dim: int, c: tuple[int, ...]) -> tuple[Fraction, ...]:
    v = ChernVector(rank, dim, c)
    return (chern_character(v) * todd_class(dim)).coeffs


def euler_characteristic(v: ChernVector, twist: int = 0) -> Fraction:
    """chi(v tensor O(twist)) on CP^dim, as an exact rational.

    Tensoring by O(twist) multiplies the Chern character by
    exp(twist*h), so with S = ch(v) * Td(CP^dim) the answer is the
    h^dim coefficient sum_j S_j * twist^(dim-j) / (dim-j)!.
    """
    if not isinstance(twist, int):
        raise DomainError(f"twist must be an integer, got {twist!r}")
    s = _ch_todd_coeffs(v.rank, v.dim, v.c)
    n = v.dim
    total = Fraction(0)
    for j, coeff in enumerate(s):
        if coeff:
            total += coeff * Fraction(twist ** (n - j), math.factorial(n - j))
    return total


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
    denominators of s(0..5).  ``scan`` caps d: a spacing larger than
    ``scan`` means the window |c3| <= scan holds no nonzero feasible
    value, and raises :class:`ConsistencyError`.
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
