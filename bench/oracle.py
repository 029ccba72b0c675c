"""Independent answers for the benchmark's output checks.

Nothing here imports ``bundle_arith``: every expected value is derived
from first principles so that a fast wrong answer cannot pass.

- Riemann-Roch: the Todd coefficients of CP^n are read off the
  polynomial C(n + a, n) in a (which is chi(O(a)) = sum_j td_j a^(n-j)/(n-j)!),
  power sums come from Newton's identities on integers, and a twist by
  O(t) is applied to the power sums by binomial expansion.  This follows
  the integrality conditions in Hirzebruch, *Topological Methods in
  Algebraic Geometry*, Appendix One.
- Rank 2 on CP^3: the parity rule c1*c2 = 0 (mod 2), the mod-4 rule for
  alpha, and the twist and Horrocks formulas, used to re-evaluate the
  witness expressions of the generation closure.
- Rank 3 on CP^5: the c3 lattice spacing from the slope of chi in c3,
  subgroup indices, integer roots of the characteristic cubic and
  primality (deterministic Miller-Rabin).
- The quadric: a brute-force solution set and the two parametrized
  families, for regenerating every reported generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------- Riemann-Roch


@lru_cache(maxsize=None)
def todd_coefficients(n: int) -> tuple[Fraction, ...]:
    """td_0..td_n of CP^n, from the polynomial C(n + a, n) in a."""
    poly = [1]  # coefficients of prod_{i=1..n} (a + i), lowest degree first
    for i in range(1, n + 1):
        poly = [i * lo + hi for lo, hi in zip(poly + [0], [0] + poly)]
    # [a^(n-j)] C(n+a, n) = poly[n-j] / n!  and it equals td_j / (n-j)!
    return tuple(
        Fraction(poly[n - j] * math.factorial(n - j), math.factorial(n))
        for j in range(n + 1)
    )


@lru_cache(maxsize=None)
def _chi_weights(n: int) -> tuple[tuple[int, ...], int]:
    """Integers A_m and L with L * chi = sum_m A_m * p_m(twisted roots)."""
    td = todd_coefficients(n)
    rational = [td[n - m] / math.factorial(m) for m in range(n + 1)]
    denom = math.lcm(*(w.denominator for w in rational))
    return tuple(int(w * denom) for w in rational), denom


def power_sums(rank: int, n: int, c) -> list[int]:
    """p_0..p_n of the Chern roots; p_0 is the rank (Newton's identities)."""
    e = [0] * (n + 1)
    for i, ci in enumerate(c[:n], start=1):
        e[i] = ci
    p = [rank] + [0] * n
    for k in range(1, n + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * p[k - i]
        p[k] = acc
    return p


def chi(rank: int, n: int, c, t: int = 0) -> Fraction:
    """chi(V(t)) on CP^n for Chern data c of a rank-``rank`` bundle V."""
    p = power_sums(rank, n, c)
    weights, denom = _chi_weights(n)
    total = 0
    for m, weight in enumerate(weights):
        # p_m of the roots shifted by t, by binomial expansion
        total += weight * sum(math.comb(m, k) * t ** (m - k) * p[k] for k in range(m + 1))
    return Fraction(total, denom)


def feasible(rank: int, n: int, c) -> bool:
    """chi(V(t)) is an integer for t = 0..n, hence for every twist."""
    return all(chi(rank, n, c, t).denominator == 1 for t in range(n + 1))


def c3_spacing(c1: int, c2: int) -> int:
    """Spacing d of the feasible c3 over a feasible base (c1, c2) on CP^5.

    chi is affine in c3, so with chi(c1, c2, 0) integral the feasible c3
    are exactly the multiples of the lcm over t = 0..5 of the
    denominators of the slope chi(c1, c2, 1; t) - chi(c1, c2, 0; t).
    """
    if not feasible(3, 5, (c1, c2, 0)):
        raise ValueError(f"base ({c1}, {c2}) is not feasible")
    return math.lcm(
        *(
            (chi(3, 5, (c1, c2, 1), t) - chi(3, 5, (c1, c2, 0), t)).denominator
            for t in range(6)
        )
    )


def kernel_is_z3(c1: int, c2: int) -> bool:
    return c1 % 3 == 0 and c2 % 3 == 0


def subgroup_index(c1: int, c2: int, c3: int) -> int:
    """Index of the subgroup generated by (c1, c2, c3) over its base, c3 != 0."""
    k = abs(c3) // c3_spacing(c1, c2)
    return 3 * k if kernel_is_z3(c1, c2) else k


# ------------------------------------------------------------------- rank 2


def count_rank2(c1: int, c2: int) -> int:
    if (c1 * c2) % 2:
        return 0
    return 2 if c1 % 2 == 0 else 1


def rank2_realizable(c1: int, c2: int) -> bool:
    return (c1 * c2) % 2 == 0


def alpha_balanced(b: int) -> int:
    """alpha of O(b) + O(-b): 1 exactly when b = 2 (mod 4)."""
    return 1 if b % 4 == 2 else 0


def split2(x: int, y: int) -> tuple:
    """(c1, c2, alpha) of O(x) + O(y); alpha is None for odd c1.

    O(x) + O(y) is O(b) + O(-b) twisted by O((x + y)/2) with b = (x - y)/2,
    and twisting leaves alpha unchanged.
    """
    c1 = x + y
    return (c1, x * y, None if c1 % 2 else alpha_balanced((x - y) // 2))


def twist2(cls: tuple, k: int) -> tuple:
    c1, c2, alpha = cls
    return (c1 + 2 * k, c2 + k * c1 + k * k, alpha)


def horrocks2(v: tuple, w: tuple) -> tuple:
    """Horrocks sum on shared c1 = -2n <= 0: alpha gains 1 iff n = 2 (mod 4)."""
    if v[0] != w[0] or v[0] > 0:
        raise ValueError(f"Horrocks sum undefined for {v} and {w}")
    c1 = v[0]
    if c1 % 2:
        return (c1, v[1] + w[1], None)
    bump = 1 if (-c1 // 2) % 4 == 2 else 0
    return (c1, v[1] + w[1], (v[2] + w[2] + bump) % 2)


def epsilon(a: int) -> int:
    return 1 if a % 8 == 4 else 0


def add2(a1: int, v: tuple, w: tuple) -> tuple:
    """Plain group sum over first Chern class a1."""
    if a1 % 2:
        return (a1, v[1] + w[1], None)
    return (a1, v[1] + w[1], (v[2] + w[2] + epsilon(a1)) % 2)


def realizable_classes(c1_min: int, c1_max: int, c2_bound: int) -> set:
    out = set()
    for c1 in range(c1_min, c1_max + 1):
        for c2 in range(-c2_bound, c2_bound + 1):
            if rank2_realizable(c1, c2):
                if c1 % 2:
                    out.add((c1, c2, None))
                else:
                    out.update({(c1, c2, 0), (c1, c2, 1)})
    return out


def agree_cases(c1_min: int, c2_bound: int) -> int:
    """Pairs swept by the Horrocks/group agreement check."""
    return (-c1_min // 2 + 1) * (2 * (2 * c2_bound + 1)) ** 2


def evaluate_witness(expr: str) -> tuple[tuple, int]:
    """(class, operation count) of a split/tensor/horrocks witness expression."""
    cls, cost, end = _parse_witness(expr, 0)
    if end != len(expr):
        raise ValueError(f"trailing text in witness {expr!r}")
    return cls, cost


def _parse_int(s: str, i: int, stop: str) -> tuple[int, int]:
    j = s.index(stop, i)
    return int(s[i:j]), j + len(stop)


def _parse_witness(s: str, i: int) -> tuple[tuple, int, int]:
    if s.startswith("split(", i):
        x, i = _parse_int(s, i + 6, ",")
        y, i = _parse_int(s, i, ")")
        return split2(x, y), 0, i
    if s.startswith("tensor(", i):
        inner, cost, i = _parse_witness(s, i + 7)
        if not s.startswith(", ", i):
            raise ValueError(f"malformed witness {s!r}")
        k, i = _parse_int(s, i + 2, ")")
        return twist2(inner, k), cost + 1, i
    if s.startswith("horrocks(", i):
        first, cost1, i = _parse_witness(s, i + 9)
        if not s.startswith(", ", i):
            raise ValueError(f"malformed witness {s!r}")
        second, cost2, i = _parse_witness(s, i + 2)
        if not s.startswith(")", i):
            raise ValueError(f"malformed witness {s!r}")
        return horrocks2(first, second), cost1 + cost2 + 1, i + 1
    raise ValueError(f"unknown witness term at {s[i:i + 20]!r}")


# ------------------------------------------------------------------- rank 3


def symmetric3(x: int, y: int, z: int) -> tuple[int, int, int]:
    return (x + y + z, x * y + y * z + z * x, x * y * z)


def split_roots_small(c1: int, c2: int, c3: int):
    """Sorted integer roots of t^3 - c1 t^2 + c2 t - c3, or None; small |c3| only."""
    if abs(c3) > 10**8:
        raise ValueError("divisor search is for small |c3| only")
    n = abs(c3)
    candidates = {0}
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            candidates.update({d, -d, n // d, -(n // d)})
    for r in sorted(candidates):
        if ((r - c1) * r + c2) * r - c3 == 0:
            p, q = r - c1, c2 + r * (r - c1)
            disc = p * p - 4 * q
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                s = math.isqrt(disc)
                return tuple(sorted((r, (-p + s) // 2, (-p - s) // 2), reverse=True))
    return None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3 * 10**24:
        raise ValueError("primality bases are proven only below 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    """Smallest prime strictly greater than m."""
    n = m + 1
    while not is_prime(n):
        n += 1
    return n


# ------------------------------------------------------------------ quadric


def canonical(triple) -> tuple[int, int, int]:
    return tuple(sorted(triple, reverse=True))


def quadric_solutions(a: int, b: int, box: int) -> set:
    """Canonical triples with max |x|, |y|, |z| <= box on the split equations."""
    s1, s2 = a + b, a * b
    out = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            z = s1 - x - y
            if abs(z) <= box and x * y + y * z + z * x == s2:
                out.add(canonical((x, y, z)))
    return out


def family1(u: int, v: int, l: int, w: int) -> tuple:
    """(x, y, z, a, b) of the four-parameter family."""
    return (
        w * (v * v + u * v - l * v),
        w * u * (l - v),
        w * u * (u + v),
        w * (u * u + v * v + u * v - l * v),
        w * u * l,
    )


def family2(t: int, l: int, variant: int) -> tuple:
    """(x, y, z, a, b) of the identity-type family."""
    return (t, l, 0, l, t) if variant == 1 else (t, 0, l, t, l)
