"""Small number-theoretic helpers shared across the package."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n <= 0:
        raise ValueError("divisors: n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorize: n must be positive")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    """Moebius function: (-1)^k on squarefree n with k prime factors, 0 else."""
    if n <= 0:
        raise ValueError("mobius: n must be positive")
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def sqrt_exact(x: Fraction) -> Fraction | None:
    """Exact rational square root of x, or None if x is not a perfect square."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None
