"""Other ways to the product side, kept as the tests' oracles.

- exponential: the exponential of a lattice-graded log derivative as it
  was before the mirror-quarter kernel, Miller's recurrence
  t F_t = sum_j L_j F_(t-j) over every key of every bucket, each product
  summed from the smaller of its two buckets.  It reads any L, symmetric
  or not.
- log_derivative: L = theta log F of a factor list, one factor at a time.
- accumulated_product: F of a factor list by series products, one factor
  at a time into an in-place accumulator, with no exp or log.

Nothing in the package uses this module; tests compare denom.exponential
and the verifier's product side with it.
"""

from __future__ import annotations

from superdenom.denom import LatticeSeries, expand_factor


def _shift_add(dst: dict, src: dict, shift: int, c: int):
    """dst += c * e^shift * src on packed keys, deleting keys that reach 0."""
    get = dst.get
    for k, v in src.items():
        k += shift
        v = get(k, 0) + v * c
        if v:
            dst[k] = v
        else:
            del dst[k]


def exponential(L: LatticeSeries) -> LatticeSeries:
    """The series F with F_0 = 1 and theta log F = L (L's bucket 0 unread).

    F has integer coefficients exactly when every division by t is exact;
    ArithmeticError otherwise.
    """
    F = LatticeSeries.one(L.max_height, L.rank)
    for t in range(1, L.max_height + 1):
        acc: dict[int, int] = {}
        for j in range(1, t + 1):
            small, big = L.buckets[j], F.buckets[t - j]
            if len(small) > len(big):
                small, big = big, small
            for code, c in small.items():
                _shift_add(acc, big, code, c)
        bucket = F.buckets[t]
        for code, v in acc.items():
            q, r = divmod(v, t)
            if r:
                raise ArithmeticError(
                    f"L is not theta log of an integer series: remainder "
                    f"at height {t}")
            bucket[code] = q
    return F


def log_derivative(factors, max_height: int, rank: int) -> LatticeSeries:
    """L = theta log of the product of (point, m_even, m_odd) factors.

    One pass: factor alpha of height h adds h*(-m_even - (-1)^(k+1) m_odd)
    at k*alpha for every k <= max_height // h.  k*alpha is the sum of k
    copies of alpha, so its digits fit wherever alpha's do.
    """
    L = LatticeSeries(max_height, rank)
    buckets = L.buckets
    for p, me, mo in factors:
        h = p.height
        if h < 1:
            raise ValueError("factor point must have positive height")
        if me < 0 or mo < 0:
            raise ValueError("multiplicities must be nonnegative")
        code = L.pack(p.rcoords, p.m)
        odd, even = -h * (me + mo), h * (mo - me)
        for k in range(1, max_height // h + 1):
            c = odd if k & 1 else even
            if c:
                b, key = buckets[k * h], k * code
                v = b.get(key, 0) + c
                if v:
                    b[key] = v
                else:
                    del b[key]
    return L


def accumulated_product(factors, max_height: int, rank: int,
                        jobs: int = 1) -> LatticeSeries:
    """The product of the factors, by series products instead of exp/log.

    The height-sorted factors are dealt round-robin into jobs chunks, each
    multiplied factor by factor into its own accumulator (mul_factor), and
    the partial products are merged by truncated multiplication
    (mul_series).
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    factors = sorted(factors,
                     key=lambda t: (t[0].height, t[0].m, t[0].rcoords, t[2]))
    result = None
    for i in range(jobs):
        acc = LatticeSeries.one(max_height, rank)
        for p, me, mo in factors[i::jobs]:
            powers = expand_factor(p, me, mo, max_height)
            if powers:
                acc.mul_factor(powers)
        result = acc if result is None else result.mul_series(acc)
    return result
