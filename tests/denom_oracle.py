"""The exponential of a lattice-graded log derivative as it was before the
mirror-quarter kernel, kept as the tests' oracle: Miller's recurrence
t F_t = sum_j L_j F_(t-j) over every key of every bucket, each product
summed from the smaller of its two buckets.  It reads any L, symmetric or
not.  Nothing in the package uses this module; tests compare
denom.exponential with it.
"""

from __future__ import annotations

from superdenom.denom import LatticeSeries


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
