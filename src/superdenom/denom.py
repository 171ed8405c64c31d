"""Lattice-graded expansion of the (twisted) denominator identities.

The product side is a product over positive-cone points alpha of
(1 - e^alpha)^mult_even / (1 + e^alpha)^mult_odd, truncated by the height
h(alpha) = m + n.  The accumulator is bucketed by height so that a factor of
height h only ever touches accumulator entries of height <= H - h; factors
are processed in increasing height, which makes the many high-height factors
O(1) each.  All coefficients are exact integers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .mult import TwistClass, mult_closed
from .lattices import LorentzianPoint

Key = tuple  # (rcoords tuple, m, n)


def _key(p: LorentzianPoint) -> Key:
    return (p.rcoords, p.m, p.n)


class LatticeSeries:
    """Integer-coefficient series on cone points, truncated by height."""

    def __init__(self, max_height: int):
        self.max_height = max_height
        # buckets[h] maps key -> coefficient, key height is h
        self.buckets: list[dict[Key, int]] = [dict()
                                              for _ in range(max_height + 1)]

    @classmethod
    def one(cls, max_height: int, rank: int) -> "LatticeSeries":
        s = cls(max_height)
        s.buckets[0][((0,) * rank, 0, 0)] = 1
        return s

    def coeff(self, key: Key) -> int:
        h = key[1] + key[2]
        if h > self.max_height:
            raise KeyError(f"height {h} beyond truncation {self.max_height}")
        return self.buckets[h].get(key, 0)

    def add_term(self, key: Key, c: int):
        h = key[1] + key[2]
        if h > self.max_height or c == 0:
            return
        b = self.buckets[h]
        nc = b.get(key, 0) + c
        if nc:
            b[key] = nc
        else:
            b.pop(key, None)

    def term_count(self) -> int:
        return sum(len(b) for b in self.buckets)

    def items(self):
        """All (key, coefficient) pairs in deterministic order."""
        out = []
        for b in self.buckets:
            out.extend(b.items())
        out.sort(key=lambda kv: (kv[0][1] + kv[0][2], kv[0][1], kv[0][0]))
        return out

    def mul_factor(self, powers):
        """In-place multiply by 1 + sum_k c_k e^{k*alpha}.

        powers is a list of (key of k*alpha, c_k) with c_k != 0.
        """
        H = self.max_height
        updates = []
        for (rc, fm, fn), c in powers:
            fh = fm + fn
            for h in range(H - fh + 1):
                for (arc, am, an), ac in self.buckets[h].items():
                    updates.append((
                        (tuple(a + b for a, b in zip(arc, rc)),
                         am + fm, an + fn), ac * c))
        for key, c in updates:
            self.add_term(key, c)

    def mul_series(self, other: "LatticeSeries") -> "LatticeSeries":
        """Truncated product of two series (used to merge partial products)."""
        H = min(self.max_height, other.max_height)
        out = LatticeSeries(H)
        for h1 in range(H + 1):
            for (rc1, m1, n1), c1 in self.buckets[h1].items():
                for h2 in range(H - h1 + 1):
                    for (rc2, m2, n2), c2 in other.buckets[h2].items():
                        out.add_term(
                            (tuple(a + b for a, b in zip(rc1, rc2)),
                             m1 + m2, n1 + n2), c1 * c2)
        return out

    def __eq__(self, other) -> bool:
        return (self.max_height == other.max_height
                and self.buckets == other.buckets)


# ----------------------------------------------------------------------
# factor expansion

_factor_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}


def factor_coefficients(m_even: int, m_odd: int, kmax: int):
    """Coefficients 1..kmax of (1-x)^{m_even} * (1+x)^{-m_odd}."""
    key = (m_even, m_odd, kmax)
    cached = _factor_cache.get(key)
    if cached is not None:
        return cached
    # (1-x)^a has coefficients (-1)^j C(a,j); (1+x)^{-b} has coefficients
    # (-1)^j C(b+j-1,j); convolve the first kmax+1 of each
    num = [(-1) ** j * comb(m_even, j) for j in range(kmax + 1)]
    den = [(-1) ** j * comb(m_odd + j - 1, j) if j else 1
           for j in range(kmax + 1)]
    result = tuple(sum(num[j] * den[k - j] for j in range(k + 1))
                   for k in range(1, kmax + 1))
    _factor_cache[key] = result
    return result


def expand_factor(alpha: LorentzianPoint, m_even: int, m_odd: int,
                  max_height: int):
    """Nonconstant terms of (1-e^a)^{m_even}(1+e^a)^{-m_odd}, height-cut.

    Returns a list of (key of k*alpha, coefficient).
    """
    h = alpha.height
    if h < 1:
        raise ValueError("factor point must have positive height")
    if m_even < 0 or m_odd < 0:
        raise ValueError("multiplicities must be nonnegative")
    kmax = max_height // h
    coeffs = factor_coefficients(m_even, m_odd, kmax)
    return [(_key(alpha.multiply(k + 1)), c)
            for k, c in enumerate(coeffs) if c]


# ----------------------------------------------------------------------
# the two sides

def _factor_list(tc: TwistClass, max_height: int, form: str):
    """Deterministic factor list: (point, m_even, m_odd) with height order.

    form "theorem1": one factor per cone point with its total multiplicity.
    form "split": the two-product shape of the order-3/7 identities — a
    factor with exponent c(-a^2/2) over L^+ and another with c(-a^2/2N)
    over L^+ intersect N L*.  Both lists expand to the same product.
    """
    lor = tc.lorentzian
    factors = []
    for p in lor.positive_cone_enum(max_height):
        if not lor.in_lattice(p):
            continue  # multiplicities vanish off L
        n2 = -lor.norm(p)
        if form == "theorem1" or tc.order == 1:
            me, mo = mult_closed(tc, p)
            if me or mo:
                factors.append((p, int(me), int(mo)))
        elif form == "split":
            c1 = tc.c_coeff(n2 / 2)
            if c1:
                factors.append((p, int(c1), int(c1)))
            if lor.in_n_dual(p, tc.order):
                c2 = tc.c_coeff(n2 / (2 * tc.order))
                if c2:
                    factors.append((p, int(c2), int(c2)))
        else:
            raise ValueError(f"unknown product form {form!r}")
    return factors


def product_side(tc: TwistClass, max_height: int, jobs: int = 1,
                 form: str = "split") -> LatticeSeries:
    """Expand the product over the positive cone, truncated by height.

    jobs partitions the factor list into contiguous chunks whose partial
    products are merged by truncated multiplication; the result is identical
    for every chunk count.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    factors = _factor_list(tc, max_height, form)
    factors.sort(key=lambda t: (t[0].height, t[0].m, t[0].rcoords, t[2]))
    chunks = [factors[i::jobs] for i in range(jobs)] if jobs > 1 else [factors]
    partials = []
    for chunk in chunks:
        acc = LatticeSeries.one(max_height, tc.fixed.rank)
        for p, me, mo in chunk:
            powers = expand_factor(p, me, mo, max_height)
            if powers:
                acc.mul_factor(powers)
        partials.append(acc)
    result = partials[0]
    for other in partials[1:]:
        result = result.mul_series(other)
    return result


def sum_side(tc: TwistClass, max_height: int) -> LatticeSeries:
    """1 + sum over multiples of primitive norm-zero cone points of L.

    The coefficient at k times a primitive vector is the k-th coefficient of
    the twist's tail series.
    """
    out = LatticeSeries.one(max_height, tc.fixed.rank)
    for lam, kmax in tc.lorentzian.primitive_isotropic_enum(max_height):
        if not tc.lorentzian.in_lattice(lam):
            continue
        for k in range(1, kmax + 1):
            a = tc.tail_coeff(k)
            if a.denominator != 1:
                raise ValueError("tail coefficient is not an integer")
            out.add_term(_key(lam.multiply(k)), int(a))
    return out


@dataclass
class IdentityReport:
    order: int
    max_height: int
    factor_count: int
    product_terms: int
    status: str
    first_discrepancy: tuple | None
    anisotropic_ok: bool
    wall_ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def verify_identity(order: int, max_height: int, jobs: int = 1,
                    form: str = "split",
                    tc: TwistClass | None = None) -> IdentityReport:
    """Compare the product and sum sides exactly up to the height cut."""
    start = time.monotonic()
    if tc is None:
        tc = TwistClass(order)
    factors = _factor_list(tc, max_height, form)
    prod = product_side(tc, max_height, jobs=jobs, form=form)
    sums = sum_side(tc, max_height)
    first = None
    keys = sorted(set(k for k, _ in prod.items())
                  | set(k for k, _ in sums.items()),
                  key=lambda k: (k[1] + k[2], k[1], k[0]))
    for k in keys:
        a, b = prod.coeff(k), sums.coeff(k)
        if a != b:
            first = (k, b, a)  # (location, expected, got)
            break
    aniso = True
    for k, c in prod.items():
        p = LorentzianPoint(k[0], k[1], k[2])
        if tc.lorentzian.norm(p) < 0 and c != 0:
            aniso = False
            break
    wall = int((time.monotonic() - start) * 1000)
    return IdentityReport(
        order=tc.order, max_height=max_height, factor_count=len(factors),
        product_terms=prod.term_count(),
        status="pass" if first is None and aniso else "fail",
        first_discrepancy=first, anisotropic_ok=aniso, wall_ms=wall)
