"""Lattice-graded expansion of the (twisted) denominator identities.

The product side is a product over positive-cone points alpha of
(1 - e^alpha)^mult_even / (1 + e^alpha)^mult_odd, truncated by the height
h(alpha) = m + n.  The accumulator is bucketed by height, and inside a bucket
a point (r*; m, n) is one integer: r* and m packed as fixed-width signed
digits (Kronecker substitution), so adding two points is adding two ints, and
n = h - m comes from the bucket.  A factor is multiplied in place, walking
the target height down from H so that every bucket it reads still holds the
old product.  A factor of height h reads only buckets of height <= H - h;
factors are processed in increasing height, which makes the many high-height
factors O(1) each.  All coefficients are exact integers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .mult import TwistClass, mult_closed
from .lattices import LorentzianLattice, LorentzianPoint

Key = tuple  # (rcoords tuple, m, n)

# Width in bits of one packed digit.  A series of height H accepts
# coordinates up to (2^23 - 1) // H, 466,033 at H = 18, where the cone's
# dual coordinates stay below 70.
_DIGIT_BITS = 24


def _key(p: LorentzianPoint) -> Key:
    return (p.rcoords, p.m, p.n)


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


class LatticeSeries:
    """Integer-coefficient series on cone points, truncated by height.

    Points go in and come out as (rcoords, m, n) tuples.  Inside, bucket h
    maps pack(r*, m) to the coefficient of the point of height h.  Only the
    zero point may have height 0, so every point the series holds is a sum of
    at most max_height packed points, and pack refuses any coordinate that
    such a sum could carry out of its digit.  Within a bucket the packed
    order is the (m, r*) order.
    """

    def __init__(self, max_height: int, rank: int):
        self.max_height = max_height
        self.rank = rank
        # a digit d is stored in [-half, half) and read back as
        # ((x + half) & mask) - half; the low part, all of r*, likewise
        half = 1 << (_DIGIT_BITS - 1)
        self.limit = (half - 1) // max(max_height, 1)
        self._half, self._mask = half, 2 * half - 1
        low = 1 << (_DIGIT_BITS * rank)
        self._low_half, self._low_mask = low >> 1, low - 1
        # buckets[h] maps packed key -> coefficient, key height is h
        self.buckets: list[dict[int, int]] = [dict()
                                              for _ in range(max_height + 1)]

    @classmethod
    def one(cls, max_height: int, rank: int) -> "LatticeSeries":
        s = cls(max_height, rank)
        s.buckets[0][0] = 1
        return s

    # -- packed keys -----------------------------------------------------

    def pack(self, rcoords, m: int) -> int:
        """m * B^rank + sum_i r*_i * B^(rank-1-i) with B = 2^24."""
        if len(rcoords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        lim = self.limit
        if abs(m) > lim or any(abs(c) > lim for c in rcoords):
            raise OverflowError(f"coordinate beyond +-{lim}")
        code = m
        for c in rcoords:
            code = (code << _DIGIT_BITS) + c
        return code

    def unpack(self, code: int):
        """Inverse of pack: (rcoords, m)."""
        half, mask = self._half, self._mask
        digits = []
        for _ in range(self.rank):
            d = ((code + half) & mask) - half
            digits.append(d)
            code = (code - d) >> _DIGIT_BITS
        return tuple(reversed(digits)), code

    def split(self, code: int):
        """(m, packed r*) of a packed key."""
        low = ((code + self._low_half) & self._low_mask) - self._low_half
        return (code - low) >> (_DIGIT_BITS * self.rank), low

    def _locate(self, key: Key):
        """(height, packed key) of a point."""
        rcoords, m, n = key
        h = m + n
        if h < 0 or (h == 0 and (m or any(rcoords))):
            raise ValueError(f"{key}: only the zero point has height <= 0")
        return h, self.pack(rcoords, m)

    def key_of(self, h: int, code: int) -> Key:
        rcoords, m = self.unpack(code)
        return (rcoords, m, h - m)

    # -- tuple-keyed access ----------------------------------------------

    def coeff(self, key: Key) -> int:
        h = key[1] + key[2]
        if h > self.max_height:
            raise KeyError(f"height {h} beyond truncation {self.max_height}")
        try:
            h, code = self._locate(key)
        except (ValueError, OverflowError):
            return 0  # no such point can be held
        return self.buckets[h].get(code, 0)

    def add_term(self, key: Key, c: int):
        if c == 0 or key[1] + key[2] > self.max_height:
            return
        h, code = self._locate(key)
        b = self.buckets[h]
        nc = b.get(code, 0) + c
        if nc:
            b[code] = nc
        else:
            del b[code]

    def term_count(self) -> int:
        return sum(len(b) for b in self.buckets)

    def items(self):
        """All (key, coefficient) pairs, ordered by (height, m, r*)."""
        out = []
        for h, b in enumerate(self.buckets):
            out.extend((self.key_of(h, code), b[code]) for code in sorted(b))
        return out

    # -- products --------------------------------------------------------

    def mul_factor(self, powers):
        """In-place multiply by 1 + sum_k c_k e^{k*alpha}.

        powers is a list of (key of k*alpha, c_k), each of positive height.
        new[t] = old[t] + sum_k c_k e^{k*alpha} old[t - k*h(alpha)], for t
        from H down to 1, so every bucket read is still the old one.
        """
        H, buckets = self.max_height, self.buckets
        terms = []
        for key, c in powers:
            if c and key[1] + key[2] <= H:
                h, code = self._locate(key)
                if h < 1:
                    raise ValueError("factor terms must have positive height")
                terms.append((h, code, c))
        for t in range(H, 0, -1):
            dst = buckets[t]
            for h, code, c in terms:
                if h <= t:
                    _shift_add(dst, buckets[t - h], code, c)

    def mul_series(self, other: "LatticeSeries") -> "LatticeSeries":
        """Truncated product of two series (used to merge partial products)."""
        H = min(self.max_height, other.max_height)
        out = LatticeSeries(H, self.rank)
        for h1 in range(H + 1):
            for k1, c1 in self.buckets[h1].items():
                for h2 in range(H - h1 + 1):
                    _shift_add(out.buckets[h1 + h2], other.buckets[h2],
                               k1, c1)
        return out

    def __eq__(self, other) -> bool:
        return (self.max_height == other.max_height
                and self.rank == other.rank
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
    member: dict[tuple, bool] = {}  # r* -> in_lattice; (m, n) plays no part
    for p in lor.positive_cone_enum(max_height):
        inside = member.get(p.rcoords)
        if inside is None:
            inside = member[p.rcoords] = lor.in_lattice(p)
        if not inside:
            continue  # multiplicities vanish off L
        if form == "theorem1" or tc.order == 1:
            me, mo = mult_closed(tc, p)
            if me or mo:
                factors.append((p, int(me), int(mo)))
        elif form == "split":
            n2 = -lor.norm(p)
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

    jobs deals the height-sorted factor list round-robin into that many
    chunks.  Each chunk is multiplied into its own accumulator, one chunk
    after another in this process (there is no parallelism), and the partial
    products are then merged by truncated multiplication (mul_series).  The
    result is identical for every chunk count.
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
    the twist's tail series.  Every k <= max_height is read, since the
    primitive vector (0; 1, 0) has max_height multiples in the slice.
    """
    tail = [tc.tail_coeff(k) for k in range(1, max_height + 1)]
    if any(a.denominator != 1 for a in tail):
        raise ValueError("tail coefficient is not an integer")
    out = LatticeSeries.one(max_height, tc.fixed.rank)
    for lam, kmax in tc.lorentzian.primitive_isotropic_enum(max_height):
        if not tc.lorentzian.in_lattice(lam):
            continue
        for k in range(1, kmax + 1):
            out.add_term(_key(lam.multiply(k)), tail[k - 1].numerator)
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


def _anisotropic_ok(prod: LatticeSeries, lor: LorentzianLattice) -> bool:
    """No product term lies off the cone: r*^2 >= 2mn at every key.

    Tested in integers as r*.A r* >= 2mn * D, once per distinct r*.
    """
    D = lor.exponent
    scaled: dict[int, int] = {}  # packed r* -> D * r*^2
    for h, b in enumerate(prod.buckets):
        for code in b:
            m, rpart = prod.split(code)
            q = scaled.get(rpart)
            if q is None:
                q = scaled[rpart] = lor.rstar_norm_scaled(
                    prod.unpack(rpart)[0])
            if q < 2 * m * (h - m) * D:
                return False
    return True


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
    for h, (pb, sb) in enumerate(zip(prod.buckets, sums.buckets)):
        if pb != sb:
            # the least packed key is the least (m, r*) in the bucket
            code = min(k for k in pb.keys() | sb.keys()
                       if pb.get(k, 0) != sb.get(k, 0))
            # (location, expected, got)
            first = (prod.key_of(h, code), sb.get(code, 0), pb.get(code, 0))
            break
    aniso = _anisotropic_ok(prod, tc.lorentzian)
    wall = int((time.monotonic() - start) * 1000)
    return IdentityReport(
        order=tc.order, max_height=max_height, factor_count=len(factors),
        product_terms=prod.term_count(),
        status="pass" if first is None and aniso else "fail",
        first_discrepancy=first, anisotropic_ok=aniso, wall_ms=wall)
