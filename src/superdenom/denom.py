"""Lattice-graded expansion of the (twisted) denominator identities.

The product side F is a product over positive-cone points alpha of
(1 - e^alpha)^mult_even / (1 + e^alpha)^mult_odd, truncated by the height
h(alpha) = m + n.  Series are bucketed by height, and inside a bucket a point
(r*; m, n) is one integer: r* and m packed as fixed-width signed digits
(Kronecker substitution), so adding two points is adding two ints, and
n = h - m comes from the bucket.

F is the exponential of its log derivative.  With theta the height grading,
theta e^beta = h(beta) e^beta, theta log of one factor is
sum_k h(alpha) (-mult_even - (-1)^(k+1) mult_odd) e^(k alpha), and the key
of k alpha is k times the key of alpha, since packing is linear.  So
L = theta log F is one pass over the factor list with no series products,
and F comes back from L by Miller's recurrence t F_t = sum_j L_j F_(t-j),
whose division by t is exact.  All coefficients are exact integers.

The factor-by-factor in-place accumulator (accumulated_product) computes the
same F another way; it is kept as the independent cross-check and is not on
the verifier's path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

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

    # -- products (the accumulator of accumulated_product) ----------------

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
        """Truncated product of two series."""
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
# the product as exp of its log derivative

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


def exponential(L: LatticeSeries) -> LatticeSeries:
    """The series F with F_0 = 1 and theta log F = L (L's bucket 0 unread).

    Miller's recurrence t F_t = sum_{j=1..t} L_j F_(t-j), each product
    summed from the smaller of its two buckets.  F has integer coefficients
    exactly when every division by t is exact; ArithmeticError otherwise.
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


def expand_product(factors, max_height: int, rank: int,
                   jobs: int = 1) -> LatticeSeries:
    """The product of the factors, truncated by height.

    jobs deals the factor list round-robin into that many chunks whose log
    derivatives are summed, one after another in this process, before the
    one exponential; nothing runs in parallel, and the result is the same
    for every chunk count.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    L = log_derivative(factors[::jobs], max_height, rank)
    for i in range(1, jobs):
        part = log_derivative(factors[i::jobs], max_height, rank)
        for dst, src in zip(L.buckets, part.buckets):
            _shift_add(dst, src, 0, 1)
    return exponential(L)


# ----------------------------------------------------------------------
# the cross-check: one factor at a time into an in-place accumulator

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


def accumulated_product(factors, max_height: int, rank: int,
                        jobs: int = 1) -> LatticeSeries:
    """expand_product computed by series products instead of exp/log.

    The height-sorted factors are dealt round-robin into jobs chunks, each
    multiplied factor by factor into its own accumulator (mul_factor), and
    the partial products are merged by truncated multiplication
    (mul_series).  The verifier does not run this; the tests compare it
    with expand_product.
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


# ----------------------------------------------------------------------
# the two sides

def _factor_list(tc: TwistClass, max_height: int, form: str):
    """Deterministic factor list: (point, m_even, m_odd) with height order.

    form "theorem1": one factor per cone point with its total multiplicity.
    form "split": the two-product shape of the order-3/7 identities — a
    factor with exponent c(-a^2/2) over L^+ and another with c(-a^2/2N)
    over L^+ intersect N L*.  Both lists expand to the same product.
    Order 1 has a single product, and takes the theorem1 form.
    """
    if form not in ("theorem1", "split"):
        raise ValueError(f"unknown product form {form!r}")
    lor = tc.lorentzian
    N, D = tc.order, lor.exponent
    closed = form == "theorem1" or N == 1
    # grow the c series once: the largest exponent read is -alpha^2/2 at
    # r* = 0 and the largest mn
    tc._need((max_height // 2) * ((max_height + 1) // 2))
    factors = []
    rows = lor.rows
    cs: dict[tuple[int, int], int] = {}  # (num, den) -> c(num/den)

    def c_at(num: int, den: int) -> int:
        c = cs.get((num, den))
        if c is None:
            c = cs[num, den] = tc.c_coeff(Fraction(num, den))
        return c

    for p in lor.positive_cone_enum(max_height):
        row = rows[p.rcoords]
        if not row.in_lattice:
            continue  # multiplicities vanish off L
        if closed:
            me, mo = mult_closed(tc, p)
            if me or mo:
                factors.append((p, me, mo))
            continue
        x = 2 * p.m * p.n * D - row.norm_scaled  # D * (-alpha^2)
        c1 = c_at(x, 2 * D)
        if c1:
            factors.append((p, c1, c1))
        if gcd(p.m, p.n, row.gcd) % N == 0:  # alpha in N L*
            c2 = c_at(x, 2 * D * N)
            if c2:
                factors.append((p, c2, c2))
    return factors


def product_side(tc: TwistClass, max_height: int, jobs: int = 1,
                 form: str = "split") -> LatticeSeries:
    """The product over the positive cone, truncated by height: the factor
    list, expanded by expand_product (jobs chunks)."""
    return expand_product(_factor_list(tc, max_height, form), max_height,
                          tc.fixed.rank, jobs)


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
    prod = expand_product(factors, max_height, tc.fixed.rank, jobs)
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
