"""Lattice-graded expansion of the (twisted) denominator identities.

The superalgebra has no real roots and Weyl vector 0, so every factor of the
product side and every term of the sum side lies on L = fixed + II_{1,1}.
The product side F is a product over the roots alpha = (r; m, n) of L^+ of
(1 - e^alpha)^mult / (1 + e^alpha)^mult, truncated by the height
h(alpha) = m + n.  Series are bucketed by height, and inside a bucket a point
is one integer: the dual coordinates r* = G c of r (G the Gram matrix, c the
coordinates) and m packed as fixed-width signed digits (Kronecker
substitution), so adding two points is adding two ints, and n = h - m comes
from the bucket.

The verifier enumerates the fixed lattice once, up to norm 2 max(mn), bucketed
by norm (lattice_vectors).  The key of r is pack(G c), which by linearity
is sum_i c_i P_i, P_i the packed i-th column of G.  A root's multiplicity
depends only on its norm class r^2 = q, on (m, n) and on whether it lies in
N L*, so it is read once per class from mult.class_multiplicity, the closed
form that mult_closed reads too and that verify mult checks against the
Moebius convolution.

F is the exponential of its log derivative.  With theta the height grading,
theta e^beta = h(beta) e^beta, theta log of one factor is
-2 h(alpha) mult e^(k alpha) summed over odd k, and the key of k alpha is k
times the key of alpha.  So L = theta log F is one loop over (h, m) and the
norm classes q <= 2mn, with one dict update per (vector, odd k)
(lattice_log_derivative), and F comes back from L by Miller's recurrence
t F_t = sum_j L_j F_(t-j), whose division by t is exact (exponential).
A multiplicity depends only on alpha^2 and on N-divisibility, so L and F
are invariant under the two mirrors of L that keep L^+ and the height,
r* -> -r* and m <-> n, and exp commutes with both.  exponential first
checks exactly that every bucket of L is invariant (ValueError
otherwise), then computes t F_t only on the quarter of each bucket with
m <= t // 2 and packed r* >= 0, which holds one key of every orbit, and
writes each quotient at its images.  product_side is the verifier's
product stage: the fused L, then its exponential.  The sum side reads
the same buckets at q = 2mn.  All coefficients are exact integers.

The factor list over the cone of L* (_factor_list) and the factor-by-factor
in-place accumulator (expand_factor, mul_factor, mul_series) are not on the
verifier's path.  They stay because the tests' cross-checks in
tests/denom_oracle.py build the same F from them, and because the
benchmark's tracer (perfbench/tracing.py) looks their names up.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .mult import TwistClass, class_multiplicity, mult_closed
from .lattices import LorentzianPoint, vectors_by_norm

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
        if abs(m) > lim or max(map(abs, rcoords), default=0) > lim:
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

    # -- products (the in-place accumulator of the tests' cross-check) ----

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
# the exponential

def _quarter(t: int, bucket: dict, unit: int, bits: int) -> dict:
    """The keys of bucket t of L with m <= t // 2 and packed r* >= 0, and
    their values; ValueError unless the bucket is invariant under r* -> -r*
    and m <-> n.

    Every orbit of the two mirrors has exactly one key in the quarter, so
    the bucket is invariant exactly when each quarter key's images carry
    its value and the orbits of the quarter account for every key.  The
    images of k = m unit + r* are 2 m unit - k (r* -> -r*), t unit - k
    (both) and t unit - 2 m unit + k (m <-> n).
    """
    half, tu, b1 = unit >> 1, t * unit, bits + 1
    # a key is below bound exactly when its m is at most t // 2, and its
    # packed r* is >= 0 exactly when bit bits - 1 of the key is clear
    bound = (t // 2 + 1) * unit - half
    quarter = {k: v for k, v in bucket.items() if k < bound and not k & half}
    size = 0
    try:
        for k, v in quarter.items():
            m = k >> bits
            if 2 * m == t:  # m <-> n fixes the row: its keys' images agree
                rk = tu - k
                if bucket[rk] != v:
                    break
                size += 1 if rk == k else 2
            else:
                rk = (m << b1) - k
                if bucket[rk] != v or bucket[tu - k] != v \
                        or bucket[tu - rk] != v:
                    break
                size += 2 if rk == k else 4
        else:
            if size == len(bucket):
                return quarter
    except KeyError:
        pass
    raise ValueError(
        f"L is not invariant under r* -> -r* and m <-> n at height {t}")


def _unfold(t: int, quarter, values: dict, unit: int, bits: int):
    """Bucket t, invariant under both mirrors, from the keys of its quarter
    and a dict holding their values, as (keys, values, m_lo, starts), or
    None if it is empty.

    keys ascend, and row m, the keys in [m unit - unit/2, m unit + unit/2),
    is keys[starts[m - m_lo]:starts[m - m_lo + 1]] for m from m_lo to
    t - m_lo.  Row m <= t // 2 is the quarter's row preceded by its mirror
    under r* -> -r* (the key m unit, r* = 0, is its own mirror), and row
    m > t // 2 is row t - m moved by m <-> n.
    """
    if not quarter:
        return None
    ckeys = sorted(quarter)
    cvals = list(map(values.__getitem__, ckeys))
    m_lo = ckeys[0] >> bits
    rows, s = [], 0
    for m in range(m_lo, t // 2 + 1):
        e = bisect_left(ckeys, (m + 1) * unit, s)
        row, rv = ckeys[s:e], cvals[s:e]
        z = 1 if row and row[0] == m * unit else 0
        rows.append((list(map((2 * m * unit).__sub__, reversed(row[z:])))
                     + row, rv[z:][::-1] + rv))
        s = e
    keys, vals, starts = [], [], [0]
    for m in range(m_lo, t - m_lo + 1):
        if 2 * m <= t:
            row, rv = rows[m - m_lo]
        else:
            row, rv = rows[t - m - m_lo]
            row = map(((2 * m - t) * unit).__add__, row)
        keys += row
        vals += rv
        starts.append(len(keys))
    return keys, vals, m_lo, starts


def exponential(L: LatticeSeries) -> LatticeSeries:
    """The series F with F_0 = 1 and theta log F = L (L's bucket 0 unread).

    Miller's recurrence t F_t = sum_{j=1..t} L_j F_(t-j), summed only on
    the quarter of bucket t with m <= t // 2 and packed r* >= 0: each
    term of the smaller of L_j and F_(t-j) meets, row by row, the slice of
    the larger that lands there.  L must be invariant under r* -> -r* and
    under m <-> n (ValueError otherwise); then so is F, and the quarter
    fills the rest of each bucket.  F has integer coefficients exactly when
    every division by t is exact; ArithmeticError otherwise.
    """
    H = L.max_height
    bits = _DIGIT_BITS * L.rank
    unit, b1 = 1 << bits, bits + 1
    quarters = [None] + [_quarter(t, L.buckets[t], unit, bits)
                         for t in range(1, H + 1)]
    # bucket j < H of L meets F_(t-j) with t - j >= 1, so it is read by
    # rows; bucket H meets only F_0, that is, only its quarter is read
    Ls = [None] + [_unfold(j, quarters[j], quarters[j], unit, bits)
                   for j in range(1, H)]
    F = LatticeSeries.one(H, L.rank)
    Fs = [([0], [1], 0, [0, 1])]  # F_0 = 1 as _unfold gives it
    for t in range(1, H + 1):
        top = t // 2
        acc = quarters[t]  # L_t F_0
        get = acc.get
        for j in range(1, t):
            a, b = Ls[j], Fs[t - j]
            if a is None or b is None:
                continue
            if len(a[0]) > len(b[0]):
                a, b = b, a
            akeys, avals, a_lo, astarts = a
            bkeys, bvals, b_lo, bstarts = b
            for ia in range(len(astarts) - 1):
                ma = a_lo + ia
                # the rows of b that land at m <= top
                b_rows = range(min(top - ma - b_lo + 1, len(bstarts) - 1))
                if not b_rows:
                    break
                s, e = astarts[ia], astarts[ia + 1]
                base = ma * unit
                for ka, ca in zip(akeys[s:e], avals[s:e]):
                    least = base - ka  # the least packed r*_b, -r*_a
                    for ib in b_rows:
                        be = bstarts[ib + 1]
                        bs = bisect_left(bkeys, (b_lo + ib) * unit + least,
                                         bstarts[ib], be)
                        for kb, cb in zip(bkeys[bs:be], bvals[bs:be]):
                            kb += ka
                            acc[kb] = get(kb, 0) + ca * cb
        # t F_t on the quarter; each quotient goes to its images
        bucket, tu = F.buckets[t], t * unit
        for k, v in acc.items():
            if v:
                q = v // t
                if q * t != v:
                    raise ArithmeticError(
                        f"L is not theta log of an integer series: "
                        f"remainder at height {t}")
                bucket[k] = q
                m = k >> bits
                rk = (m << b1) - k
                bucket[rk] = q
                if 2 * m != t:
                    bucket[tu - k] = bucket[tu - rk] = q
        # F_H is read by nobody, so it needs no rows
        Fs.append(_unfold(t, [k for k, v in acc.items() if v], bucket,
                          unit, bits) if t < H else None)
    return F


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


# ----------------------------------------------------------------------
# the factor list over the cone of L*: the tests' cross-check

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


# ----------------------------------------------------------------------
# the verifier's path: one enumeration of the fixed lattice

def lattice_vectors(tc: TwistClass, series: LatticeSeries):
    """The vectors of the fixed lattice with norm <= 2 max(mn) over
    m + n <= H, bucketed by norm: {q: [(key, gcd(G c), gcd(c)), ...]}.

    key is the packed r* = G c of the vector, so the key of (r; m, n) is
    key + m * pack(0, 1).  Every digit of G c passes through series.pack,
    which raises OverflowError past the series' coordinate bound.
    """
    H = series.max_height
    max_mn = (H // 2) * ((H + 1) // 2)
    pack = series.pack
    return {q: [(pack(gc, 0), gcd(*gc), g) for gc, g in vecs]
            for q, vecs in vectors_by_norm(tc.fixed, 2 * max_mn).items()}


def lattice_log_derivative(tc: TwistClass, vectors, max_height: int):
    """(L, factor count): L = theta log of the product side, summed from
    the lattice vectors without a factor list.

    Every root alpha = (r; m, n) has equal even and odd multiplicity v, so
    its factor adds -2 h v at k alpha for odd k and nothing for even k.
    The loop runs over (h, m), then over the norm classes q <= 2mn, with v
    read once per class and N-divisibility (class_multiplicity).  alpha
    lies in N L* iff N divides m, n and gcd(G c).  The count is the length
    of the split-form factor list: one factor per nonzero c1 and one per
    nonzero c2.
    """
    N, rank = tc.order, tc.fixed.rank
    # grow the c series once: the largest exponent read is -alpha^2/2 at
    # r = 0 and the largest mn
    tc._need((max_height // 2) * ((max_height + 1) // 2))
    L = LatticeSeries(max_height, rank)
    buckets = L.buckets
    unit_m = L.pack((0,) * rank, 1)
    # norm classes in order, each split into vectors off and in N L*
    classes = [(q, [k for k, gd, _ in vecs if gd % N],
                [k for k, gd, _ in vecs if gd % N == 0])
               for q, vecs in sorted(vectors.items())]
    count = 0
    for h in range(1, max_height + 1):
        odd_k = range(1, max_height // h + 1, 2)
        for m in range(h + 1):
            n = h - m
            base = m * unit_m
            mn_divisible = m % N == 0 and n % N == 0
            for q, off, on in classes:
                if q > 2 * m * n:
                    break
                lo = class_multiplicity(tc, q, m, n, False)
                hi = class_multiplicity(tc, q, m, n, True) \
                    if on and mn_divisible else lo
                for (c1, c2), keys in ((lo, off), (hi, on)):
                    if not keys:
                        continue
                    if c1 < 0 or c2 < 0:
                        raise ValueError("multiplicities must be nonnegative")
                    v = c1 + c2
                    count += len(keys) * ((c1 != 0) + (c2 != 0))
                    if not v:
                        continue
                    c = -2 * h * v
                    for k in odd_k:
                        b, shift = buckets[k * h], k * base
                        get = b.get
                        for key in keys:
                            key = k * key + shift
                            t = get(key, 0) + c
                            if t:
                                b[key] = t
                            else:
                                del b[key]
    return L, count


def product_side(tc: TwistClass, max_height: int, vectors):
    """(F, factor count): the product over the positive cone, truncated by
    height, as the exponential of lattice_log_derivative."""
    L, count = lattice_log_derivative(tc, vectors, max_height)
    return exponential(L), count


def sum_side(tc: TwistClass, max_height: int, vectors) -> LatticeSeries:
    """1 + sum over multiples of primitive norm-zero vectors of L^+.

    The coefficient at k times a primitive vector is the k-th coefficient of
    the twist's tail series.  Every k <= max_height is read, since the
    primitive vector (0; 1, 0) has max_height multiples in the slice.  The
    vectors (r; m, n) with m, n >= 1 are the lattice vectors of norm 2mn
    (lattice_vectors) with gcd(m, n, c) = 1.
    """
    tail = [tc.tail_at(k) for k in range(1, max_height + 1)]
    out = LatticeSeries.one(max_height, tc.fixed.rank)
    buckets = out.buckets
    unit_m = out.pack((0,) * tc.fixed.rank, 1)
    for k, a in enumerate(tail, 1):
        if a:  # k (0; 1, 0) and k (0; 0, 1)
            buckets[k][k * unit_m] = buckets[k][0] = a
    # distinct (primitive vector, k) give distinct points, so every
    # coefficient is set once
    for m in range(1, max_height):
        for n in range(1, max_height + 1 - m):
            h, d, base = m + n, gcd(m, n), m * unit_m
            for key, _, g in vectors.get(2 * m * n, ()):
                if gcd(d, g) == 1:
                    for k in range(1, max_height // h + 1):
                        if tail[k - 1]:
                            buckets[k * h][k * (key + base)] = tail[k - 1]
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

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _anisotropic_ok(prod: LatticeSeries, vectors) -> bool:
    """No product term lies inside the cone: r^2 >= 2mn at every key.

    Every r of the product lies in the fixed lattice.  One of norm at most
    2 max(mn) is among the lattice vectors, which give its norm; any other
    has r^2 > 2mn for every m + n <= H.
    """
    norms = {key: q for q, vecs in vectors.items() for key, _, _ in vecs}
    for h, b in enumerate(prod.buckets):
        for code in b:
            m, rpart = prod.split(code)
            q = norms.get(rpart)
            if q is not None and q < 2 * m * (h - m):
                return False
    return True


def verify_identity(order: int, max_height: int,
                    tc: TwistClass | None = None) -> IdentityReport:
    """Compare the product and sum sides exactly up to the height cut.

    Both sides read one enumeration of the fixed lattice.
    """
    if tc is None:
        tc = TwistClass(order)
    vectors = lattice_vectors(tc, LatticeSeries(max_height, tc.fixed.rank))
    prod, factor_count = product_side(tc, max_height, vectors)
    sums = sum_side(tc, max_height, vectors)
    first = None
    for h, (pb, sb) in enumerate(zip(prod.buckets, sums.buckets)):
        if pb != sb:
            # the least packed key is the least (m, r*) in the bucket
            code = min(k for k in pb.keys() | sb.keys()
                       if pb.get(k, 0) != sb.get(k, 0))
            # (location, expected, got)
            first = (prod.key_of(h, code), sb.get(code, 0), pb.get(code, 0))
            break
    # when the sides agree, every key of F is a key of S: the zero point
    # or a multiple of a norm-zero vector, where r^2 = 2mn exactly, so the
    # scan can only fail when they differ
    aniso = first is None or _anisotropic_ok(prod, vectors)
    return IdentityReport(
        order=tc.order, max_height=max_height, factor_count=factor_count,
        product_terms=prod.term_count(),
        status="pass" if first is None and aniso else "fail",
        first_discrepancy=first, anisotropic_ok=aniso)
