"""Other ways to the product side, kept as the tests' oracles.

- exponential: the exponential of a lattice-graded log derivative as it
  was before the mirror-quarter kernel, Miller's recurrence
  t F_t = sum_j L_j F_(t-j) over every key of every bucket, each product
  summed from the smaller of its two buckets.  It reads any L, symmetric
  or not.
- quarters: the quarter of each bucket of a whole L that the mirror-quarter
  kernel denom._exp_of_quarters reads, after asserting key by key that L is
  invariant under r* -> -r* and m <-> n; the tests reach the kernel with a
  whole L through it.
- log_derivative: L = theta log F of a factor list, one factor at a time.
- lattice_log_derivative: L = theta log F from the lattice vectors in
  every mirror image, as the verifier built it before it wrote only the
  quarter of each bucket that the exponential reads.
- accumulated_product: F of a factor list by series products, one factor
  at a time into an in-place accumulator, with no exp or log.

Nothing in the package uses this module; tests compare
denom.log_derivative_quarters, the mirror-quarter kernel and the verifier's
product side with it.
"""

from __future__ import annotations

from superdenom.denom import LatticeSeries, expand_factor
from superdenom.mult import class_multiplicity


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


def quarters(L: LatticeSeries) -> list:
    """quarters[t] maps the keys of bucket t >= 1 of L with m <= t // 2
    and packed r* >= 0 to their values (quarters[0] is empty: bucket 0 is
    unread), after asserting that every key's images under r* -> -r*,
    m <-> n and both carry its value."""
    unit = L.pack((0,) * L.rank, 1)
    out = [{}]
    for t in range(1, L.max_height + 1):
        bucket, quarter = L.buckets[t], {}
        for k, v in bucket.items():
            m, r = L.split(k)
            for image in (2 * m * unit - k, (t - 2 * m) * unit + k,
                          t * unit - k):
                assert bucket.get(image) == v, \
                    f"L is not invariant under r* -> -r* and m <-> n at " \
                    f"height {t}"
            if 2 * m <= t and r >= 0:
                quarter[k] = v
        out.append(quarter)
    return out


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


def lattice_log_derivative(tc, vectors, max_height: int):
    """(L, factor count): L = theta log of the product side, every key of
    every bucket, summed from the lattice vectors without a factor list.

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
