"""Truncated Puiseux series with integer coefficients.

A QSeries stores finitely many exact int coefficients on the exponent grid
(1/D)*Z together with a truncation bound T: every exponent below T is
represented exactly, exponents at or above T are unknown.  trunc=None means
the series is known exactly everywhere (a Puiseux polynomial).

The kernel is integer.  A term is an int key k standing for q^{k/D} with
an int coefficient; every constructor and scaled() raise TypeError on any
other coefficient, and inverse() needs a leading coefficient of +-1, so
the coefficients stay in Z.  T is held as an int pair (numerator,
denominator), so every loop bound is the int slot count ceil(T*D): slot k
is known exactly when k < ceil(T*D).  Fraction appears only at the API
edge (trunc, coeff's exponent, items, valuation, to_pairs, repr).

A product of two long, dense series is one big-int product by Kronecker
substitution (D. Harvey, J. Symb. Comput. 44 (2009)): _pack writes each
operand's coefficients into fixed-width byte slots of one int, wide enough
for every coefficient of the product, and _unpack reads the product's
slots back as balanced digits.  Products with a short operand or a sparse
one loop over pairs of terms.

All operations are pure and compute the tightest sound truncation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import add


class ZeroLeadingTerm(ArithmeticError):
    """Inversion of a series that is zero on its whole known range."""


class NonIntegerExponents(ValueError):
    """Multisection requires a series supported on integer exponents."""


class EmptyComparisonRange(ValueError):
    """Series comparison with no exactly-known coefficients in common."""


class CoefficientUnknown(ValueError):
    """Coefficient lookup at or above the truncation bound."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# Truncations are int pairs (n, d) with d > 0 standing for n/d; None is +inf.

def _trunc(x):
    """An API truncation (int, Fraction or None) as a pair or None."""
    return None if x is None else _ratio(x)


def _tsum(t, n: int, d: int):
    """t + n/d in lowest terms; None when t is None."""
    if t is None:
        return None
    num, den = t[0] * d + n * t[1], t[1] * d
    g = gcd(num, den)
    return num // g, den // g


def _tmin(a, b):
    if a is None:
        return b
    if b is None or a[0] * b[1] <= b[0] * a[1]:
        return a
    return b


def _slots(t, D: int):
    """Number of grid slots k >= 0 below t on the grid 1/D: every int k
    with k/D < t is below ceil(t*D).  None when t is None."""
    return None if t is None else -((-t[0] * D) // t[1])


# Kronecker substitution.  A list of ints c_i with |c_i| < 2^(8w-1) is the
# int sum c_i 2^(8wi): adding h = 2^(8w-1) to every slot makes each one a
# w-byte unsigned field, so the int is one from_bytes less the sum of the h.

def _offsets(n: int, w: int) -> int:
    """The int with h = 2^(8w-1) in each of its n slots of w bytes."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * n,
                          "little")


def _pack(coeffs: list, w: int) -> int:
    """The ints coeffs, each of absolute value below 2^(8w-1), as one int
    with coeffs[i] in slot i of w bytes."""
    h = 1 << (8 * w - 1)
    raw = b"".join(map(int.to_bytes, map(add, coeffs, repeat(h)),
                       repeat(w), repeat("little")))
    return int.from_bytes(raw, "little") - _offsets(len(coeffs), w)


def _unpack(x: int, n: int, w: int) -> list:
    """The n low slots of w bytes of x as balanced digits: the ints d_i,
    each of absolute value below 2^(8w-1), with x = sum d_i 2^(8wi) modulo
    2^(8wn).  A digit outside that range comes back wrong, not as an
    error, so the caller's width must bound every digit."""
    h = 1 << (8 * w - 1)
    size = n * w
    low = (x + _offsets(n, w)) & ((1 << 8 * size) - 1)
    view = memoryview(low.to_bytes(size, "little"))
    return [int.from_bytes(view[i:i + w], "little") - h
            for i in range(0, size, w)]


# A product of terms loops over la*lb pairs; the packed product spends about
# this many pair-steps per dense slot of its operands (packing, the big-int
# product and unpacking), so it runs when la*lb exceeds that many times the
# operands' dense spans.  Square dense operands cross over at 24-32 terms.
_PACKED_SLOT_COST = 16


def _packed_product(ta: dict, tb: dict, top: int):
    """The terms of ta*tb below slot top as one big-int product, or None
    where a loop over pairs of terms is the way: a short operand or a
    sparse one, whose dense span dwarfs its terms."""
    pairs = len(ta) * len(tb)
    # a dense span is at least as long as its terms
    if pairs < _PACKED_SLOT_COST * (len(ta) + len(tb)):
        return None
    lo_a, lo_b = min(ta), min(tb)
    # a term at or above top - (the other's least key) reaches no kept slot
    hi_a, hi_b = min(max(ta), top - 1 - lo_b), min(max(tb), top - 1 - lo_a)
    if hi_a < lo_a or \
            pairs < _PACKED_SLOT_COST * (hi_a - lo_a + hi_b - lo_b + 2):
        return None
    da = list(map(ta.get, range(lo_a, hi_a + 1), repeat(0)))
    db = list(map(tb.get, range(lo_b, hi_b + 1), repeat(0)))
    # every product coefficient is at most min(|a|_1 |b|_inf, |a|_inf |b|_1)
    # in absolute value; one more bit holds its sign
    bound = min(sum(map(abs, da)) * max(map(abs, db)),
                max(map(abs, da)) * sum(map(abs, db)))
    w = bound.bit_length() // 8 + 1
    lo = lo_a + lo_b
    n = min(len(da) + len(db) - 1, top - lo)
    return dict(zip(range(lo, lo + n),
                    _unpack(_pack(da, w) * _pack(db, w), n, w)))


class QSeries:
    """Immutable truncated Puiseux series with int coefficients."""

    __slots__ = ("expdenom", "terms", "_t")

    def __init__(self, expdenom: int, terms: dict, trunc):
        if expdenom <= 0:
            raise ValueError("expdenom must be positive")
        self._set(expdenom, terms, _trunc(trunc))

    @classmethod
    def _new(cls, D: int, terms: dict, t) -> "QSeries":
        """The series of terms (int keys on the grid 1/D, int coefficients)
        truncated at the pair t."""
        s = object.__new__(cls)
        s._set(D, terms, t)
        return s

    def _set(self, D: int, terms: dict, t):
        # every constructor passes here
        if not {int}.issuperset(map(type, terms.values())):
            bad = next(c for c in terms.values() if type(c) is not int)
            raise TypeError(f"QSeries coefficients are ints, got "
                            f"{type(bad).__name__} {bad}")
        lim = _slots(t, D)
        if lim is None:
            clean = {k: c for k, c in terms.items() if c}
        else:
            clean = {k: c for k, c in terms.items() if c and k < lim}
        # reduce the exponent grid to its coarsest sound denominator
        g = D
        for k in clean:
            g = gcd(g, k)
            if g == 1:
                break
        if g > 1:
            clean = {k // g: c for k, c in clean.items()}
            D //= g
        object.__setattr__(self, "expdenom", D)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_t", t)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    @property
    def trunc(self) -> Fraction | None:
        """Truncation bound: exact below it; None for an exact series."""
        t = self._t
        return None if t is None else Fraction(t[0], t[1])

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_terms(cls, pairs, trunc=None) -> "QSeries":
        """Build from (exponent, coefficient) pairs with rational exponents
        and int coefficients."""
        rows = [(_ratio(e), c) for e, c in pairs]
        D = 1
        for (_, den), _ in rows:
            D = lcm(D, den)
        terms: dict = {}
        for (num, den), c in rows:
            k = num * (D // den)
            terms[k] = terms.get(k, 0) + c
        return cls._new(D, terms, _trunc(trunc))

    @classmethod
    def zero(cls, trunc=None) -> "QSeries":
        return cls._new(1, {}, _trunc(trunc))

    @classmethod
    def one(cls, trunc=None) -> "QSeries":
        return cls.constant(1, trunc)

    @classmethod
    def constant(cls, c, trunc=None) -> "QSeries":
        return cls._new(1, {0: c}, _trunc(trunc))

    @classmethod
    def monomial(cls, exp, coeff=1, trunc=None) -> "QSeries":
        return cls.from_terms([(exp, coeff)], trunc)

    # ------------------------------------------------------------------
    # basic queries

    def valuation(self) -> Fraction | None:
        """Smallest exponent with nonzero coefficient; None if none known."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.expdenom)

    def _low(self):
        """Lower bound for the valuation as a truncation pair: the least
        exponent, else trunc (None = +inf, an exact zero)."""
        if self.terms:
            return min(self.terms), self.expdenom
        return self._t

    def coeff(self, exp):
        """Exact coefficient at a rational exponent; 0 off the support."""
        return self.coeff_at(*_ratio(exp))

    def coeff_at(self, num: int, den: int):
        """coeff(num/den) for ints num and den > 0, building no Fraction:
        the stored coefficient, or 0 off the support."""
        t = self._t
        if t is not None and num * t[1] >= t[0] * den:
            raise CoefficientUnknown(
                f"exponent {Fraction(num, den)} >= trunc {self.trunc}")
        k, r = divmod(num * self.expdenom, den)
        return 0 if r else self.terms.get(k, 0)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        D = self.expdenom
        return [(Fraction(k, D), self.terms[k]) for k in sorted(self.terms)]

    # ------------------------------------------------------------------
    # arithmetic

    def _aligned(self, other: "QSeries"):
        """(D, terms of self, terms of other) on their common grid 1/D.
        A dict already on that grid is returned as is: do not mutate."""
        D = lcm(self.expdenom, other.expdenom)
        fa, fb = D // self.expdenom, D // other.expdenom
        ta = self.terms if fa == 1 else \
            {k * fa: c for k, c in self.terms.items()}
        tb = other.terms if fb == 1 else \
            {k * fb: c for k, c in other.terms.items()}
        return D, ta, tb

    @staticmethod
    def _promote(x) -> "QSeries":
        if isinstance(x, QSeries):
            return x
        return QSeries.constant(x)

    def __add__(self, other) -> "QSeries":
        other = QSeries._promote(other)
        D, ta, tb = self._aligned(other)
        out = dict(ta)
        get = out.get
        for k, c in tb.items():
            out[k] = get(k, 0) + c
        return QSeries._new(D, out, _tmin(self._t, other._t))

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._new(self.expdenom,
                            {k: -c for k, c in self.terms.items()}, self._t)

    def __sub__(self, other) -> "QSeries":
        return self + (-QSeries._promote(other))

    def __rsub__(self, other) -> "QSeries":
        return QSeries._promote(other) - self

    def scaled(self, c) -> "QSeries":
        """Multiply every coefficient by the int c."""
        return QSeries._new(self.expdenom,
                            {k: c * v for k, v in self.terms.items()},
                            self._t)

    def exact_div(self, n: int) -> "QSeries":
        """Divide every coefficient by the nonzero int n, which must divide
        each of them in the integers; ArithmeticError otherwise."""
        out = {}
        for k, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ArithmeticError(
                    f"coefficient {c} at q^{Fraction(k, self.expdenom)} is "
                    f"not divisible by {n}")
            out[k] = q
        return QSeries._new(self.expdenom, out, self._t)

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return self.scaled(other)
        D, ta, tb = self._aligned(other)
        # exact below min(T_a + v_b, T_b + v_a)
        va, vb = self._low(), other._low()
        t = _tmin(None if vb is None else _tsum(self._t, *vb),
                  None if va is None else _tsum(other._t, *va))
        if not ta or not tb:
            return QSeries._new(D, {}, t)
        top = max(ta) + max(tb) + 1
        if t is not None:
            top = min(top, _slots(t, D))
        out = _packed_product(ta, tb, top)
        if out is not None:
            return QSeries._new(D, out, t)
        # pairs of terms, each row cut where its products reach the slot
        # limit (or pass the last pair when the product is exact)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        inner = sorted(tb.items())
        out = {}
        get = out.get
        for k1, c1 in ta.items():
            stop = top - k1
            for k2, c2 in inner:
                if k2 >= stop:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return QSeries._new(D, out, t)

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the leading coefficient must be +-1, so
        the inverse has int coefficients (ArithmeticError otherwise)."""
        if not self.terms:
            raise ZeroLeadingTerm("cannot invert a series with no known terms")
        D = self.expdenom
        k0 = min(self.terms)
        inv0 = self.terms[k0]  # 1/c0 = c0 for c0 = +-1
        if inv0 not in (1, -1):
            raise ArithmeticError(
                f"cannot invert in the integers: leading coefficient {inv0} "
                f"at q^{Fraction(k0, D)}")
        if self._t is None:
            if len(self.terms) == 1:
                return QSeries._new(D, {-k0: inv0}, None)
            raise ValueError("inverse of an exact non-monomial series is "
                             "infinite; restrict() to a truncation first")
        # slots j of the unit part with (k0 + j)/D < trunc; the terms lie
        # below trunc, so there is at least one
        nslots = _slots(self._t, D) - k0
        # unit part u = sum_i b_i q^{i/D}, b_0 = c0; c = u^{-1} solves
        # c_j = -inv0 * sum_{0 < i <= j} b_i c_{j-i}
        b = sorted((k - k0, c) for k, c in self.terms.items()
                   if 0 < k - k0 < nslots)
        c = [0] * nslots
        c[0] = inv0
        used = 0  # b[:used] holds the i <= j
        for j in range(1, nslots):
            while used < len(b) and b[used][0] <= j:
                used += 1
            s = 0
            for i, bi in islice(b, used):
                s += bi * c[j - i]
            c[j] = -inv0 * s
        # a = q^v u, so a^{-1} = q^{-v} u^{-1}: slot j lands at exponent
        # j/D - v, and the result is exact below trunc - 2v
        return QSeries._new(D, {j - k0: cj for j, cj in enumerate(c) if cj},
                            _tsum(self._t, -2 * k0, D))

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e == 0:
            return QSeries.one()
        base = self if e > 0 else self.inverse()
        e = abs(e)
        result = None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale_exp(self, k) -> "QSeries":
        """Formal substitution q -> q^k for a positive rational k."""
        p, q = _ratio(k)
        if p <= 0:
            raise ValueError("scale_exp: k must be positive")
        t = self._t
        if t is not None:
            num, den = t[0] * p, t[1] * q
            g = gcd(num, den)
            t = num // g, den // g
        return QSeries._new(self.expdenom * q,
                            {key * p: c for key, c in self.terms.items()}, t)

    def multisection(self, m: int, r: int) -> "QSeries":
        """Sub-series of terms with integer exponent congruent to r mod m."""
        if m <= 0:
            raise ValueError("multisection: modulus must be positive")
        if self.expdenom != 1:
            raise NonIntegerExponents(
                f"multisection needs integer exponents, grid is 1/{self.expdenom}")
        r %= m
        return QSeries._new(1, {k: c for k, c in self.terms.items()
                                if k % m == r}, self._t)

    def restrict(self, trunc) -> "QSeries":
        """Forget all information at or above the given exponent."""
        t = _ratio(trunc)
        if self._t is not None and _tmin(t, self._t) is not t:
            raise ValueError("restrict cannot extend the known range")
        return QSeries._new(self.expdenom, self.terms, t)

    # ------------------------------------------------------------------
    # comparison and output

    def __eq__(self, other) -> bool:
        other = QSeries._promote(other)
        t = _tmin(self._t, other._t)
        D, ta, tb = self._aligned(other)
        if t is None:
            return ta == tb
        lim = _slots(t, D)
        a = {k: c for k, c in ta.items() if k < lim}
        b = {k: c for k, c in tb.items() if k < lim}
        if not a and not b:
            raise EmptyComparisonRange(
                f"no known coefficients below common trunc "
                f"{Fraction(t[0], t[1])}")
        return a == b

    def first_difference(self, other) -> Fraction | None:
        """Smallest exponent in the common known range where the two differ."""
        return (self - QSeries._promote(other)).valuation()

    def to_pairs(self) -> list[tuple[str, str]]:
        """Serialization: sorted (exponent, coefficient) as exact strings."""
        return [(str(e), str(c)) for e, c in self.items()]

    def __repr__(self) -> str:
        parts = []
        for e, c in self.items()[:8]:
            parts.append(f"{c}*q^{e}" if e else f"{c}")
        if len(self.terms) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        t = "" if self._t is None else f" + O(q^{self.trunc})"
        return f"QSeries({body}{t})"

    __hash__ = None
