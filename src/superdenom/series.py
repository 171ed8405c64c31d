"""Truncated Puiseux series over the rationals.

A QSeries stores finitely many exact rational coefficients on the exponent
grid (1/D)*Z together with a truncation bound T: every exponent below T is
represented exactly, exponents at or above T are unknown.  trunc=None means
the series is known exactly everywhere (a Puiseux polynomial).

All operations are pure and compute the tightest sound truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ZeroLeadingTerm(ArithmeticError):
    """Inversion of a series that is zero on its whole known range."""


class NonIntegerExponents(ValueError):
    """Multisection requires a series supported on integer exponents."""


class EmptyComparisonRange(ValueError):
    """Series comparison with no exactly-known coefficients in common."""


class CoefficientUnknown(ValueError):
    """Coefficient lookup at or above the truncation bound."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _min_trunc(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    """Immutable truncated Puiseux series with exact rational data."""

    __slots__ = ("expdenom", "terms", "trunc")

    def __init__(self, expdenom: int, terms: dict[int, Fraction],
                 trunc: Fraction | None):
        if expdenom <= 0:
            raise ValueError("expdenom must be positive")
        clean = {k: c for k, c in terms.items()
                 if c != 0 and (trunc is None or Fraction(k, expdenom) < trunc)}
        # reduce the exponent grid to its coarsest sound denominator
        g = expdenom
        for k in clean:
            g = gcd(g, k)
            if g == 1:
                break
        if g > 1:
            clean = {k // g: c for k, c in clean.items()}
            expdenom //= g
        object.__setattr__(self, "expdenom", expdenom)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_terms(cls, pairs, trunc: Fraction | None = None) -> "QSeries":
        """Build from (exponent, coefficient) pairs with rational exponents."""
        exps = [( _as_fraction(e), _as_fraction(c)) for e, c in pairs]
        D = 1
        for e, _ in exps:
            D = lcm(D, e.denominator)
        terms: dict[int, Fraction] = {}
        for e, c in exps:
            k = e.numerator * (D // e.denominator)
            terms[k] = terms.get(k, Fraction(0)) + c
        return cls(D, terms, None if trunc is None else _as_fraction(trunc))

    @classmethod
    def zero(cls, trunc: Fraction | None = None) -> "QSeries":
        return cls(1, {}, None if trunc is None else _as_fraction(trunc))

    @classmethod
    def one(cls, trunc: Fraction | None = None) -> "QSeries":
        return cls.constant(1, trunc)

    @classmethod
    def constant(cls, c, trunc: Fraction | None = None) -> "QSeries":
        return cls.from_terms([(Fraction(0), _as_fraction(c))], trunc)

    @classmethod
    def monomial(cls, exp, coeff=1, trunc: Fraction | None = None) -> "QSeries":
        return cls.from_terms([(exp, coeff)], trunc)

    # ------------------------------------------------------------------
    # basic queries

    def valuation(self) -> Fraction | None:
        """Smallest exponent with nonzero coefficient; None if none known."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.expdenom)

    def _val_or_trunc(self) -> Fraction | None:
        """Lower bound for the valuation: min exponent, else trunc (None=+inf)."""
        if self.terms:
            return Fraction(min(self.terms), self.expdenom)
        return self.trunc  # zero below trunc; None means exact zero

    def coeff(self, exp) -> Fraction:
        """Exact coefficient at a rational exponent; 0 off the support."""
        e = _as_fraction(exp)
        if self.trunc is not None and e >= self.trunc:
            raise CoefficientUnknown(f"exponent {e} >= trunc {self.trunc}")
        ke = e * self.expdenom
        if ke.denominator != 1:
            return Fraction(0)  # off the exponent grid
        return self.terms.get(ke.numerator, Fraction(0))

    def coeff_at(self, num: int, den: int):
        """coeff(num/den) for ints num and den > 0, building no Fraction:
        the stored coefficient, or 0 off the support."""
        t = self.trunc
        if t is not None and num * t.denominator >= t.numerator * den:
            raise CoefficientUnknown(
                f"exponent {Fraction(num, den)} >= trunc {t}")
        k, r = divmod(num * self.expdenom, den)
        return 0 if r else self.terms.get(k, 0)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        D = self.expdenom
        return [(Fraction(k, D), self.terms[k]) for k in sorted(self.terms)]

    # ------------------------------------------------------------------
    # arithmetic

    def _aligned(self, other: "QSeries"):
        D = lcm(self.expdenom, other.expdenom)
        fa, fb = D // self.expdenom, D // other.expdenom
        ta = {k * fa: c for k, c in self.terms.items()}
        tb = {k * fb: c for k, c in other.terms.items()}
        return D, ta, tb

    @staticmethod
    def _promote(x) -> "QSeries":
        if isinstance(x, QSeries):
            return x
        return QSeries.constant(_as_fraction(x))

    def __add__(self, other) -> "QSeries":
        other = QSeries._promote(other)
        D, ta, tb = self._aligned(other)
        for k, c in tb.items():
            ta[k] = ta.get(k, Fraction(0)) + c
        return QSeries(D, ta, _min_trunc(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.expdenom, {k: -c for k, c in self.terms.items()},
                       self.trunc)

    def __sub__(self, other) -> "QSeries":
        return self + (-QSeries._promote(other))

    def __rsub__(self, other) -> "QSeries":
        return QSeries._promote(other) - self

    def scaled(self, c) -> "QSeries":
        """Multiply every coefficient by the rational scalar c."""
        c = _as_fraction(c)
        return QSeries(self.expdenom,
                       {k: c * v for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return self.scaled(other)
        D, ta, tb = self._aligned(other)
        # exact below min(T_a + v_b, T_b + v_a)
        va, vb = self._val_or_trunc(), other._val_or_trunc()
        cand = None
        if self.trunc is not None:
            cand = None if vb is None else self.trunc + vb
        if other.trunc is not None:
            c2 = None if va is None else other.trunc + va
            cand = _min_trunc(cand, c2)
        trunc = cand
        lim = None if trunc is None else trunc * D
        out: dict[int, Fraction] = {}
        if len(ta) > len(tb):
            ta, tb = tb, ta
        # integer coefficients dominate in practice; plain-int accumulation
        # avoids per-term rational normalization
        if all(c.denominator == 1 for c in ta.values()) and \
                all(c.denominator == 1 for c in tb.values()):
            ta = {k: c.numerator for k, c in ta.items()}
            tb = {k: c.numerator for k, c in tb.items()}
        for k1, c1 in ta.items():
            for k2, c2 in tb.items():
                k = k1 + k2
                if lim is not None and k >= lim:
                    continue
                out[k] = out.get(k, 0) + c1 * c2
        return QSeries(D, out, trunc)

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; leading monomial must be nonzero."""
        if not self.terms:
            raise ZeroLeadingTerm("cannot invert a series with no known terms")
        if self.trunc is None:
            if len(self.terms) == 1:
                (k,) = self.terms
                c = self.terms[k]
                return QSeries(self.expdenom, {-k: Fraction(1) / c}, None)
            raise ValueError("inverse of an exact non-monomial series is "
                             "infinite; restrict() to a truncation first")
        D = self.expdenom
        k0 = min(self.terms)
        c0 = self.terms[k0]
        v = Fraction(k0, D)
        rel = self.trunc - v          # relative precision of the unit part
        b = {k - k0: c for k, c in self.terms.items()}  # unit part, b[0] = c0
        # slots j with j/D < rel, i.e. j < rel*D
        J = rel * D
        nslots = -((-J.numerator) // J.denominator)  # ceil(rel*D)
        if nslots <= 0:
            raise ZeroLeadingTerm("cannot invert: truncation at the valuation")
        inv0 = Fraction(1) / c0
        # units with leading coefficient +-1 and integer coefficients invert
        # in plain ints
        if abs(c0) == 1 and all(bc.denominator == 1 for bc in b.values()):
            inv0 = int(inv0)
            b = {k: bc.numerator for k, bc in b.items()}
        c: list[Fraction] = [0] * nslots
        c[0] = inv0
        bitems = [(j, bc) for j, bc in b.items() if j > 0]
        for j in range(1, nslots):
            s = 0
            for i, bc in bitems:
                if i <= j and c[j - i]:
                    s += bc * c[j - i]
            c[j] = -inv0 * s
        # a = q^v u, so a^{-1} = q^{-v} u^{-1}: slot j lands at exponent j/D - v
        out = {j - k0: cj for j, cj in enumerate(c) if cj}
        return QSeries(D, out, self.trunc - 2 * v)

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
        k = _as_fraction(k)
        if k <= 0:
            raise ValueError("scale_exp: k must be positive")
        p, q = k.numerator, k.denominator
        terms = {key * p: c for key, c in self.terms.items()}
        trunc = None if self.trunc is None else self.trunc * k
        return QSeries(self.expdenom * q, terms, trunc)

    def multisection(self, m: int, r: int) -> "QSeries":
        """Sub-series of terms with integer exponent congruent to r mod m."""
        if m <= 0:
            raise ValueError("multisection: modulus must be positive")
        if self.expdenom != 1:
            raise NonIntegerExponents(
                f"multisection needs integer exponents, grid is 1/{self.expdenom}")
        keep = {k: c for k, c in self.terms.items() if k % m == r % m}
        return QSeries(1, keep, self.trunc)

    def restrict(self, trunc) -> "QSeries":
        """Forget all information at or above the given exponent."""
        t = _as_fraction(trunc)
        if self.trunc is not None and t > self.trunc:
            raise ValueError("restrict cannot extend the known range")
        return QSeries(self.expdenom, dict(self.terms), t)

    # ------------------------------------------------------------------
    # comparison and output

    def __eq__(self, other) -> bool:
        other = QSeries._promote(other)
        T = _min_trunc(self.trunc, other.trunc)
        if T is None:
            return self.items() == other.items()
        a = [(e, c) for e, c in self.items() if e < T]
        b = [(e, c) for e, c in other.items() if e < T]
        if not a and not b:
            raise EmptyComparisonRange(
                f"no known coefficients below common trunc {T}")
        return a == b

    def first_difference(self, other) -> Fraction | None:
        """Smallest exponent in the common known range where the two differ."""
        other = QSeries._promote(other)
        diff = self - other
        v = diff.valuation()
        return v

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
        t = "" if self.trunc is None else f" + O(q^{self.trunc})"
        return f"QSeries({body}{t})"

    __hash__ = None
