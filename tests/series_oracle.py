"""The series kernel as it was before the integer rewrite, kept as the
tests' oracle: a dict of Fraction coefficients, a Fraction truncation
compared against every slot, and the per-slot cycle-product loop and
pentagonal-power eta expansion built on it.  Nothing in the package uses
this module; tests compare the integer kernel with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from superdenom.series import (CoefficientUnknown, EmptyComparisonRange,
                               NonIntegerExponents, ZeroLeadingTerm)


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


class FractionSeries:
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
        raise AttributeError("FractionSeries is immutable")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_terms(cls, pairs, trunc: Fraction | None = None) -> "FractionSeries":
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
    def zero(cls, trunc: Fraction | None = None) -> "FractionSeries":
        return cls(1, {}, None if trunc is None else _as_fraction(trunc))

    @classmethod
    def one(cls, trunc: Fraction | None = None) -> "FractionSeries":
        return cls.constant(1, trunc)

    @classmethod
    def constant(cls, c, trunc: Fraction | None = None) -> "FractionSeries":
        return cls.from_terms([(Fraction(0), _as_fraction(c))], trunc)

    @classmethod
    def monomial(cls, exp, coeff=1, trunc: Fraction | None = None) -> "FractionSeries":
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

    def _aligned(self, other: "FractionSeries"):
        D = lcm(self.expdenom, other.expdenom)
        fa, fb = D // self.expdenom, D // other.expdenom
        ta = {k * fa: c for k, c in self.terms.items()}
        tb = {k * fb: c for k, c in other.terms.items()}
        return D, ta, tb

    @staticmethod
    def _promote(x) -> "FractionSeries":
        if isinstance(x, FractionSeries):
            return x
        return FractionSeries.constant(_as_fraction(x))

    def __add__(self, other) -> "FractionSeries":
        other = FractionSeries._promote(other)
        D, ta, tb = self._aligned(other)
        for k, c in tb.items():
            ta[k] = ta.get(k, Fraction(0)) + c
        return FractionSeries(D, ta, _min_trunc(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self) -> "FractionSeries":
        return FractionSeries(self.expdenom, {k: -c for k, c in self.terms.items()},
                       self.trunc)

    def __sub__(self, other) -> "FractionSeries":
        return self + (-FractionSeries._promote(other))

    def __rsub__(self, other) -> "FractionSeries":
        return FractionSeries._promote(other) - self

    def scaled(self, c) -> "FractionSeries":
        """Multiply every coefficient by the rational scalar c."""
        c = _as_fraction(c)
        return FractionSeries(self.expdenom,
                       {k: c * v for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other) -> "FractionSeries":
        if not isinstance(other, FractionSeries):
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
        return FractionSeries(D, out, trunc)

    __rmul__ = __mul__

    def inverse(self) -> "FractionSeries":
        """Multiplicative inverse; leading monomial must be nonzero."""
        if not self.terms:
            raise ZeroLeadingTerm("cannot invert a series with no known terms")
        if self.trunc is None:
            if len(self.terms) == 1:
                (k,) = self.terms
                c = self.terms[k]
                return FractionSeries(self.expdenom, {-k: Fraction(1) / c}, None)
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
        return FractionSeries(D, out, self.trunc - 2 * v)

    def __pow__(self, e: int) -> "FractionSeries":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e == 0:
            return FractionSeries.one()
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

    def scale_exp(self, k) -> "FractionSeries":
        """Formal substitution q -> q^k for a positive rational k."""
        k = _as_fraction(k)
        if k <= 0:
            raise ValueError("scale_exp: k must be positive")
        p, q = k.numerator, k.denominator
        terms = {key * p: c for key, c in self.terms.items()}
        trunc = None if self.trunc is None else self.trunc * k
        return FractionSeries(self.expdenom * q, terms, trunc)

    def multisection(self, m: int, r: int) -> "FractionSeries":
        """Sub-series of terms with integer exponent congruent to r mod m."""
        if m <= 0:
            raise ValueError("multisection: modulus must be positive")
        if self.expdenom != 1:
            raise NonIntegerExponents(
                f"multisection needs integer exponents, grid is 1/{self.expdenom}")
        keep = {k: c for k, c in self.terms.items() if k % m == r % m}
        return FractionSeries(1, keep, self.trunc)

    def restrict(self, trunc) -> "FractionSeries":
        """Forget all information at or above the given exponent."""
        t = _as_fraction(trunc)
        if self.trunc is not None and t > self.trunc:
            raise ValueError("restrict cannot extend the known range")
        return FractionSeries(self.expdenom, dict(self.terms), t)

    # ------------------------------------------------------------------
    # comparison and output

    def __eq__(self, other) -> bool:
        other = FractionSeries._promote(other)
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
        other = FractionSeries._promote(other)
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
        return f"FractionSeries({body}{t})"

    __hash__ = None


def euler_product(scale: int, prec: Fraction) -> FractionSeries:
    """prod_{n>=1} (1 - q^{scale*n}) via the pentagonal number theorem."""
    prec = Fraction(prec)
    terms = [(Fraction(0), Fraction(1))]
    j = 1
    while True:
        done = True
        for jj in (j, -j):
            e = Fraction(scale) * jj * (3 * jj - 1) / 2
            if e < prec:
                terms.append((e, Fraction(-1 if j % 2 else 1)))
                done = False
        if done:
            break
        j += 1
    return FractionSeries.from_terms(terms, trunc=prec)


def eta_expand(spec, prec) -> FractionSeries:
    """Exact expansion of the eta quotient up to the requested precision."""
    prec = Fraction(prec)
    lead = spec.leading_exponent
    if prec <= lead:
        raise ValueError("precision must exceed the leading exponent")
    rel = prec - lead  # relative precision of the unit part
    result = FractionSeries.one(trunc=rel)
    for k, e in spec.factors:
        result = result * euler_product(k, rel) ** e
    return result * FractionSeries.monomial(lead)


def cycle_product(shape, sign: int, half_shift: bool,
                  prec) -> FractionSeries:
    """prod_{n>=1} prod_a (1 + sign*q^{a*(n-shift)})^{b_a}, shift 0 or 1/2.

    By the eigenvalue collapse an a-cycle block contributes
    1 - (-sign*x)^a = 1 + c*x^a with x = q^{n-shift} and the integer
    c = -(-sign)^a, so the product has integer coefficients.  They are kept
    in a dense list of Python ints, slot j holding the coefficient of q^{j/D}
    for every j/D < prec (D = 2 for the half shift, else 1).  The factor
    1 + c*q^{e/D} multiplies in place as a[j] += c*a[j-e] for j from the top
    down, applied b_a times; only the finished list becomes a FractionSeries.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    prec = Fraction(prec)
    D = 2 if half_shift else 1
    lim = prec * D
    nslots = max(0, -((-lim.numerator) // lim.denominator))  # ceil(prec*D)
    coeffs = [0] * nslots
    if nslots:
        coeffs[0] = 1
    for a, b in shape.cycles:
        c = -((-sign) ** a)
        # q^{a(n-shift)} for n >= 1 sits in slots a, a + D*a, a + 2*D*a, ...
        for e in range(a, nslots, D * a):
            for _ in range(b):
                for j in range(nslots - 1, e - 1, -1):
                    coeffs[j] += c * coeffs[j - e]
    return FractionSeries(D, {j: cj for j, cj in enumerate(coeffs) if cj}, prec)


def whole_list_cycle_coeffs(shape, sign: int, half_shift: bool,
                            nslots: int) -> list[int]:
    """The first nslots coefficients of cycle_product(shape, sign,
    half_shift, ...) as a list of ints, by whole-list updates: the factor
    1 + c*q^{e/D} with c = +-1 is a[e:] = a[e:] +- a, whose right side is
    built from the old values before it is stored, applied b_a times."""
    D = 2 if half_shift else 1
    coeffs = [0] * nslots
    if nslots:
        coeffs[0] = 1
    for a, b in shape.cycles:
        op = add if -((-sign) ** a) == 1 else sub
        for e in range(a, nslots, D * a):
            for _ in range(b):
                coeffs[e:] = map(op, coeffs[e:], coeffs)
    return coeffs
