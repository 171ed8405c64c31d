"""Root multiplicities of the twisted denominator identities.

The central object is the Moebius-convolution formula

    mult(alpha) = sum_{ds | ((alpha,L), N)} mu(s)/(ds) * tr(g^d | E~_{alpha/ds})

evaluated with exact rational arithmetic, together with the closed forms
(c(-alpha^2/2) on L, plus c(-alpha^2/2N) on N*L*) that it must reproduce.
Only odd twist orders are supported; the convolution inverse used in the
derivation is wrong for even orders.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .arith import divisors, mobius
from .etaq import c_series, dim_gf, tail_series, trace_gf_even, trace_gf_odd
from .lattices import (LorentzianLattice, LorentzianPoint,
                       build_coset_shift_table, e8_lattice, fixed_sublattice,
                       orthogonal_complement, theta_coset)
from .octonion import (build_twist_element, cycle_shape, mat_trace8, rho_L,
                       rho_R, rho_V)


class NonIntegralMultiplicity(ArithmeticError):
    """The convolution sum returned a non-integer (invariant violation)."""


class TheoremClosedFormMismatch(ArithmeticError):
    """Convolution formula and closed form disagree at some root."""


class UnsupportedTwistOrder(ValueError):
    """Requested twist order is not available (shipped: 1, 3, 7)."""


class TwistClass:
    """Everything derived from one twisting element: lattices, shapes, series.

    Immutable after construction; generating-function caches grow on demand
    but never change existing coefficients.
    """

    SHIPPED_ORDERS = (1, 3, 7)

    def __init__(self, order: int, prec: int = 24):
        if order % 2 == 0:
            raise UnsupportedTwistOrder(
                "even twist orders are outside the validity of the "
                "multiplicity formula")
        if order not in self.SHIPPED_ORDERS:
            raise UnsupportedTwistOrder(f"no shipped twist of order {order}")
        self.order = order
        self.u = build_twist_element(order)
        self.rho_v = rho_V(self.u)
        self.rho_l = rho_L(self.u)
        if mat_trace8(self.rho_l) != mat_trace8(rho_R(self.u)):
            raise ValueError("spinor traces differ; trace hypothesis violated")
        self.trace_l = int(mat_trace8(self.rho_l))
        self.shape_V = cycle_shape(self.rho_v)
        self.shape_L = cycle_shape(self.rho_l)
        self.e8 = e8_lattice()
        self.fixed = fixed_sublattice(self.rho_v, self.e8)
        self.complement = orthogonal_complement(self.fixed, self.e8)
        self.disc = self.fixed.discriminant_group()
        self.shift_table = build_coset_shift_table(self.fixed, self.e8,
                                                   self.disc)
        self.lorentzian = LorentzianLattice(self.fixed)
        self._prec = max(prec, 8)
        # dimension series need theta enumeration of the complement, whose
        # cost grows quickly with precision; they are only ever read at the
        # small exponents of alpha/N, so they get their own precision
        self._dim_prec = 4
        self._build_series_caches()
        self._build_dim_caches()

    def _build_series_caches(self):
        p = Fraction(self._prec)
        self.gf_trace_even = trace_gf_even(self.shape_V, p)
        self.gf_trace_odd = trace_gf_odd(self.shape_L, self.trace_l, p)
        self.c = c_series(self.order, p)
        self.tail = tail_series(self.order, p)

    def _build_dim_caches(self):
        p = Fraction(self._dim_prec)
        self.gf_dim_by_coset = {}
        for lab, shift in self.shift_table.items():
            th = theta_coset(self.complement, shift, p)
            self.gf_dim_by_coset[lab] = dim_gf(th, p)

    def _need(self, exponent: Fraction):
        """Grow the trace/series caches past the given exponent."""
        if exponent >= self._prec:
            while self._prec <= exponent:
                self._prec *= 2
            self._build_series_caches()

    def _need_dim(self, exponent: Fraction):
        """Grow the dimension caches past the given exponent."""
        if exponent >= self._dim_prec:
            while self._dim_prec <= exponent:
                self._dim_prec *= 2
            self._build_dim_caches()

    # -- coefficient services -------------------------------------------

    def c_coeff(self, exp) -> Fraction:
        """c(exp): multiplicity-series coefficient; 0 off the integer grid."""
        e = Fraction(exp)
        if e < 0:
            return Fraction(0)
        self._need(e)
        return self.c.coeff(e)

    def tail_coeff(self, k: int) -> Fraction:
        self._need(Fraction(k))
        return self.tail.coeff(k)

    def coset_label_of(self, point: LorentzianPoint):
        return self.disc.coset_label(point.rcoords)


def trace_term(tc: TwistClass, d: int, beta: LorentzianPoint,
               parity: str = "even") -> Fraction:
    """tr(g^d | E~_beta) for a point beta of L*.

    For g^d = 1 this is the graded dimension, read off the coset dimension
    series; otherwise the trace vanishes off L and is a coefficient of the
    twisted trace series on L.
    """
    exp = (1 - tc.lorentzian.norm(beta)) / 2
    if d % tc.order == 0:
        tc._need_dim(exp)
        gf = tc.gf_dim_by_coset[tc.coset_label_of(beta)]
        return gf.coeff(exp)
    tc._need(exp)
    if gcd(d, tc.order) != 1:
        raise NotImplementedError(
            "composite twist orders need per-divisor trace data")
    if not tc.lorentzian.in_lattice(beta):
        return Fraction(0)
    gf = tc.gf_trace_even if parity == "even" else tc.gf_trace_odd
    return gf.coeff(exp)


def mult_theorem1(tc: TwistClass, alpha: LorentzianPoint,
                  parity: str = "even") -> Fraction:
    """The Moebius-convolution multiplicity of a nonzero cone point."""
    n = tc.order
    c = gcd(tc.lorentzian.pairing_divisor(alpha), n)
    total = Fraction(0)
    for d in divisors(c):
        for s in divisors(c // d):
            mu = mobius(s)
            if mu == 0:
                continue
            beta = alpha.divide(d * s)
            total += Fraction(mu, d * s) * trace_term(tc, d, beta, parity)
    if total.denominator != 1:
        raise NonIntegralMultiplicity(
            f"mult({alpha}) = {total} is not an integer")
    return total


def mult_closed(tc: TwistClass, alpha: LorentzianPoint):
    """Closed-form (even, odd) multiplicities: supported on L, with an
    extra c-term on N*L*."""
    if not tc.lorentzian.in_lattice(alpha):
        return (Fraction(0), Fraction(0))
    n2 = -tc.lorentzian.norm(alpha)
    v = tc.c_coeff(n2 / 2)
    if tc.order > 1 and tc.lorentzian.in_n_dual(alpha, tc.order):
        v += tc.c_coeff(n2 / (2 * tc.order))
    return (v, v)


def simple_root_mult(tc: TwistClass, k: int):
    """(even, odd) multiplicity of k times a primitive norm-zero vector."""
    if k < 1:
        raise ValueError("multiple index must be positive")
    even = sum(b for a, b in tc.shape_V.cycles if k % a == 0)
    odd = sum(b for a, b in tc.shape_L.cycles if k % a == 0)
    return (even, odd)


class Table:
    """Named columns and rows of values, plus metadata for the JSON form."""

    def __init__(self, columns, rows, meta: dict):
        self.columns = tuple(columns)
        self.rows = list(rows)
        self.meta = meta

    def __len__(self):
        return len(self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {**self.meta, "columns": list(self.columns),
             "rows": [[str(x) for x in row] for row in self.rows]},
            separators=(",", ":"), sort_keys=True)

    def to_csv(self) -> str:
        return self.to_text(",")

    def to_text(self, sep: str = "\t") -> str:
        """Header line, then one line per row.  No value contains a comma,
        so the CSV form needs no quoting."""
        return "".join(sep.join(str(x) for x in line) + "\n"
                       for line in [self.columns, *self.rows])


MULT_COLUMNS = ("coset", "m", "n", "norm", "pairing_divisor",
                "mult_even", "mult_odd", "source")


def build_mult_table(tc: TwistClass, max_height: int,
                     max_norm=None) -> Table:
    """Evaluate both multiplicity formulas on the cone slice and compare.

    Any disagreement, non-integrality, parity asymmetry or support off L is
    an error, not a report entry.
    """
    rows = []
    for p in tc.lorentzian.positive_cone_enum(max_height):
        norm = tc.lorentzian.norm(p)
        if max_norm is not None and -norm > max_norm:
            continue
        even = mult_theorem1(tc, p, "even")
        odd = mult_theorem1(tc, p, "odd")
        closed = mult_closed(tc, p)
        if (even, odd) != closed:
            raise TheoremClosedFormMismatch(
                f"at {p}: convolution {(even, odd)} vs closed {closed}")
        if even < 0 or odd < 0:
            raise NonIntegralMultiplicity(f"negative multiplicity at {p}")
        if even != odd:
            raise TheoremClosedFormMismatch(
                f"parity asymmetry at {p}: {even} != {odd}")
        if not tc.lorentzian.in_lattice(p) and even != 0:
            raise TheoremClosedFormMismatch(f"support off L at {p}")
        label = "+".join(str(x) for x in tc.coset_label_of(p))
        rows.append((label, p.m, p.n, norm,
                     tc.lorentzian.pairing_divisor(p), even, odd,
                     "theorem1=closed"))
    return Table(MULT_COLUMNS, rows, {"order": tc.order})
