"""The point-wise multiplicity table, kept as the tests' oracle: both
formulas and every check run at every cone point of positive_cone_enum.
build_mult_table must give the same table byte for byte.

The formulas take a point's signature as ints; the adapters below read it
off a LorentzianPoint (D r*^2 from A = D Gram^-1, the coset labels of r*/k,
which are all zeros exactly on L) and give the point formulas the tests
call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from superdenom.arith import divisors
from superdenom.lattices import LorentzianPoint
from superdenom.mult import (MULT_COLUMNS, NegativeMultiplicity, Table,
                             TheoremClosedFormMismatch, TwistClass,
                             mult_closed, mult_theorem1, trace_term)


def norm_scaled(fixed, rcoords) -> int:
    """D r*^2 = r*.A r* for r* in the dual of the fixed lattice."""
    return sum(x * sum(map(mul, a, rcoords))
               for x, a in zip(rcoords, fixed.scaled_gram_inv.rows))


def divide(p: LorentzianPoint, t: int) -> LorentzianPoint:
    """p / t; ValueError unless t divides r*, m and n."""
    if any(c % t for c in p.rcoords) or p.m % t or p.n % t:
        raise ValueError(f"point is not divisible by {t}")
    return LorentzianPoint(tuple(c // t for c in p.rcoords),
                           p.m // t, p.n // t)


def signature(tc: TwistClass, p: LorentzianPoint):
    """(x, c, labels): x = D * -p^2, c = gcd((p, L), N) and labels[k] the
    coset label of r*/k for each k | c."""
    D = tc.lorentzian.exponent
    x = 2 * D * p.m * p.n - norm_scaled(tc.fixed, p.rcoords)
    c = gcd(p.m, p.n, *p.rcoords, tc.order)
    return x, c, {k: tc.disc.coset_label([v // k for v in p.rcoords])
                  for k in divisors(c)}


def trace_at(tc: TwistClass, d: int, beta: LorentzianPoint,
             parity: str = "even") -> int:
    """trace_term at the point beta: num = D (1 - beta^2)."""
    x, _, labels = signature(tc, beta)
    return trace_term(tc, d, tc.lorentzian.exponent + x, labels[1], parity)


def theorem1_at(tc: TwistClass, alpha: LorentzianPoint,
                parity: str = "even") -> int:
    return mult_theorem1(tc, *signature(tc, alpha), parity, at=alpha)


def closed_at(tc: TwistClass, alpha: LorentzianPoint):
    """mult_closed at a point: (0, 0) off L."""
    if not tc.lorentzian.in_lattice(alpha):
        return (0, 0)
    x, c, _ = signature(tc, alpha)
    return mult_closed(tc, x, c == tc.order)


def build_mult_table(tc: TwistClass, max_height: int,
                     max_norm=None) -> Table:
    """Evaluate both multiplicity formulas at every point of the cone slice
    and compare."""
    lor = tc.lorentzian
    D = lor.exponent
    points = []  # (point, its signature) in the slice
    for p in lor.positive_cone_enum(max_height):
        sig = signature(tc, p)
        if max_norm is None or sig[0] <= max_norm * D:
            points.append((p, sig))
    if points:
        top = max(sig[0] for _, sig in points) + (D if tc.order > 1 else 0)
        tc._need(top // (2 * D))
    rows = []
    for p, (x, c, labels) in points:
        even = mult_theorem1(tc, x, c, labels, "even", at=p)
        odd = mult_theorem1(tc, x, c, labels, "odd", at=p)
        inside = lor.in_lattice(p)
        closed = mult_closed(tc, x, c == tc.order) if inside else (0, 0)
        if (even, odd) != closed:
            raise TheoremClosedFormMismatch(
                f"at {p}: convolution {(even, odd)} vs closed {closed}")
        if even < 0 or odd < 0:
            raise NegativeMultiplicity(f"negative multiplicity at {p}")
        if even != odd:
            raise TheoremClosedFormMismatch(
                f"parity asymmetry at {p}: {even} != {odd}")
        if not inside and even != 0:
            raise TheoremClosedFormMismatch(f"support off L at {p}")
        rows.append(("+".join(map(str, labels[1])), p.m, p.n,
                     Fraction(-x, D), gcd(p.m, p.n, *p.rcoords), even, odd,
                     "theorem1=closed"))
    return Table(MULT_COLUMNS, rows, {"order": tc.order})
