"""The point-wise multiplicity table, kept as the tests' oracle: both
formulas and every check run at every cone point of positive_cone_enum.
build_mult_table must give the same table byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from superdenom.mult import (MULT_COLUMNS, NonIntegralMultiplicity, Table,
                             TheoremClosedFormMismatch, TwistClass,
                             mult_closed, mult_theorem1)


def build_mult_table(tc: TwistClass, max_height: int,
                     max_norm=None) -> Table:
    """Evaluate both multiplicity formulas at every point of the cone slice
    and compare."""
    lor = tc.lorentzian
    D = lor.exponent
    points = []  # (point, D * -alpha^2) in the slice
    for p in lor.positive_cone_enum(max_height):
        x = 2 * D * p.m * p.n - lor.rows[p.rcoords].norm_scaled
        if max_norm is None or x <= max_norm * D:
            points.append((p, x))
    if points:
        top = max(x for _, x in points) + (D if tc.order > 1 else 0)
        tc._need(top // (2 * D))
    rows = []
    for p, x in points:
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
        if not lor.in_lattice(p) and even != 0:
            raise TheoremClosedFormMismatch(f"support off L at {p}")
        row = lor.rows[p.rcoords]
        rows.append(("+".join(map(str, row.label)), p.m, p.n,
                     Fraction(-x, D), gcd(p.m, p.n, row.gcd), even, odd,
                     "theorem1=closed"))
    return Table(MULT_COLUMNS, rows, {"order": tc.order})
