"""Exact integer and rational linear algebra used by the lattice engine.

Matrices are lists of lists (row-major).  Every routine runs in ints: a
rational matrix is a Scaled, int rows over one positive denominator, and
Fraction appears only in the readable form built by fractions().
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm


# ----------------------------------------------------------------------
# integer matrices

def hnf_with_transform(a: list[list[int]]):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, H in row echelon form with
    positive pivots and reduced entries above each pivot.  Zero rows of H are
    collected at the bottom; the matching rows of U span the left kernel.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(map(int, row)) for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        # find a pivot and clear the column below it by gcd steps
        piv = None
        for r in range(row, m):
            if h[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        u[row], u[piv] = u[piv], u[row]
        for r in range(row + 1, m):
            while h[r][col] != 0:
                q = h[row][col] // h[r][col]
                for k in range(n):
                    h[row][k] -= q * h[r][k]
                for k in range(m):
                    u[row][k] -= q * u[r][k]
                h[row], h[r] = h[r], h[row]
                u[row], u[r] = u[r], u[row]
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q:
                for k in range(n):
                    h[r][k] -= q * h[row][k]
                for k in range(m):
                    u[r][k] -= q * u[row][k]
        row += 1
    return h, u


def hnf(a: list[list[int]]) -> list[list[int]]:
    """Nonzero rows of the row Hermite normal form of A."""
    h, _ = hnf_with_transform(a)
    return [row for row in h if any(row)]


def left_kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Basis of {x integer row : x*A = 0}; saturated by construction."""
    h, u = hnf_with_transform(a)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def snf_invariants(a: list[list[int]]) -> list[int]:
    """Diagonal entries of the Smith normal form (nonnegative, d_i | d_{i+1}).

    Row Hermite forms of the matrix and of its transpose alternate until it
    is diagonal.  The top-left entry is the gcd of its column, so it never
    grows; once it stops shrinking it divides its row, and the next reduced
    form clears that row and column; the rest follows by induction.  gcd/lcm
    steps then order the diagonal by divisibility.
    """
    h = a
    while any(x for i, row in enumerate(h) for j, x in enumerate(row)
              if i != j):
        h = list(zip(*hnf_with_transform(h)[0]))
    d = [abs(row[i]) for i, row in enumerate(h) if i < len(row)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


# ----------------------------------------------------------------------
# rational matrices as int rows over one denominator

class Scaled(namedtuple("Scaled", "rows den")):
    """The rational matrix rows / den, rows ints and den > 0."""

    __slots__ = ()


def reduced(rows, den: int) -> Scaled:
    """rows / den in lowest terms, as tuples."""
    g = gcd(den, *(x for row in rows for x in row))
    if den < 0:
        g = -g
    return Scaled(tuple(tuple(x // g for x in row) for row in rows), den // g)


def scaled(m) -> Scaled:
    """A matrix of ints and Fractions, or a Scaled, as a Scaled in lowest
    terms, built without a Fraction."""
    if isinstance(m, Scaled):
        return reduced(*m)
    d = lcm(1, *(x.denominator for row in m for x in row))
    return Scaled(tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                        for row in m), d)


def fractions(m: Scaled):
    """The entries of m as Fractions: the readable form."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.rows)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def _gauss_jordan(a, aug):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the int rows
    [a | aug], a square: (d, s, [d I | d a^-1 aug]) with d = s det(a), s =
    +-1, or (0, 1, None) for a singular a.  Every division is exact."""
    n = len(a)
    work = [list(r) + list(x) for r, x in zip(a, aug)]
    prev, sign = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return 0, 1, None
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        p, top = work[col][col], work[col]
        for r in range(n):
            f = work[r][col]
            if r != col:
                work[r] = [(p * x - f * y) // prev
                           for x, y in zip(work[r], top)]
        prev = p
    return prev, sign, work


def mat_inv(a) -> Scaled:
    """Inverse of a square rational matrix as int rows over a denominator,
    by fraction-free elimination."""
    rows, s = scaled(a)
    n = len(rows)
    d, _, work = _gauss_jordan(
        rows, [[s if i == j else 0 for j in range(n)] for i in range(n)])
    if work is None:
        raise ZeroDivisionError("singular matrix")
    return reduced([row[n:] for row in work], d)


def det(a) -> int:
    """Determinant of a square int matrix, by fraction-free elimination."""
    d, sign, _ = _gauss_jordan(a, [()] * len(a))
    return sign * d
