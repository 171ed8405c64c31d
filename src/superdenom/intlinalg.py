"""Exact integer and rational linear algebra used by the lattice engine.

Matrices are lists of lists (row-major).  Integer routines never leave the
integers; rational routines use Fraction throughout.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Diagonal entries of the Smith normal form (nonnegative, d_i | d_{i+1})."""
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(map(int, row)) for row in a]

    def _min_entry(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if h[i][j] != 0 and (best is None or abs(h[i][j]) < abs(h[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = _min_entry(t)
        if pos is None:
            break
        i0, j0 = pos
        h[t], h[i0] = h[i0], h[t]
        for row in h:
            row[t], row[j0] = row[j0], row[t]
        dirty = False
        for i in range(t + 1, m):
            if h[i][t]:
                q = h[i][t] // h[t][t]
                for k in range(t, n):
                    h[i][k] -= q * h[t][k]
                if h[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if h[t][j]:
                q = h[t][j] // h[t][t]
                for i2 in range(t, m):
                    h[i2][j] -= q * h[i2][t]
                if h[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        ok = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if h[i][j] % h[t][t] != 0:
                    for k in range(t, n):
                        h[t][k] += h[i][k]
                    ok = False
                    break
            if not ok:
                break
        if ok:
            t += 1
    d = [abs(h[i][i]) for i in range(min(m, n))]
    return d


# ----------------------------------------------------------------------
# rational matrices

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def mat_inv(a):
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0)
                                          for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def det(a):
    """Determinant of a square rational matrix (fraction-free would do too)."""
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            d = -d
        d *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return d
