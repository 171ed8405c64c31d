"""The lattice and spin-matrix set-up as it was before the scaled-integer
rewrite, kept as the tests' oracle: IntegralLattice with Fraction basis,
Gram and Gauss-Jordan inverse, the Fraction Fincke-Pohst completion and
enumeration, E8, the fixed sublattice, its complement and the coset shift
table, and the Fraction spin matrices, power traces and cycle shapes.
Nothing in the package uses this module; tests compare the integer set-up
with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import add

from superdenom.arith import divisors, mobius
from superdenom.etaq import CycleShape
from superdenom.intlinalg import (fractions, hnf, left_kernel_basis,
                                  mat_mul, mat_vec, snf_invariants)
from superdenom.lattices import (DiscriminantGroup, SearchExhausted,
                                 SingularGram)
from superdenom.octonion import (NotProductOfCyclotomicBlocks,
                                 OrderExceedsCap, _composite, _exact,
                                 bi_mult_matrix, left_mult_matrix,
                                 mat_identity8, mat_mul8, mat_trace8,
                                 right_mult_matrix)
from superdenom.series import QSeries


def coords_of(lattice, v):
    """Basis coordinates of an ambient vector in the span (exact), of an
    oracle lattice or of a package lattice, read from the package's integer
    _coords; ValueError off the span."""
    if isinstance(lattice, IntegralLattice):
        return lattice.coords_of(v)
    return fractions(lattice._coords([v]))[0]


# ----------------------------------------------------------------------
# rational linear algebra

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


# ----------------------------------------------------------------------
# lattices

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class IntegralLattice:
    """A lattice with rational basis rows in Euclidean ambient space."""

    def __init__(self, basis, gram=None):
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        self.rank = len(self.basis)
        self.ambient_dim = len(self.basis[0]) if self.rank else 0
        if gram is None:
            gram = [[_dot(u, v) for v in self.basis] for u in self.basis]
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self._gram_inv = None
        self._dual = None
        for i in range(self.rank):
            for j in range(self.rank):
                if self.gram[i][j] != _dot(self.basis[i], self.basis[j]):
                    raise ValueError("gram does not match the basis")

    # -- basic invariants ------------------------------------------------

    def det(self) -> Fraction:
        return det([list(r) for r in self.gram]) if self.rank else Fraction(1)

    def is_even(self) -> bool:
        return all(g.denominator == 1 and g.numerator % 2 == 0
                   for g in (self.gram[i][i] for i in range(self.rank)))

    def gram_int(self):
        if any(x.denominator != 1 for row in self.gram for x in row):
            raise ValueError("gram is not integral")
        return [[int(x) for x in row] for row in self.gram]

    def gram_inv(self):
        """Inverse Gram matrix as a tuple of row tuples, computed once."""
        if self._gram_inv is None:
            try:
                inv = mat_inv(self.gram)
            except ZeroDivisionError:
                raise SingularGram("degenerate Gram matrix") from None
            self._gram_inv = tuple(tuple(row) for row in inv)
        return self._gram_inv

    # -- coordinates -----------------------------------------------------

    def vector(self, coords):
        """Ambient vector of integer/rational basis coordinates."""
        v = [Fraction(0)] * self.ambient_dim
        for c, row in zip(coords, self.basis):
            if c:
                for i, x in enumerate(row):
                    v[i] += c * x
        return tuple(v)

    def coords_of(self, v):
        """Basis coordinates of an ambient vector in the span (exact)."""
        rhs = [_dot(row, v) for row in self.basis]
        c = mat_vec(self.gram_inv(), rhs)
        if self.vector(c) != tuple(Fraction(x) for x in v):
            raise ValueError("vector is not in the span of the lattice")
        return tuple(c)

    def norm_of_coords(self, coords):
        g = self.gram
        n = Fraction(0)
        for i, ci in enumerate(coords):
            if ci:
                for j, cj in enumerate(coords):
                    if cj:
                        n += ci * cj * g[i][j]
        return n

    # -- derived lattices ------------------------------------------------

    def dual(self) -> "IntegralLattice":
        """Dual lattice, built once; its Gram is the inverse Gram."""
        if self._dual is None:
            if self.rank == 0:
                self._dual = IntegralLattice(())
            else:
                gi = self.gram_inv()
                self._dual = IntegralLattice(
                    mat_mul(gi, [list(r) for r in self.basis]), gi)
        return self._dual

    def level(self) -> int:
        """Least N with N*beta^2 in 2Z for every dual vector beta."""
        if self.rank == 0:
            return 1
        gi = self.gram_inv()
        n = 1
        for i in range(self.rank):
            for j in range(self.rank):
                e = gi[i][j] / 2 if i == j else gi[i][j]
                n = n * e.denominator // gcd(n, e.denominator)
        return n

    def discriminant_group(self) -> "DiscriminantGroup":
        g = self.gram_int()
        invs = [d for d in snf_invariants(g) if d != 1]
        return DiscriminantGroup(self, tuple(invs))


def _fp_decompose(gram):
    """Quadratic-form completion q(x) = sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            t = q[i][j] / q[i][i]
            for k in range(j, n):
                q[j][k] -= t * q[i][k]
        for j in range(i + 1, n):
            q[i][j] /= q[i][i]
    d = [q[i][i] for i in range(n)]
    c = [[q[i][j] for j in range(n)] for i in range(n)]
    return d, c


def _enumerate_scaled(lattice: IntegralLattice, s, max_norm, counts=None):
    """(points, T): every (coords, T*(x+s)^2) with (x + s)^2 <= max_norm.

    Everything is rescaled to integers once so the recursion runs on plain
    ints: with M a common denominator of the completion data, the offset
    centers live on the grid (1/M^2)Z and the partial norms are tracked as
    q * T for a fixed global scale T, so every returned norm is an int.
    Each level's center is a running partial sum, moved by one column step
    when a higher coordinate moves, and its range of x_i is exact: every x_i
    with d_i (M^2 x_i + center)^2 <= remaining, from one isqrt.  The last
    coordinate is a loop inside its parent level, not a level of its own.
    Given a dict counts, each point only adds one to counts[T*(x+s)^2] and
    points is empty.
    """
    n = lattice.rank
    d, c = _fp_decompose(lattice.gram)
    M = 1
    for f in list(s) + [c[i][j] for i in range(n) for j in range(i + 1, n)]:
        M = M * f.denominator // gcd(M, f.denominator)
    dden = 1
    for f in d:
        dden = dden * f.denominator // gcd(dden, f.denominator)
    dden = dden * max_norm.denominator // gcd(dden, max_norm.denominator)
    T = dden * M ** 4
    m2 = M * M
    # integer data: sN = M*s, cN = M*c, dN = d*T/M^4
    sN = [int(f * M) for f in s]
    cN = [[int(c[i][j] * M) for j in range(n)] for i in range(n)]
    dN = [int(d[i] * dden) for i in range(n)]
    R0 = int(max_norm * T)
    if n == 0:
        return [((), 0)], T
    out = []
    x = [0] * n
    # step[i][k]: how far the center of level k < i moves when x_i grows by 1
    step = [[cN[k][i] * M for k in range(i)] for i in range(n)]

    def recurse(i, remaining, centers):
        """Every x_i..x_0 below the fixed higher coordinates, centers[k]
        being level k's center numerator M^2*(s_k + sum_{j>k} c_kj (x_j +
        s_j)) for the fixed coordinates j > i."""
        center, di = centers[i], dN[i]
        r = isqrt(remaining // di)
        lo, hi = -((r + center) // m2), (r - center) // m2
        z = m2 * lo + center  # M^2 * (x_i + offset)
        if i == 0:
            top = R0 - remaining
            if counts is None:
                for xi in range(lo, hi + 1):
                    x[0] = xi
                    out.append((tuple(x), top + di * z * z))
                    z += m2
            else:
                get = counts.get
                for _ in range(lo, hi + 1):
                    q = top + di * z * z
                    counts[q] = get(q, 0) + 1
                    z += m2
            return
        yi = M * lo + sN[i]
        below = [centers[k] + cN[k][i] * yi for k in range(i)]
        col = step[i]
        for xi in range(lo, hi + 1):
            x[i] = xi
            recurse(i - 1, remaining - di * z * z, below)
            z += m2
            below = list(map(add, below, col))

    recurse(n - 1, R0, [M * f for f in sN])
    # the closure refers to itself; break the cycle so `out` is freed as
    # soon as the caller drops it, not at the next full collection
    del recurse
    return out, T


def enumerate_coset(lattice: IntegralLattice, shift, max_norm):
    """All integer coordinate vectors x with (x + s)^2 <= max_norm.

    shift is an ambient vector in the span of the lattice (or None for 0);
    the returned coordinates are relative to the lattice basis.  Order is
    deterministic: ascending lexicographic from the last coordinate.
    """
    max_norm = Fraction(max_norm)
    if max_norm < 0:
        return []
    n = lattice.rank
    if n == 0:
        return [()]
    s = [0] * n if shift is None else lattice.coords_of(shift)
    points, _ = _enumerate_scaled(lattice, s, max_norm)
    return sorted(coords for coords, _ in points)


def theta_coset(lattice: IntegralLattice, shift, prec) -> QSeries:
    """Theta series sum_v q^{v^2/2} over the translated lattice shift + L."""
    prec = Fraction(prec)
    if lattice.rank == 0:
        return QSeries.one(trunc=prec)
    s = [0] * lattice.rank if shift is None else lattice.coords_of(shift)
    counts: dict[int, int] = {}
    _, T = _enumerate_scaled(lattice, s, 2 * prec, counts)
    # count k at key q is the term k*q^{q/2T}; keys at or past prec are
    # dropped by the truncation
    return QSeries(2 * T, counts, prec)


def e8_lattice() -> IntegralLattice:
    """E8 embedded in R^8: integer or all-half-integer points with even sum.

    The basis is the Hermite normal form of a natural generating set, so it
    is canonical for this embedding.
    """
    gens = []
    for i in range(7):
        row = [0] * 8
        row[i], row[i + 1] = 2, -2      # 2*(e_i - e_{i+1})
        gens.append(row)
    row = [0] * 8
    row[6] = row[7] = 2                 # 2*(e_6 + e_7)
    gens.append(row)
    gens.append([1] * 8)                # 2*(1/2, ..., 1/2)
    doubled = hnf(gens)
    basis = [[Fraction(x, 2) for x in row] for row in doubled]
    lat = IntegralLattice(basis)
    assert lat.det() == 1 and lat.is_even()
    return lat


def matrix_action_on(lattice: IntegralLattice, m):
    """Basis-coordinate matrix A of an ambient map: M b_k = sum_j A[j][k] b_j."""
    cols = []
    for b in lattice.basis:
        mb = tuple(sum(m[i][j] * b[j] for j in range(len(b)))
                   for i in range(len(m)))
        cols.append(coords_of(lattice, mb))
    return [[cols[k][j] for k in range(lattice.rank)]
            for j in range(lattice.rank)]


def preserves_lattice(lattice: IntegralLattice, m) -> bool:
    """True if the ambient map sends the lattice into itself bijectively."""
    try:
        a = matrix_action_on(lattice, m)
    except ValueError:
        return False
    if any(x.denominator != 1 for row in a for x in row):
        return False
    return abs(det(a)) == 1


def fixed_sublattice(m, lattice: IntegralLattice) -> IntegralLattice:
    """Primitive sublattice of vectors fixed by an ambient map preserving L."""
    a = matrix_action_on(lattice, m)
    k = [[int(a[i][j]) - (1 if i == j else 0) for j in range(lattice.rank)]
         for i in range(lattice.rank)]
    # right kernel of k = left kernel of its transpose
    kernel = left_kernel_basis([list(r) for r in zip(*k)])
    basis = [lattice.vector(c) for c in kernel]
    return IntegralLattice(basis)


def _pairings(container: IntegralLattice, sub: IntegralLattice):
    """Integer matrix W with W[i][j] = (container basis i, sub basis j)."""
    w = [[_dot(b, s) for s in sub.basis] for b in container.basis]
    if any(Fraction(x).denominator != 1 for row in w for x in row):
        raise ValueError("pairings must be integral")
    return [[int(x) for x in row] for row in w]


def orthogonal_complement(sub: IntegralLattice,
                          container: IntegralLattice) -> IntegralLattice:
    """All container vectors orthogonal to the sublattice, as a lattice."""
    if sub.rank == 0:
        return container
    kernel = left_kernel_basis(_pairings(container, sub))
    basis = [container.vector(c) for c in kernel]
    return IntegralLattice(basis)


def build_coset_shift_table(fixed: IntegralLattice,
                            container: IntegralLattice,
                            disc: DiscriminantGroup):
    """For each coset of fixed*/fixed, a complement shift r-perp.

    Finds container vectors x with projection onto span(fixed) in the coset,
    and records x - proj(x); the result depends only on the coset.  The
    projection of x = sum_i c_i b_i has dual coordinates c.W, W the integer
    pairings of the container basis with the fixed basis.
    """
    dual = fixed.dual()
    w = _pairings(container, fixed)
    cols = list(zip(*w))
    table: dict[tuple, tuple] = {}
    bound = 2
    for _ in range(8):
        for coords in enumerate_coset(container, None, Fraction(bound)):
            p = tuple(_dot(coords, col) for col in cols)
            lab = disc.coset_label(p)
            if lab not in table:
                x = container.vector(coords)
                proj = dual.vector(p)
                table[lab] = tuple(a - b for a, b in zip(x, proj))
                if len(table) == disc.order:
                    return table
        bound *= 2
    raise SearchExhausted("projection did not reach every discriminant coset")


# ----------------------------------------------------------------------
# spin matrices


def mat_scale8(a, c):
    c = Fraction(c)
    return tuple(tuple(_exact(c * x) for x in row) for row in a)


def spin_matrix(u, kind: str):
    """rho_V, rho_L or rho_R of u (kind "V", "L" or "R") in Fractions."""
    if kind == "V":
        m = _composite([bi_mult_matrix(b) for b in u.factors])
        return mat_scale8(m, 1 / u.norm_product())
    mult = left_mult_matrix if kind == "L" else right_mult_matrix
    return mat_scale8(_composite([mult(b) for b in u.factors]),
                      u.spinor_normalizer())


def _power_traces(m, cap: int) -> list:
    """[tr(m), ..., tr(m^k)] for the least k <= cap with m^k = I."""
    ident = mat_identity8()
    traces = []
    p = m
    for _ in range(cap):
        traces.append(mat_trace8(p))
        if p == ident:
            return traces
        p = mat_mul8(p, m)
    raise OrderExceedsCap(f"order exceeds cap {cap}")


def _char_poly(traces) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, -e1, e2, ...] of x^8-...

    Computed via the Newton identities from the power traces of a matrix m
    with m^k = I, k = len(traces), so tr(m^j) = traces[(j - 1) % k].
    """
    p = [traces[j % len(traces)] for j in range(8)]
    e = [Fraction(1)]
    for k in range(1, 9):
        s = Fraction(0)
        for i in range(1, k + 1):
            s += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(s / k)
    return [(-1) ** k * e[k] for k in range(9)]  # coeffs of x^8..x^0


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cycle_shape(m, cap: int = 64) -> CycleShape:
    """Recover the cycle shape of a finite-order orthogonal 8x8 matrix.

    Inverts tr(M^d) = sum_{a|d} a*b_a over the divisors of the order, then
    validates against the characteristic polynomial.
    """
    traces = _power_traces(m, cap)
    b = {}
    for a in divisors(len(traces)):
        s = sum(mobius(a // d) * traces[d - 1] for d in divisors(a))
        ba = Fraction(s, a)
        if ba.denominator != 1 or ba < 0:
            raise NotProductOfCyclotomicBlocks(
                f"trace inversion gives non-integral multiplicity at {a}")
        if ba:
            b[a] = int(ba)
    shape = CycleShape(tuple(sorted(b.items())))
    # validate: char poly must equal prod (x^a - 1)^{b_a}
    target = [Fraction(1)]
    for a, ba in shape.cycles:
        block = [Fraction(1)] + [Fraction(0)] * (a - 1) + [Fraction(-1)]
        for _ in range(ba):
            target = _poly_mul(target, block)
    if target != _char_poly(traces) or shape.weight != 8:
        raise NotProductOfCyclotomicBlocks(
            "characteristic polynomial is not a product of x^a - 1 blocks")
    return shape
