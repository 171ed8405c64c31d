"""Exact integral-lattice machinery.

Definite lattices live in Euclidean R^n and are given by a rational basis
(rows) with integer Gram matrix.  The hyperbolic plane II_{1,1} is fixed once
and for all with Gram [[0,-1],[-1,0]] and positive cone {m >= 0, n >= 0};
Lorentzian points are handled by LorentzianLattice below without an explicit
ambient Lorentzian space.

All enumeration is exact (Fincke-Pohst, rescaled once so that it runs on
integers) and deterministic (lexicographic coordinate order).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import NamedTuple

from .intlinalg import (det, hnf, left_kernel_basis, mat_inv, mat_mul,
                        mat_vec, snf_invariants)
from .series import QSeries


class SingularGram(ArithmeticError):
    """Dual of a degenerate lattice requested."""


class SearchExhausted(RuntimeError):
    """A bounded search failed to find a required vector."""


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


@dataclass
class DiscriminantGroup:
    """The quotient L*/L with invariant factors and coset representatives."""

    lattice: IntegralLattice
    invariants: tuple[int, ...]

    def __post_init__(self):
        self.order = 1
        for d in self.invariants:
            self.order *= d
        g = self.lattice.gram_int() if self.lattice.rank else []
        # (pivot column, row) of each Hermite normal form row; a row is zero
        # left of its pivot
        self._pivots = [(next(i for i, x in enumerate(row) if x), row)
                        for row in (hnf(g) if g else [])]

    def coset_label(self, dual_coords) -> tuple[int, ...]:
        """Canonical representative of a dual vector modulo the lattice.

        Dual coordinates v (integers in the dual basis) are reduced modulo
        the row span of the Gram matrix, which is the image of L in dual
        coordinates.
        """
        v = [int(x) for x in dual_coords]
        for piv, row in self._pivots:
            q = v[piv] // row[piv]
            if q:
                for i in range(piv, len(v)):
                    v[i] -= q * row[i]
        return tuple(v)


# ----------------------------------------------------------------------
# enumeration

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


def vectors_by_norm(lattice: IntegralLattice, max_norm: int):
    """Every vector of an integral lattice with norm at most max_norm,
    bucketed by norm: {norm: [(G c, gcd(c)), ...]} over the coordinate
    vectors c, G the Gram matrix.  G c are the vector's dual coordinates,
    its pairings with the basis; gcd(c) is 0 for the zero vector."""
    gram = lattice.gram_int()
    points, T = _enumerate_scaled(lattice, [0] * lattice.rank,
                                  Fraction(max_norm))
    out: dict[int, list] = {}
    prev = gc = ()
    for c, q in points:
        # the enumeration steps the first coordinate fastest, so most points
        # are the one before plus e_0, and G c moves by G e_0 = gram[0]
        if prev and c[0] == prev[0] + 1 and c[1:] == prev[1:]:
            gc = tuple(map(add, gc, gram[0]))
        else:
            gc = tuple([sum(map(mul, row, c)) for row in gram])
        prev = c
        out.setdefault(q // T, []).append((gc, gcd(*c)))
    return out


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


# ----------------------------------------------------------------------
# the E8 lattice in octonion coordinates

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
        cols.append(lattice.coords_of(mb))
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
# Lorentzian points over L = fixed + II_{1,1}

@dataclass(frozen=True, order=True)
class LorentzianPoint:
    """A point (r*; m, n) of L* = fixed* + II_{1,1}, r* in dual coordinates."""

    rcoords: tuple[int, ...]
    m: int
    n: int

    @property
    def height(self) -> int:
        return self.m + self.n

    def divide(self, t: int) -> "LorentzianPoint":
        if any(c % t for c in self.rcoords) or self.m % t or self.n % t:
            raise ValueError(f"point is not divisible by {t}")
        return LorentzianPoint(tuple(c // t for c in self.rcoords),
                               self.m // t, self.n // t)

    def multiply(self, k: int) -> "LorentzianPoint":
        return LorentzianPoint(tuple(c * k for c in self.rcoords),
                               self.m * k, self.n * k)


class RStarRow(NamedTuple):
    """What a cone point's multiplicity needs to know about its r*."""

    norm_scaled: int        # D * r*^2 = r*.A r*
    in_lattice: bool        # r* in the fixed lattice: A r* = 0 mod D
    label: tuple[int, ...]  # discriminant coset of r*
    gcd: int                # gcd of the dual coordinates, 0 for r* = 0


class _RowTable(dict):
    """r* -> RStarRow, each row computed on its first lookup, so a lookup
    that hits is a plain dict subscript."""

    def __init__(self, scaled_inv, exponent: int, disc: DiscriminantGroup):
        super().__init__()
        self.scaled_inv, self.exponent, self.disc = scaled_inv, exponent, disc
        self.labels: dict[tuple, tuple] = {}  # A r* mod D -> coset label

    def __missing__(self, rcoords) -> RStarRow:
        D = self.exponent
        w = [sum(map(mul, a, rcoords)) for a in self.scaled_inv]  # A r*
        # A r* mod D names the coset of r* in L*/L: it is 0 on L, and the
        # canonical label is reduced once per coset
        coset = tuple([x % D for x in w])
        label = self.labels.get(coset)
        if label is None:
            label = self.labels[coset] = self.disc.coset_label(rcoords)
        row = self[rcoords] = RStarRow(sum(map(mul, w, rcoords)),
                                       not any(coset), label, gcd(*rcoords))
        return row


class LorentzianLattice:
    """L = fixed + II_{1,1} with its dual, cone and membership machinery.

    Points of L* carry dual coordinates r*, and every question about them is
    answered in integers through A = D * Gram^{-1}, D the exponent of the
    discriminant group: r* lies in the fixed lattice iff A r* = 0 mod D, and
    r*^2 = r*.A r* / D.  The answers that depend on r* alone are computed
    once per distinct r* and kept as one RStarRow in rows[r*].
    """

    def __init__(self, fixed: IntegralLattice):
        self.fixed = fixed
        self.dual = fixed.dual() if fixed.rank else fixed
        self.gram_int = fixed.gram_int()
        self.disc = fixed.discriminant_group()
        inv = fixed.gram_inv()
        self.exponent = lcm(1, *(x.denominator for row in inv for x in row))
        scaled_inv = [[int(x * self.exponent) for x in row] for row in inv]
        self.rows = _RowTable(scaled_inv, self.exponent, self.disc)

    def rstar_norm(self, rcoords) -> Fraction:
        return Fraction(self.rows[rcoords].norm_scaled, self.exponent)

    def norm(self, p: LorentzianPoint) -> Fraction:
        return self.rstar_norm(p.rcoords) - 2 * p.m * p.n

    def pairing_divisor(self, p: LorentzianPoint) -> int:
        return gcd(p.m, p.n, self.rows[p.rcoords].gcd)

    def in_lattice(self, p: LorentzianPoint) -> bool:
        """Membership of the definite part in the fixed lattice itself."""
        return self.rows[p.rcoords].in_lattice

    def in_n_dual(self, p: LorentzianPoint, n: int) -> bool:
        """Membership in N*L*."""
        return self.pairing_divisor(p) % n == 0

    def in_n_lattice(self, p: LorentzianPoint, n: int) -> bool:
        """Membership in N*L."""
        return self.in_n_dual(p, n) and self.in_lattice(p.divide(n))

    # -- enumeration -----------------------------------------------------

    def positive_cone_enum(self, max_height: int):
        """All nonzero points (r*; m, n), m,n >= 0, m+n <= H, r*^2 <= 2mn.

        Deterministic order: by (height, m, r*^2, coords).
        """
        if max_height < 1:
            return []
        max_mn = (max_height // 2) * ((max_height + 1) // 2)
        points, T = _enumerate_scaled(self.dual, [0] * self.fixed.rank,
                                      Fraction(2 * max_mn))
        vecs = sorted((q, coords) for coords, q in points)
        out = []
        for h in range(1, max_height + 1):
            for m in range(h + 1):
                n = h - m
                cap = 2 * m * n * T
                for q, coords in vecs:
                    if q > cap:
                        break
                    out.append(LorentzianPoint(coords, m, n))
        return out

    def primitive_isotropic_enum(self, max_height: int):
        """Primitive norm-zero points of L^+ with height <= H.

        Returns a list of (point, max_multiple) with max_multiple the largest
        k such that k*height <= H.  The fixed lattice is enumerated once and
        bucketed by norm; a vector c of norm 2mn gives the point (Gc; m, n),
        primitive when gcd(m, n, c) = 1.
        """
        out = []
        zero = (0,) * self.fixed.rank
        if max_height >= 1:
            out += [(LorentzianPoint(zero, 1, 0), max_height),
                    (LorentzianPoint(zero, 0, 1), max_height)]
        max_mn = (max_height // 2) * ((max_height + 1) // 2)
        by_norm = vectors_by_norm(self.fixed, 2 * max_mn)
        for m in range(1, max_height):
            for n in range(1, max_height + 1 - m):
                for gc, g in by_norm.get(2 * m * n, ()):
                    if gcd(m, n, g) == 1:
                        out.append((LorentzianPoint(gc, m, n),
                                    max_height // (m + n)))
        out.sort(key=lambda t: (t[0].height, t[0].m, t[0].rcoords))
        return out
