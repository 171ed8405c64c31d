"""Exact integral-lattice machinery.

Definite lattices live in Euclidean R^n.  A lattice keeps its basis as int
rows over one positive denominator (a Scaled: E8's basis rows are B/2) and
its Gram matrix the same way (integral for the lattices themselves, rational
for a dual).  Gram inverse, coordinates, determinant, level and the
Fincke-Pohst completion all run in ints by fraction-free elimination; the
Fraction forms basis, gram and gram_inv() are built on first read.  The
hyperbolic plane II_{1,1} is fixed once and for all with Gram
[[0,-1],[-1,0]] and positive cone {m >= 0, n >= 0}; Lorentzian points are
handled by LorentzianLattice below without an explicit ambient Lorentzian
space.

Point enumeration is exact (Fincke-Pohst, rescaled once so that it runs on
integers) and deterministic (lexicographic coordinate order).  Theta series
run on the same integer completion but count norms by shift class: one norm
table per class of reduced centers, not one visit per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import NamedTuple

# mat_vec is not called here; the benchmark's tracer patches the name
from .intlinalg import (Scaled, det, fractions, hnf, left_kernel_basis,
                        mat_inv, mat_mul, mat_vec, reduced, scaled,
                        snf_invariants)
from .series import QSeries


class SingularGram(ArithmeticError):
    """Dual of a degenerate lattice requested."""


class SearchExhausted(RuntimeError):
    """A bounded search failed to find a required vector."""


def _dot(u, v):
    return sum(map(mul, u, v))


class IntegralLattice:
    """A lattice with rational basis rows in Euclidean ambient space.  basis
    and a gram that must match it are rows of ints and Fractions, or Scaled."""

    def __init__(self, basis, gram=None):
        self.scaled_basis = B = scaled(basis)
        self.rank = len(B.rows)
        self.ambient_dim = len(B.rows[0]) if self.rank else 0
        bbt = [[_dot(u, v) for v in B.rows] for u in B.rows]
        if gram is None:
            self.scaled_gram = reduced(bbt, B.den ** 2)
        else:
            self.scaled_gram = g = scaled(gram)
            if [[x * g.den for x in row] for row in bbt] != \
                    [[x * B.den ** 2 for x in row] for row in g.rows]:
                raise ValueError("gram does not match the basis")
        self._dual = None

    basis = cached_property(lambda self: fractions(self.scaled_basis))
    gram = cached_property(lambda self: fractions(self.scaled_gram))

    # -- basic invariants ------------------------------------------------

    def det(self) -> Fraction:
        g = self.scaled_gram
        return Fraction(det(g.rows), g.den ** self.rank)

    def is_even(self) -> bool:
        g = self.scaled_gram
        return g.den == 1 and all(r[i] % 2 == 0 for i, r in enumerate(g.rows))

    def gram_int(self):
        if self.scaled_gram.den != 1:
            raise ValueError("gram is not integral")
        return [list(row) for row in self.scaled_gram.rows]

    @cached_property
    def scaled_gram_inv(self) -> Scaled:
        try:
            return mat_inv(self.scaled_gram)
        except ZeroDivisionError:
            raise SingularGram("degenerate Gram matrix") from None

    _gram_inv = cached_property(lambda self: fractions(self.scaled_gram_inv))

    def gram_inv(self):
        """Inverse Gram matrix as a tuple of row tuples, computed once."""
        return self._gram_inv

    # -- coordinates -----------------------------------------------------

    def vector(self, coords):
        """Ambient vector of integer/rational basis coordinates."""
        b = self.scaled_basis
        return tuple(Fraction(_dot(coords, col), b.den)
                     for col in zip(*b.rows))

    @cached_property
    def _coord_map(self) -> Scaled:
        """P with coordinates v P for v in the span: B^T Gram^-1 / den."""
        b, gi = self.scaled_basis, self.scaled_gram_inv
        return reduced(mat_mul(list(zip(*b.rows)), gi.rows), b.den * gi.den)

    def _coords(self, vectors) -> Scaled:
        """Basis coordinates of ambient row vectors in the span (exact)."""
        v, p, b = scaled(vectors), self._coord_map, self.scaled_basis
        c = reduced(mat_mul(v.rows, p.rows), v.den * p.den)
        if [[x * v.den for x in row] for row in mat_mul(c.rows, b.rows)] != \
                [[x * c.den * b.den for x in row] for row in v.rows]:
            raise ValueError("vector is not in the span of the lattice")
        return c

    def norm_of_coords(self, coords):
        g = self.scaled_gram
        n = 0
        for i, ci in enumerate(coords):
            if ci:
                for j, cj in enumerate(coords):
                    if cj:
                        n += ci * cj * g.rows[i][j]
        return Fraction(n, g.den)

    # -- derived lattices ------------------------------------------------

    def sublattice(self, coords) -> "IntegralLattice":
        """The lattice spanned by the vectors of the given int coordinates."""
        b = self.scaled_basis
        return IntegralLattice(reduced(mat_mul(coords, b.rows), b.den))

    def dual(self) -> "IntegralLattice":
        """Dual lattice, built once; its Gram is the inverse Gram."""
        if self._dual is None:
            gi = self.scaled_gram_inv
            self._dual = IntegralLattice(
                reduced(mat_mul(gi.rows, self.scaled_basis.rows),
                        gi.den * self.scaled_basis.den), gi)
        return self._dual

    def level(self) -> int:
        """Least N with N*beta^2 in 2Z for every dual vector beta."""
        gi = self.scaled_gram_inv
        n = 1
        for i, row in enumerate(gi.rows):
            for j, x in enumerate(row):
                d = gi.den * 2 if i == j else gi.den
                n = lcm(n, d // gcd(x, d))
        return n

    def discriminant_group(self) -> "DiscriminantGroup":
        g = self.gram_int()
        invs = [d for d in snf_invariants(g) if d != 1]
        return DiscriminantGroup(self, tuple(invs))

    @cached_property
    def fincke_pohst(self):
        """(d, c), Scaled in lowest terms (d a column, c zero on and below
        the diagonal), of the completion q(x) = sum_i d_i (x_i + sum_{j>i}
        c_ij x_j)^2 of the Gram form G/g, by Bareiss elimination: pivot i is
        the leading minor m_{i+1} of G, d_i = m_{i+1} / (m_i g), and c_ij is
        row i's entry at step i over m_{i+1}."""
        g, n = self.scaled_gram, self.rank
        q, m = [list(row) for row in g.rows], [1]
        for i in range(n):
            p = q[i][i]
            if p <= 0:
                raise ValueError("Gram matrix is not positive definite")
            for r in range(i + 1, n):
                f = q[r][i]
                q[r] = [(p * x - f * y) // m[i] for x, y in zip(q[r], q[i])]
            m.append(p)
        dd, cd = g.den * lcm(1, *m[:n]), lcm(1, *m[1:])
        return (reduced([[m[i + 1] * (dd // (m[i] * g.den))]
                         for i in range(n)], dd),
                reduced([[x * (cd // m[i + 1]) if j > i else 0
                          for j, x in enumerate(q[i])] for i in range(n)], cd))


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

def _integer_form(lattice: IntegralLattice, s, max_norm):
    """(M, T, sN, cN, dN, R0, step): the Fincke-Pohst data of the coset
    s + L rescaled to ints, s a one-row Scaled of shift coordinates or None
    for 0.  With M a common denominator of s and the lattice's fincke_pohst
    data, the offset centers live on the grid (1/M^2)Z and norms are
    tracked as q * T for a fixed global scale T, so every norm is an int:
    sN = M*s, cN = M*c, dN = d*T/M^4, R0 = T*max_norm, and step[i][k] is
    how far the center of level k < i moves when x_i grows by 1."""
    n = lattice.rank
    d, c = lattice.fincke_pohst
    s = s or Scaled(((0,) * n,), 1)
    M = lcm(c.den, s.den)
    dden = lcm(d.den, max_norm.denominator)
    T = dden * M ** 4
    cN = [[x * (M // c.den) for x in row] for row in c.rows]
    return (M, T, [x * (M // s.den) for x in s.rows[0]], cN,
            [row[0] * (dden // d.den) for row in d.rows],
            max_norm.numerator * (T // max_norm.denominator),
            [[cN[k][i] * M for k in range(i)] for i in range(n)])


def _enumerate_scaled(lattice: IntegralLattice, s, max_norm):
    """(points, T): every (coords, T*(x+s)^2) with (x + s)^2 <= max_norm.

    s is a one-row Scaled of shift coordinates, or None for 0.  Everything
    is rescaled to integers once (_integer_form), so the recursion runs on
    plain ints and every returned norm is an int.
    Each level's center is a running partial sum, moved by one column step
    when a higher coordinate moves, and its range of x_i is exact: every x_i
    with d_i (M^2 x_i + center)^2 <= remaining, from one isqrt.  The last
    coordinate is a loop inside its parent level, not a level of its own.
    """
    n = lattice.rank
    M, T, sN, cN, dN, R0, step = _integer_form(lattice, s, max_norm)
    m2 = M * M
    if n == 0:
        return [((), 0)], T
    out = []
    x = [0] * n

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
            for xi in range(lo, hi + 1):
                x[0] = xi
                out.append((tuple(x), top + di * z * z))
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


def _theta_counts(lattice: IntegralLattice, s, max_norm):
    """(counts, T): counts[q] is the number of x with T*(x+s)^2 = q, for
    every q <= T*max_norm, summed by shift class instead of by point.

    s, max_norm and the integer scale are those of _enumerate_scaled, and
    the rank is at least 1.  Below level i of the completion, the partial
    norms depend only on the centers of levels 0..i.  Moving x_k by t moves
    center k by t*M^2 and every lower center by t*step[k], so the centers
    reduced level by level into [0, M^2) name a class whose partial norms
    are one multiset.  A class's table (norm -> count, ascending) is summed
    to the bound its first node needs, and once more to R0 if a later node
    needs more; a level-i node adds its sub-table shifted by d_i z^2, up to
    its own bound less d_i z^2.  Every point is counted once, exactly.
    """
    M, T, sN, cN, dN, R0, step = _integer_form(lattice, s, max_norm)
    m2 = M * M
    memo: dict[tuple, tuple] = {}  # class -> (bound, its table to bound)

    def canonical(centers):
        """The class of centers[0..i]: each center reduced into [0, M^2)
        from the top level down, the lower centers following."""
        for i in range(len(centers) - 1, -1, -1):
            t = centers[i] // m2
            if t:
                centers[i] -= t * m2
                for k, sk in enumerate(step[i]):
                    centers[k] -= t * sk
        return tuple(centers)

    def table(key, bound):
        """[(q, count), ...] ascending, every q <= bound, of the class key."""
        i = len(key) - 1
        center, di = key[i], dN[i]
        r = isqrt(bound // di)
        lo, hi = -((r + center) // m2), (r - center) // m2
        z = m2 * lo + center  # M^2 * (x_i + offset)
        out: dict[int, int] = {}
        get = out.get
        if i == 0:
            for _ in range(lo, hi + 1):
                q = di * z * z
                out[q] = get(q, 0) + 1
                z += m2
            return sorted(out.items())
        # level k < i moves by c_ki (x_i + s_i), s_i included
        yi = M * lo + sN[i]
        below = [key[k] + cN[k][i] * yi for k in range(i)]
        col = step[i]
        for _ in range(lo, hi + 1):
            a = di * z * z
            cut = bound - a
            sub_key = canonical(below[:])
            got = memo.get(sub_key)
            if got is None or got[0] < cut:
                # summed at most twice: to this bound, then to R0
                b = cut if got is None else R0
                got = memo[sub_key] = (b, table(sub_key, b))
            for q, k in got[1]:
                if q > cut:
                    break
                q += a
                out[q] = get(q, 0) + k
            z += m2
            below = list(map(add, below, col))
        return sorted(out.items())

    counts = dict(table(canonical([M * f for f in sN]), R0))
    del table  # the closure refers to itself, as in _enumerate_scaled
    return counts, T


def vectors_by_norm(lattice: IntegralLattice, max_norm: int):
    """Every vector of an integral lattice with norm at most max_norm,
    bucketed by norm: {norm: [(G c, gcd(c)), ...]} over the coordinate
    vectors c, G the Gram matrix.  G c are the vector's dual coordinates,
    its pairings with the basis; gcd(c) is 0 for the zero vector."""
    gram = lattice.gram_int()
    points, T = _enumerate_scaled(lattice, None, max_norm)
    out: dict[int, list] = {}
    prev = gc = (0,) * lattice.rank
    for c, q in points:
        # the enumeration steps the first coordinate fastest, so most points
        # are the one before plus e_0, and G c moves by G e_0 = gram[0];
        # otherwise G c moves by (c_i - prev_i) gram[i] for each changed i
        if c and c[0] == prev[0] + 1 and c[1:] == prev[1:]:
            gc = tuple(map(add, gc, gram[0]))
        else:
            for ci, pi, row in zip(c, prev, gram):
                if ci != pi:
                    gc = tuple([x + (ci - pi) * g for x, g in zip(gc, row)])
        prev = c
        out.setdefault(q // T, []).append((gc, gcd(*c)))
    return out


def enumerate_coset(lattice: IntegralLattice, shift, max_norm):
    """All integer coordinate vectors x with (x + s)^2 <= max_norm.

    shift is an ambient vector in the span of the lattice (or None for 0);
    the returned coordinates are relative to the lattice basis.  Order is
    deterministic: ascending lexicographic from the first coordinate, so
    Z^2 at max_norm 1 gives (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0).
    """
    max_norm = Fraction(max_norm)
    if max_norm < 0:
        return []
    if lattice.rank == 0:
        return [()]
    s = None if shift is None else lattice._coords([shift])
    points, _ = _enumerate_scaled(lattice, s, max_norm)
    return sorted(coords for coords, _ in points)


def theta_coset(lattice: IntegralLattice, shift, prec) -> QSeries:
    """Theta series sum_v q^{v^2/2} over the translated lattice shift + L.

    Norms are summed by shift class, which pays off on lattices whose
    classes repeat (E8, A2+A2, A6); on random rank-8 Grams, whose classes
    rarely repeat, it is 1.6-2.1x slower than one visit per point.
    """
    prec = Fraction(prec)
    if lattice.rank == 0:
        return QSeries.one(trunc=prec)
    s = None if shift is None else lattice._coords([shift])
    counts, T = _theta_counts(lattice, s, 2 * prec)
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
    lat = IntegralLattice(Scaled(hnf(gens), 2))
    assert lat.det() == 1 and lat.is_even()
    return lat


def matrix_action_on(lattice: IntegralLattice, m):
    """Basis-coordinate matrix A of an ambient map: M b_k = sum_j A[j][k] b_j,
    from the rows b_k M^T through the coordinate map, in ints.  Raises
    ValueError unless M sends the lattice into itself."""
    m, b = scaled(m), lattice.scaled_basis
    c = lattice._coords(Scaled(mat_mul(b.rows, list(zip(*m.rows))),
                               b.den * m.den))
    if c.den != 1:
        raise ValueError("the map does not send the lattice into itself")
    return [list(col) for col in zip(*c.rows)]


def fixed_sublattice(m, lattice: IntegralLattice) -> IntegralLattice:
    """Primitive sublattice of vectors fixed by an ambient map preserving L."""
    a = matrix_action_on(lattice, m)
    # right kernel of A - I = left kernel of its transpose
    kernel = left_kernel_basis([[x - (i == j) for i, x in enumerate(col)]
                                for j, col in enumerate(zip(*a))])
    return lattice.sublattice(kernel)


def _pairings(container: IntegralLattice, sub: IntegralLattice):
    """Integer matrix W with W[i][j] = (container basis i, sub basis j)."""
    b, s = container.scaled_basis, sub.scaled_basis
    w = reduced([[_dot(u, v) for v in s.rows] for u in b.rows],
                b.den * s.den)
    if w.den != 1:
        raise ValueError("pairings must be integral")
    return [list(row) for row in w.rows]


def orthogonal_complement(sub: IntegralLattice,
                          container: IntegralLattice) -> IntegralLattice:
    """All container vectors orthogonal to the sublattice, as a lattice."""
    if sub.rank == 0:
        return container
    return container.sublattice(left_kernel_basis(_pairings(container, sub)))


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
        for coords in enumerate_coset(container, None, bound):
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
        self.disc = fixed.discriminant_group()
        inv = fixed.scaled_gram_inv
        self.exponent = inv.den
        self.rows = _RowTable(inv.rows, self.exponent, self.disc)

    def pairing_divisor(self, p: LorentzianPoint) -> int:
        return gcd(p.m, p.n, self.rows[p.rcoords].gcd)

    def in_lattice(self, p: LorentzianPoint) -> bool:
        """Membership of the definite part in the fixed lattice itself."""
        return self.rows[p.rcoords].in_lattice

    # -- enumeration -----------------------------------------------------

    def cone_duals(self, max_height: int):
        """The r* of every cone point of height <= H as sorted (D r*^2,
        coords).  The points of (m, n) are (r*; m, n) over the prefix with
        D r*^2 <= 2Dmn."""
        max_mn = (max_height // 2) * ((max_height + 1) // 2)
        points, T = _enumerate_scaled(self.dual, None, 2 * max_mn)
        D = self.exponent  # q = T r*^2
        return sorted((q * D // T, coords) for coords, q in points)

    def positive_cone_enum(self, max_height: int):
        """All nonzero points (r*; m, n), m,n >= 0, m+n <= H, r*^2 <= 2mn.

        Deterministic order: by (height, m, r*^2, coords).
        """
        if max_height < 1:
            return []
        vecs = self.cone_duals(max_height)
        out = []
        for h in range(1, max_height + 1):
            for m in range(h + 1):
                n = h - m
                cap = 2 * m * n * self.exponent
                for ns, coords in vecs:
                    if ns > cap:
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
