"""Exact octonion arithmetic and the spin actions of the twisting elements.

The octonions are R^8 with orthonormal basis e_0..e_7, e_0 the identity and
e_i e_j = a_ijk e_k - delta_ij e_0 for the totally antisymmetric tensor with
a_ijk = 1 on the triples 123, 154, 264, 374, 176, 257, 365.

A spin element is a list of Clifford factors b_1..b_n; its three induced
8x8 matrices (vector, spinor, conjugate spinor) are exact rationals,
normalized by the unique positive scalar making them orthogonal.

Every value is exact, never a float.  spin_action keeps a spin matrix as
int rows over one denominator (a Scaled; the order-7 spinor actions have
denominator 2), and power traces and cycle shapes are computed from it in
ints.  Octonions and rho_V/L/R hold integral values as ints, others as
Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul

from .arith import divisors, mobius, sqrt_exact
from .etaq import CycleShape
from .intlinalg import Scaled, fractions, reduced, scaled

TRIPLES = ((1, 2, 3), (1, 5, 4), (2, 6, 4), (3, 7, 4),
           (1, 7, 6), (2, 5, 7), (3, 6, 5))


class IrrationalNormalizer(ArithmeticError):
    """Spinor normalization scalar is not rational for these factors."""


class OrderExceedsCap(ArithmeticError):
    """Matrix order search exceeded its cap."""


class NotProductOfCyclotomicBlocks(ArithmeticError):
    """Characteristic polynomial is not a product of (x^a - 1)^b factors."""


def _build_table():
    # table[i][j] = list of (basis index, sign) contributions of e_i * e_j
    table = [[None] * 8 for _ in range(8)]
    for j in range(8):
        table[0][j] = (j, 1)
        table[j][0] = (j, 1)
    for i in range(1, 8):
        table[i][i] = (0, -1)
    for (i, j, k) in TRIPLES:
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            table[a][b] = (c, 1)
            table[b][a] = (c, -1)
    return table


_TABLE = _build_table()

Octonion = tuple  # 8-tuple of ints and Fractions (ints when integral)


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def octonion(coords) -> Octonion:
    coords = tuple(_exact(c) for c in coords)
    if len(coords) != 8:
        raise ValueError("an octonion has 8 coordinates")
    return coords


def basis_octonion(i: int) -> Octonion:
    return tuple([int(j == i) for j in range(8)])


def oct_mul(a: Octonion, b: Octonion) -> Octonion:
    out = [0] * 8
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            k, s = _TABLE[i][j]
            out[k] += ai * bj if s > 0 else -ai * bj
    return tuple(out)


def oct_norm(a: Octonion) -> Fraction:
    return sum(c * c for c in a)


# ----------------------------------------------------------------------
# 8x8 exact matrices

def mat_mul8(a, b):
    bt = list(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_vec8(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_identity8():
    return tuple(tuple(int(i == j) for j in range(8)) for i in range(8))


def mat_trace8(a):
    return sum(a[i][i] for i in range(8))


def left_mult_matrix(b: Octonion):
    """Matrix of x -> b*x in the basis e_0..e_7."""
    return tuple(zip(*(oct_mul(b, basis_octonion(j)) for j in range(8))))


def right_mult_matrix(b: Octonion):
    """Matrix of x -> x*b."""
    return tuple(zip(*(oct_mul(basis_octonion(j), b) for j in range(8))))


def bi_mult_matrix(b: Octonion):
    """Matrix of x -> b*(x*b); the two composition orders agree."""
    lb, rb = left_mult_matrix(b), right_mult_matrix(b)
    m = mat_mul8(lb, rb)
    assert m == mat_mul8(rb, lb), "L_b and R_b must commute"
    return m


# ----------------------------------------------------------------------
# spin elements

class SpinElement(namedtuple("SpinElement", "factors")):
    """A product of Clifford factors 1b_1 ... 1b_n (n even, N(b_i) > 0)."""

    __slots__ = ()

    def __new__(cls, factors: tuple[Octonion, ...]):
        if len(factors) % 2 != 0:
            raise ValueError("spin elements need an even number of factors")
        if any(oct_norm(b) <= 0 for b in factors):
            raise ValueError("factors must have positive norm")
        return super().__new__(cls, factors)

    def norm_product(self) -> Fraction:
        p = Fraction(1)
        for b in self.factors:
            p *= oct_norm(b)
        return p

    def spinor_normalizer(self) -> Fraction:
        """1/sqrt(prod N(b_i)); must be rational."""
        s = sqrt_exact(self.norm_product())
        if s is None:
            raise IrrationalNormalizer(
                "product of factor norms is not a rational square")
        return 1 / s


def _composite(matrices):
    m = mat_identity8()
    for f in matrices:
        m = mat_mul8(m, f)
    return m


def spin_action(u: SpinElement, kind: str) -> Scaled:
    """The vector ("V"), conjugate-spinor ("L") or spinor ("R") action of u
    as a Scaled: the product of the factors' bi-, left or right products,
    normalized by 1/prod N(b_i) (vector) or 1/sqrt(prod N(b_i)) (spinors)."""
    if kind == "V":
        mats, c = map(bi_mult_matrix, u.factors), 1 / u.norm_product()
    else:
        mult = left_mult_matrix if kind == "L" else right_mult_matrix
        mats, c = map(mult, u.factors), u.spinor_normalizer()
    m = scaled(_composite(mats))
    return reduced([[c.numerator * x for x in row] for row in m.rows],
                   c.denominator * m.den)


def _exact_rows(m: Scaled):
    """The entries of m, each an int when integral and else a Fraction."""
    return tuple(tuple(map(_exact, row)) for row in fractions(m))


def rho_V(u: SpinElement):
    """Vector representation: normalized product of the bi-multiplications."""
    return _exact_rows(spin_action(u, "V"))


def rho_L(u: SpinElement):
    """Conjugate-spinor representation: normalized left multiplications."""
    return _exact_rows(spin_action(u, "L"))


def rho_R(u: SpinElement):
    """Spinor representation: normalized right multiplications."""
    return _exact_rows(spin_action(u, "R"))


def build_twist_element(order: int) -> SpinElement:
    """The shipped twisting elements of order 3 and 7 (order 1: empty word)."""
    e = basis_octonion

    def diff(i, j):
        return tuple(a - b for a, b in zip(e(i), e(j)))

    if order == 1:
        return SpinElement(())
    if order == 3:
        return SpinElement((diff(2, 3), diff(1, 2), diff(6, 7), diff(5, 6)))
    if order == 7:
        return SpinElement((diff(6, 7), diff(5, 6), diff(4, 5),
                            diff(3, 4), diff(2, 3), diff(1, 2)))
    raise ValueError(f"no shipped twist element of order {order}")


# expected basis permutations of the shipped twist actions on R^8
# (index i maps to REFERENCE_ACTIONS[order][i])
REFERENCE_ACTIONS = {
    1: {i: i for i in range(8)},
    3: {0: 0, 1: 3, 2: 1, 3: 2, 4: 4, 5: 7, 6: 5, 7: 6},
    7: {0: 0, 1: 7, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6},
}


def permutation_matrix(perm: dict):
    """8x8 matrix sending e_i to e_{perm[i]}."""
    return tuple(tuple(int(perm[j] == i) for j in range(8)) for i in range(8))


def _power_traces(m, cap: int) -> list[int]:
    """[tr(m), ..., tr(m^k)] for the least k <= cap with m^k = I, from the
    powers A^j of m = A/den (compared with den^j I) in ints."""
    a, den = scaled(m)
    traces, p, dj = [], a, den
    for _ in range(cap):
        traces.append(mat_trace8(p))
        if p == tuple(tuple(dj if i == j else 0 for j in range(8))
                      for i in range(8)):
            return [t // den ** j for j, t in enumerate(traces, 1)]
        p, dj = mat_mul8(p, a), dj * den
    raise OrderExceedsCap(f"order exceeds cap {cap}")


def matrix_order(m, cap: int = 64) -> int:
    return len(_power_traces(m, cap))


def cycle_shape(m, cap: int = 64) -> CycleShape:
    """Recover the cycle shape of a finite-order orthogonal 8x8 matrix
    (rows of ints and Fractions, or a Scaled).

    Inverts tr(M^d) = sum_{a|d} a*b_a over the divisors of the order k, then
    checks weight 8 and tr(M^j) = sum_{a|j} a*b_a for j = 1..8, where
    tr(M^j) = traces[(j - 1) % k].  By Newton's identities these eight power
    sums fix the characteristic polynomial, so the check holds exactly when
    it is the product of the (x^a - 1)^{b_a}.
    """
    traces = _power_traces(m, cap)
    b = {}
    for a in divisors(len(traces)):
        ba, r = divmod(sum(mobius(a // d) * traces[d - 1]
                           for d in divisors(a)), a)
        if r or ba < 0:
            raise NotProductOfCyclotomicBlocks(
                f"trace inversion gives non-integral multiplicity at {a}")
        if ba:
            b[a] = ba
    shape = CycleShape(tuple(sorted(b.items())))
    if shape.weight != 8 or any(
            traces[(j - 1) % len(traces)]
            != sum(a * ba for a, ba in b.items() if j % a == 0)
            for j in range(1, 9)):
        raise NotProductOfCyclotomicBlocks(
            "characteristic polynomial is not a product of x^a - 1 blocks")
    return shape


def verify_triality(u: SpinElement, samples=()) -> bool:
    """Exact triality check on all 64 basis pairs plus extra sample pairs."""
    rv, rl, rr = rho_V(u), rho_L(u), rho_R(u)
    pairs = [(basis_octonion(i), basis_octonion(j))
             for i in range(8) for j in range(8)]
    pairs.extend(samples)
    for a, b in pairs:
        lhs = mat_vec8(rv, oct_mul(a, b))
        rhs = oct_mul(mat_vec8(rl, a), mat_vec8(rr, b))
        if lhs != rhs:
            return False
    return True
