"""Eta quotients, cycle-shape products and the named q-series.

Everything here is built from exact QSeries arithmetic.  Eigenvalue products
over an orthogonal map with characteristic polynomial prod (x^a - 1)^{b_a}
collapse to integer-coefficient products, so no cyclotomic numbers appear:

    prod_{z^a=1} (1 - z*x) = 1 - x^a
    prod_{z^a=1} (1 + z*x) = 1 - (-x)^a
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import add, mul, sub

from .series import QSeries, _unpack


class InvalidClass(ValueError):
    """Coset norm class not realized by the requested lattice."""


class EtaQuotient(namedtuple("EtaQuotient", "factors")):
    """A finite product prod_k eta(q^k)^{e_k} with distinct scales."""

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...]):
        scales = [k for k, _ in factors]
        if len(set(scales)) != len(scales) or any(k <= 0 for k in scales):
            raise ValueError("scales must be distinct positive integers")
        return super().__new__(cls, factors)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(k * e for k, e in self.factors), 24)


class CycleShape(namedtuple("CycleShape", "cycles")):
    """Cycle shape a_1^{b_1}...a_k^{b_k} of an orthogonal map."""

    __slots__ = ()

    def __new__(cls, cycles: tuple[tuple[int, int], ...]):
        if any(a <= 0 or b <= 0 for a, b in cycles):
            raise ValueError("cycle lengths and multiplicities must be positive")
        lens = [a for a, _ in cycles]
        if len(set(lens)) != len(lens):
            raise ValueError("cycle lengths must be distinct")
        return super().__new__(cls, cycles)

    @property
    def weight(self) -> int:
        return sum(a * b for a, b in self.cycles)

    @property
    def trace(self) -> int:
        """Trace of the map itself: the number of fixed coordinates."""
        return sum(b for a, b in self.cycles if a == 1)

    def label(self) -> str:
        return "".join(f"{a}^{b}" for a, b in sorted(self.cycles))


SHAPE_1_8 = CycleShape(((1, 8),))
SHAPE_1232 = CycleShape(((1, 2), (3, 2)))
SHAPE_1171 = CycleShape(((1, 1), (7, 1)))
# the cycle shape of the twist of each shipped order, on V and on L alike
SHAPES = {1: SHAPE_1_8, 3: SHAPE_1232, 7: SHAPE_1171}


def eta_expand(spec: EtaQuotient, prec) -> QSeries:
    """Exact expansion of the eta quotient up to the requested precision.

    The unit part F = prod_k prod_n (1 - q^{kn})^{e_k} has the log
    derivative L = q d/dq log F with L_t = -sum_{k | t} e_k k sigma(t/k),
    and F comes back from L by Miller's recurrence t F_t = sum_j L_j F_{t-j}
    in ints, whose division by t is exact (ArithmeticError otherwise).
    """
    prec = Fraction(prec)
    lead = spec.leading_exponent
    if prec <= lead:
        raise ValueError("precision must exceed the leading exponent")
    rel = prec - lead  # relative precision of the unit part
    n = -((-rel.numerator) // rel.denominator)  # integer slots below rel
    sigma = [0] * n
    for d in range(1, n):
        for m in range(d, n, d):
            sigma[m] += d
    L = [0] * n
    for k, e in spec.factors:
        for m in range(1, (n - 1) // k + 1):
            L[k * m] -= e * k * sigma[m]
    F = [0] * n
    F[0] = 1
    for t in range(1, n):
        F[t], r = divmod(sum(map(mul, L[1:t + 1], F[t - 1::-1])), t)
        if r:
            raise ArithmeticError(f"eta quotient unit part is not integral "
                                  f"at q^{t}")
    return QSeries(1, dict(enumerate(F)), rel) * QSeries.monomial(lead)


def _slot_bytes(B: int, j: int, half_shift: bool) -> int:
    """Bytes per slot that hold, with a sign bit, every coefficient up to
    y^j of a cycle product: for each cycle a, b_a factors 1 +- y^e at each
    multiple e of a, or at each odd multiple with the half shift, with
    B = sum b_a.

    The coefficient of y^i is at most [y^i] F in absolute value, F the
    product with every sign +.  F has nonnegative coefficients, so
    [y^i] F <= F(x)/x^i <= F(x)/x^j for 0 < x < 1 and i <= j, and
    log(1 + u) <= u bounds log F(x) by the sum over a of b_a x^a/(1 - x^a)
    <= B x/(1 - x), or of b_a x^a/(1 - x^(2a)) <= B x/(1 - x^2) with the
    half shift, as x^-a - 1 and x^-a - x^a grow with a.  At
    x = 1 - 1/(t+1) for an integer t >= 1 the bound is B t, or
    B t (t+1)/(2t+1), and -log x = log(1 + 1/t) <= 1/t, so the coefficient
    is at most exp(y) with y = ceil(bound) + ceil(j/t), below 2^(1.5 y) as
    log2(e) < 1.5.  t = max(1, isqrt(j // B)), or max(1, isqrt(2j // B)),
    is near the minimising sqrt(j/B), or sqrt(2j/B); ceil(1.5 y) + 1 bits
    then hold the coefficient and its sign.
    """
    if half_shift:
        t = max(1, isqrt(2 * j // B))
        y = -(-B * t * (t + 1) // (2 * t + 1)) + -(-j // t)
    else:
        t = max(1, isqrt(j // B))
        y = B * t + -(-j // t)
    bits = (3 * y + 1) // 2 + 1
    return -(-bits // 8)


def cycle_product(shape: CycleShape, sign: int, half_shift: bool,
                  prec) -> QSeries:
    """prod_{n>=1} prod_a (1 + sign*q^{a*(n-shift)})^{b_a}, shift 0 or 1/2.

    By the eigenvalue collapse an a-cycle block contributes
    1 - (-sign*x)^a = 1 + c*x^a with x = q^{n-shift} and the integer
    c = -(-sign)^a, so the product has integer coefficients.  Slot j of
    the product, the coefficient of y^j with y = q^{1/D} (D = 2 for the
    half shift, else 1), is needed for every j < n = ceil(prec*D).  The
    slots are packed into one int x with w bytes per slot (Kronecker
    substitution, w from _slot_bytes), and the factor 1 + c*y^e with
    c = +-1 becomes x +- ((x & low) << 8we), low the mask of the n - e
    low slots.  This is the product modulo 2^(8wn), exact for the low n
    slots however x grows above them, so the slots are read back once, at
    the end, as balanced digits.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    prec = Fraction(prec)
    D = 2 if half_shift else 1
    nslots = max(0, -((-prec.numerator * D) // prec.denominator))
    if not nslots:
        return QSeries(D, {}, prec)
    w = _slot_bytes(sum(b for _, b in shape.cycles), nslots - 1,
                    half_shift)
    # each step moves x by less than 2^(8wn); starting S such moves above 1
    # keeps x positive, where & needs no two's-complement copy
    steps = sum(b * len(range(a, nslots, D * a)) for a, b in shape.cycles)
    x = 1 + (steps << 8 * w * nslots)
    for a, b in shape.cycles:
        op = add if -((-sign) ** a) == 1 else sub
        # q^{a(n-shift)} for n >= 1 sits in slots a, a + D*a, a + 2*D*a, ...
        for e in range(a, nslots, D * a):
            low = (1 << 8 * w * (nslots - e)) - 1
            shift = 8 * w * e
            for _ in range(b):
                x = op(x, (x & low) << shift)
    return QSeries(D, dict(enumerate(_unpack(x, nslots, w))), prec)


# ----------------------------------------------------------------------
# named series

_NAMED_QUOTIENTS = {
    "fake_c": (8, (((2, 8), (1, -16)))),
    "c3": (2, ((6, 2), (2, 2), (3, -4), (1, -4))),
    "c7": (1, ((14, 1), (2, 1), (7, -2), (1, -2))),
    # prod (1-q^{kn})/(1+q^{kn}) = eta(q^k)^2 / eta(q^{2k})
    "a1": (1, ((1, 16), (2, -8))),
    "a3": (1, ((1, 4), (3, 4), (2, -2), (6, -2))),
    "a7": (1, ((1, 2), (7, 2), (2, -1), (14, -1))),
}

SERIES_NAMES = tuple(_NAMED_QUOTIENTS)


def named_series(name: str, prec) -> QSeries:
    """One of the stable named series listed in SERIES_NAMES."""
    if name not in _NAMED_QUOTIENTS:
        raise KeyError(f"unknown series {name!r}")
    scalar, factors = _NAMED_QUOTIENTS[name]
    qs = eta_expand(EtaQuotient(tuple(factors)), prec)
    return qs.scaled(scalar) if scalar != 1 else qs


def tail_series(order: int, prec) -> QSeries:
    """The a(n) series of the twisted identity for a shipped order."""
    return named_series({1: "a1", 3: "a3", 7: "a7"}[order], prec)


def c_series(order: int, prec) -> QSeries:
    """The multiplicity series c(n) for a shipped order."""
    return named_series({1: "fake_c", 3: "c3", 7: "c7"}[order], prec)


# ----------------------------------------------------------------------
# trace and dimension generating functions

def _fermion_half(shape: CycleShape, prec: Fraction) -> QSeries:
    """(P+ - P-)/2 with P+- = cycle_product(shape, +-1, True, prec), from
    P+ alone.  With y = q^(1/2), P-(y) = P+(-y) for every shape: an odd
    cycle's block 1 +- y^(a(2n-1)) changes sign with y, and an even cycle's
    block is 1 - y^(a(2n-1)) for either sign.  So the half is the odd-in-y
    part of P+, read off its terms with no subtraction and no division."""
    p = cycle_product(shape, +1, True, prec)
    # a product whose grid reduced from 1/2 to 1 is even in y
    odd = {k: c for k, c in p.terms.items() if k & 1} \
        if p.expdenom == 2 else {}
    return QSeries(p.expdenom, odd, prec)


def _boson_inverse(shape: CycleShape, prec: Fraction) -> QSeries:
    return cycle_product(shape, -1, False, prec).inverse()


def _odd_gf(p_plus: QSeries, boson_inverse: QSeries, trace_l: int):
    """trace_l q^{1/2} P+/P0 from P+ = cycle_product(shape, +1, False,
    prec) and the inverse of the boson product P0."""
    gf = p_plus * boson_inverse
    return gf.scaled(trace_l) * QSeries.monomial(Fraction(1, 2))


def trace_gfs(shape_v: CycleShape, shape_l: CycleShape, trace_l: int,
              prec):
    """The even and odd twisted-trace generating functions at prec.

    The even one is (P+ - P-)/2 / P0 over shape_v, its coefficient at
    q^{(1-n)/2} (n = alpha^2 <= 0) the trace of the twist on the even graded
    piece at a fixed-lattice vector of norm n.  The odd one is
    trace_l q^{1/2} P+/P0 over shape_l, trace_l the common trace of the two
    spinor actions; the formula is only valid when the two traces agree.
    One boson product and inverse serve both when the shapes agree.
    """
    prec = Fraction(prec)
    inverse = _boson_inverse(shape_v, prec)
    even = _fermion_half(shape_v, prec) * inverse
    if trace_l == 0:
        return even, QSeries.zero(trunc=prec)
    if shape_l != shape_v:
        inverse = _boson_inverse(shape_l, prec)
    return even, _odd_gf(cycle_product(shape_l, +1, False, prec), inverse,
                         trace_l)


def verify_susy_identity(order: int, prec=50):
    """Twisted Jacobi / supersymmetry identity for a shipped twist order.

    Returns (ok, report) with report listing each sub-check and its first
    discrepancy exponent, if any: the even and odd trace series of
    SHAPES[order] agree, and so does the raw product form, before division
    by the boson part, q^{-1/2} H = trace P+ below prec - 1/2, with H the
    fermion half (P+ - P-)/2 of the half-shifted products and P+ the
    unshifted product of sign +1.  The two checks share their products:
    three cycle products (the half-shifted P+ that H is read from, the
    unshifted P+ and the boson product P0) and one inversion in all.
    """
    if order not in SHAPES:
        raise ValueError(f"unsupported twist order {order}")
    shape = SHAPES[order]
    prec = Fraction(prec)
    half = _fermion_half(shape, prec)
    p_plus = cycle_product(shape, +1, False, prec)
    boson_inverse = _boson_inverse(shape, prec)
    # every shipped shape has a nonzero trace, so the odd side is
    # trace_gfs's product formula
    d1 = (half * boson_inverse).first_difference(
        _odd_gf(p_plus, boson_inverse, shape.trace))
    d2 = (half * QSeries.monomial(Fraction(-1, 2))).first_difference(
        p_plus.scaled(shape.trace))
    checks = [("trace_gf_even_equals_odd", d1 is None, d1),
              ("raw_product_identity", d2 is None, d2)]
    return d1 is None and d2 is None, checks


def dim_gf(coset_theta: QSeries, prec) -> QSeries:
    """Graded-dimension generating function over one definite-part coset.

    8 q^{1/2} eta(q^2)^8/eta(q)^16 times the coset theta series; the
    coefficient at q^{(1-n)/2} is the dimension of either graded piece at a
    point of norm n over that coset.
    """
    osc = named_series("fake_c", prec)
    return osc * coset_theta * QSeries.monomial(Fraction(1, 2))


# ----------------------------------------------------------------------
# closed theta-coset formulas

# realized coset norm classes (r^2 mod 2) for the two complements; the
# prefactor (d, quotient) is the eta quotient divided by the int d
_THETA_CASES = {
    "A2A2": {
        "modulus": 3,
        "prefactor": (4, ((1, 12), (2, -6))),
        "kernel": ((2, 2), (1, -4)),
        "delta_term": ((6, 2), (3, -4)),
        "classes": (Fraction(0), Fraction(2, 3), Fraction(4, 3)),
    },
    "A6": {
        "modulus": 7,
        "prefactor": (8, ((1, 14), (2, -7))),
        "kernel": ((2, 1), (1, -2)),
        "delta_term": ((14, 1), (7, -2)),
        "classes": (Fraction(0), Fraction(6, 7), Fraction(10, 7),
                    Fraction(12, 7)),
    },
}


@lru_cache(maxsize=4)
def _theta_expansions(case: str, prec: Fraction):
    """(prefactor quotient, multisection kernel) of a theta case, expanded
    once per (case, prec) and shared by all of its cosets."""
    data = _THETA_CASES[case]
    prefactor = eta_expand(EtaQuotient(data["prefactor"][1]), prec)
    # the multisection kernel is the delta term with q^m replaced by q,
    # expanded far enough that re-indexing by 1/m still reaches prec
    f = eta_expand(EtaQuotient(data["kernel"]), prec * data["modulus"])
    return prefactor, f


def theta_coset_formula(case: str, coset_norm_class, prec) -> QSeries:
    """Closed formula for the coset theta series of A2+A2 or A6.

    The root-of-unity average in the modular-form expression is evaluated as
    a rational multisection: the sum over j of eps^{-m j r^2/2} f(eps^j q^{1/m})
    equals m times the residue class m*r^2/2 mod m of f, re-indexed to
    exponents k/m.
    """
    if case not in _THETA_CASES:
        raise KeyError(f"unknown theta case {case!r}")
    data = _THETA_CASES[case]
    m = data["modulus"]
    prec = Fraction(prec)
    cls = Fraction(coset_norm_class) % 2
    if cls not in data["classes"]:
        raise InvalidClass(f"norm class {cls} not realized for {case}")
    t = m * cls / 2
    if t.denominator != 1:
        raise InvalidClass(f"norm class {cls} not on the {case} grid")
    t = t.numerator % m
    prefactor, f = _theta_expansions(case, prec)
    picked = f.multisection(m, t).scale_exp(Fraction(1, m)).scaled(m)
    if cls == 0:
        picked = picked + eta_expand(EtaQuotient(data["delta_term"]), prec)
    # the theta series is integral, so the prefactor's divisor divides the
    # product exactly
    return (prefactor * picked).exact_div(data["prefactor"][0])
