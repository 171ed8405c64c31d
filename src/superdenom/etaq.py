"""Eta quotients, cycle-shape products and the named q-series.

Everything here is built from exact QSeries arithmetic.  Eigenvalue products
over an orthogonal map with characteristic polynomial prod (x^a - 1)^{b_a}
collapse to integer-coefficient products, so no cyclotomic numbers appear:

    prod_{z^a=1} (1 - z*x) = 1 - x^a
    prod_{z^a=1} (1 + z*x) = 1 - (-x)^a
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import QSeries


class InvalidClass(ValueError):
    """Coset norm class not realized by the requested lattice."""


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product prod_k eta(q^k)^{e_k} with distinct scales."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        scales = [k for k, _ in self.factors]
        if len(set(scales)) != len(scales) or any(k <= 0 for k in scales):
            raise ValueError("scales must be distinct positive integers")

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(k * e for k, e in self.factors), 24)


@dataclass(frozen=True)
class CycleShape:
    """Cycle shape a_1^{b_1}...a_k^{b_k} of an orthogonal map."""

    cycles: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(a <= 0 or b <= 0 for a, b in self.cycles):
            raise ValueError("cycle lengths and multiplicities must be positive")
        lens = [a for a, _ in self.cycles]
        if len(set(lens)) != len(lens):
            raise ValueError("cycle lengths must be distinct")

    @property
    def weight(self) -> int:
        return sum(a * b for a, b in self.cycles)

    def trace_of_power(self, d: int) -> int:
        """Trace of the d-th power of the represented map."""
        return sum(a * b for a, b in self.cycles if d % a == 0)

    @property
    def trace(self) -> int:
        """Trace of the map itself: the number of fixed coordinates."""
        return sum(b for a, b in self.cycles if a == 1)

    def label(self) -> str:
        return "".join(f"{a}^{b}" for a, b in sorted(self.cycles))


SHAPE_1_8 = CycleShape(((1, 8),))
SHAPE_1232 = CycleShape(((1, 2), (3, 2)))
SHAPE_1171 = CycleShape(((1, 1), (7, 1)))


def euler_product(scale: int, prec: Fraction) -> QSeries:
    """prod_{n>=1} (1 - q^{scale*n}) via the pentagonal number theorem."""
    prec = Fraction(prec)
    terms = [(Fraction(0), Fraction(1))]
    j = 1
    while True:
        done = True
        for jj in (j, -j):
            e = Fraction(scale) * jj * (3 * jj - 1) / 2
            if e < prec:
                terms.append((e, Fraction(-1 if j % 2 else 1)))
                done = False
        if done:
            break
        j += 1
    return QSeries.from_terms(terms, trunc=prec)


def eta_expand(spec: EtaQuotient, prec) -> QSeries:
    """Exact expansion of the eta quotient up to the requested precision."""
    prec = Fraction(prec)
    lead = spec.leading_exponent
    if prec <= lead:
        raise ValueError("precision must exceed the leading exponent")
    rel = prec - lead  # relative precision of the unit part
    result = QSeries.one(trunc=rel)
    for k, e in spec.factors:
        result = result * euler_product(k, rel) ** e
    return result * QSeries.monomial(lead)


def cycle_product(shape: CycleShape, sign: int, half_shift: bool,
                  prec) -> QSeries:
    """prod_{n>=1} prod_a (1 + sign*q^{a*(n-shift)})^{b_a}, shift 0 or 1/2.

    By the eigenvalue collapse an a-cycle block contributes
    1 - (-sign*x)^a = 1 + c*x^a with x = q^{n-shift} and the integer
    c = -(-sign)^a, so the product has integer coefficients.  They are kept
    in a dense list of Python ints, slot j holding the coefficient of q^{j/D}
    for every j/D < prec (D = 2 for the half shift, else 1).  The factor
    1 + c*q^{e/D} multiplies in place as a[j] += c*a[j-e] for j from the top
    down, applied b_a times; only the finished list becomes a QSeries.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    prec = Fraction(prec)
    D = 2 if half_shift else 1
    lim = prec * D
    nslots = max(0, -((-lim.numerator) // lim.denominator))  # ceil(prec*D)
    coeffs = [0] * nslots
    if nslots:
        coeffs[0] = 1
    for a, b in shape.cycles:
        c = -((-sign) ** a)
        # q^{a(n-shift)} for n >= 1 sits in slots a, a + D*a, a + 2*D*a, ...
        for e in range(a, nslots, D * a):
            for _ in range(b):
                for j in range(nslots - 1, e - 1, -1):
                    coeffs[j] += c * coeffs[j - e]
    return QSeries(D, {j: cj for j, cj in enumerate(coeffs) if cj}, prec)


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

def trace_gf_even(shape: CycleShape, prec) -> QSeries:
    """Generating function of the even-part twisted traces.

    The coefficient at q^{(1-n)/2} (n = alpha^2 <= 0) is the trace of the
    twist on the even graded piece at a fixed-lattice vector of norm n.
    """
    prec = Fraction(prec)
    p_plus = cycle_product(shape, +1, True, prec)
    p_minus = cycle_product(shape, -1, True, prec)
    p_zero = cycle_product(shape, -1, False, prec)
    return (p_plus - p_minus).scaled(Fraction(1, 2)) * p_zero.inverse()


def trace_gf_odd(shape: CycleShape, trace_l: int, prec) -> QSeries:
    """Generating function of the odd-part twisted traces.

    trace_l is the common trace of the two spinor actions; the formula is
    only valid when the two traces agree.
    """
    prec = Fraction(prec)
    if trace_l == 0:
        return QSeries.zero(trunc=prec)
    p_plus = cycle_product(shape, +1, False, prec)
    p_zero = cycle_product(shape, -1, False, prec)
    gf = p_plus * p_zero.inverse()
    return gf.scaled(trace_l) * QSeries.monomial(Fraction(1, 2))


def check_trace_identity(shape: CycleShape, trace_l: int, prec):
    """Compare even and odd trace generating functions exactly.

    Returns (ok, first_discrepancy_exponent_or_None).
    """
    even = trace_gf_even(shape, prec)
    odd = trace_gf_odd(shape, trace_l, prec)
    disc = even.first_difference(odd)
    return disc is None, disc


def check_raw_product_identity(shape: CycleShape, trace_l: int, prec):
    """The identity in raw product form, before division by the boson part:

    (1/2q^{1/2}) * (P+ - P-) = trace_l * prod_a (1 + q^{a n})^{b_a}
    """
    prec = Fraction(prec)
    p_plus = cycle_product(shape, +1, True, prec)
    p_minus = cycle_product(shape, -1, True, prec)
    lhs = (p_plus - p_minus).scaled(Fraction(1, 2)) \
        * QSeries.monomial(Fraction(-1, 2))
    rhs = cycle_product(shape, +1, False, prec - Fraction(1, 2)) \
        .scaled(trace_l)
    disc = lhs.first_difference(rhs)
    return disc is None, disc


def verify_susy_identity(order: int, prec=50):
    """Twisted Jacobi / supersymmetry identity for a shipped twist order.

    Returns (ok, report) with report listing each sub-check and its first
    discrepancy exponent, if any.
    """
    shapes = {1: SHAPE_1_8, 3: SHAPE_1232, 7: SHAPE_1171}
    if order not in shapes:
        raise ValueError(f"unsupported twist order {order}")
    shape = shapes[order]
    checks = []
    ok1, d1 = check_trace_identity(shape, shape.trace, prec)
    checks.append(("trace_gf_even_equals_odd", ok1, d1))
    ok2, d2 = check_raw_product_identity(shape, shape.trace, prec)
    checks.append(("raw_product_identity", ok2, d2))
    return ok1 and ok2, checks


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

# realized coset norm classes (r^2 mod 2) for the two complements
_THETA_CASES = {
    "A2A2": {
        "modulus": 3,
        "prefactor": (Fraction(1, 4), ((1, 12), (2, -6))),
        "kernel": ((2, 2), (1, -4)),
        "delta_term": ((6, 2), (3, -4)),
        "classes": (Fraction(0), Fraction(2, 3), Fraction(4, 3)),
    },
    "A6": {
        "modulus": 7,
        "prefactor": (Fraction(1, 8), ((1, 14), (2, -7))),
        "kernel": ((2, 1), (1, -2)),
        "delta_term": ((14, 1), (7, -2)),
        "classes": (Fraction(0), Fraction(6, 7), Fraction(10, 7),
                    Fraction(12, 7)),
    },
}


@lru_cache(maxsize=4)
def _theta_expansions(case: str, prec: Fraction):
    """(prefactor, multisection kernel) of a theta case, expanded once per
    (case, prec) and shared by all of its cosets."""
    data = _THETA_CASES[case]
    scalar, pref = data["prefactor"]
    prefactor = eta_expand(EtaQuotient(pref), prec).scaled(scalar)
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
    return prefactor * picked
