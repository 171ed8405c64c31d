"""Root multiplicities of the twisted denominator identities.

The central object is the Moebius-convolution formula

    mult(alpha) = sum_{ds | ((alpha,L), N)} mu(s)/(ds) * tr(g^d | E~_{alpha/ds})

evaluated in integers as c * mult(alpha), c = ((alpha,L), N), together with
the closed forms (c(-alpha^2/2) on L, plus c(-alpha^2/2N) on N*L*) that it
must reproduce.  Both read a point only through its signature, passed as
ints: x = D * -alpha^2, c and the coset labels of r*/k for k | c (the closed
form needs x and whether alpha lies in N L*).  So the multiplicity table
evaluates and compares them once per signature and writes one row per point.
Only odd twist orders are supported; the convolution inverse used in the
derivation is wrong for even orders.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd

from .arith import divisors, mobius
from .etaq import c_series, dim_gf, tail_series, trace_gfs
from .lattices import (LorentzianLattice, LorentzianPoint,
                       build_coset_shift_table, e8_lattice, fixed_sublattice,
                       orthogonal_complement, theta_coset)
from .octonion import (build_twist_element, cycle_shape, mat_trace8,
                       spin_action)


class NonIntegralMultiplicity(ArithmeticError):
    """The convolution sum returned a non-integer (invariant violation)."""


class NegativeMultiplicity(ArithmeticError):
    """A multiplicity both formulas agree on is negative (sign error)."""


class TheoremClosedFormMismatch(ArithmeticError):
    """Convolution formula and closed form disagree at some root."""


class UnsupportedTwistOrder(ValueError):
    """Requested twist order is not available (shipped: 1, 3, 7)."""


class TwistClass:
    """Everything derived from one twisting element: lattices, shapes, series.

    The constructor builds what the denominator identity reads: rho_V, E8,
    the fixed lattice and the c and tail series.  The other parts are built
    once, on first read (so a spinor-trace ValueError comes from reading
    rho_l, trace_l or shape_L); series caches grow but keep coefficients.
    """

    SHIPPED_ORDERS = (1, 3, 7)
    # precision of the trace and c series at construction; _need doubles it
    INITIAL_PREC = 24

    def __init__(self, order: int):
        if order % 2 == 0:
            raise UnsupportedTwistOrder(
                "even twist orders are outside the validity of the "
                "multiplicity formula")
        if order not in self.SHIPPED_ORDERS:
            raise UnsupportedTwistOrder(f"no shipped twist of order {order}")
        self.order = order
        self.u = build_twist_element(order)
        self.rho_v = spin_action(self.u, "V")
        self.e8 = e8_lattice()
        self.fixed = fixed_sublattice(self.rho_v, self.e8)
        self._prec = self.INITIAL_PREC
        # dimension series are only ever read at the small exponents of
        # alpha/N, so they get their own precision and need coset thetas of
        # the complement only that far
        self._dim_prec = 4
        self._gf_dim = None
        self._build_series_caches()

    @cached_property
    def rho_l(self):
        rho_l, rho_r = (spin_action(self.u, kind) for kind in "LR")
        if mat_trace8(rho_l.rows) * rho_r.den != \
                mat_trace8(rho_r.rows) * rho_l.den:
            raise ValueError("spinor traces differ; trace hypothesis violated")
        return rho_l

    trace_l = cached_property(
        lambda self: mat_trace8(self.rho_l.rows) // self.rho_l.den)
    shape_V = cached_property(lambda self: cycle_shape(self.rho_v))
    shape_L = cached_property(lambda self: cycle_shape(self.rho_l))
    complement = cached_property(
        lambda self: orthogonal_complement(self.fixed, self.e8))
    lorentzian = cached_property(lambda self: LorentzianLattice(self.fixed))
    disc = cached_property(lambda self: self.lorentzian.disc)
    shift_table = cached_property(lambda self: build_coset_shift_table(
        self.fixed, self.e8, self.disc))

    def _build_series_caches(self):
        """(Re)build c and tail at the current precision, and drop the trace
        series, which gf_trace_even and gf_trace_odd rebuild on first read."""
        p = Fraction(self._prec)
        self.c = c_series(self.order, p)
        self.tail = tail_series(self.order, p)
        for name in ("_trace_gfs", "gf_trace_even", "gf_trace_odd"):
            self.__dict__.pop(name, None)

    # only trace_term reads the trace series
    _trace_gfs = cached_property(lambda self: trace_gfs(
        self.shape_V, self.shape_L, self.trace_l, Fraction(self._prec)))
    gf_trace_even = cached_property(lambda self: self._trace_gfs[0])
    gf_trace_odd = cached_property(lambda self: self._trace_gfs[1])

    @property
    def gf_dim_by_coset(self) -> dict:
        """Coset label -> dimension series, built on first read."""
        if self._gf_dim is None:
            self._gf_dim = self._dim_series()
        return self._gf_dim

    def _dim_series(self) -> dict:
        p = Fraction(self._dim_prec)
        gfs = {}
        for lab, shift in self.shift_table.items():
            # r-perp and -r-perp have one theta series, and -r-perp is a
            # shift of the coset of -r
            neg = self.disc.coset_label([-x for x in lab])
            gfs[lab] = gfs[neg] if neg in gfs else dim_gf(
                theta_coset(self.complement, shift, p), p)
        return gfs

    def _build_dim_caches(self):
        """Rebuild the dimension series at a grown precision (_need_dim)."""
        self._gf_dim = self._dim_series()

    def _need(self, exponent):
        """Grow the trace/series caches past the given exponent (an int or
        Fraction; floor(exponent) gives the same precision)."""
        if exponent >= self._prec:
            while self._prec <= exponent:
                self._prec *= 2
            self._build_series_caches()

    def _need_dim(self, exponent):
        """Grow the dimension caches past the given exponent, as _need; a
        cache not yet built is built at the grown precision on first read."""
        if exponent >= self._dim_prec:
            while self._dim_prec <= exponent:
                self._dim_prec *= 2
            if self._gf_dim is not None:
                self._build_dim_caches()

    # -- coefficient services -------------------------------------------

    def c_at(self, num: int, den: int) -> int:
        """c(num/den) for ints num and den > 0; 0 below 0 and off the
        integer grid."""
        if num < 0:
            return 0
        self._need(num // den)
        return self.c.coeff_at(num, den)

    def c_coeff(self, exp) -> int:
        """c(exp): multiplicity-series coefficient; 0 off the integer grid."""
        e = Fraction(exp)
        return self.c_at(e.numerator, e.denominator)

    def tail_at(self, k: int) -> int:
        """a(k): the tail-series coefficient at the integer k."""
        self._need(k)
        return self.tail.coeff_at(k, 1)


def trace_term(tc: TwistClass, d: int, num: int, label: tuple,
               parity: str = "even") -> int:
    """tr(g^d | E~_beta) for a point beta of L* with (1 - beta^2)/2 =
    num/2D and r* in the coset label, which is 0 exactly on L.

    For g^d = 1 this is the graded dimension, read off the coset dimension
    series; otherwise the trace vanishes off L and is a coefficient of the
    twisted trace series on L.
    """
    D2 = 2 * tc.lorentzian.exponent
    if d % tc.order == 0:
        tc._need_dim(num // D2)
        return tc.gf_dim_by_coset[label].coeff_at(num, D2)
    tc._need(num // D2)
    if gcd(d, tc.order) != 1:
        raise NotImplementedError(
            "composite twist orders need per-divisor trace data")
    if any(label):
        return 0
    gf = tc.gf_trace_even if parity == "even" else tc.gf_trace_odd
    return gf.coeff_at(num, D2)


def mult_theorem1(tc: TwistClass, x: int, c: int, labels,
                  parity: str = "even", at="alpha") -> int:
    """The Moebius-convolution multiplicity of a nonzero cone point alpha
    with x = D * -alpha^2, c = gcd((alpha, L), N) and labels[k] the coset
    label of r*/k for k | c; at names alpha in the error.

    alpha/k has num = D + x/k^2.  c * mult = sum mu(s) (c/ds) tr(...) is
    summed in integers and must be divisible by c.
    """
    D = tc.lorentzian.exponent
    total = 0
    for d in divisors(c):
        for s in divisors(c // d):
            mu = mobius(s)
            if mu:
                k = d * s
                total += mu * (c // k) * trace_term(
                    tc, d, D + x // (k * k), labels[k], parity)
    q, r = divmod(total, c)
    if r:
        raise NonIntegralMultiplicity(
            f"mult({at}) = {Fraction(total, c)} is not an integer")
    return q


def class_multiplicity(tc: TwistClass, q: int, m: int, n: int,
                       divisible: bool):
    """(c1, c2) at a root alpha = (r; m, n) of L with r^2 = q: c1 =
    c(-alpha^2/2), and c2 = c(-alpha^2/2N) when alpha lies in N L*
    (divisible) and N > 1, else 0.  The root's multiplicity is c1 + c2.
    It depends only on the norm class, (m, n) and divisibility, so the
    denominator verifier reads it once per class."""
    x = 2 * m * n - q  # -alpha^2
    N = tc.order
    return (tc.c_at(x, 2),
            tc.c_at(x, 2 * N) if divisible and N > 1 else 0)


def mult_closed(tc: TwistClass, x: int, divisible: bool):
    """Closed-form (even, odd) multiplicities at a root alpha on L with
    x = D * -alpha^2: c(-alpha^2/2), plus c(-alpha^2/2N) when alpha lies in
    N L* (divisible) and N > 1."""
    D, N = tc.lorentzian.exponent, tc.order
    v = tc.c_at(x, 2 * D)
    if divisible and N > 1:
        v += tc.c_at(x, 2 * D * N)
    return (v, v)


def simple_root_mult(tc: TwistClass, k: int):
    """(even, odd) multiplicity of k times a primitive norm-zero vector."""
    if k < 1:
        raise ValueError("multiple index must be positive")
    even = sum(b for a, b in tc.shape_V.cycles if k % a == 0)
    odd = sum(b for a, b in tc.shape_L.cycles if k % a == 0)
    return (even, odd)


class Table:
    """Named columns and rows of values, plus metadata for the JSON form."""

    def __init__(self, columns, rows, meta: dict):
        self.columns = tuple(columns)
        self.rows = list(rows)
        self.meta = meta

    def __len__(self):
        return len(self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {**self.meta, "columns": list(self.columns),
             "rows": [[str(x) for x in row] for row in self.rows]},
            separators=(",", ":"), sort_keys=True)

    def to_csv(self) -> str:
        return self.to_text(",")

    def to_text(self, sep: str = "\t") -> str:
        """Header line, then one line per row.  No value contains a comma,
        so the CSV form needs no quoting."""
        return "".join(sep.join(str(x) for x in line) + "\n"
                       for line in [self.columns, *self.rows])


MULT_COLUMNS = ("coset", "m", "n", "norm", "pairing_divisor",
                "mult_even", "mult_odd", "source")


def _checked(tc: TwistClass, sig: tuple, p: LorentzianPoint):
    """(even, odd) at sig = (x, c, the labels of r*/k for k | c) by the
    convolution formula, checked against the closed form, (v, v) on L and
    (0, 0) off L, and the sign; p only names the point in an error."""
    x, c, *labs = sig
    labels = dict(zip(divisors(c), labs))
    even = mult_theorem1(tc, x, c, labels, "even", at=p)
    odd = mult_theorem1(tc, x, c, labels, "odd", at=p)
    closed = (0, 0) if any(labs[0]) else mult_closed(tc, x, c == tc.order)
    if (even, odd) != closed:
        raise TheoremClosedFormMismatch(
            f"at {p}: convolution {(even, odd)} vs closed {closed}")
    if even < 0 or odd < 0:
        raise NegativeMultiplicity(f"negative multiplicity at {p}")
    return even, odd


def build_mult_table(tc: TwistClass, max_height: int,
                     max_norm=None) -> Table:
    """Evaluate both multiplicity formulas on the cone slice and compare:
    the formulas once per signature, the rows once per point.

    Both formulas read a point (r*; m, n) only through its signature: x =
    D * -alpha^2, c = gcd((alpha, L), N) and the coset labels of r*/k for
    each k dividing c.  They run at a signature's first point in row order
    (height, m, r*^2, coords), so a disagreement, non-integrality or
    negativity is an error raised at the point where a point-wise walk
    raises it.
    """
    lor = tc.lorentzian
    D, N = lor.exponent, tc.order
    vecs = lor.cone_duals(max(max_height, 0))
    labels: dict[tuple, tuple] = {}  # r* mod D -> coset label

    def label(r) -> tuple:
        key = tuple([v % D for v in r])  # D L* lies in L
        got = labels.get(key)
        if got is None:
            got = labels[key] = tc.disc.coset_label(r)
        return got

    # (D r*^2, label, its text, gcd(r*), r*) in cone order
    duals = [(ns, lab, "+".join(map(str, lab)), gcd(*r), r)
             for ns, r in vecs for lab in [label(r)]]
    norms = [ns for ns, _ in vecs]
    slices = []  # (2Dmn, m, n, lo, hi): the points (r*; m, n), duals[lo:hi]
    for h in range(1, max_height + 1):
        for m in range(h + 1):
            cap = 2 * D * m * (h - m)  # D r*^2 <= 2Dmn, x <= D max_norm
            lo = 0 if max_norm is None else \
                bisect_left(norms, cap - max_norm * D)
            hi = bisect_right(norms, cap)
            if lo < hi:
                slices.append((cap, m, h - m, lo, hi))
    if slices:
        # grow the series once: the largest exponent read is (1 - alpha^2)/2
        # on the trace series, or -alpha^2/2 on c at order 1
        top = max(cap - norms[lo] for cap, _, _, lo, _ in slices)
        tc._need((top + (D if N > 1 else 0)) // (2 * D))
    mults: dict[tuple, tuple] = {}  # signature -> (even, odd)
    fracs: dict[int, Fraction] = {}  # x -> -alpha^2
    rows = []
    for cap, m, n, lo, hi in slices:
        gmn = gcd(m, n)
        for ns, lab, text, g, r in duals[lo:hi]:
            x, pd = cap - ns, gcd(gmn, g)
            c = gcd(pd, N)
            sig = (x, c, lab)
            if c > 1:
                sig += tuple([label(tuple([v // k for v in r]))
                              for k in divisors(c)[1:]])
            got = mults.get(sig)
            if got is None:
                got = mults[sig] = _checked(tc, sig, LorentzianPoint(r, m, n))
            if x not in fracs:
                fracs[x] = Fraction(-x, D)
            rows.append((text, m, n, fracs[x], pd, *got, "theorem1=closed"))
    return Table(MULT_COLUMNS, rows, {"order": tc.order})
