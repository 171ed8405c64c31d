"""Truncated Puiseux series core: exactness, truncation calculus, algebra."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superdenom.series as series
from series_oracle import FractionSeries
from superdenom.series import (CoefficientUnknown, EmptyComparisonRange,
                               NonIntegerExponents, QSeries, ZeroLeadingTerm)

F = Fraction


def S(pairs, trunc=None):
    return QSeries.from_terms(pairs, trunc=trunc)


class TestConstruction:
    def test_canonicalization_drops_zeros_and_reduces_grid(self):
        s = S([(F(1, 2), 1), (F(3, 2), 0)])
        assert s.expdenom == 2
        assert s.items() == [(F(1, 2), F(1))]
        t = S([(2, 1), (4, 3)])
        assert t.expdenom == 1

    def test_terms_at_or_above_trunc_are_dropped(self):
        s = S([(0, 1), (5, 7)], trunc=F(5))
        assert s.items() == [(F(0), F(1))]

    def test_immutable(self):
        s = QSeries.one()
        with pytest.raises(AttributeError):
            s.trunc = F(3)

    def test_coeff_off_grid_is_zero(self):
        s = S([(1, 2)], trunc=F(10))
        assert s.coeff(F(1, 2)) == 0
        assert s.coeff(1) == 2

    def test_coeff_beyond_trunc_raises(self):
        s = S([(0, 1)], trunc=F(3))
        with pytest.raises(CoefficientUnknown):
            s.coeff(3)

    @pytest.mark.parametrize("trunc", [F(10, 3), None])
    def test_integer_keyed_lookup_matches_coeff(self, trunc):
        """coeff_at(num, den) reads what coeff(num/den) reads, and raises
        CoefficientUnknown with the same message at and past trunc."""
        s = S([(F(-1, 2), 5), (0, 1), (F(2, 3), -2), (3, 7)], trunc=trunc)
        for num in range(-4, 13):
            for den in (1, 2, 3, 6, 7):
                try:
                    want = s.coeff(F(num, den))
                except CoefficientUnknown as exc:
                    with pytest.raises(CoefficientUnknown,
                                       match=f"^{re.escape(str(exc))}$"):
                        s.coeff_at(num, den)
                else:
                    assert s.coeff_at(num, den) == want, (num, den)

    def test_exact_series_has_no_unknown_range(self):
        s = S([(0, 1)])
        assert s.coeff(10 ** 6) == 0

    def test_non_int_coefficient_raises(self):
        """Coefficients are ints: every constructor and scaled() refuse a
        Fraction, even an integral one, where the series is built."""
        s = S([(0, 1), (1, 2)], trunc=F(5))
        builders = [lambda: QSeries(1, {0: F(1, 2)}, None),
                    lambda: QSeries(1, {0: F(2)}, F(3)),
                    lambda: S([(0, 1), (F(1, 2), F(1, 3))]),
                    lambda: QSeries.constant(F(1, 2)),
                    lambda: QSeries.monomial(F(1, 2), F(3, 2)),
                    lambda: s.scaled(F(1, 8)),
                    lambda: s * F(1, 8)]
        for build in builders:
            with pytest.raises(TypeError, match="coefficients are ints"):
                build()


class TestArithmetic:
    def test_add_aligns_grids(self):
        s = S([(F(1, 2), 1)]) + S([(F(1, 3), 1)])
        assert s.expdenom == 6
        assert s.coeff(F(1, 2)) == 1 and s.coeff(F(1, 3)) == 1

    def test_mul_truncation_is_tightest_sound(self):
        # (q^2 + O(q^5)) * (q^3 + O(q^4)) exact below min(5+3, 4+2) = 6
        a = S([(2, 1)], trunc=F(5))
        b = S([(3, 1)], trunc=F(4))
        assert (a * b).trunc == F(6)

    def test_inverse_recurrence(self):
        a = S([(0, 1), (1, -1)], trunc=F(8))  # 1 - q
        inv = a.inverse()
        assert all(inv.coeff(k) == 1 for k in range(8))

    def test_inverse_with_valuation_shifts_trunc(self):
        a = S([(1, -1), (2, -1)], trunc=F(6))  # -q(1+q), exact below q^6
        inv = a.inverse()
        assert inv.trunc == F(4)
        assert inv.coeff(-1) == -1
        assert inv.coeff(0) == 1
        assert (a * inv).coeff(0) == 1
        # 1/2 is not an int
        two = S([(1, 2), (2, 2)], trunc=F(6))
        for invert in (two.inverse, lambda: two ** -2):
            with pytest.raises(ArithmeticError,
                               match="leading coefficient 2 "):
                invert()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroLeadingTerm):
            QSeries.zero(trunc=F(5)).inverse()

    def test_pow_negative_and_zero(self):
        a = S([(0, 1), (1, 1)], trunc=F(10))
        assert (a ** 0).coeff(0) == 1
        assert (a ** -2).coeff(1) == -2

    def test_pow_monomial_exact(self):
        m = QSeries.monomial(F(1, 2))
        assert (m ** 3).items() == [(F(3, 2), F(1))]
        assert (m ** -2).items() == [(F(-1), F(1))]

    def test_exact_div(self):
        s = S([(0, 4), (F(1, 2), -6)], trunc=F(7, 3))
        assert s.exact_div(2).to_pairs() == [("0", "2"), ("1/2", "-3")]
        assert s.exact_div(-2).trunc == F(7, 3)

    @pytest.mark.parametrize("pairs,n", [([(0, 2), (1, 3)], 2)])
    def test_exact_div_remainder_raises(self, pairs, n):
        """A coefficient n does not divide in the integers raises rather
        than rounding."""
        with pytest.raises(ArithmeticError, match=f"not divisible by {n}"):
            S(pairs, trunc=F(5)).exact_div(n)

    def test_scale_exp(self):
        s = S([(2, 5)], trunc=F(4)).scale_exp(F(1, 3))
        assert s.coeff(F(2, 3)) == 5
        assert s.trunc == F(4, 3)


class TestMultisection:
    def test_partition(self):
        s = S([(k, k + 1) for k in range(9)], trunc=F(9))
        parts = [s.multisection(3, r) for r in range(3)]
        total = parts[0] + parts[1] + parts[2]
        assert total.first_difference(s) is None

    def test_requires_integer_grid(self):
        with pytest.raises(NonIntegerExponents):
            S([(F(1, 2), 1)], trunc=F(2)).multisection(2, 0)


class TestComparison:
    def test_eq_on_common_range(self):
        a = S([(0, 1), (1, 2)], trunc=F(2))
        b = S([(0, 1), (1, 2), (2, 99)], trunc=F(3))
        assert a == b

    def test_vacuous_comparison_raises(self):
        a = QSeries.zero(trunc=F(0))
        b = QSeries.zero(trunc=F(5))
        with pytest.raises(EmptyComparisonRange):
            a == b

    def test_first_difference(self):
        a = S([(0, 1), (2, 3)], trunc=F(5))
        b = S([(0, 1), (2, 4)], trunc=F(5))
        assert a.first_difference(b) == F(2)
        assert a.first_difference(a) is None

    def test_restrict_forgets(self):
        a = S([(0, 1), (3, 1)], trunc=F(5)).restrict(2)
        assert a.trunc == F(2)
        with pytest.raises(CoefficientUnknown):
            a.coeff(3)


_coeffs = st.integers(-9, 9)
_smalls = st.lists(st.tuples(st.integers(0, 6), _coeffs),
                   min_size=0, max_size=5)


def _mk(pairs):
    return QSeries.from_terms([(F(e), c) for e, c in pairs], trunc=F(7))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(_smalls, _smalls, _smalls)
    def test_distributive_and_associative(self, a, b, c):
        x, y, z = _mk(a), _mk(b), _mk(c)
        lhs = x * (y + z)
        rhs = x * y + x * z
        assert lhs.first_difference(rhs) is None
        assert ((x * y) * z).first_difference(x * (y * z)) is None

    @settings(max_examples=60, deadline=None)
    @given(_smalls, _smalls)
    def test_commutative(self, a, b):
        x, y = _mk(a), _mk(b)
        assert (x * y).first_difference(y * x) is None

    @settings(max_examples=40, deadline=None)
    @given(_smalls)
    def test_inverse_is_two_sided(self, a):
        x = _mk([(0, 1)] + [(e + 1, c) for e, c in a])
        inv = x.inverse()
        assert (x * inv).coeff(0) == 1
        assert (inv * x).coeff(0) == 1

    @settings(max_examples=40, deadline=None)
    @given(_smalls, st.integers(0, 4))
    def test_truncation_soundness(self, a, cut):
        """Restricting an input before multiplying never changes coefficients
        that both results claim to know."""
        x = _mk(a)
        y = _mk([(1, 1), (2, -3)])
        full = x * y
        part = x.restrict(F(cut)) * y
        if part.trunc is not None and part.trunc <= \
                (full.valuation() if full.terms else F(0)):
            return
        try:
            assert all(part.coeff(e) == full.coeff(e)
                       for e, _ in full.items()
                       if part.trunc is None or e < part.trunc)
        except CoefficientUnknown:
            pass


# ----------------------------------------------------------------------
# the integer kernel against the dict-of-Fraction kernel it replaced

_grid_exps = st.builds(F, st.integers(-6, 24), st.sampled_from([1, 2, 3, 6]))
# +-1 often, so that many series have an inverse in the integers
_int_coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9))
_truncs = st.one_of(st.none(), st.builds(F, st.integers(-2, 30),
                                         st.sampled_from([1, 2, 3, 5])))
# sparse: a few terms anywhere on a fine grid; dense: a run of consecutive
# slots, as eta and cycle products fill them
_sparse_pairs = st.lists(st.tuples(_grid_exps, _int_coeffs),
                         max_size=8)
_dense_pairs = st.builds(
    lambda start, den, cs: [(F(start + i, den), c) for i, c in enumerate(cs)],
    st.integers(-3, 6), st.sampled_from([1, 2]),
    st.lists(_int_coeffs, min_size=1, max_size=24))
_series = st.tuples(st.one_of(_sparse_pairs, _dense_pairs), _truncs)


def _both(spec):
    pairs, trunc = spec
    return (QSeries.from_terms(pairs, trunc),
            FractionSeries.from_terms(pairs, trunc))


def _outcome(f):
    """f()'s value, or the type of the ArithmeticError or ValueError."""
    try:
        return f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _agree(new, old):
    """Same result from the integer kernel (new) and the oracle (old)."""
    if isinstance(old, type):
        assert new is old
        return
    assert (new.expdenom, new.terms, new.trunc, new.to_pairs()) == \
        (old.expdenom, old.terms, old.trunc, old.to_pairs())
    assert all(type(c) is int for c in new.terms.values())


class TestFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(_series, _series)
    def test_ring_operations(self, a, b):
        (x, xo), (y, yo) = _both(a), _both(b)
        _agree(x, xo)
        _agree(x * y, xo * yo)
        _agree(x + y, xo + yo)
        _agree(x - y, xo - yo)
        assert x.first_difference(y) == xo.first_difference(yo)
        assert _outcome(lambda: x == y) == _outcome(lambda: xo == yo)

    @settings(max_examples=300, deadline=None)
    @given(_series, st.integers(-3, 3))
    def test_inverse_and_powers(self, a, e):
        """A leading coefficient other than +-1 has no inverse in the
        integers: ArithmeticError, where the oracle gives fractions."""
        x, xo = _both(a)
        if x.terms and x.terms[min(x.terms)] not in (1, -1):
            with pytest.raises(ArithmeticError, match="leading coefficient"):
                x.inverse()
            if e < 0:
                with pytest.raises(ArithmeticError,
                                   match="leading coefficient"):
                    x ** e
                return
        else:
            _agree(_outcome(x.inverse), _outcome(xo.inverse))
        _agree(_outcome(lambda: x ** e), _outcome(lambda: xo ** e))

    @settings(max_examples=200, deadline=None)
    @given(_series, st.builds(F, st.integers(1, 7), st.integers(1, 4)),
           st.integers(1, 4), st.integers(-5, 5), _truncs)
    def test_unary_operations(self, a, k, m, r, cut):
        x, xo = _both(a)
        _agree(x.scale_exp(k), xo.scale_exp(k))
        _agree(_outcome(lambda: x.multisection(m, r)),
               _outcome(lambda: xo.multisection(m, r)))
        if cut is not None:
            _agree(_outcome(lambda: x.restrict(cut)),
                   _outcome(lambda: xo.restrict(cut)))

    @settings(max_examples=100, deadline=None)
    @given(_series)
    def test_coefficient_lookup(self, a):
        x, xo = _both(a)
        for num in range(-14, 64, 3):
            for den in (1, 2, 3, 5):
                got = _outcome(lambda: x.coeff_at(num, den))
                want = _outcome(lambda: xo.coeff(F(num, den)))
                assert got == want, (num, den)


class TestIntegerKernel:
    def test_integer_arithmetic_builds_no_fraction(self, monkeypatch):
        """Products, sums, inverses and powers build no Fraction in the
        kernel."""
        a = QSeries(1, {k: (-1) ** k * (k + 1) for k in range(200)}, 200)
        b = QSeries(1, {k: 3 * k - 7 for k in range(200)}, F(401, 2))
        sparse = QSeries(1, {7 * k * k: k + 1 for k in range(200)}, None)
        made = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(series, "Fraction", Counting)
        ops = {"dense product": lambda: a * b,
               "sparse product": lambda: sparse * sparse,
               "sum": lambda: a + b - sparse,
               "inverse": a.inverse,
               "powers": lambda: (a ** 3, a ** -2)}
        results = {name: f() for name, f in ops.items()}
        assert made == []
        monkeypatch.undo()
        ao, bo, so = (FractionSeries(x.expdenom, x.terms, x.trunc)
                      for x in (a, b, sparse))
        _agree(results["dense product"], ao * bo)
        _agree(results["sparse product"], so * so)
        _agree(results["sum"], ao + bo - so)
        _agree(results["inverse"], ao.inverse())
        _agree(results["powers"][0], ao ** 3)
        _agree(results["powers"][1], ao ** -2)


# ----------------------------------------------------------------------
# the packed (Kronecker) product against the oracle

def _capacity(k):
    """The largest absolute value a slot of k bytes holds with its sign."""
    return 2 ** (8 * k - 1) - 1


@st.composite
def _packable(draw):
    """A dense integer series, from 1 to 72 terms, so that products fall on
    both sides of the packing gate: coefficients up to a slot's capacity,
    keys from q^{-2}, grids 1/1 and 1/2 and truncations inside the
    product."""
    cap = _capacity(draw(st.integers(1, 4)))
    coeffs = st.one_of(st.integers(-9, 9), st.sampled_from([cap, -cap]))
    den = draw(st.sampled_from([1, 2]))
    start = draw(st.integers(-4, 4))
    n = draw(st.integers(1, 72))
    cs = draw(st.lists(coeffs, min_size=n, max_size=n))
    trunc = draw(st.one_of(st.none(), st.builds(
        F, st.integers(-2, 150), st.sampled_from([1, 2, 3]))))
    return [(F(start + i, den), c) for i, c in enumerate(cs)], trunc


def _refuse(coeffs, w):
    raise AssertionError("this product must loop over pairs of terms")


def _spy(monkeypatch):
    """Replace series._pack by a wrapper that records the slot widths."""
    widths, real = [], series._pack

    def recording(coeffs, w):
        widths.append(w)
        return real(coeffs, w)

    monkeypatch.setattr(series, "_pack", recording)
    return widths


def _dense(D, start, coeffs, trunc=None):
    return QSeries(D, {start + i: c for i, c in enumerate(coeffs)}, trunc)


def _oracle(x):
    return FractionSeries(x.expdenom, x.terms, x.trunc)


class TestPackedProduct:
    @settings(max_examples=120, deadline=None)
    @given(_packable(), _packable())
    def test_matches_fraction_oracle(self, a, b):
        (x, xo), (y, yo) = _both(a), _both(b)
        _agree(x * y, xo * yo)
        _agree(x * x, xo * xo)

    @pytest.mark.parametrize("n, packed", [(8, False), (16, False),
                                           (32, True), (200, True)])
    def test_gate_by_length(self, monkeypatch, n, packed):
        """Dense products of n terms by 2n terms on the half grid, from
        q^{-1/2}, cut at q^{n/2}: short ones loop over pairs of terms, long
        ones are packed, and both agree with the oracle."""
        widths = _spy(monkeypatch)
        a = _dense(1, 0, [k % 7 - 3 or 5 for k in range(n)])
        b = _dense(2, -1, [(-1) ** k * (k + 1) for k in range(2 * n)],
                   F(n, 2))
        got = a * b
        assert bool(widths) == packed
        _agree(got, _oracle(a) * _oracle(b))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_at_slot_capacity(self, monkeypatch, k, extra, sign):
        """32 ones times 32 terms of one sign summing to s: the middle
        coefficient is s, the width bound min(|a|_1 |b|_inf, |a|_inf |b|_1)
        is |s|, and s = +-(2^(8k-1) - 1) fills a slot of k bytes; one more
        takes k + 1 bytes."""
        s = _capacity(k) + extra
        parts = [s // 32] * 31 + [s - 31 * (s // 32)]
        a = _dense(1, 0, [1] * 32)
        b = _dense(1, 0, [sign * p for p in parts])
        widths = _spy(monkeypatch)
        got = a * b
        assert widths == [k + extra] * 2
        assert got.coeff(31) == sign * s
        _agree(got, _oracle(a) * _oracle(b))

    def test_sparse_product_stays_on_pair_loop(self, monkeypatch):
        """200 terms at q^{7k^2}: a dense span of 277,208 slots per operand
        for 40,000 pairs of terms."""
        sparse = QSeries(1, {7 * k * k: k + 1 for k in range(200)}, None)
        monkeypatch.setattr(series, "_pack", _refuse)
        _agree(sparse * sparse, _oracle(sparse) * _oracle(sparse))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_pack_round_trip(self, w, data):
        cap = _capacity(w)
        coeffs = data.draw(st.lists(st.integers(-cap, cap), min_size=1,
                                    max_size=40))
        n = len(coeffs)
        packed = series._pack(coeffs, w)
        assert packed == sum(c << (8 * w * i) for i, c in enumerate(coeffs))
        assert series._unpack(packed, n, w) == coeffs
        # slots above n are ignored
        assert series._unpack(packed + (-5 << (8 * w * n)), n, w) == coeffs
