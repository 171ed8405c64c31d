"""Truncated Puiseux series core: exactness, truncation calculus, algebra."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        a = S([(1, 2), (2, 2)], trunc=F(6))  # 2q(1+q), exact below q^6
        inv = a.inverse()
        assert inv.trunc == F(4)
        assert inv.coeff(-1) == F(1, 2)
        assert inv.coeff(0) == F(-1, 2)
        assert (a * inv).coeff(0) == 1

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
    return QSeries.from_terms([(F(e), F(c)) for e, c in pairs], trunc=F(7))


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
