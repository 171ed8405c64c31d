"""Multiplicity formulas: convolution sum, closed forms, cross-checks."""

from fractions import Fraction

import pytest

from superdenom.arith import mobius
from superdenom.lattices import LorentzianPoint, enumerate_coset
from superdenom.mult import (MULT_COLUMNS, TwistClass, UnsupportedTwistOrder,
                             build_mult_table, mult_closed, mult_theorem1,
                             simple_root_mult, trace_term)

F = Fraction


@pytest.fixture(scope="module")
def tc3():
    return TwistClass(3)


@pytest.fixture(scope="module")
def tc7():
    return TwistClass(7)


@pytest.fixture(scope="module")
def tc1():
    return TwistClass(1)


def _zero(tc):
    return (0,) * tc.fixed.rank


class TestConstruction:
    def test_even_and_unshipped_orders_rejected(self):
        with pytest.raises(UnsupportedTwistOrder):
            TwistClass(2)
        with pytest.raises(UnsupportedTwistOrder):
            TwistClass(5)

    def test_mobius(self):
        assert [mobius(n) for n in (1, 2, 3, 6, 7, 9, 12)] == \
            [1, -1, -1, 1, -1, 0, 0]


class TestTraceTerm:
    def test_trace_on_lattice_norm_minus2(self, tc3, tc7):
        a3 = LorentzianPoint(_zero(tc3), 1, 1)
        assert trace_term(tc3, 1, a3) == 8  # c3(1)
        a7 = LorentzianPoint(_zero(tc7), 1, 1)
        assert trace_term(tc7, 1, a7) == 2  # c7(1)

    def test_trace_vanishes_off_lattice(self, tc3):
        dual = tc3.fixed.dual()
        beta = next(
            LorentzianPoint(tuple(c), 1, 1)
            for c in enumerate_coset(dual, None, F(4, 3))
            if tc3.lorentzian.rstar_norm(tuple(c)) == F(4, 3))
        assert not tc3.lorentzian.in_lattice(beta)
        assert trace_term(tc3, 1, beta) == 0

    def test_dimension_term_off_lattice(self, tc3):
        """dim at a dual point of norm -2/3: 3 minimal coset vectors times
        the oscillator count 8 gives 24."""
        dual = tc3.fixed.dual()
        beta = next(
            LorentzianPoint(tuple(c), 1, 1)
            for c in enumerate_coset(dual, None, F(4, 3))
            if tc3.lorentzian.rstar_norm(tuple(c)) == F(4, 3))
        assert trace_term(tc3, 3, beta) == 24

    def test_dimension_term_untwisted(self, tc1):
        a = LorentzianPoint(_zero(tc1), 1, 1)
        assert trace_term(tc1, 1, a) == 128  # fake_c(1)


class TestMultTheorem1:
    def test_single_term_case(self, tc3):
        a = LorentzianPoint(_zero(tc3), 1, 1)  # norm -2, not in 3L*
        assert mult_theorem1(tc3, a) == 8

    def test_three_term_case(self, tc3):
        """alpha in 3L* minus 3L with norm -6: c3(3) + c3(1) = 72 + 8."""
        dual = tc3.fixed.dual()
        beta = next(
            LorentzianPoint(tuple(c), 1, 1)
            for c in enumerate_coset(dual, None, F(4, 3))
            if tc3.lorentzian.rstar_norm(tuple(c)) == F(4, 3))
        alpha = beta.multiply(3)
        assert tc3.lorentzian.in_n_dual(alpha, 3)
        assert not tc3.lorentzian.in_n_lattice(alpha, 3)
        assert mult_theorem1(tc3, alpha) == 80

    def test_untwisted_simple_root(self, tc1):
        iso = LorentzianPoint(_zero(tc1), 1, 0)
        assert mult_theorem1(tc1, iso) == 8

    def test_parities_agree(self, tc3):
        for p in tc3.lorentzian.positive_cone_enum(3):
            assert mult_theorem1(tc3, p, "even") == \
                mult_theorem1(tc3, p, "odd")


class TestMultClosed:
    def test_off_lattice_is_zero(self, tc3):
        dual = tc3.fixed.dual()
        beta = next(
            LorentzianPoint(tuple(c), 1, 1)
            for c in enumerate_coset(dual, None, F(4, 3))
            if tc3.lorentzian.rstar_norm(tuple(c)) == F(4, 3))
        assert mult_closed(tc3, beta) == (0, 0)

    def test_on_lattice_values(self, tc3, tc7):
        a = LorentzianPoint(_zero(tc3), 1, 2)  # norm -4
        assert mult_closed(tc3, a) == (24, 24)
        b = LorentzianPoint(_zero(tc7), 1, 7)  # norm -14, in 7L*? no
        assert not tc7.lorentzian.in_n_dual(b, 7)
        assert mult_closed(tc7, b) == (tc7.c_coeff(7), tc7.c_coeff(7))

    def test_n_dual_extra_term_formula(self, tc7):
        """The extra-term arithmetic c7(7) + c7(1) = 66 + 2 = 68."""
        assert tc7.c_coeff(7) + tc7.c_coeff(1) == 68

    def test_n_dual_extra_term_realized(self, tc7):
        """The smallest realizable 7L* case: no dual point has norm
        -2/7 mod 2 (the realized discriminant classes are 0, 2/7, 4/7,
        8/7), so alpha^2 = -14 never occurs on 7L*; the first negative
        norms are 49*(class - 2).  Check alpha^2 = -84."""
        dual = tc7.fixed.dual()
        beta = next(
            LorentzianPoint(tuple(c), 1, 1)
            for c in enumerate_coset(dual, None, F(2, 7))
            if tc7.lorentzian.rstar_norm(tuple(c)) == F(2, 7))
        assert tc7.lorentzian.norm(beta) == F(-12, 7)
        alpha = beta.multiply(7)
        assert tc7.lorentzian.norm(alpha) == -84
        assert tc7.lorentzian.in_n_dual(alpha, 7)
        expected = tc7.c_coeff(42) + tc7.c_coeff(6)
        assert tc7.c_coeff(6) == 40
        assert mult_closed(tc7, alpha) == (expected, expected)
        assert mult_theorem1(tc7, alpha) == expected

    def test_no_norm_minus14_point_on_7dual(self, tc7):
        """Directly confirm the class obstruction: beta^2 = -2/7 has no
        solutions with height up to 8."""
        found = [p for p in tc7.lorentzian.positive_cone_enum(8)
                 if tc7.lorentzian.norm(p) == F(-2, 7)]
        assert found == []

    def test_untwisted(self, tc1):
        a = LorentzianPoint(_zero(tc1), 2, 2)  # norm -8
        assert mult_closed(tc1, a) == (42112, 42112)


class TestSimpleRoots:
    def test_order3(self, tc3):
        assert [simple_root_mult(tc3, k) for k in (1, 2, 3, 6)] == \
            [(2, 2), (2, 2), (4, 4), (4, 4)]

    def test_order7(self, tc7):
        assert simple_root_mult(tc7, 1) == (1, 1)
        assert simple_root_mult(tc7, 7) == (2, 2)

    def test_order1(self, tc1):
        assert simple_root_mult(tc1, 1) == (8, 8)
        assert simple_root_mult(tc1, 5) == (8, 8)


class TestMultTable:
    def test_empty_slice(self, tc3):
        assert len(build_mult_table(tc3, 0)) == 0

    def test_small_table_consistent(self, tc3):
        table = build_mult_table(tc3, 3)
        assert len(table) > 0
        for row in table.rows:
            assert row[5] == row[6]  # even == odd
            assert row[5] >= 0

    def test_export_roundtrip(self, tc3):
        import json
        table = build_mult_table(tc3, 2)
        parsed = json.loads(table.to_json())
        assert parsed["columns"] == list(MULT_COLUMNS)
        assert len(parsed["rows"]) == len(table)
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == ",".join(MULT_COLUMNS)
