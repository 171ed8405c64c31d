"""Multiplicity formulas: convolution sum, closed forms, cross-checks."""

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mult_oracle
from mult_oracle import closed_at, theorem1_at, trace_at
from superdenom import cli, mult
from superdenom.arith import divisors, mobius
from superdenom.denom import verify_identity
from superdenom.etaq import trace_gfs
from superdenom.intlinalg import Scaled
from superdenom.lattices import (LorentzianLattice, LorentzianPoint,
                                 enumerate_coset)
from superdenom.mult import (MULT_COLUMNS, NonIntegralMultiplicity,
                             TheoremClosedFormMismatch, TwistClass,
                             UnsupportedTwistOrder, build_mult_table,
                             mult_theorem1, simple_root_mult, trace_term)
from superdenom.octonion import mat_identity8
from superdenom.series import QSeries

F = Fraction


def _norm(tc, p):
    """p^2 = r*^2 - 2mn, r*^2 = D r*^2 / D."""
    return F(mult_oracle.norm_scaled(tc.fixed, p.rcoords),
             tc.lorentzian.exponent) - 2 * p.m * p.n


def _pairing_divisor(p):
    return gcd(p.m, p.n, *p.rcoords)


def _dual_point(tc, norm):
    """(r*; 1, 1) for the first vector r* of the fixed dual of that norm."""
    D = tc.lorentzian.exponent
    return next(LorentzianPoint(tuple(c), 1, 1)
                for c in enumerate_coset(tc.lorentzian.dual, None, norm)
                if F(mult_oracle.norm_scaled(tc.fixed, c), D) == norm)


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

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_trace_caches_invert_once(self, order, monkeypatch):
        """shape_V == shape_L at every shipped order, so the first read of
        the trace series after a regrowth inverts the boson product once and
        still gives the two separate generating functions."""
        tc = TwistClass(order)
        assert tc.shape_V == tc.shape_L
        calls = []
        orig = QSeries.inverse

        def counted(self):
            calls.append(self)
            return orig(self)
        monkeypatch.setattr(QSeries, "inverse", counted)
        tc._need(95)
        assert tc._prec == 96 and calls == []
        even, odd = tc.gf_trace_even, tc.gf_trace_odd
        assert len(calls) == 1
        assert (even, odd) == trace_gfs(tc.shape_V, tc.shape_L, tc.trace_l,
                                        96)

    def test_trace_series_built_on_first_read(self, monkeypatch):
        """Only trace_term reads the trace series: building a TwistClass and
        verifying a denominator identity, through its regrowth from prec 24
        to 96, never sum them.  A regrowth drops the ones already read."""
        def refuse(*args):
            raise AssertionError("trace series on the verifier's path")
        monkeypatch.setattr(mult, "trace_gfs", refuse)
        tc = TwistClass(7)
        assert verify_identity(7, 18, tc=tc).passed
        assert tc._prec == 96
        monkeypatch.undo()
        assert tc.gf_trace_even == trace_gfs(tc.shape_V, tc.shape_L,
                                             tc.trace_l, 96)[0]
        tc._need(96)
        got = tc.gf_trace_even, tc.gf_trace_odd
        ref = trace_gfs(tc.shape_V, tc.shape_L, tc.trace_l, 192)
        assert [g.trunc for g in got] == [r.trunc for r in ref]
        assert got == ref

    def test_dimension_series_built_on_first_read(self, monkeypatch):
        """Only trace_term at g^d = 1 reads the dimension series: building
        a TwistClass and verifying a denominator identity enumerate no
        coset theta of the complement."""
        def refuse(*args):
            raise AssertionError("coset theta of the complement")
        monkeypatch.setattr(mult, "theta_coset", refuse)
        tc = TwistClass(7)
        assert verify_identity(7, 8, tc=tc).passed
        assert tc._gf_dim is None
        monkeypatch.undo()
        # (0; 0, 7) has norm 0: its dimension is read at q^{1/2} = q^{D/2D}
        label = tc.disc.coset_label(_zero(tc))
        assert trace_term(tc, 7, tc.lorentzian.exponent, label) == \
            tc.gf_dim_by_coset[label].coeff(F(1, 2))

    def test_dimension_series_grow_before_first_read(self):
        """Growing the precision before the first read builds the series
        once, at the grown precision, on that read; they equal the series
        built at the initial precision and then regrown."""
        tc, ref = TwistClass(3), TwistClass(3)
        tc._need_dim(9)
        assert tc._dim_prec == 16 and tc._gf_dim is None
        built = tc.gf_dim_by_coset
        assert built is tc.gf_dim_by_coset
        assert ref.gf_dim_by_coset is not None
        ref._need_dim(9)
        assert ref._dim_prec == 16 and built == ref.gf_dim_by_coset

    LAZY = ("rho_l", "trace_l", "shape_V", "shape_L",
            "complement", "lorentzian", "disc", "shift_table")

    @pytest.mark.parametrize("order,height", [(1, 2), (3, 6), (7, 12)])
    def test_denominator_builds_no_lazy_part(self, order, height):
        """The denominator identity reads only the fixed lattice and the c
        and tail series, so verifying it builds none of the parts that
        other checks read; each is built once, on its first read."""
        tc = TwistClass(order)
        assert verify_identity(order, height, tc=tc).passed
        assert not set(self.LAZY) & set(tc.__dict__)
        for name in self.LAZY:
            assert getattr(tc, name) is getattr(tc, name)
        assert set(self.LAZY) <= set(tc.__dict__)

    def test_spinor_check_on_first_read(self, monkeypatch):
        """Spinor traces that differ break the trace hypothesis, which only
        the parts read through rho_l need: the denominator identity still
        verifies, and reading trace_l, rho_l or shape_L raises."""
        spin_action = mult.spin_action

        def unequal(u, kind):
            return Scaled(mat_identity8(), 1) if kind == "R" \
                else spin_action(u, kind)
        monkeypatch.setattr(mult, "spin_action", unequal)
        tc = TwistClass(3)
        assert verify_identity(3, 3, tc=tc).passed
        for name in ("trace_l", "rho_l", "shape_L"):
            with pytest.raises(ValueError, match="spinor traces differ"):
                getattr(tc, name)
        assert tc.shape_V == TwistClass(3).shape_V

    def test_mobius(self):
        assert [mobius(n) for n in (1, 2, 3, 6, 7, 9, 12)] == \
            [1, -1, -1, 1, -1, 0, 0]


class TestTraceTerm:
    def test_trace_on_lattice_norm_minus2(self, tc3, tc7):
        a3 = LorentzianPoint(_zero(tc3), 1, 1)
        assert trace_at(tc3, 1, a3) == 8  # c3(1)
        a7 = LorentzianPoint(_zero(tc7), 1, 1)
        assert trace_at(tc7, 1, a7) == 2  # c7(1)

    def test_trace_vanishes_off_lattice(self, tc3):
        beta = _dual_point(tc3, F(4, 3))
        assert not tc3.lorentzian.in_lattice(beta)
        assert trace_at(tc3, 1, beta) == 0

    def test_dimension_term_off_lattice(self, tc3):
        """dim at a dual point of norm -2/3: 3 minimal coset vectors times
        the oscillator count 8 gives 24."""
        beta = _dual_point(tc3, F(4, 3))
        assert trace_at(tc3, 3, beta) == 24

    def test_dimension_term_untwisted(self, tc1):
        a = LorentzianPoint(_zero(tc1), 1, 1)
        assert trace_at(tc1, 1, a) == 128  # fake_c(1)


class TestMultTheorem1:
    def test_single_term_case(self, tc3):
        a = LorentzianPoint(_zero(tc3), 1, 1)  # norm -2, not in 3L*
        assert theorem1_at(tc3, a) == 8

    def test_three_term_case(self, tc3):
        """alpha in 3L* minus 3L with norm -6: c3(3) + c3(1) = 72 + 8."""
        beta = _dual_point(tc3, F(4, 3))
        alpha = beta.multiply(3)
        assert _pairing_divisor(alpha) % 3 == 0
        assert not tc3.lorentzian.in_lattice(mult_oracle.divide(alpha, 3))
        assert theorem1_at(tc3, alpha) == 80

    def test_untwisted_simple_root(self, tc1):
        iso = LorentzianPoint(_zero(tc1), 1, 0)
        assert theorem1_at(tc1, iso) == 8

    def test_parities_agree(self, tc3):
        for p in tc3.lorentzian.positive_cone_enum(3):
            assert theorem1_at(tc3, p, "even") == \
                theorem1_at(tc3, p, "odd")


class TestMultClosed:
    def test_off_lattice_is_zero(self, tc3):
        beta = _dual_point(tc3, F(4, 3))
        assert closed_at(tc3, beta) == (0, 0)

    def test_on_lattice_values(self, tc3, tc7):
        a = LorentzianPoint(_zero(tc3), 1, 2)  # norm -4
        assert closed_at(tc3, a) == (24, 24)
        b = LorentzianPoint(_zero(tc7), 1, 7)  # norm -14, in 7L*? no
        assert _pairing_divisor(b) % 7 != 0
        assert closed_at(tc7, b) == (tc7.c_coeff(7), tc7.c_coeff(7))

    def test_n_dual_extra_term_formula(self, tc7):
        """The extra-term arithmetic c7(7) + c7(1) = 66 + 2 = 68."""
        assert tc7.c_coeff(7) + tc7.c_coeff(1) == 68

    def test_n_dual_extra_term_realized(self, tc7):
        """The smallest realizable 7L* case: no dual point has norm
        -2/7 mod 2 (the realized discriminant classes are 0, 2/7, 4/7,
        8/7), so alpha^2 = -14 never occurs on 7L*; the first negative
        norms are 49*(class - 2).  Check alpha^2 = -84."""
        beta = _dual_point(tc7, F(2, 7))
        assert _norm(tc7, beta) == F(-12, 7)
        alpha = beta.multiply(7)
        assert _norm(tc7, alpha) == -84
        assert _pairing_divisor(alpha) % 7 == 0
        expected = tc7.c_coeff(42) + tc7.c_coeff(6)
        assert tc7.c_coeff(6) == 40
        assert closed_at(tc7, alpha) == (expected, expected)
        assert theorem1_at(tc7, alpha) == expected

    def test_no_norm_minus14_point_on_7dual(self, tc7):
        """Directly confirm the class obstruction: beta^2 = -2/7 has no
        solutions with height up to 8."""
        found = [p for p in tc7.lorentzian.positive_cone_enum(8)
                 if _norm(tc7, p) == F(-2, 7)]
        assert found == []

    def test_untwisted(self, tc1):
        a = LorentzianPoint(_zero(tc1), 2, 2)  # norm -8
        assert closed_at(tc1, a) == (42112, 42112)


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
        table = build_mult_table(tc3, 2)
        parsed = json.loads(table.to_json())
        assert parsed["columns"] == list(MULT_COLUMNS)
        assert len(parsed["rows"]) == len(table)
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == ",".join(MULT_COLUMNS)


# ----------------------------------------------------------------------
# the table by signature against the point-wise walk it replaced

ORACLE_SIZES = [(1, h) for h in range(1, 4)] + \
    [(3, h) for h in range(1, 7)] + [(7, h) for h in range(1, 9)]


class TestTableBySignature:
    """build_mult_table evaluates the formulas once per signature; the
    point-wise walk of tests/mult_oracle.py evaluates them at every point.
    Both must write the same table in every output form."""

    @pytest.fixture(scope="class")
    def twists(self, tc1, tc3, tc7):
        return {1: tc1, 3: tc3, 7: tc7}

    @staticmethod
    def _same(tc, height, max_norm):
        got = build_mult_table(tc, height, max_norm)
        want = mult_oracle.build_mult_table(tc, height, max_norm)
        for form in ("to_json", "to_csv", "to_text"):
            assert getattr(got, form)() == getattr(want, form)(), form

    @pytest.mark.parametrize("max_norm", [None, 0, 2, 5])
    @pytest.mark.parametrize("order,height", ORACLE_SIZES)
    def test_same_bytes_as_the_oracle(self, twists, order, height,
                                      max_norm):
        self._same(twists[order], height, max_norm)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_same_bytes_as_the_oracle_drawn(self, twists, data):
        """Heights up to 5; order 1 stops at 3, where its cone holds 5,049
        points (49,934 at height 4) and the oracle's walk stays short."""
        order = data.draw(st.sampled_from((1, 3, 7)))
        height = data.draw(st.integers(0, 5 if order > 1 else 3))
        max_norm = data.draw(st.none() | st.integers(0, 30))
        self._same(twists[order], height, max_norm)

    def test_formulas_run_once_per_signature(self, monkeypatch):
        """91 signatures among 24,435 points at order 3, height 6: two
        mult_theorem1 calls (even and odd) per signature (x, c, labels)."""
        calls = []
        inner = mult.mult_theorem1

        def counted(tc, x, c, labels, *args, **kwargs):
            calls.append((x, c, tuple(labels.items())))
            return inner(tc, x, c, labels, *args, **kwargs)

        monkeypatch.setattr(mult, "mult_theorem1", counted)
        table = build_mult_table(TwistClass(3), 6)
        assert len(table) == 24435
        assert len(calls) == 182
        assert len(set(calls)) == 91

    def test_no_membership_test_per_signature(self, tc3, monkeypatch):
        """The formulas read membership off the coset label of r*: the
        table tests no point for membership."""
        def refuse(*args):
            raise AssertionError("membership test of a point")
        monkeypatch.setattr(LorentzianLattice, "in_lattice", refuse)
        assert len(build_mult_table(tc3, 6)) == 24435


# ----------------------------------------------------------------------
# the integer kernel against the Fraction formulas it replaced


@lru_cache(maxsize=None)
def _ref_rstar(gram_inv, rcoords):
    """(r*^2, r* in L) from the Fraction inverse Gram matrix."""
    w = [sum((F(c) * x for c, x in zip(rcoords, row)), F(0))
         for row in gram_inv]
    return (sum((c * x for c, x in zip(rcoords, w)), F(0)),
            all(x.denominator == 1 for x in w))


def _ref_point(tc, p):
    """(alpha^2, r* in L)."""
    norm, inside = _ref_rstar(tc.fixed.gram_inv(), p.rcoords)
    return norm - 2 * p.m * p.n, inside


def _ref_trace_term(tc, d, beta, parity):
    norm, inside = _ref_point(tc, beta)
    exp = (1 - norm) / 2
    if d % tc.order == 0:
        tc._need_dim(exp)
        gf = tc.gf_dim_by_coset[tc.disc.coset_label(beta.rcoords)]
        return gf.coeff(exp)
    tc._need(exp)
    if not inside:
        return F(0)
    gf = tc.gf_trace_even if parity == "even" else tc.gf_trace_odd
    return gf.coeff(exp)


def _ref_theorem1(tc, alpha, parity):
    c = gcd(alpha.m, alpha.n, *alpha.rcoords, tc.order)
    total = F(0)
    for d in divisors(c):
        for s in divisors(c // d):
            mu = mobius(s)
            if mu:
                total += F(mu, d * s) * _ref_trace_term(
                    tc, d, mult_oracle.divide(alpha, d * s), parity)
    assert total.denominator == 1, alpha
    return total


def _ref_c(tc, exp):
    if exp < 0:
        return F(0)
    tc._need(exp)
    return tc.c.coeff(exp)


def _ref_closed(tc, alpha):
    norm, inside = _ref_point(tc, alpha)
    if not inside:
        return (F(0), F(0))
    v = _ref_c(tc, -norm / 2)
    if tc.order > 1 and gcd(alpha.m, alpha.n, *alpha.rcoords) % tc.order == 0:
        v += _ref_c(tc, -norm / (2 * tc.order))
    return (v, v)


class TestIntegerKernelOracle:
    @pytest.mark.parametrize("order,height", [(1, 3), (3, 5), (7, 8)])
    def test_every_cone_point(self, tc1, tc3, tc7, order, height):
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        points = tc.lorentzian.positive_cone_enum(height)
        assert points
        D = tc.lorentzian.exponent
        for p in points:
            x, c, labels = mult_oracle.signature(tc, p)
            for parity in ("even", "odd"):
                got = mult_theorem1(tc, x, c, labels, parity)
                assert type(got) is int
                assert got == _ref_theorem1(tc, p, parity), (p, parity)
                assert trace_term(tc, 1, D + x, labels[1], parity) == \
                    _ref_trace_term(tc, 1, p, parity), (p, parity)
            got = closed_at(tc, p)
            assert all(type(v) is int for v in got)
            assert got == _ref_closed(tc, p), p


def _bumped(gf, exp, by):
    """gf with `by` added to its coefficient at exp."""
    return gf + QSeries.monomial(exp, by)


class TestNegativeControls:
    """A wrong series coefficient on the theorem1 side shows up as a named
    point of build_mult_table; the closed side reads only c."""

    def test_perturbed_trace_series(self, monkeypatch):
        tc = TwistClass(3)
        # (0; 1, 1) has norm -2 and reads the trace series at q^{3/2}
        monkeypatch.setattr(tc, "gf_trace_even",
                            _bumped(tc.gf_trace_even, F(3, 2), 1))
        point = LorentzianPoint(_zero(tc), 1, 1)
        with pytest.raises(TheoremClosedFormMismatch,
                           match=re.escape(f"at {point}: convolution "
                                           "(9, 8) vs closed (8, 8)")):
            build_mult_table(tc, 3)

    def test_negative_multiplicity_is_a_sign_error(self, monkeypatch,
                                                   capsys):
        """Both formulas agreeing on -1 on L raise NegativeMultiplicity, not
        NonIntegralMultiplicity, at the first point on L, (0; 0, 1); verify
        mult still reports the failure there and exits 1."""
        monkeypatch.setattr(mult, "mult_theorem1",
                            lambda tc, x, c, labels, parity, at=None:
                            0 if any(labels[1]) else -1)
        monkeypatch.setattr(mult, "mult_closed",
                            lambda tc, x, divisible: (-1, -1))
        tc = TwistClass(3)
        point = LorentzianPoint(_zero(tc), 0, 1)
        message = f"negative multiplicity at {point}"
        with pytest.raises(mult.NegativeMultiplicity) as exc:
            build_mult_table(tc, 2)
        assert str(exc.value) == message
        assert not isinstance(exc.value, NonIntegralMultiplicity)
        code = cli.main(["verify", "mult", "--order", "3", "--height", "2",
                         "--format", "json"])
        check, = json.loads(capsys.readouterr().out)["checks"]
        assert (code, check["pass"], check["first_discrepancy"]["location"]) \
            == (1, False, message)

    @pytest.mark.parametrize("by,error", [
        (3, TheoremClosedFormMismatch), (1, NonIntegralMultiplicity)])
    def test_perturbed_dimension_series(self, monkeypatch, by, error):
        """(0; 0, 3) is the first point with 3 | (alpha, L); its d = 3 term
        reads the dimension at (0; 0, 1), q^{1/2}, with weight 1/3."""
        tc = TwistClass(3)
        label = tc.disc.coset_label(_zero(tc))
        monkeypatch.setitem(tc.gf_dim_by_coset, label,
                            _bumped(tc.gf_dim_by_coset[label], F(1, 2), by))
        point = LorentzianPoint(_zero(tc), 0, 3)
        with pytest.raises(error, match=re.escape(str(point))):
            build_mult_table(tc, 3)
