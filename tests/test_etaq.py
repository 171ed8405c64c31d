"""Eta quotients, named series, twisted Jacobi identities, theta formulas."""

from fractions import Fraction

import pytest

import series_oracle as oracle
from series_oracle import euler_product
from superdenom import etaq
from superdenom.etaq import (SHAPE_1171, SHAPE_1232, SHAPE_1_8, CycleShape,
                             EtaQuotient, InvalidClass, cycle_product,
                             dim_gf, eta_expand, named_series, tail_series,
                             theta_coset_formula, trace_gfs,
                             verify_susy_identity)
from superdenom.series import QSeries

F = Fraction


# every eta quotient the package expands
SHIPPED_QUOTIENTS = sorted(
    {tuple(f) for _, f in etaq._NAMED_QUOTIENTS.values()}
    | {data[key] for data in etaq._THETA_CASES.values()
       for key in ("kernel", "delta_term")}
    | {data["prefactor"][1] for data in etaq._THETA_CASES.values()})
PRECS = (0, F(1, 2), F(7, 3), 13, F(41, 2), 200)


def _same_series(got, want):
    assert (got.expdenom, got.terms, got.trunc) == \
        (want.expdenom, want.terms, want.trunc)


class TestEtaExpand:
    def test_euler_product_pentagonal(self):
        """The oracle's pentagonal factor, which its eta expansion powers."""
        e = euler_product(1, F(13))
        coeffs = [e.coeff(k) for k in range(13)]
        assert coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_leading_exponent(self):
        spec = EtaQuotient(((2, 8), (1, -16)))
        assert spec.leading_exponent == F(16 - 16, 24)
        assert EtaQuotient(((1, 1),)).leading_exponent == F(1, 24)

    def test_eta_quotient_with_fractional_leading_exponent(self):
        # eta(q)^2/eta(q^2): leading exponent 0, integer series
        s = eta_expand(EtaQuotient(((1, 2), (2, -1))), F(6))
        assert [s.coeff(k) for k in range(6)] == [1, -2, 0, 0, 2, 0]

    @pytest.mark.parametrize("factors", SHIPPED_QUOTIENTS, ids=str)
    def test_log_derivative_matches_pentagonal_powers(self, factors):
        """Miller's recurrence against the product of pentagonal-series
        powers, at every test precision above the leading exponent."""
        spec = EtaQuotient(factors)
        for prec in PRECS:
            if prec <= spec.leading_exponent:
                with pytest.raises(ValueError):
                    eta_expand(spec, prec)
                continue
            _same_series(eta_expand(spec, prec),
                         oracle.eta_expand(spec, prec))

    def test_distinct_scales_required(self):
        with pytest.raises(ValueError):
            EtaQuotient(((2, 1), (2, 3)))


PAPER_SERIES = {
    "fake_c": [8, 128, 1152, 7680, 42112],
    "c3": [2, 8, 24, 72, 184, 432, 984, 2112],
    "c7": [1, 2, 4, 8, 14, 24, 40, 66],
    "a3": [1, -4, 4, -4, 20, -24, 4],
    "a7": [1, -2, 0, 0, 2, 0, 0, -2, 4, -2, 0, -4],
}


class TestNamedSeries:
    @pytest.mark.parametrize("name,expected", sorted(PAPER_SERIES.items()))
    def test_reference_coefficients(self, name, expected):
        s = named_series(name, F(len(expected)))
        assert [s.coeff(k) for k in range(len(expected))] == expected

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_series("zeta", 5)

    def test_untwisted_tail(self):
        # prod (1-q^n)^8/(1+q^n)^8 begins 1 - 16q + 128q^2
        s = tail_series(1, F(4))
        assert [s.coeff(k) for k in range(4)] == [1, -16, 112, -448]


class TestCycleShape:
    def test_weight_and_traces(self):
        assert SHAPE_1232.weight == 8
        assert SHAPE_1232.trace == 2
        assert SHAPE_1171.trace == 1
        assert SHAPE_1_8.trace == 8

    def test_labels(self):
        assert SHAPE_1232.label() == "1^23^2"
        assert SHAPE_1171.label() == "1^17^1"

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleShape(((1, 2), (1, 3)))
        with pytest.raises(ValueError):
            CycleShape(((0, 2),))


class TestCycleProducts:
    def test_eigenvalue_collapse_matches_eta(self):
        # prod (1 - q^n)^8 for shape 1^8 = (eta(q)/q^{1/24})^8
        p = cycle_product(SHAPE_1_8, -1, False, F(6))
        e = eta_expand(EtaQuotient(((1, 8),)), F(6) + F(8, 24)) \
            * QSeries.monomial(F(-8, 24))
        assert p.first_difference(e) is None

    def test_shape_1232_product(self):
        # prod (1-q^n)^2 (1-q^{3n})^2
        p = cycle_product(SHAPE_1232, -1, False, F(6))
        e = eta_expand(EtaQuotient(((1, 2), (3, 2))), F(7)) \
            * QSeries.monomial(F(-8, 24))
        assert p.first_difference(e) is None

    @staticmethod
    def _binomial_chain(shape, sign, half_shift, prec):
        """Reference: multiply in one QSeries binomial at a time."""
        prec = F(prec)
        shift = F(1, 2) if half_shift else F(0)
        result = QSeries.one(trunc=prec)
        for a, b in shape.cycles:
            coeff = -((-sign) ** a)
            n = 1
            while a * (n - shift) < prec:
                factor = QSeries.from_terms([(0, 1), (a * (n - shift), coeff)],
                                            trunc=prec)
                result = result * factor ** b
                n += 1
        return result

    @pytest.mark.parametrize("shape", [SHAPE_1_8, SHAPE_1232, SHAPE_1171],
                             ids=lambda s: s.label())
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("half_shift", [False, True])
    def test_dense_update_matches_binomial_chain(self, shape, sign,
                                                 half_shift):
        for prec in (0, F(1, 2), F(7, 3), 13, F(41, 2), 60):
            want = self._binomial_chain(shape, sign, half_shift, prec)
            got = cycle_product(shape, sign, half_shift, prec)
            assert (got.expdenom, got.terms, got.trunc) == \
                (want.expdenom, want.terms, want.trunc), prec

    @pytest.mark.parametrize("shape", [SHAPE_1_8, SHAPE_1232, SHAPE_1171],
                             ids=lambda s: s.label())
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("half_shift", [False, True])
    def test_whole_list_update_matches_per_slot_loop(self, shape, sign,
                                                     half_shift):
        """The packed product and the whole-list update it replaced both
        match the per-slot loop."""
        D = 2 if half_shift else 1
        for prec in PRECS:
            want = oracle.cycle_product(shape, sign, half_shift, prec)
            _same_series(cycle_product(shape, sign, half_shift, prec), want)
            listed = oracle.whole_list_cycle_coeffs(
                shape, sign, half_shift, -(-F(prec) * D // 1))
            _same_series(oracle.FractionSeries(D, dict(enumerate(listed)),
                                               F(prec)), want)

    def test_sign_must_be_unit(self):
        with pytest.raises(ValueError):
            cycle_product(SHAPE_1232, 2, False, F(5))


class TestPackedWidth:
    """cycle_product packs its slots at _slot_bytes's width, a proven bound
    on the all-plus product prod (1 + y^e)^B over its exponents e."""

    @pytest.mark.parametrize("shape", [SHAPE_1_8, SHAPE_1232, SHAPE_1171],
                             ids=lambda s: s.label())
    @pytest.mark.parametrize("half_shift", [False, True])
    def test_all_plus_product_fits(self, shape, half_shift):
        """For every n up to 1000 slots, every coefficient of the n-slot
        product lies below 2^(8w-1), w = _slot_bytes(B, n - 1, half_shift).
        Every shipped cycle length is odd, so sign +1 gives the all-plus
        product, whose coefficients are the largest of either sign.  The
        half shift's width, from its odd exponents, is at most the full
        shift's."""
        assert all(a % 2 for a, _ in shape.cycles)
        B = sum(b for _, b in shape.cycles)
        coeffs = oracle.whole_list_cycle_coeffs(shape, 1, half_shift, 1000)
        top = 0
        for j, c in enumerate(coeffs):
            top = max(top, c)
            w = etaq._slot_bytes(B, j, half_shift)
            assert top < 2 ** (8 * w - 1), j
            assert w <= etaq._slot_bytes(B, j, False), j

    @pytest.mark.parametrize("shape", [SHAPE_1_8, SHAPE_1232, SHAPE_1171],
                             ids=lambda s: s.label())
    def test_one_byte_narrower_differs(self, monkeypatch, shape):
        """Negative control at 200 slots, with and without the half shift:
        with the fewest bytes that hold the largest coefficient and its
        sign the product matches the oracle; with one byte less it does
        not."""
        for half_shift, prec in ((False, 200), (True, 100)):
            want = oracle.cycle_product(shape, 1, half_shift, prec)
            tight = (max(want.terms.values()).bit_length() + 1 + 7) // 8
            for w, same in ((tight, True), (tight - 1, False)):
                monkeypatch.setattr(etaq, "_slot_bytes",
                                    lambda B, j, half_shift: w)
                got = cycle_product(shape, 1, half_shift, prec)
                assert ((got.expdenom, got.terms) ==
                        (want.expdenom, want.terms)) is same, (half_shift, w)


class TestFermionHalf:
    """_fermion_half reads (P+ - P-)/2 off the half-shifted P+ alone, as its
    odd part in q^{1/2}; the halved difference of both products is the
    reference, on the shipped shapes and on shapes with even cycles, whose
    blocks are even in q^{1/2} for either sign."""

    @pytest.mark.parametrize("shape", [
        SHAPE_1_8, SHAPE_1232, SHAPE_1171, CycleShape(((2, 4),)),
        CycleShape(((1, 2), (2, 3))), CycleShape(((1, 2), (6, 1)))],
        ids=lambda s: s.label())
    def test_equals_halved_difference(self, shape):
        for prec in (1, 2, 5, 50, 200):
            want = (cycle_product(shape, +1, True, prec)
                    - cycle_product(shape, -1, True, prec)).exact_div(2)
            _same_series(etaq._fermion_half(shape, F(prec)), want)


class TestSusyIdentities:
    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_passes(self, order):
        ok, checks = verify_susy_identity(order, prec=40)
        assert ok, checks

    def test_negative_control_fails(self, monkeypatch):
        """A cycle shape not coming from a spin element violates both
        identities, and each check reports its first discrepancy."""
        # weight 4, not a valid shape here
        monkeypatch.setitem(etaq.SHAPES, 3, CycleShape(((1, 1), (3, 1))))
        ok, checks = verify_susy_identity(3, 10)
        assert not ok
        assert checks == [("trace_gf_even_equals_odd", False, F(3, 2)),
                          ("raw_product_identity", False, F(1))]

    def test_checks_share_their_products(self, monkeypatch):
        """verify_susy_identity builds each product and the boson inverse
        once, and its first check reports where the even and odd trace
        series part, also where a perturbed product makes both checks
        fail."""
        real, calls, inverses = etaq.cycle_product, [], []
        real_inverse = QSeries.inverse

        def bumped(shape, sign, half_shift, prec):
            calls.append((sign, half_shift, prec))
            p = real(shape, sign, half_shift, prec)
            if sign == 1 and not half_shift:
                p = p + QSeries.monomial(5)
            return p

        def counted(self):
            inverses.append(self)
            return real_inverse(self)

        monkeypatch.setattr(etaq, "cycle_product", bumped)
        monkeypatch.setattr(QSeries, "inverse", counted)
        ok, checks = verify_susy_identity(3, prec=20)
        assert sorted(calls) == [(-1, False, 20), (1, False, 20),
                                 (1, True, 20)]
        assert len(inverses) == 1
        even, odd = trace_gfs(SHAPE_1232, SHAPE_1232, 2, 20)
        assert not ok
        assert checks[0][1:] == (False, even.first_difference(odd))
        assert all(not c_ok and disc is not None
                   for _, c_ok, disc in checks)

    def test_untwisted_is_jacobi(self):
        # even trace gf for 1^8 equals q^{1/2} * fake_c
        even, _ = trace_gfs(SHAPE_1_8, SHAPE_1_8, 8, F(10))
        target = named_series("fake_c", F(10)) * QSeries.monomial(F(1, 2))
        assert even.first_difference(target) is None


    def test_bumped_half_shift_product_fails(self, monkeypatch):
        """Negative control on the fermion half: one more q^{3/2} in the
        half-shifted product P+ shows in the trace check at q^{3/2} and in
        the raw check, which divides by q^{1/2}, at q^1."""
        real = etaq.cycle_product

        def bumped(shape, sign, half_shift, prec):
            p = real(shape, sign, half_shift, prec)
            if sign == 1 and half_shift:
                p = p + QSeries.monomial(F(3, 2))
            return p

        monkeypatch.setattr(etaq, "cycle_product", bumped)
        assert verify_susy_identity(3, 10) == (
            False, [("trace_gf_even_equals_odd", False, F(3, 2)),
                    ("raw_product_identity", False, F(1))])


class TestExactDivisions:
    """The theta prefactors are exact integer divisions: an indivisible
    coefficient raises instead of giving a rounded series."""

    def test_indivisible_theta_prefactor_raises(self, monkeypatch):
        case = dict(etaq._THETA_CASES["A6"])
        case["prefactor"] = (16, case["prefactor"][1])
        monkeypatch.setitem(etaq._THETA_CASES, "A6", case)
        with pytest.raises(ArithmeticError, match="not divisible by 16"):
            theta_coset_formula("A6", 0, F(3))


class TestThetaFormula:
    def test_invalid_class_rejected(self):
        with pytest.raises(InvalidClass):
            theta_coset_formula("A2A2", F(1, 3), 5)
        with pytest.raises(KeyError):
            theta_coset_formula("E6", 0, 5)

    def test_zero_class_starts_at_one(self):
        for case in ("A2A2", "A6"):
            t = theta_coset_formula(case, 0, F(4))
            assert t.coeff(0) == 1

    def test_root_counts(self):
        assert theta_coset_formula("A2A2", 0, F(3)).coeff(1) == 12
        assert theta_coset_formula("A6", 0, F(3)).coeff(1) == 42

    def test_minimal_norms(self):
        # nonzero classes start at their class norm / 2
        t = theta_coset_formula("A2A2", F(2, 3), F(3))
        assert t.valuation() == F(1, 3)
        t = theta_coset_formula("A6", F(12, 7), F(3))
        assert t.valuation() == F(6, 7)


class TestDimGf:
    def test_untwisted_dimension_series(self):
        d = dim_gf(QSeries.one(trunc=F(6)), F(6))
        assert d.coeff(F(1, 2)) == 8
        assert d.coeff(F(3, 2)) == 128
