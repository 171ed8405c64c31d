"""Denominator-identity expander: factors, product, sum, reports."""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denom_oracle as oracle
import superdenom.denom as dn
from denom_oracle import accumulated_product, log_derivative
from superdenom import lattices
from superdenom.denom import (LatticeSeries, expand_factor,
                              factor_coefficients, lattice_vectors,
                              log_derivative_quarters, product_side,
                              sum_side, verify_identity)
from superdenom.lattices import LorentzianLattice, LorentzianPoint
from superdenom.mult import TwistClass


@pytest.fixture(scope="module")
def tc1():
    return TwistClass(1)


@pytest.fixture(scope="module")
def tc3():
    return TwistClass(3)


@pytest.fixture(scope="module")
def tc7():
    return TwistClass(7)


def _vectors(tc, height):
    return lattice_vectors(tc, LatticeSeries(height, tc.fixed.rank))


def _product(tc, height):
    """The verifier's product stage at one height."""
    return product_side(tc, height, _vectors(tc, height))[0]


def _exp(L):
    """The mirror-quarter kernel on a whole L, through the oracle's key by
    key check that L is invariant under both mirrors."""
    return dn._exp_of_quarters(oracle.quarters(L), L.rank)


def _expand(factors, height, rank):
    """The product of a factor list, as the exponential of its log
    derivative."""
    return _exp(log_derivative(factors, height, rank))


class TestFactorCoefficients:
    def test_equal_multiplicity_closed_form(self):
        # (1-x)^m (1+x)^{-m} = 1 - 2m x + 2m^2 x^2 - ...
        for m in (1, 2, 8, 100):
            c = factor_coefficients(m, m, 2)
            assert c[0] == -2 * m and c[1] == 2 * m * m

    def test_zero_multiplicity(self):
        assert factor_coefficients(0, 0, 5) == (0,) * 5

    def test_reference_values(self):
        assert factor_coefficients(8, 8, 4) == (-16, 128, -688, 2816)
        assert factor_coefficients(2, 2, 3) == (-4, 8, -12)

    def test_against_series_oracle(self):
        from superdenom.series import QSeries
        for me, mo in ((3, 5), (10, 2), (1, 1), (0, 7)):
            one = QSeries.one(trunc=Fraction(7))
            x = QSeries.monomial(1, trunc=Fraction(7))
            s = ((one - x) ** me) * ((one + x).inverse() ** mo)
            assert factor_coefficients(me, mo, 6) == \
                tuple(int(s.coeff(k)) for k in range(1, 7))


class TestExpandFactor:
    def test_height_cut(self, tc3):
        zero = (0,) * tc3.fixed.rank
        p = LorentzianPoint(zero, 2, 1)  # height 3
        terms = expand_factor(p, 2, 2, 6)
        assert [k for k, _ in terms] == [(zero, 2, 1), (zero, 4, 2)]

    def test_beyond_height_is_empty(self, tc3):
        p = LorentzianPoint((0,) * tc3.fixed.rank, 5, 5)
        assert expand_factor(p, 3, 3, 6) == []

    def test_negative_multiplicity_rejected(self, tc3):
        p = LorentzianPoint((0,) * tc3.fixed.rank, 1, 0)
        with pytest.raises(ValueError):
            expand_factor(p, -1, 0, 4)


class TestLatticeSeries:
    def test_cancellation_removes_keys(self):
        s = LatticeSeries.one(3, 2)
        key = ((1, 0), 1, 1)
        s.add_term(key, 5)
        s.add_term(key, -5)
        assert s.coeff(key) == 0
        assert s.term_count() == 1  # only the constant

    def test_mul_series_matches_mul_factor(self):
        a = LatticeSeries.one(4, 1)
        powers = [(((0,), 1, 0), -2), (((0,), 2, 0), 3)]
        a.mul_factor(powers)
        b = LatticeSeries.one(4, 1)
        b.mul_factor([(((0,), 0, 1), 7)])
        ab = a.mul_series(b)
        # build the same product in one accumulator
        c = LatticeSeries.one(4, 1)
        c.mul_factor(powers)
        c.mul_factor([(((0,), 0, 1), 7)])
        assert ab == c

    def test_noncone_height_zero_rejected(self):
        s = LatticeSeries.one(3, 1)
        with pytest.raises(ValueError):
            s.add_term(((1,), 0, 0), 1)
        with pytest.raises(ValueError):
            s.mul_factor([(((0,), 0, 0), 1)])


class _TupleSeries:
    """The tuple-keyed accumulator that LatticeSeries replaced: one dict
    per height keyed by (rcoords, m, n), products collected in an update
    list and added back one add_term at a time.  Kept as the oracle."""

    def __init__(self, max_height):
        self.max_height = max_height
        self.buckets = [dict() for _ in range(max_height + 1)]

    @classmethod
    def one(cls, max_height, rank):
        s = cls(max_height)
        s.buckets[0][((0,) * rank, 0, 0)] = 1
        return s

    def add_term(self, key, c):
        h = key[1] + key[2]
        if h > self.max_height or c == 0:
            return
        b = self.buckets[h]
        nc = b.get(key, 0) + c
        if nc:
            b[key] = nc
        else:
            b.pop(key, None)

    def term_count(self):
        return sum(len(b) for b in self.buckets)

    def items(self):
        out = []
        for b in self.buckets:
            out.extend(b.items())
        out.sort(key=lambda kv: (kv[0][1] + kv[0][2], kv[0][1], kv[0][0]))
        return out

    def mul_factor(self, powers):
        H = self.max_height
        updates = []
        for (rc, fm, fn), c in powers:
            fh = fm + fn
            for h in range(H - fh + 1):
                for (arc, am, an), ac in self.buckets[h].items():
                    updates.append((
                        (tuple(a + b for a, b in zip(arc, rc)),
                         am + fm, an + fn), ac * c))
        for key, c in updates:
            self.add_term(key, c)

    def mul_series(self, other):
        H = min(self.max_height, other.max_height)
        out = _TupleSeries(H)
        for h1 in range(H + 1):
            for (rc1, m1, n1), c1 in self.buckets[h1].items():
                for h2 in range(H - h1 + 1):
                    for (rc2, m2, n2), c2 in other.buckets[h2].items():
                        out.add_term(
                            (tuple(a + b for a, b in zip(rc1, rc2)),
                             m1 + m2, n1 + n2), c1 * c2)
        return out


def _powers(alpha, coeffs):
    """Terms of 1 + sum_k coeffs[k-1] x^k at x = e^alpha."""
    rc, m, n = alpha
    return [((tuple(k * x for x in rc), k * m, k * n), c)
            for k, c in enumerate(coeffs, 1) if c]


def _inverse(coeffs):
    """Coefficients 1..len(coeffs) of 1 / (1 + sum_k coeffs[k-1] x^k)."""
    d = [1]
    for j in range(1, len(coeffs) + 1):
        d.append(-sum(coeffs[k - 1] * d[j - k] for k in range(1, j + 1)))
    return d[1:]


def _cone_point(draw, rank, H):
    """(rcoords, m, n) of height 1..H with coordinates in -4..4."""
    m = draw(st.integers(0, H))
    n = draw(st.integers(0 if m else 1, H - m))
    rc = tuple(draw(st.lists(st.integers(-4, 4), min_size=rank,
                             max_size=rank)))
    return rc, m, n


@st.composite
def _factor_lists(draw):
    """(rank, H, list of power lists): random factors over ranks 0, 1, 2
    and 8 with negative coordinates, some followed by their inverse so that
    whole products cancel back to 1."""
    rank = draw(st.sampled_from((0, 1, 2, 8)))
    H = draw(st.integers(1, 6))
    factors = []
    for _ in range(draw(st.integers(0, 5))):
        rc, m, n = _cone_point(draw, rank, H)
        kmax = H // (m + n)
        cs = draw(st.lists(st.integers(-3, 3), min_size=kmax,
                           max_size=kmax))
        if any(cs):
            factors.append(_powers((rc, m, n), cs))
            if draw(st.booleans()):
                factors.append(_powers((rc, m, n), _inverse(cs)))
    return rank, H, draw(st.permutations(factors))


def _both(rank, H, factors):
    new, ref = LatticeSeries.one(H, rank), _TupleSeries.one(H, rank)
    for powers in factors:
        new.mul_factor(powers)
        ref.mul_factor(powers)
    return new, ref


class TestAccumulatorOracle:
    """LatticeSeries against the tuple-keyed accumulator it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_factor_lists())
    def test_mul_factor_matches_tuple_accumulator(self, case):
        new, ref = _both(*case)
        assert new.items() == ref.items()
        assert new.term_count() == ref.term_count()

    @settings(max_examples=100, deadline=None)
    @given(_factor_lists(), st.data())
    def test_mul_series_matches_tuple_accumulator(self, case, data):
        rank, H, factors = case
        cut = data.draw(st.integers(0, len(factors)))
        H2 = data.draw(st.integers(H, H + 2))
        new1, ref1 = _both(rank, H, factors[:cut])
        new2, ref2 = _both(rank, H2, factors[cut:])
        new, ref = new1.mul_series(new2), ref1.mul_series(ref2)
        assert new.items() == ref.items()
        assert new.term_count() == ref.term_count()
        assert new == _both(rank, H, factors)[0]

    def test_inverse_factor_cancels_to_one(self):
        alpha, cs = ((2, -3), 1, 1), [5, -1, 0]
        new, ref = _both(2, 6, [_powers(alpha, cs),
                                _powers(alpha, _inverse(cs))])
        assert new.items() == ref.items() == [(((0, 0), 0, 0), 1)]
        assert new.term_count() == 1


@st.composite
def _mult_factor_lists(draw):
    """(rank, H, list of (point, m_even, m_odd)): the factor shape of the
    denominator product, with m_even != m_odd allowed so that the odd and
    even powers of a factor's log derivative differ."""
    rank = draw(st.sampled_from((0, 1, 2, 8)))
    H = draw(st.integers(1, 6))
    mult = st.integers(0, 6)
    factors = [(LorentzianPoint(*_cone_point(draw, rank, H)),
                draw(mult), draw(mult))
               for _ in range(draw(st.integers(0, 8)))]
    return rank, H, factors


def _mirrored(factors):
    """The factor list closed under r* -> -r* and m <-> n: each factor
    with its three images, so that its log derivative is invariant."""
    return [(LorentzianPoint(rc, m, n), me, mo)
            for p, me, mo in factors
            for rc in (p.rcoords, tuple(-x for x in p.rcoords))
            for m, n in ((p.m, p.n), (p.n, p.m))]


class TestExpOfLogDerivative:
    """The exponential of the log derivative against the accumulator it
    replaced on the verifier's path, and against the exponential of every
    key (tests/denom_oracle.py) that the mirror-quarter kernel replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_mult_factor_lists(), st.integers(1, 3))
    def test_matches_mul_factor_chain(self, case, jobs):
        """Random lists, not closed under the mirrors, through the
        exponential of every key."""
        rank, H, factors = case
        new = oracle.exponential(log_derivative(factors, H, rank))
        ref = accumulated_product(factors, H, rank, jobs)
        assert new.items() == ref.items()
        assert new.term_count() == ref.term_count()

    @settings(max_examples=150, deadline=None)
    @given(_mult_factor_lists(), st.integers(1, 3))
    def test_mirrored_lists_match_oracle(self, case, jobs):
        rank, H, factors = case
        factors = _mirrored(factors)
        L = log_derivative(factors, H, rank)
        new = _exp(L)
        assert new.items() == oracle.exponential(L).items()
        ref = accumulated_product(factors, H, rank, jobs)
        assert new.items() == ref.items()
        assert new.term_count() == ref.term_count()

    @pytest.mark.parametrize("order,height", [
        (1, 2), (1, 3), (1, 4), (3, 5), (3, 9), (7, 12), (7, 18)])
    def test_verifier_product_matches_oracle(self, order, height,
                                             tc1, tc3, tc7):
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        vectors = _vectors(tc, height)
        L, _ = oracle.lattice_log_derivative(tc, vectors, height)
        new = product_side(tc, height, vectors)[0]
        assert new.buckets == oracle.exponential(L).buckets
        assert new.term_count() > height

    def test_non_cone_points_match_oracle(self):
        """m < 0 or n < 0 at positive height: rows run past 0..t."""
        factors = _mirrored([(LorentzianPoint((2, -1), -1, 2), 1, 2),
                             (LorentzianPoint((0, 1), 3, -1), 2, 0)])
        L = log_derivative(factors, 6, 2)
        assert _exp(L) == oracle.exponential(L)

    @pytest.mark.parametrize("order,height", [(1, 3), (3, 6), (7, 12)])
    def test_matches_at_real_sizes(self, order, height, tc1, tc3, tc7):
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        factors = dn._factor_list(tc, height, "split")
        rank = tc.fixed.rank
        ref = accumulated_product(factors, height, rank)
        assert _expand(factors, height, rank) == ref
        assert _product(tc, height) == ref

    def test_log_derivative_of_one_factor(self):
        # theta log (1-x)^3 (1+x)^{-1} at x = e^alpha, h(alpha) = 2:
        # 2 * (-3 - 1), 2 * (-3 + 1), 2 * (-3 - 1) at alpha, 2alpha, 3alpha
        alpha = LorentzianPoint((1, -2), 1, 1)
        L = log_derivative([(alpha, 3, 1)], 6, 2)
        assert L.items() == [(((1, -2), 1, 1), -8), (((2, -4), 2, 2), -4),
                             (((3, -6), 3, 3), -8)]

    def test_non_integral_exponential_raises(self):
        # L_1 = e^x + e^y, x = (0; 1, 0), y = (0; 0, 1): F_1 = e^x + e^y,
        # then 2 F_2 = L_1 F_1 has coefficient 1 at 2x
        L = LatticeSeries(2, 1)
        L.buckets[1][L.pack((0,), 1)] = L.buckets[1][L.pack((0,), 0)] = 1
        with pytest.raises(ArithmeticError, match="height 2"):
            _exp(L)

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            log_derivative([(LorentzianPoint((0,), 0, 0), 1, 1)], 3, 1)
        with pytest.raises(ValueError):
            log_derivative([(LorentzianPoint((0,), 1, 0), -1, 0)], 3, 1)


class TestPackedKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((0, 1, 2, 8)), st.integers(1, 40), st.data())
    def test_round_trip_and_addition(self, rank, H, data):
        s = LatticeSeries(H, rank)
        lim = s.limit
        coord = st.integers(-lim, lim) | st.sampled_from((-lim, -1, lim))
        vec = st.tuples(st.lists(coord, min_size=rank, max_size=rank)
                        .map(tuple), coord)
        (ra, ma), (rb, mb) = data.draw(vec), data.draw(vec)
        assert s.unpack(s.pack(ra, ma)) == (ra, ma)
        assert s.split(s.pack(ra, ma)) == (ma, s.pack(ra, 0))
        # sums of in-range points add digit by digit
        rsum = tuple(a + b for a, b in zip(ra, rb))
        if all(abs(x) <= lim for x in rsum + (ma + mb,)):
            assert s.pack(ra, ma) + s.pack(rb, mb) == s.pack(rsum, ma + mb)

    def test_order_is_m_then_rcoords(self):
        s = LatticeSeries(6, 2)
        pts = [((3, -2), 1), ((-3, 5), 1), ((0, 0), 2), ((-1, -1), 0),
               ((-1, 0), 0)]
        assert sorted(pts, key=lambda p: s.pack(*p)) == \
            sorted(pts, key=lambda p: (p[1], p[0]))

    def test_overflow_past_the_bound(self):
        s = LatticeSeries.one(6, 2)
        lim = s.limit
        # H points at the bound still fit in a digit
        assert 6 * lim < 1 << 23 <= 6 * (lim + 1)
        assert s.unpack(6 * s.pack((lim, -lim), lim)) == \
            ((6 * lim, -6 * lim), 6 * lim)
        for rc, m in (((lim + 1, 0), 0), ((0, -lim - 1), 1),
                      ((0, 0), lim + 1)):
            with pytest.raises(OverflowError):
                s.pack(rc, m)
        with pytest.raises(OverflowError):
            s.add_term(((lim + 1, 0), 1, 0), 1)
        assert s.coeff(((lim + 1, 0), 1, 0)) == 0


class TestSumSide:
    def test_height1_terms(self, tc3):
        s = sum_side(tc3, 1, _vectors(tc3, 1))
        zero = (0,) * tc3.fixed.rank
        assert s.coeff((zero, 1, 0)) == -4
        assert s.coeff((zero, 0, 1)) == -4
        assert s.term_count() == 3

    def test_tail_values_order3(self, tc3):
        s = sum_side(tc3, 6, _vectors(tc3, 6))
        zero = (0,) * tc3.fixed.rank
        assert [s.coeff((zero, k, 0)) for k in (1, 2, 3, 4, 5, 6)] == \
            [-4, 4, -4, 20, -24, 4]

    def test_tail_values_order7(self, tc7):
        s = sum_side(tc7, 8, _vectors(tc7, 8))
        zero = (0,) * tc7.fixed.rank
        assert s.coeff((zero, 2, 0)) == 0
        assert s.coeff((zero, 8, 0)) == 4
        # nontrivial isotropic directions carry the same series
        iso = [p for p, _ in tc7.lorentzian.primitive_isotropic_enum(2)
               if p.m == 1 and p.n == 1]
        assert iso
        assert all(s.coeff((p.rcoords, 1, 1)) == -2 for p in iso)


class TestProductSide:
    def test_constant_term(self, tc3):
        p = _product(tc3, 2)
        zero = (0,) * tc3.fixed.rank
        assert p.coeff((zero, 0, 0)) == 1

    def test_linear_coefficients_match_tail(self, tc3, tc7):
        zero3 = (0,) * tc3.fixed.rank
        assert _product(tc3, 2).coeff((zero3, 1, 0)) == -4
        zero7 = (0,) * tc7.fixed.rank
        assert _product(tc7, 2).coeff((zero7, 1, 0)) == -2

    def test_forms_agree(self, tc3, tc7):
        """The split list's inline c1 and c2 and the theorem1 list's
        mult_closed, which reads mult.class_multiplicity, expand to the
        product the verifier builds."""
        for tc in (tc3, tc7):
            rank = tc.fixed.rank
            split, closed = (_expand(dn._factor_list(tc, 3, form), 3, rank)
                             for form in ("split", "theorem1"))
            assert split == closed == _product(tc, 3)

    def test_unknown_form(self, tc3):
        with pytest.raises(ValueError):
            dn._factor_list(tc3, 2, "mystery")


class TestVerifyIdentity:
    @pytest.mark.parametrize("order,height", [(3, 4), (7, 4)])
    def test_passes_small(self, order, height):
        r = verify_identity(order, height)
        assert r.passed and r.first_discrepancy is None
        assert r.anisotropic_ok

    def test_monotone_truncation(self, tc3):
        """The H=4 product restricted to height <= 3 equals the H=3 run."""
        p4 = _product(tc3, 4)
        p3 = _product(tc3, 3)
        for h in range(4):
            assert p4.buckets[h] == p3.buckets[h]

    def test_no_cone_or_membership_on_the_path(self, tc7, monkeypatch):
        """The verifier reads one enumeration of the fixed lattice: no cone
        of L*, factor list, membership test or mat_vec, and no coset label
        of an r*."""
        def refuse(*args):
            raise AssertionError("cone or membership on the verifier's path")
        monkeypatch.setattr(LorentzianLattice, "positive_cone_enum", refuse)
        monkeypatch.setattr(LorentzianLattice, "in_lattice", refuse)
        monkeypatch.setattr(lattices.DiscriminantGroup, "coset_label", refuse)
        monkeypatch.setattr(dn, "_factor_list", refuse)
        monkeypatch.setattr(lattices, "mat_vec", refuse)
        assert dn.verify_identity(7, 8, tc=tc7).passed

    def test_series_caches_rebuilt_once(self, monkeypatch):
        """The factor list grows the c series once, to the largest exponent
        of the slice (c(81) at height 18): one rebuild, from prec 24 to 96,
        not one per doubling."""
        tc = TwistClass(7)
        precs = []
        orig = TwistClass._build_series_caches

        def counted(self):
            precs.append(self._prec)
            orig(self)
        monkeypatch.setattr(TwistClass, "_build_series_caches", counted)
        assert verify_identity(7, 18, tc=tc).passed
        assert precs == [96]

    def test_no_series_product_on_the_path(self, tc7, monkeypatch):
        def refuse(*args):
            raise AssertionError("series product on the verifier's path")
        monkeypatch.setattr(LatticeSeries, "mul_series", refuse)
        monkeypatch.setattr(LatticeSeries, "mul_factor", refuse)
        assert verify_identity(7, 8, tc=tc7).passed

    @staticmethod
    def _perturb(monkeypatch, off_axis_only=False):
        """Add 1 to c1 on every root of norm -2 (with r != 0, i.e. q > 0,
        if off_axis_only), through the product side's one multiplicity
        function."""
        orig = dn.class_multiplicity

        def bad(tc, q, m, n, divisible):
            c1, c2 = orig(tc, q, m, n, divisible)
            if 2 * m * n - q == 2 and (q > 0 or not off_axis_only):
                return (c1 + 1, c2)
            return (c1, c2)
        monkeypatch.setattr(dn, "class_multiplicity", bad)

    def test_perturbed_multiplicity_fails(self, tc3, monkeypatch):
        self._perturb(monkeypatch)
        r = dn.verify_identity(3, 3, tc=tc3)
        assert not r.passed
        # (location, expected, got), pinned from the tuple-keyed accumulator
        assert r.first_discrepancy == (((0, 0, 0, 0), 1, 1), 0, -2)
        assert not r.anisotropic_ok

    def test_perturbed_off_axis_location(self, tc3, monkeypatch):
        """A perturbation away from r* = 0: the reported location has
        negative coordinates and is the least (height, m, r*)."""
        self._perturb(monkeypatch, off_axis_only=True)
        r = dn.verify_identity(3, 3, tc=tc3)
        assert r.first_discrepancy == (((-3, -1, 2, 3), 1, 2), 0, -2)
        assert not r.anisotropic_ok

    def test_asymmetric_multiplicity_raises(self, tc3, monkeypatch):
        """c1 + 1 only where m < n breaks m <-> n: the quarter build
        compares each row with its mirror."""
        orig = dn.class_multiplicity

        def bad(tc, q, m, n, divisible):
            c1, c2 = orig(tc, q, m, n, divisible)
            return (c1 + (m < n), c2)
        monkeypatch.setattr(dn, "class_multiplicity", bad)
        with pytest.raises(ValueError, match="not invariant under m <-> n"):
            dn.verify_identity(3, 3, tc=tc3)

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_vector_without_its_negative_raises(self, order, tc1, tc3, tc7,
                                                monkeypatch):
        """One vector of the least positive norm dropped, its negative
        kept: the class is no longer closed under r* -> -r*."""
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        orig = dn.lattice_vectors

        def dropped(tc, series):
            vectors = orig(tc, series)
            vectors[min(q for q in vectors if q)].pop()
            return vectors
        monkeypatch.setattr(dn, "lattice_vectors", dropped)
        with pytest.raises(ValueError, match=r"not invariant under r\* -> "):
            dn.verify_identity(order, 2, tc=tc)

    def test_negative_multiplicity_rejected(self, tc3, monkeypatch):
        monkeypatch.setattr(dn, "class_multiplicity",
                            lambda tc, q, m, n, divisible: (-1, 0))
        with pytest.raises(ValueError):
            dn.verify_identity(3, 3, tc=tc3)


class TestPackedPipeline:
    """The verifier's one-enumeration path against the factor list and the
    isotropic enumeration it replaced."""

    @staticmethod
    def _reference_sum_side(tc, max_height):
        """The sum side from primitive_isotropic_enum, one membership test
        and one LorentzianPoint multiple per term."""
        tail = [tc.tail_at(k) for k in range(1, max_height + 1)]
        out = LatticeSeries.one(max_height, tc.fixed.rank)
        for lam, kmax in tc.lorentzian.primitive_isotropic_enum(max_height):
            assert tc.lorentzian.in_lattice(lam)
            for k in range(1, kmax + 1):
                p = lam.multiply(k)
                out.add_term((p.rcoords, p.m, p.n), tail[k - 1])
        return out

    @pytest.mark.parametrize("order,height", [(1, 3), (3, 6), (7, 12)])
    def test_matches_factor_list(self, order, height, tc1, tc3, tc7):
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        rank = tc.fixed.rank
        vectors = _vectors(tc, height)
        factors = dn._factor_list(tc, height, "split")
        L, count = oracle.lattice_log_derivative(tc, vectors, height)
        assert L.buckets == log_derivative(factors, height, rank).buckets
        assert count == len(factors)
        assert dn._anisotropic_ok(_exp(L), vectors)
        r = verify_identity(order, height, tc=tc)
        assert r.passed and r.factor_count == len(factors)
        # the split list counts c1 and c2 apart on N L*, theorem1 one
        # factor per root
        assert (count > len(dn._factor_list(tc, height, "theorem1"))) == \
            (order > 1)
        assert sum_side(tc, height, vectors).buckets == \
            self._reference_sum_side(tc, height).buckets

    @pytest.mark.parametrize("order,height", [(1, 4), (3, 9), (7, 26)])
    def test_quarters_match_full_builder(self, order, height, tc1, tc3, tc7):
        """At every height up to the given one, the quarter build equals
        the quarters of the full-bucket builder, bucket by bucket, with the
        same factor count."""
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        vectors = _vectors(tc, height)
        for H in range(1, height + 1):
            quarters, count = log_derivative_quarters(tc, vectors, H)
            L, ref_count = oracle.lattice_log_derivative(tc, vectors, H)
            assert count == ref_count
            assert quarters == oracle.quarters(L), H

    def test_writes_a_quarter_of_the_keys(self, tc7):
        """Order 7, height 18: the build writes the 3,156 keys the
        exponential reads, of the full L's 11,721, and counts every one of
        the 11,740 factors."""
        vectors = _vectors(tc7, 18)
        quarters, count = log_derivative_quarters(tc7, vectors, 18)
        L, ref_count = oracle.lattice_log_derivative(tc7, vectors, 18)
        assert sum(map(len, quarters)) == 3156
        assert L.term_count() == 11721
        assert count == ref_count == 11740

    @pytest.mark.parametrize("order,height", [(7, 26), (3, 9)])
    def test_memory_under_half_the_full_path(self, order, height, tc3, tc7):
        """The traced peak of product_side is at most half that of the
        full L and its exponential.  Both paths run once untraced first,
        so the c series and its caches are grown before either is traced.
        """
        tc = {3: tc3, 7: tc7}[order]
        vectors = _vectors(tc, height)

        def full():
            L, _ = oracle.lattice_log_derivative(tc, vectors, height)
            return _exp(L)

        def quarter():
            return product_side(tc, height, vectors)[0]

        def peak(path):
            tracemalloc.start()
            try:
                path()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert not tracemalloc.is_tracing()
        assert quarter() == full()
        assert peak(quarter) <= 0.5 * peak(full)

    @pytest.mark.parametrize("order,height", [(1, 3), (3, 6), (7, 12)])
    def test_keys_match_pack(self, order, height, tc1, tc3, tc7):
        """lattice_vectors packs G c by linearity; pack is the oracle."""
        tc = {1: tc1, 3: tc3, 7: tc7}[order]
        s = LatticeSeries(height, tc.fixed.rank)
        max_mn = (height // 2) * ((height + 1) // 2)
        ref = {q: [(s.pack(gc, 0), gcd(*gc), g) for gc, g in vecs]
               for q, vecs in lattices.vectors_by_norm(
                   tc.fixed, 2 * max_mn).items()}
        assert lattice_vectors(tc, s) == ref

    def test_pack_bound_on_largest_digit(self, tc7):
        """Every enumerated vector's G c passes through pack: a coordinate
        bound equal to the largest digit packs, one below it raises."""
        H = 12
        vectors = lattice_vectors(tc7, LatticeSeries(H, tc7.fixed.rank))
        s = LatticeSeries(H, tc7.fixed.rank)
        largest = max(max(map(abs, s.unpack(key)[0]))
                      for vecs in vectors.values() for key, _, _ in vecs)
        assert 0 < largest < s.limit
        s.limit = largest
        assert lattice_vectors(tc7, s) == vectors
        s.limit = largest - 1
        with pytest.raises(OverflowError):
            lattice_vectors(tc7, s)
