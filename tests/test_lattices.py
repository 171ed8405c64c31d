"""Integer linear algebra and the lattice engine."""

from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
import mult_oracle
from superdenom.intlinalg import (Scaled, det, fractions, hnf,
                                  hnf_with_transform, left_kernel_basis,
                                  mat_inv, mat_mul, mat_vec, snf_invariants)
from superdenom.lattices import (IntegralLattice, LorentzianLattice,
                                 LorentzianPoint, SingularGram,
                                 build_coset_shift_table, e8_lattice,
                                 enumerate_coset, fixed_sublattice,
                                 orthogonal_complement, theta_coset)
from superdenom.mult import TwistClass
from superdenom.octonion import build_twist_element, rho_V
from superdenom.series import QSeries

F = Fraction


class TestIntLinalg:
    def test_hnf_transform_property(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        h, u = hnf_with_transform(a)
        assert mat_mul(u, a) == h
        assert abs(det(u)) == 1

    def test_left_kernel(self):
        a = [[1, 2], [2, 4], [3, 6]]
        k = left_kernel_basis(a)
        assert len(k) == 2
        for row in k:
            assert all(sum(r * a[i][j] for i, r in enumerate(row)) == 0
                       for j in range(2))

    def test_snf_divisibility(self):
        # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4,
        # d1*d2*d3 = det = 624
        d = snf_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert d == [2, 2, 156]
        for i in range(len(d) - 1):
            assert d[i + 1] % d[i] == 0

    def test_mat_inv(self):
        a = [[F(2), F(1)], [F(1), F(1)]]
        assert mat_inv(a) == Scaled(((1, -1), (-1, 2)), 1)
        assert mat_mul(a, fractions(mat_inv(a))) == [[1, 0], [0, 1]]
        half = mat_inv([[4, 2], [2, 2]])  # the inverse of 2a, over 2
        assert half == Scaled(((1, -1), (-1, 2)), 2)


class TestE8:
    def test_unimodular_even(self):
        e8 = e8_lattice()
        assert e8.det() == 1 and e8.is_even() and e8.rank == 8
        assert e8.level() == 1

    def test_theta_series(self):
        th = theta_coset(e8_lattice(), None, F(4))
        assert [th.coeff(k) for k in range(4)] == [1, 240, 2160, 6720]

    def test_membership(self):
        e8 = e8_lattice()
        # the all-halves vector is in E8
        halves = oracle.coords_of(e8, [F(1, 2)] * 8)
        assert all(x.denominator == 1 for x in halves)
        # an odd-sum integer vector lies in the span but not in the lattice
        odd = oracle.coords_of(e8, [1, 0, 0, 0, 0, 0, 0, 0])
        assert any(x.denominator != 1 for x in odd)

    def test_twists_preserve_e8(self):
        e8 = e8_lattice()
        for order in (3, 7):
            assert oracle.preserves_lattice(
                e8, rho_V(build_twist_element(order)))


FIXED_FACTS = {3: (4, 9, 3, (3, 3), 12), 7: (2, 7, 7, (7,), 42)}


class TestFixedLattices:
    @pytest.mark.parametrize("order", [3, 7])
    def test_invariants(self, order):
        rank, det_, level, invs, roots = FIXED_FACTS[order]
        e8 = e8_lattice()
        m = rho_V(build_twist_element(order))
        f = fixed_sublattice(m, e8)
        c = orthogonal_complement(f, e8)
        assert (f.rank, f.det(), f.level()) == (rank, det_, level)
        assert f.is_even() and c.is_even()
        assert f.discriminant_group().invariants == invs
        assert f.rank + c.rank == 8
        assert c.det() == f.det()
        nroots = sum(1 for v in enumerate_coset(c, None, 2)
                     if c.norm_of_coords(v) == 2)
        assert nroots == roots

    @pytest.mark.parametrize("order", [3, 7])
    def test_n_dual_inside_lattice(self, order):
        e8 = e8_lattice()
        f = fixed_sublattice(rho_V(build_twist_element(order)), e8)
        n = f.level()
        dual = f.dual()
        for i in range(dual.rank):
            v = tuple(n * x for x in dual.basis[i])
            # must not raise, and must be integral
            assert all(x.denominator == 1 for x in oracle.coords_of(f, v))

    @pytest.mark.parametrize("order", [3, 7])
    def test_shift_table_covers_cosets(self, order):
        e8 = e8_lattice()
        f = fixed_sublattice(rho_V(build_twist_element(order)), e8)
        dg = f.discriminant_group()
        table = build_coset_shift_table(f, e8, dg)
        assert len(table) == dg.order
        # the zero coset has the zero shift
        zero = dg.coset_label((0,) * f.rank)
        assert all(x == 0 for x in table[zero])

    def test_degenerate_gram(self):
        lat = IntegralLattice([[1, 0], [2, 0]])
        with pytest.raises(SingularGram):
            lat.gram_inv()

    def test_non_integral_pairings(self):
        container = IntegralLattice([[1, 0]])
        sub = IntegralLattice([[F(1, 2), 0]])
        with pytest.raises(ValueError, match="pairings must be integral"):
            orthogonal_complement(sub, container)

    def test_dual_of_dual(self):
        f = fixed_sublattice(rho_V(build_twist_element(3)), e8_lattice())
        dd = f.dual().dual()
        assert dd.gram == f.gram and dd.basis == f.basis


class TestEnumeration:
    def test_counts_match_theta(self):
        f = fixed_sublattice(rho_V(build_twist_element(3)), e8_lattice())
        th = theta_coset(f, None, F(5))
        for norm in (2, 4, 6, 8):
            count = sum(1 for v in enumerate_coset(f, None, norm)
                        if f.norm_of_coords(v) == norm)
            assert count == th.coeff(F(norm, 2))

    def test_negative_bound_is_empty(self):
        f = e8_lattice()
        assert enumerate_coset(f, None, F(-1)) == []

    def test_deterministic_order(self):
        f = e8_lattice()
        a = enumerate_coset(f, None, 2)
        assert a == sorted(a)
        assert len(a) == 241  # 240 roots plus zero

    @pytest.mark.parametrize("order,max_norm", [(3, 6), (7, 2)])
    def test_matches_box_search(self, twists, order, max_norm):
        """Every coset of the complement against a scan of a box that holds
        all (x + s)^2 <= N: |x_i + s_i| <= sqrt(N * (Gram^-1)_ii)."""
        lat = twists[order].complement
        g, ginv = lat.gram_int(), lat.gram_inv()
        for _, shift in sorted(twists[order].shift_table.items()):
            s = oracle.coords_of(lat, shift)
            M = lcm(1, *(x.denominator for x in s))
            radii = [isqrt(floor(max_norm * ginv[i][i])) + 1
                     for i in range(lat.rank)]
            box = product(*(range(floor(-x - r), ceil(-x + r) + 1)
                            for x, r in zip(s, radii)))
            sM = [int(M * x) for x in s]
            want = []
            for x in box:
                v = [M * xi + si for xi, si in zip(x, sM)]
                if sum(vi * _dot(row, v) for vi, row in zip(v, g)) <= \
                        max_norm * M * M:
                    want.append(x)
            assert want and enumerate_coset(lat, shift, max_norm) == want


class TestLorentzian:
    def setup_method(self):
        e8 = e8_lattice()
        self.f = fixed_sublattice(rho_V(build_twist_element(3)), e8)
        self.lor = LorentzianLattice(self.f)

    def _norm(self, p):
        """p^2 = r*^2 - 2mn, r*^2 = r*.A r* / D."""
        return F(mult_oracle.norm_scaled(self.f, p.rcoords),
                 self.lor.exponent) - 2 * p.m * p.n

    def test_norm_and_height(self):
        zero = (0,) * self.f.rank
        p = LorentzianPoint(zero, 2, 3)
        assert self._norm(p) == -12 and p.height == 5

    def test_pairing_divisor_and_divide(self):
        """The tests' point adapters: gcd((p, L), N) and p / t."""
        zero = (0,) * self.f.rank
        p = LorentzianPoint(zero, 3, 6)
        assert mult_oracle.signature(TwistClass(3), p)[1] == 3
        assert mult_oracle.divide(p, 3) == LorentzianPoint(zero, 1, 2)
        with pytest.raises(ValueError):
            mult_oracle.divide(p, 2)

    def test_cone_enum_predicate(self):
        pts = self.lor.positive_cone_enum(4)
        assert len(pts) == len(set(pts))
        for p in pts:
            assert 1 <= p.height <= 4 and p.m >= 0 and p.n >= 0
            assert self._norm(p) <= 0
        # closed under the predicate: brute filter over a box reproduces it
        brute = set()
        for m in range(5):
            for n in range(5):
                if not 1 <= m + n <= 4:
                    continue
                for coords in enumerate_coset(self.f.dual(), None,
                                              F(2 * m * n)):
                    q = LorentzianPoint(tuple(coords), m, n)
                    if self._norm(q) <= 0:
                        brute.add(q)
        assert brute == set(pts)

    def test_isotropic_enum(self):
        iso = self.lor.primitive_isotropic_enum(4)
        seen = set()
        for p, kmax in iso:
            assert self._norm(p) == 0
            assert gcd(p.m, p.n, *p.rcoords) == 1
            assert self.lor.in_lattice(p)
            assert kmax == 4 // p.height
            assert p not in seen
            seen.add(p)

    def test_membership_layers(self):
        # a vector of 3L* that is not in 3L
        dual = self.f.dual()
        cands = [c for c in enumerate_coset(dual, None, F(4, 3))
                 if self._norm(LorentzianPoint(tuple(c), 0, 0)) == F(4, 3)]
        beta = LorentzianPoint(tuple(cands[0]), 1, 1)
        alpha = beta.multiply(3)
        assert not self.lor.in_lattice(beta)
        assert self.lor.in_lattice(alpha)
        assert gcd(alpha.m, alpha.n, *alpha.rcoords) % 3 == 0
        assert not self.lor.in_lattice(mult_oracle.divide(alpha, 3))


# ----------------------------------------------------------------------
# the integer lattice core against the rational computations it replaced


@pytest.fixture(scope="module")
def twists():
    return {order: TwistClass(order) for order in (1, 3, 7)}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _ref_in_lattice(gram_inv, p):
    """r* lies in the fixed lattice iff Gram^{-1} r* is integral."""
    w = mat_vec(gram_inv, [F(c) for c in p.rcoords])
    return all(x.denominator == 1 for x in w)


def _ref_rstar_norm(gram_inv, rcoords):
    return sum((ci * cj * gram_inv[i][j] for i, ci in enumerate(rcoords)
                for j, cj in enumerate(rcoords)), F(0))


def _ref_isotropic(fixed, max_height):
    """One enumeration of the fixed lattice per (m, n), with norms and
    projections taken from ambient vectors, scaled by a common denominator
    M of the basis so that they stay integers."""
    M = lcm(1, *(x.denominator for row in fixed.basis for x in row))
    basis = [[int(x * M) for x in row] for row in fixed.basis]
    zero = (0,) * fixed.rank
    out = [(LorentzianPoint(zero, 1, 0), max_height),
           (LorentzianPoint(zero, 0, 1), max_height)] if max_height >= 1 \
        else []
    for m in range(1, max_height):
        for n in range(1, max_height + 1 - m):
            if not fixed.rank:
                continue
            for coords in enumerate_coset(fixed, None, 2 * m * n):
                v = [sum(c * b[i] for c, b in zip(coords, basis))
                     for i in range(fixed.ambient_dim)]
                if _dot(v, v) != 2 * m * n * M * M:
                    continue
                if gcd(gcd(gcd(0, *coords), m), n) != 1:
                    continue
                pairings = [_dot(v, b) for b in basis]
                assert all(x % (M * M) == 0 for x in pairings)
                pt = LorentzianPoint(tuple(x // (M * M) for x in pairings),
                                     m, n)
                out.append((pt, max_height // (m + n)))
    out.sort(key=lambda t: (t[0].height, t[0].m, t[0].rcoords))
    return out


def _ref_theta(lattice, shift, prec):
    """Theta series with one norm per vector, from its ambient vector scaled
    by a common denominator M, bucketed by Fraction exponent."""
    M = lcm(1, *(F(x).denominator for row in lattice.basis + (shift,)
                 for x in row))
    basis = [[int(x * M) for x in row] for row in lattice.basis]
    s = [int(F(x) * M) for x in shift]
    counts = {}
    for coords in enumerate_coset(lattice, shift, 2 * prec):
        v = [s[i] + sum(c * b[i] for c, b in zip(coords, basis))
             for i in range(lattice.ambient_dim)]
        e = F(_dot(v, v), 2 * M * M)
        if e < prec:
            counts[e] = counts.get(e, 0) + 1
    return QSeries.from_terms(counts.items(), trunc=prec)


class TestIntegerCoreOracles:
    @pytest.mark.parametrize("order,height", [(1, 3), (3, 6), (7, 6)])
    def test_membership_and_norm(self, twists, order, height):
        lor = twists[order].lorentzian
        g = lor.fixed.gram_inv()
        points = lor.positive_cone_enum(height)
        assert points
        members = 0
        for p in points:
            inside = _ref_in_lattice(g, p)
            members += inside
            assert lor.in_lattice(p) == inside, p
        for ns, coords in lor.cone_duals(height):
            assert F(ns, lor.exponent) == _ref_rstar_norm(g, coords), coords
        # both answers occur off order 1
        assert members == len(points) if order == 1 \
            else 0 < members < len(points)

    @staticmethod
    def _check_isotropic(lor, max_height):
        """Heights 0..H against one reference run at H: the points of
        height <= h are a prefix of it, with max multiple h // height."""
        ref = _ref_isotropic(lor.fixed, max_height)
        for h in range(max_height + 1):
            assert lor.primitive_isotropic_enum(h) == \
                [(p, h // p.height) for p, _ in ref if p.height <= h], h

    @pytest.mark.parametrize("order,max_height", [(1, 4), (3, 8), (7, 8)])
    def test_isotropic_enum(self, twists, order, max_height):
        self._check_isotropic(twists[order].lorentzian, max_height)

    def test_isotropic_enum_rank_zero(self):
        self._check_isotropic(LorentzianLattice(IntegralLattice(())), 8)

    @pytest.mark.parametrize("order", [3, 7])
    def test_theta_cosets(self, twists, order):
        tc = twists[order]
        for _, shift in sorted(tc.shift_table.items()):
            th = theta_coset(tc.complement, shift, F(6))
            ref = _ref_theta(tc.complement, shift, F(6))
            assert th.terms and (th.expdenom, th.terms, th.trunc) == \
                (ref.expdenom, ref.terms, ref.trunc), shift


class TestCountOnlyTheta:
    @pytest.mark.parametrize("order,prec", [(1, 2), (3, 4), (7, 3)])
    def test_against_enumerated_norms(self, twists, order, prec):
        """theta_coset tallies norms without listing points: count the
        points enumerate_coset lists, by norm_of_coords, on E8 and on every
        A2+A2 and A6 coset."""
        tc = twists[order]
        cases = [(tc.e8, None)] if order == 1 else \
            [(tc.complement, s) for _, s in sorted(tc.shift_table.items())]
        for lat, shift in cases:
            s = (0,) * lat.rank if shift is None else \
                oracle.coords_of(lat, shift)
            counts = {}
            for coords in enumerate_coset(lat, shift, 2 * prec):
                e = lat.norm_of_coords([c + x for c, x in zip(coords, s)]) / 2
                if e < prec:
                    counts[e] = counts.get(e, 0) + 1
            assert len(counts) > 1
            th = theta_coset(lat, shift, prec)
            assert th.trunc == prec and th == \
                QSeries.from_terms(counts.items(), trunc=F(prec)), shift


def _same_theta(lat, shift, prec):
    """theta_coset equals the oracle's point-by-point count exactly, on the
    oracle's Fraction copy of the lattice."""
    th = theta_coset(lat, shift, prec)
    ref = oracle.theta_coset(oracle.IntegralLattice(lat.basis), shift, prec)
    assert (th.expdenom, th.terms, th.trunc) == \
        (ref.expdenom, ref.terms, ref.trunc), (shift, prec)
    return th


def _disc_shifts(lat):
    """One ambient dual vector per coset of L*/L: the exponent D kills the
    group, so the dual coordinates in [0, D)^n reach every coset."""
    disc, dual = lat.discriminant_group(), lat.dual()
    labels = {disc.coset_label(v) for v in
              product(range(lat.scaled_gram_inv.den), repeat=lat.rank)}
    assert len(labels) == disc.order
    return [dual.vector(lab) for lab in sorted(labels)]


class TestThetaByShiftClass:
    """theta_coset sums norm tables by shift class; every case equals the
    oracle's one-visit-per-point count."""

    @pytest.mark.parametrize("order", [3, 7])
    def test_every_coset(self, twists, order):
        for _, shift in sorted(twists[order].shift_table.items()):
            assert _same_theta(twists[order].complement, shift, F(12)).terms

    def test_e8(self):
        assert _same_theta(e8_lattice(), None, F(4)).coeff(1) == 240

    def test_skewed_fixed_lattice_and_dual(self, twists):
        """The order-3 fixed lattice has Fincke-Pohst pivots 12, 2, 11/4,
        3/22.  Its dual is run on the same shifts halved, so that s + L* is
        a coset of L* in (1/2)L*."""
        f = twists[3].fixed
        d, _ = f.fincke_pohst
        assert [x for x, in fractions(d)] == [12, 2, F(11, 4), F(3, 22)]
        shifts = _disc_shifts(f)
        assert len(shifts) == 9
        for shift in shifts:
            _same_theta(f, shift, F(6))
            _same_theta(f.dual(), tuple(x / 2 for x in shift), F(3))

    def test_rank_one_and_zero(self):
        line = IntegralLattice([[3]])
        for shift in (None, (F(1, 3),), (F(-5, 2),), (F(7),)):
            _same_theta(line, shift, F(20))
        th = _same_theta(IntegralLattice(()), None, F(5))
        assert th.terms == {0: 1}

    def test_shifts_back_to_back(self, twists):
        """Two shifts on one lattice, run one after the other, each match
        the oracle: nothing summed for one shift serves the other."""
        lat = twists[7].complement
        shifts = [s for _, s in sorted(twists[7].shift_table.items())]
        a, b = shifts[1], shifts[2]
        assert _same_theta(lat, a, F(8)) != _same_theta(lat, b, F(8))
        _same_theta(lat, a, F(8))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.fractions(-3, 3, max_denominator=12), min_size=n,
                 max_size=n))),
        st.fractions(0, 8, max_denominator=4))
    def test_random_grams(self, lattice_and_shift, prec):
        """Gram B B^T of a random full-rank int B, random rational shift."""
        basis, coords = lattice_and_shift
        assume(det(basis) != 0)
        lat = IntegralLattice(basis)
        _same_theta(lat, lat.vector(coords), prec)


def _ref_shift_table(fixed, container, disc):
    """Shift table from the Fraction pairings of each enumerated ambient
    vector with the fixed basis."""
    dual = fixed.dual()
    table = {}
    bound = 2
    for _ in range(8):
        for coords in enumerate_coset(container, None, F(bound)):
            x = container.vector(coords)
            p = tuple(_dot(b, x) for b in fixed.basis)
            assert all(c.denominator == 1 for c in p)
            lab = disc.coset_label(p)
            if lab not in table:
                table[lab] = tuple(a - b for a, b in zip(x, dual.vector(p)))
        if len(table) == disc.order:
            return table
        bound *= 2
    raise AssertionError("reference did not reach every coset")


_INT_MATRICES = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(st.lists(st.integers(-30, 30), min_size=mn[1],
                                 max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


class TestSetupOracles:
    @settings(max_examples=300, deadline=None)
    @given(_INT_MATRICES, st.integers(1, 6), st.booleans())
    def test_snf_matches_determinantal_divisors(self, a, scale, singular):
        # non-square, scaled and (with a repeated row) singular matrices
        a = [[scale * x for x in row] for row in a]
        if singular and len(a) > 1:
            a[-1] = list(a[0])
        assert snf_invariants(a) == oracle.snf_invariants(a)

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_snf_of_the_set_up_grams(self, twists, order):
        tc = twists[order]
        for lat in (tc.e8, tc.fixed, tc.complement):
            g = lat.gram_int()
            assert snf_invariants(g) == oracle.snf_invariants(g)
        assert tc.disc.invariants == {1: (), 3: (3, 3), 7: (7,)}[order]

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_shift_table(self, twists, order):
        """The Hermite solve against the Fraction search, label by label,
        modulo the complement."""
        tc = twists[order]
        ref = _ref_shift_table(tc.fixed, tc.e8, tc.disc)
        assert len(ref) == tc.disc.order
        oracle.same_shifts(tc.shift_table, ref, tc.fixed, tc.e8,
                           tc.complement)
        assert tc.shift_table == build_coset_shift_table(tc.fixed, tc.e8,
                                                         tc.disc)

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_labels_are_the_canonical_cosets(self, twists, order):
        """labels() lists, ascending, exactly the labels coset_label gives
        a box of dual vectors that meets every coset, each its own label."""
        disc = twists[order].disc
        labels = disc.labels()
        assert labels == sorted(labels) and len(labels) == disc.order
        assert all(disc.coset_label(lab) == lab for lab in labels)
        box = product(range(-order, order + 1), repeat=len(labels[0]))
        assert {disc.coset_label(v) for v in box} == set(labels)

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_shift_table_needs_a_primitive_lattice(self, twists, order):
        """2 fixed is not primitive in E8: its pairings with E8 reach only
        even dual coordinates, and the solve refuses at once."""
        tc = twists[order]
        b = tc.fixed.scaled_basis
        doubled = IntegralLattice(Scaled([[2 * x for x in row]
                                          for row in b.rows], b.den))
        with pytest.raises(ValueError, match="not primitive"):
            build_coset_shift_table(doubled, tc.e8,
                                    doubled.discriminant_group())

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_gram_inv(self, twists, order):
        tc = twists[order]
        for lat in (tc.e8, tc.fixed, tc.complement, tc.lorentzian.dual,
                    tc.fixed.dual()):
            ref = oracle.mat_inv([list(r) for r in lat.gram])
            assert [list(r) for r in lat.gram_inv()] == ref

    def test_gram_inv_is_computed_once(self, twists):
        lat = twists[7].fixed
        gi = lat.gram_inv()
        assert lat.gram_inv() is gi
        assert type(gi) is tuple and all(type(r) is tuple for r in gi)

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_dual_is_built_once(self, twists, order):
        f = twists[order].fixed
        assert f.dual() is f.dual() is twists[order].lorentzian.dual
        fresh = IntegralLattice(f.basis, f.gram)
        assert f.dual().gram == fresh.gram_inv()
        assert IntegralLattice(()).dual().rank == 0
