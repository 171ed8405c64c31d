"""The scaled-integer TwistClass set-up against the Fraction set-up it
replaced (tests/lattice_oracle.py), its negative controls, and a check
that the lattice and spin-matrix steps build no Fraction."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

import lattice_oracle as oracle
from superdenom import intlinalg, lattices, octonion
from superdenom.etaq import c_series, dim_gf, tail_series, trace_gfs
from superdenom.intlinalg import Scaled, fractions
from superdenom.lattices import (IntegralLattice, SingularGram, e8_lattice,
                                 fixed_sublattice, matrix_action_on)
from superdenom.mult import TwistClass
from superdenom.octonion import (NotProductOfCyclotomicBlocks,
                                 OrderExceedsCap, _power_traces,
                                 build_twist_element, cycle_shape,
                                 mat_identity8, rho_L, rho_R, rho_V,
                                 spin_action)

F = Fraction
ORDERS = (1, 3, 7)


def _oracle_setup(order):
    """Every set-up step of TwistClass(order), in Fractions."""
    u = build_twist_element(order)
    rv, rl, rr = (oracle.spin_matrix(u, kind) for kind in "VLR")
    e8 = oracle.e8_lattice()
    fixed = oracle.fixed_sublattice(rv, e8)
    disc = fixed.discriminant_group()
    return SimpleNamespace(
        rho_v=rv, rho_l=rl, rho_r=rr, e8=e8, fixed=fixed,
        complement=oracle.orthogonal_complement(fixed, e8), disc=disc,
        shift_table=oracle.build_coset_shift_table(fixed, e8, disc),
        shape_V=oracle.cycle_shape(rv), shape_L=oracle.cycle_shape(rl),
        trace_l=int(octonion.mat_trace8(rl)))


@pytest.fixture(scope="module")
def setups():
    return {order: (TwistClass(order), _oracle_setup(order))
            for order in ORDERS}


def _same_lattice(got, ref):
    assert got.rank == ref.rank and got.ambient_dim == ref.ambient_dim
    assert got.basis == ref.basis and got.gram == ref.gram
    assert got.det() == ref.det() and got.is_even() == ref.is_even()
    assert got.level() == ref.level()
    assert got.gram_inv() == ref.gram_inv()
    dual, ref_dual = got.dual(), ref.dual()
    assert dual.basis == ref_dual.basis and dual.gram == ref_dual.gram


@pytest.mark.parametrize("order", ORDERS)
class TestAgainstOracle:
    def test_spin_matrices(self, setups, order):
        tc, ref = setups[order]
        u = tc.u
        assert (rho_V(u), rho_L(u), rho_R(u)) == \
            (ref.rho_v, ref.rho_l, ref.rho_r)
        assert fractions(tc.rho_v) == ref.rho_v
        assert fractions(tc.rho_l) == ref.rho_l
        if order == 7:
            assert tc.rho_l.den == spin_action(u, "R").den == 2

    def test_power_traces_and_shapes(self, setups, order):
        tc, ref = setups[order]
        for got, want in ((tc.rho_v, ref.rho_v), (tc.rho_l, ref.rho_l)):
            assert _power_traces(got, 64) == oracle._power_traces(want, 64)
        assert (tc.shape_V, tc.shape_L, tc.trace_l) == \
            (ref.shape_V, ref.shape_L, ref.trace_l)
        assert cycle_shape(ref.rho_l) == ref.shape_L

    def test_lattices(self, setups, order):
        tc, ref = setups[order]
        for got, want in ((tc.e8, ref.e8), (tc.fixed, ref.fixed),
                          (tc.complement, ref.complement)):
            _same_lattice(got, want)
        assert tc.disc.invariants == ref.disc.invariants
        assert tc.disc.order == ref.disc.order

    def test_coordinates_and_vectors(self, setups, order):
        tc, ref = setups[order]
        for lat, ref_lat in ((tc.e8, ref.e8), (tc.fixed, ref.fixed)):
            for b in ref.e8.basis[:3] + ref.fixed.basis:
                try:
                    want = ref_lat.coords_of(b)
                except ValueError:
                    with pytest.raises(ValueError):
                        oracle.coords_of(lat, b)
                    continue
                assert oracle.coords_of(lat, b) == want
                assert lat.vector(want) == ref_lat.vector(want)

    def test_shift_table(self, setups, order):
        """The Hermite solve against the search, modulo the complement."""
        tc, ref = setups[order]
        oracle.same_shifts(tc.shift_table, ref.shift_table, tc.fixed, tc.e8,
                           tc.complement)

    def test_series_caches(self, setups, order):
        tc, ref = setups[order]
        p = F(tc._prec)
        assert (tc.gf_trace_even, tc.gf_trace_odd) == \
            trace_gfs(ref.shape_V, ref.shape_L, ref.trace_l, p)
        assert tc.c == c_series(order, p)
        assert tc.tail == tail_series(order, p)
        dp = F(tc._dim_prec)
        assert tc.gf_dim_by_coset == {
            lab: dim_gf(oracle.theta_coset(ref.complement, shift, dp), dp)
            for lab, shift in ref.shift_table.items()}


class TestNegativeControls:
    def test_coords_outside_the_span(self):
        fixed = fixed_sublattice(spin_action(build_twist_element(3), "V"),
                                 e8_lattice())
        with pytest.raises(ValueError, match="not in the span"):
            oracle.coords_of(fixed, (0, 1, -1, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="not in the span"):
            oracle.coords_of(IntegralLattice([[1, 0, 0], [0, F(1, 2), 0]]),
                             [0, 0, 1])

    def test_gram_mismatch(self):
        e8 = e8_lattice()
        bad = [list(row) for row in e8.gram]
        bad[0][1] += 1
        with pytest.raises(ValueError, match="gram does not match"):
            IntegralLattice(e8.basis, bad)
        with pytest.raises(ValueError, match="gram does not match"):
            IntegralLattice([[F(1, 2), 0], [0, 1]], [[1, 0], [0, 1]])

    def test_degenerate_gram(self):
        lat = IntegralLattice([[1, 1], [2, 2]])
        for read in (lat.gram_inv, lat.dual, lat.level,
                     lambda: oracle.coords_of(lat, (1, 1))):
            with pytest.raises(SingularGram):
                read()

    def test_maps_that_do_not_preserve_e8(self):
        e8 = e8_lattice()
        double = [[2 * x for x in row] for row in mat_identity8()]
        assert matrix_action_on(e8, double) == \
            [[2 * x for x in row] for row in mat_identity8()]
        assert not oracle.preserves_lattice(e8, double)
        # an orthogonal map with entries 1/2 that sends (1/2, ..., 1/2) to
        # (1, 0, 0, 0, 1/2, 1/2, 1/2, 1/2), outside E8
        h = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        half = [[F(h[i][j], 2) if i < 4 and j < 4 else int(i == j)
                 for j in range(8)] for i in range(8)]
        assert not oracle.preserves_lattice(e8, half)
        with pytest.raises(ValueError, match="into itself"):
            matrix_action_on(e8, half)
        assert oracle.preserves_lattice(
            e8, fractions(spin_action(build_twist_element(7), "V")))

    def test_infinite_order(self):
        # a rotation with cosine 3/5 has infinite order
        rot = [[int(i == j) for j in range(8)] for i in range(8)]
        rot[0][0] = rot[1][1] = F(3, 5)
        rot[0][1], rot[1][0] = F(-4, 5), F(4, 5)
        for m in (rot, intlinalg.scaled(rot)):
            with pytest.raises(OrderExceedsCap):
                cycle_shape(m)

    @pytest.mark.parametrize("traces,match", [
        # tr(m^3) != tr(m), as no rational matrix of order 4 has: the trace
        # inversion gives shape 4^2, whose third power sum is 0, not 4
        ([0, 0, 4, 8], "not a product"),
        # shape 2^1 6^1 from the inversion, but tr(m^5) = 5, not tr(m) = 0:
        # an integral polynomial other than (x^2 - 1)(x^6 - 1)
        ([0, 2, 0, 2, 5, 8], "not a product"),
        # the identity on 7 coordinates: shape 1^7 has weight 7, not 8
        ([7], "not a product")])
    def test_characteristic_polynomial_check(self, monkeypatch, traces,
                                             match):
        monkeypatch.setattr(octonion, "_power_traces", lambda m, cap: traces)
        with pytest.raises(NotProductOfCyclotomicBlocks, match=match):
            cycle_shape(mat_identity8())

    def test_non_cyclotomic_traces(self):
        # a quarter turn has order 4 but is not a product of x^a - 1 blocks
        quarter = [[int(i == j) for j in range(8)] for i in range(8)]
        quarter[0][0] = quarter[1][1] = 0
        quarter[0][1], quarter[1][0] = -1, 1
        with pytest.raises(NotProductOfCyclotomicBlocks):
            cycle_shape(quarter)


@pytest.mark.parametrize("order", ORDERS)
def test_set_up_builds_no_fraction(monkeypatch, order):
    """fixed_sublattice, matrix_action_on and _power_traces run in ints:
    with Fraction replaced by a counting subclass in lattices, octonion and
    intlinalg, they build none, on a fresh E8 whose inverse, coordinate map
    and sublattice are computed under the patch."""
    u = build_twist_element(order)
    rho_v, rho_l = spin_action(u, "V"), spin_action(u, "L")
    readable = rho_L(u)
    e8 = e8_lattice()
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (lattices, octonion, intlinalg):
        monkeypatch.setattr(module, "Fraction", Counting)
    action = matrix_action_on(e8, rho_v)
    fixed = fixed_sublattice(rho_v, e8)
    traces = (_power_traces(rho_v, 64), _power_traces(rho_l, 64),
              _power_traces(readable, 64))
    assert made == []
    monkeypatch.undo()
    assert isinstance(fixed.scaled_basis, Scaled)
    ref = _oracle_setup(order)
    assert action == [[int(x) for x in row] for row in
                      oracle.matrix_action_on(ref.e8, ref.rho_v)]
    assert fixed.basis == ref.fixed.basis
    assert traces == (oracle._power_traces(ref.rho_v, 64),
                      oracle._power_traces(ref.rho_l, 64),
                      oracle._power_traces(ref.rho_l, 64))
