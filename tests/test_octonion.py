"""Octonion algebra, spin elements and the twist-element representations."""

import random
from fractions import Fraction

import pytest

from superdenom.arith import divisors, mobius
from superdenom.etaq import CycleShape
from superdenom.octonion import (REFERENCE_ACTIONS, IrrationalNormalizer,
                                 NotProductOfCyclotomicBlocks,
                                 OrderExceedsCap, SpinElement,
                                 basis_octonion,
                                 build_twist_element, cycle_shape,
                                 left_mult_matrix, mat_identity8, mat_mul8,
                                 mat_trace8, mat_vec8,
                                 matrix_order, oct_mul, oct_norm, octonion,
                                 permutation_matrix, rho_L, rho_R, rho_V,
                                 verify_triality)

F = Fraction


def _rand_oct(rng):
    return octonion([F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(8)])


class TestAlgebra:
    def test_identity_element(self):
        one = basis_octonion(0)
        x = octonion(range(8))
        assert oct_mul(one, x) == x and oct_mul(x, one) == x

    def test_imaginary_units_square_to_minus_one(self):
        for i in range(1, 8):
            e = basis_octonion(i)
            assert oct_mul(e, e) == tuple(-c for c in basis_octonion(0))

    def test_structure_triples(self):
        # e1 e2 = e3 from the first triple, antisymmetric
        e1, e2, e3 = (basis_octonion(i) for i in (1, 2, 3))
        assert oct_mul(e1, e2) == e3
        assert oct_mul(e2, e1) == tuple(-c for c in e3)

    def test_composition_law(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b = _rand_oct(rng), _rand_oct(rng)
            assert oct_norm(oct_mul(a, b)) == oct_norm(a) * oct_norm(b)

    def test_alternative_but_not_associative(self):
        rng = random.Random(11)
        for _ in range(10):
            a, b = _rand_oct(rng), _rand_oct(rng)
            assert oct_mul(a, oct_mul(a, b)) == oct_mul(oct_mul(a, a), b)
            assert oct_mul(oct_mul(a, b), b) == oct_mul(a, oct_mul(b, b))
        e1, e2, e4 = (basis_octonion(i) for i in (1, 2, 4))
        assert oct_mul(e1, oct_mul(e2, e4)) != oct_mul(oct_mul(e1, e2), e4)


class TestSpinElements:
    def test_even_factor_count_required(self):
        with pytest.raises(ValueError):
            SpinElement((basis_octonion(1),))

    def test_irrational_normalizer_detected(self):
        u = SpinElement((basis_octonion(1),
                         octonion([1, 1, 1, 0, 0, 0, 0, 0])))
        with pytest.raises(IrrationalNormalizer):
            u.spinor_normalizer()

    def test_normalizers(self):
        assert build_twist_element(3).spinor_normalizer() == F(1, 4)
        assert build_twist_element(7).spinor_normalizer() == F(1, 8)

    def test_representations_are_orthogonal(self):
        for order in (3, 7):
            u = build_twist_element(order)
            for rho in (rho_V(u), rho_L(u), rho_R(u)):
                rt = tuple(zip(*rho))
                assert mat_mul8(rho, rt) == mat_identity8()


class TestTwistElements:
    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_vector_action_matches_reference(self, order):
        rv = rho_V(build_twist_element(order))
        assert rv == permutation_matrix(REFERENCE_ACTIONS[order])

    @pytest.mark.parametrize("order,label", [(1, "1^8"), (3, "1^23^2"),
                                             (7, "1^17^1")])
    def test_orders_and_shapes(self, order, label):
        u = build_twist_element(order)
        for rho in (rho_V(u), rho_L(u), rho_R(u)):
            assert matrix_order(rho) == order
            assert cycle_shape(rho).label() == label

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_triality(self, order):
        rng = random.Random(3)
        samples = [(_rand_oct(rng), _rand_oct(rng)) for _ in range(5)]
        assert verify_triality(build_twist_element(order), samples)

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_spinor_traces_agree(self, order):
        u = build_twist_element(order)
        assert mat_trace8(rho_L(u)) == mat_trace8(rho_R(u))

    def test_order3_spin_reps_equal_vector_rep(self):
        u = build_twist_element(3)
        assert rho_L(u) == rho_V(u) == rho_R(u)

    def test_order7_spin_reps_differ_from_vector_rep(self):
        """Computed fact: for the order-7 element the spinor actions are NOT
        the printed permutation.  They cannot be: triality would then force
        the permutation to be an algebra automorphism, and it is not (e.g.
        it maps the product e1*e2 = e3 to e7*e1 = -e6, not to e2)."""
        u = build_twist_element(7)
        rv, rl, rr = rho_V(u), rho_L(u), rho_R(u)
        assert rl != rv and rr != rv and rl != rr
        # the permutation violates the automorphism property
        g = REFERENCE_ACTIONS[7]
        e = basis_octonion
        lhs = e(g[oct_mul(e(1), e(2)).index(1)])
        rhs = oct_mul(e(g[1]), e(g[2]))
        assert lhs != rhs

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            build_twist_element(5)


def _int_permutation_matrix(perm):
    """Plain-int 8x8 matrix sending e_i to e_{perm[i]}."""
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(8))
                 for i in range(8))


class TestSetupErrors:
    def test_order_exceeds_cap(self):
        with pytest.raises(OrderExceedsCap):
            matrix_order(rho_V(build_twist_element(7)), cap=6)

    def test_minus_identity_is_not_a_cycle_shape(self):
        with pytest.raises(NotProductOfCyclotomicBlocks):
            cycle_shape(tuple(tuple(-x for x in row)
                              for row in mat_identity8()))

    def test_cycle_shape_of_int_matrix(self):
        three_cycle = {i: i for i in range(8)} | {1: 2, 2: 3, 3: 1}
        m = _int_permutation_matrix(three_cycle)
        assert cycle_shape(m).label() == "1^53^1"

    @pytest.mark.parametrize("order", [1, 3, 7])
    def test_entries_and_traces_are_exact(self, order):
        u = build_twist_element(order)
        for rho in (rho_V(u), rho_L(u), rho_R(u)):
            for x in [x for row in rho for x in row] + [mat_trace8(rho)]:
                assert type(x) in (int, Fraction), (rho, x)


# ----------------------------------------------------------------------
# the single power loop against the three separate loops it replaced


def _ref_matrix_order(m, cap=64):
    ident = tuple(tuple(F(1 if i == j else 0) for j in range(8))
                  for i in range(8))
    p = m
    for k in range(1, cap + 1):
        if p == ident:
            return k
        p = mat_mul8(p, m)
    raise OrderExceedsCap(f"order exceeds cap {cap}")


def _ref_char_poly(m):
    p = []
    mk = m
    for _ in range(8):
        p.append(mat_trace8(mk))
        mk = mat_mul8(mk, m)
    e = [F(1)]
    for k in range(1, 9):
        s = F(0)
        for i in range(1, k + 1):
            s += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(s / k)
    return [(-1) ** k * e[k] for k in range(9)]


def _ref_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_cycle_shape(m):
    """Order, divisor traces and characteristic polynomial each from their
    own walk over the powers of m, all in Fraction arithmetic."""
    order = _ref_matrix_order(m)
    traces = {}
    mk = m
    for d in range(1, order + 1):
        if order % d == 0:
            traces[d] = mat_trace8(mk)
        mk = mat_mul8(mk, m)
    b = {}
    for a in divisors(order):
        ba = sum(mobius(a // d) * traces[d] for d in divisors(a)) / a
        if ba.denominator != 1 or ba < 0:
            raise NotProductOfCyclotomicBlocks(f"non-integral at {a}")
        if ba:
            b[a] = int(ba)
    shape = CycleShape(tuple(sorted(b.items())))
    target = [F(1)]
    for a, ba in shape.cycles:
        for _ in range(ba):
            target = _ref_poly_mul(target, [F(1)] + [F(0)] * (a - 1) + [F(-1)])
    if target != _ref_char_poly(m) or shape.weight != 8:
        raise NotProductOfCyclotomicBlocks("not a product of x^a - 1 blocks")
    return shape


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _cycle_type_matrices():
    """One permutation matrix per cycle type of S8."""
    out = []
    for parts in _partitions(8):
        perm, start = {}, 0
        for k in parts:
            for i in range(k):
                perm[start + i] = start + (i + 1) % k
            start += k
        out.append((parts, permutation_matrix(perm)))
    return out


def _shipped_matrices():
    return [(order, rho(build_twist_element(order)))
            for order in (1, 3, 7) for rho in (rho_V, rho_L, rho_R)]


class TestPowerLoopOracle:
    def test_cycle_types_of_s8(self):
        mats = _cycle_type_matrices()
        assert len(mats) == 22
        for parts, m in mats:
            ref_m = tuple(tuple(F(x) for x in row) for row in m)
            shape = _ref_cycle_shape(ref_m)
            assert sorted(parts) == sorted(a for a, b in shape.cycles
                                           for _ in range(b))
            assert matrix_order(m) == _ref_matrix_order(ref_m), parts
            assert cycle_shape(m) == shape, parts

    def test_shipped_matrices(self):
        mats = _shipped_matrices()
        assert len(mats) == 9
        for order, m in mats:
            ref_m = tuple(tuple(F(x) for x in row) for row in m)
            assert matrix_order(m) == _ref_matrix_order(ref_m) == order
            assert cycle_shape(m) == _ref_cycle_shape(ref_m)
