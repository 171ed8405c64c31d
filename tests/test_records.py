"""Value semantics of the record classes, which are namedtuple subclasses
(and one plain class) rather than dataclasses: reprs, ordering, equality,
hashing, immutability and validation stay as the dataclass forms gave them."""

import pytest

from superdenom.denom import IdentityReport
from superdenom.etaq import CycleShape, EtaQuotient
from superdenom.lattices import (DiscriminantGroup, IntegralLattice,
                                 LorentzianPoint)
from superdenom.octonion import SpinElement, basis_octonion


def _report(status):
    return IdentityReport(order=3, max_height=4, factor_count=10,
                          product_terms=20, status=status,
                          first_discrepancy=None, anisotropic_ok=True)


class TestLorentzianPoint:
    def test_repr(self):
        # error messages name a point by this text
        assert repr(LorentzianPoint((1, -2), 3, 0)) == \
            "LorentzianPoint(rcoords=(1, -2), m=3, n=0)"
        assert str(LorentzianPoint((), 1, 1)) == \
            "LorentzianPoint(rcoords=(), m=1, n=1)"

    def test_ordered_by_rcoords_then_m_then_n(self):
        points = [LorentzianPoint((0, 1), 0, 2), LorentzianPoint((0, 0), 2, 0),
                  LorentzianPoint((0, 0), 1, 1), LorentzianPoint((0, 0), 1, 0)]
        assert sorted(points) == [points[3], points[2], points[1], points[0]]
        assert LorentzianPoint((0, 0), 1, 0) < LorentzianPoint((0, 0), 1, 1)
        assert LorentzianPoint((-1, 5), 9, 9) <= LorentzianPoint((0, 0), 0, 0)

    def test_equality_and_hash(self):
        a, b = LorentzianPoint((1, 2), 1, 1), LorentzianPoint((1, 2), 1, 1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != LorentzianPoint((1, 2), 1, 2)
        assert a != LorentzianPoint((2, 1), 1, 1)
        assert hash(a) == hash(((1, 2), 1, 1))

    def test_keywords_and_fields(self):
        p = LorentzianPoint(rcoords=(3,), m=2, n=1)
        assert (p.rcoords, p.m, p.n, p.height) == ((3,), 2, 1, 3)
        assert p.multiply(2) == LorentzianPoint((6,), 4, 2)


@pytest.mark.parametrize("record, field", [
    (LorentzianPoint((0,), 1, 0), "m"),
    (EtaQuotient(((1, 8),)), "factors"),
    (CycleShape(((1, 8),)), "cycles"),
    (SpinElement((basis_octonion(1), basis_octonion(2))), "factors"),
], ids=["LorentzianPoint", "EtaQuotient", "CycleShape", "SpinElement"])
def test_frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    # no instance dict either: a new attribute is refused as well
    with pytest.raises(AttributeError):
        record.extra = 1


class TestValidation:
    @pytest.mark.parametrize("factors", [((2, 1), (2, 3)), ((0, 1),),
                                         ((-1, 2),)])
    def test_eta_quotient(self, factors):
        with pytest.raises(ValueError, match=r"^scales must be distinct "
                                             r"positive integers$"):
            EtaQuotient(factors)

    def test_cycle_shape(self):
        with pytest.raises(ValueError, match=r"^cycle lengths and "
                                             r"multiplicities must be "
                                             r"positive$"):
            CycleShape(((1, 0),))
        with pytest.raises(ValueError, match=r"^cycle lengths and "
                                             r"multiplicities must be "
                                             r"positive$"):
            CycleShape(((0, 2),))
        with pytest.raises(ValueError,
                           match=r"^cycle lengths must be distinct$"):
            CycleShape(((1, 2), (1, 3)))

    def test_spin_element(self):
        with pytest.raises(ValueError, match=r"^spin elements need an even "
                                             r"number of factors$"):
            SpinElement((basis_octonion(1),))
        with pytest.raises(ValueError,
                           match=r"^factors must have positive norm$"):
            SpinElement((basis_octonion(1), (0,) * 8))

    def test_valid_records_keep_their_fields(self):
        assert EtaQuotient(factors=((1, 8),)).factors == ((1, 8),)
        assert CycleShape(cycles=((1, 2), (3, 2))).label() == "1^23^2"
        assert EtaQuotient(((1, 8),)) == EtaQuotient(((1, 8),))
        assert hash(CycleShape(((1, 8),))) == hash(CycleShape(((1, 8),)))


class TestIdentityReport:
    def test_passed(self):
        assert _report("pass").passed
        assert not _report("fail").passed

    def test_fields_and_equality(self):
        r = _report("pass")
        assert (r.order, r.max_height, r.factor_count, r.product_terms,
                r.first_discrepancy, r.anisotropic_ok) == \
            (3, 4, 10, 20, None, True)
        assert r == _report("pass") and r != _report("fail")


class TestDiscriminantGroup:
    def test_equality_by_lattice_and_invariants(self):
        lat = IntegralLattice([[1, 0], [0, 2]])  # Gram diag(1, 4)
        g = lat.discriminant_group()
        assert (g.invariants, g.order) == ((4,), 4)
        assert g == DiscriminantGroup(lat, (4,))
        assert g != DiscriminantGroup(lat, (2, 2))
        # a lattice compares by identity, so a copy gives another group
        assert g != DiscriminantGroup(IntegralLattice([[1, 0], [0, 2]]),
                                      (4,))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(IntegralLattice([[2]]).discriminant_group())
