import random
from fractions import Fraction
from math import isqrt

import pytest

from grosslat import correspond
from grosslat import (
    TernaryForm,
    endo_to_sublattice,
    inner,
    pair_determinant,
    plucker_lift,
    search_elements,
    sublattice_to_endo,
    trace_zero_commutator_basis,
)
from grosslat.errors import DegeneratePair, MembershipError, NormError, TraceError
from grosslat.forms import representations
from grosslat.linalg import det_fractions

from conftest import SATURATED_CASES, saturated_order

F = Fraction


def gross_vector(order, rng, span=4):
    b = order.gross_basis()
    v = order.algebra.quat()
    for e in b:
        v = v + rng.randint(-span, span) * e
    return v


class TestSublatticeToEndo:
    def test_reference_pair(self, order_p11):
        A = order_p11.algebra
        g1 = A.i
        g2 = A.quat(0, F(1, 3), 1, F(-1, 3))
        alpha = sublattice_to_endo(order_p11, g1, g2)
        assert alpha == A.quat(0, 0, F(-1, 2), F(-1, 2))
        assert alpha.reduced_trace() == 0
        assert alpha.reduced_norm() == 11
        assert pair_determinant(g1, g2) == 44

    def test_dependent_pair(self, order_p11):
        g = order_p11.gross_basis()[0]
        with pytest.raises(DegeneratePair):
            sublattice_to_endo(order_p11, g, 3 * g)

    def test_membership_enforced(self, order_p11):
        A = order_p11.algebra
        with pytest.raises(MembershipError):
            sublattice_to_endo(order_p11, A.i / 5, A.j)

    def test_random_pairs_land_in_order(self, order_p11, order_p19):
        rng = random.Random(501)
        for order in (order_p11, order_p19):
            produced = 0
            while produced < 15:
                g1, g2 = gross_vector(order, rng), gross_vector(order, rng)
                det = pair_determinant(g1, g2)
                if det == 0:
                    continue
                produced += 1
                alpha = sublattice_to_endo(order, g1, g2)
                assert alpha.reduced_trace() == 0
                assert order.contains(alpha)
                assert alpha.reduced_norm() == det / 4


class TestPluckerLift:
    def test_a1_a2_zero_branch(self):
        c = plucker_lift(0, 0, 5)
        assert c.rows == ((0, 5, 0), (0, 0, -1))
        assert c.minors() == (0, 0, 5)

    def test_gcd_branch(self):
        c = plucker_lift(1, 0, 0)
        assert c.rows == ((1, 0, 0), (0, -1, 0))
        assert c.minors() == (1, 0, 0)

    def test_zero_triple(self):
        c = plucker_lift(0, 0, 0)
        assert c.rows == ((0, 0, 0), (0, 0, 0))
        assert c.minors() == (0, 0, 0)

    def test_exhaustive_small_range(self):
        for a1 in range(-6, 7):
            for a2 in range(-6, 7):
                for a3 in range(-6, 7):
                    assert plucker_lift(a1, a2, a3).minors() == (a1, a2, a3)


class TestEndoToSublattice:
    def test_reference_round_trip(self, order_p11):
        A = order_p11.algebra
        alpha = A.quat(0, 0, F(-1, 2), F(-1, 2))
        pair = endo_to_sublattice(order_p11, alpha)
        assert pair.det() == 44
        assert sublattice_to_endo(order_p11, pair.gamma1, pair.gamma2) == alpha

    def test_trace_error(self, order_p11):
        alpha = order_p11.algebra.quat(F(11, 2), F(11, 2))
        assert order_p11.contains(alpha)
        with pytest.raises(TraceError):
            endo_to_sublattice(order_p11, alpha)

    def test_norm_error(self, order_p11):
        # i is in the order (it is 2*(1+i)/2 - 1) with Nrd 3, prime to 11
        i = order_p11.algebra.i
        assert order_p11.contains(i)
        with pytest.raises(NormError):
            endo_to_sublattice(order_p11, i)

    def test_membership_error(self, order_p11):
        with pytest.raises(MembershipError):
            endo_to_sublattice(order_p11, order_p11.algebra.i / 7)

    def test_zero_element_refused(self, order_p11, order_p19):
        for order in (order_p11, order_p19):
            with pytest.raises(DegeneratePair, match="zero element"):
                endo_to_sublattice(order, order.algebra.quat())

    def test_round_trip_randomized(self, order_p11, order_p19):
        rng = random.Random(502)
        for order in (order_p11, order_p19):
            triple = trace_zero_commutator_basis(order)
            for _ in range(30):
                alpha = order.algebra.quat()
                for e in triple:
                    alpha = alpha + rng.randint(-5, 5) * e
                if not alpha:
                    continue
                pair = endo_to_sublattice(order, alpha)
                assert pair.det() == 4 * alpha.reduced_norm()
                assert sublattice_to_endo(order, pair.gamma1, pair.gamma2) == alpha


def brute_force_elements(order, trace, norm):
    """Independent oracle: box-enumerate coordinates with bounds from G^-1."""
    basis = order.lattice.basis
    gram = [[(u * v.conjugate()).reduced_trace() / 2 for v in basis] for u in basis]
    traces = [b.reduced_trace() for b in basis]
    det = det_fractions(gram)
    found = []
    bounds = []
    for i in range(4):
        minor = [[gram[r][c] for c in range(4) if c != i] for r in range(4) if r != i]
        bound = norm * det_fractions(minor) / det
        bounds.append(isqrt(bound.numerator // bound.denominator) + 1)
    for c0 in range(-bounds[0], bounds[0] + 1):
        for c1 in range(-bounds[1], bounds[1] + 1):
            for c2 in range(-bounds[2], bounds[2] + 1):
                for c3 in range(-bounds[3], bounds[3] + 1):
                    c = (c0, c1, c2, c3)
                    if sum(ci * ti for ci, ti in zip(c, traces)) != trace:
                        continue
                    q = sum(c[r] * c[s] * gram[r][s] for r in range(4) for s in range(4))
                    if q == norm:
                        x = (c0 * basis[0] + c1 * basis[1]
                             + c2 * basis[2] + c3 * basis[3])
                        found.append(x)
    found.sort(key=lambda q: q.coords)
    return found


class TestSearchElements:
    def test_trace_zero_norm_p(self, order_p11):
        A = order_p11.algebra
        found = search_elements(order_p11, 0, 11)
        assert A.quat(0, 0, F(-1, 2), F(-1, 2)) in found
        assert A.quat(0, 0, F(1, 2), F(1, 2)) in found

    def test_zero(self, order_p11):
        assert search_elements(order_p11, 0, 0) == [order_p11.algebra.quat()]

    def test_counterexample_element_found(self, order_p11):
        A = order_p11.algebra
        found = search_elements(order_p11, 11, 121)
        assert A.quat(F(11, 2), F(11, 2)) in found

    def test_agrees_with_box_oracle(self, order_p11):
        for trace, norm in ((0, 11), (0, 12), (1, 4), (2, 5), (11, 121), (0, 33)):
            assert search_elements(order_p11, trace, norm) == \
                brute_force_elements(order_p11, trace, norm)

    def test_impossible_trace_norm(self, order_p11):
        # 4n - t^2 < 0 has no solutions in a definite algebra
        assert search_elements(order_p11, 7, 3) == []
        # odd trace cannot come from the scalar branch
        assert search_elements(order_p11, 3, 2) == []


def half_lifts(order, trace, norm):
    """Every (trace + g)/2 for g in the Gross lattice with Nrd(g) = 4*norm - trace^2."""
    target = 4 * norm - trace * trace
    if norm < 0 or target < 0:
        return []
    if target == 0:
        return [order.algebra.scalar(F(trace, 2))]
    b = order.gross_basis()
    return [(trace + c1 * b[0] + c2 * b[1] + c3 * b[2]) / 2
            for c1, c2, c3 in representations(fraction_gross_form(order), target)]


def fraction_gross_form(order):
    """The Gross form from Fraction inner products of the Gross basis."""
    b = order.gross_basis()
    return TernaryForm.from_gram([[inner(u, v) for v in b] for u in b])


def test_gross_form_read_off_trace_gram(maximal_orders, monkeypatch):
    """search_elements enumerates on 2 T_ij - T_0i T_0j, the Fraction Gross Gram."""
    forms = []

    def record(form, n):
        forms.append(form)
        return iter(())

    monkeypatch.setattr(correspond, "representations", record)
    for order in maximal_orders:
        assert search_elements(order, 0, order.algebra.p) == []
        assert forms.pop() == fraction_gross_form(order)


@pytest.fixture(scope="module")
def saturated_orders():
    return [saturated_order(*case) for case in SATURATED_CASES]


class TestSearchMatchesMembershipOracle:
    """search_elements (parity, no membership query) equals the order.contains filter.

    The filter never rejects: Nrd(g) = 4*norm - trace^2 already puts every
    half-lift in the order, which is why the parity check in search_elements
    is a consistency check and not a filter.
    """

    def assert_matches(self, order):
        p = order.algebra.p
        for trace in (0, 1, 2, p):
            least = (trace * trace + 3) // 4
            found = 0
            for norm in range(least, least + 2 * p + 10):
                lifts = half_lifts(order, trace, norm)
                expected = sorted((x for x in lifts if order.contains(x)), key=lambda q: q.coords)
                assert search_elements(order, trace, norm) == expected, (p, trace, norm)
                assert len(expected) == len(lifts), (p, trace, norm)
                found += len(expected)
            assert found, (p, trace)

    def test_fixture_orders(self, order_p11, order_p19, order_p31):
        for order in (order_p11, order_p19, order_p31):
            self.assert_matches(order)

    def test_saturated_orders(self, saturated_orders):
        for order in saturated_orders:
            self.assert_matches(order)
