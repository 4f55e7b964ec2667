import random
from fractions import Fraction

import pytest

from grosslat import Lattice, commutator, commutator_basis, trace_zero_commutator_basis
from grosslat.errors import NotMaximal
from grosslat.linalg import solve_left
from grosslat.orders import Order

from conftest import random_order_element

F = Fraction


class TestBracketBasis:
    def test_index_p_squared(self, order_p11, order_p19):
        for order in (order_p11, order_p19):
            lat = commutator_basis(order)
            assert lat.rank == 4
            assert lat.index_in(order.lattice) == order.algebra.p ** 2

    def test_equals_norm_ideal(self, order_p11, order_p19):
        for order in (order_p11, order_p19):
            assert commutator_basis(order) == order.norm_p_ideal()

    def test_contains_random_brackets(self, order_p11):
        rng = random.Random(401)
        lat = commutator_basis(order_p11)
        for _ in range(25):
            x = random_order_element(rng, order_p11)
            y = random_order_element(rng, order_p11)
            assert lat.contains(commutator(x, y))

    def test_requires_maximal(self, alg19):
        order = Order(Lattice.from_generators(
            alg19, [alg19.one, alg19.i, alg19.j, alg19.k]))
        with pytest.raises(NotMaximal):
            commutator_basis(order)
        with pytest.raises(NotMaximal):
            trace_zero_commutator_basis(order)

    def test_norm_divisible_by_p(self, order_p11):
        rng = random.Random(402)
        lat = commutator_basis(order_p11)
        for _ in range(20):
            x = order_p11.algebra.quat()
            for b in lat.basis:
                x = x + rng.randint(-3, 3) * b
            assert x.reduced_norm() % 11 == 0


class TestTraceZeroBasis:
    def test_elements_have_trace_zero(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            for e in trace_zero_commutator_basis(order):
                assert e.reduced_trace() == 0

    def test_matches_order_basis_brackets(self, order_p11, order_p19):
        # (b_i b_j - b_j b_i)/4 = [a_i, a_j] for the lifted order basis
        for order in (order_p11, order_p19):
            _, a1, a2, a3 = order.lattice.canonical_basis
            triple = trace_zero_commutator_basis(order)
            assert triple[0] == commutator(a1, a2)
            assert triple[1] == commutator(a1, a3)
            assert triple[2] == commutator(a2, a3)

    def test_known_element_in_span(self, order_p11):
        target = order_p11.algebra.quat(0, 0, F(-1, 2), F(-1, 2))
        assert target.reduced_trace() == 0
        assert target.reduced_norm() == 11
        triple = trace_zero_commutator_basis(order_p11)
        sol = solve_left([list(e.coords) for e in triple], list(target.coords))
        assert sol is not None
        assert all(c.denominator == 1 for c in sol)

    def test_span_both_ways(self, order_p11):
        rng = random.Random(403)
        lat = commutator_basis(order_p11)
        triple = trace_zero_commutator_basis(order_p11)
        rows = [list(e.coords) for e in triple]
        # random integer combos of the triple are trace-zero members of the ideal
        for _ in range(20):
            x = order_p11.algebra.quat()
            for e in triple:
                x = x + rng.randint(-5, 5) * e
            assert x.reduced_trace() == 0
            assert lat.contains(x)
        # and trace-zero members of the ideal have integer coords in the triple
        found = 0
        for _ in range(200):
            x = order_p11.algebra.quat()
            for b in lat.basis:
                x = x + rng.randint(-4, 4) * b
            if x.reduced_trace() != 0:
                continue
            found += 1
            sol = solve_left(rows, list(x.coords))
            assert sol is not None and all(c.denominator == 1 for c in sol)
        assert found > 0

    def test_integer_brackets_match_fraction_products(self, maximal_orders):
        for order in maximal_orders:
            _, a1, a2, a3 = order.lattice.canonical_basis
            c23 = commutator(a2, a3)
            brackets = [commutator(a1, a2), commutator(a1, a3), c23, a1 * c23]
            assert commutator_basis(order) == Lattice.from_generators(order.algebra, brackets)
            b1, b2, b3 = order.gross_basis()
            assert trace_zero_commutator_basis(order) == (
                (b1 * b2 - b2 * b1) / 4, (b1 * b3 - b3 * b1) / 4, (b2 * b3 - b3 * b2) / 4)

    def test_fourth_generator_has_nonzero_trace(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            _, a1, a2, a3 = order.lattice.canonical_basis
            assert (a1 * commutator(a2, a3)).reduced_trace() != 0
