import random
from fractions import Fraction
from math import isqrt

import pytest

from grosslat import (
    AlgebraParams,
    Lattice,
    commutator_basis,
    extend_to_maximal,
    gross_map,
    is_order,
    lift_gross_basis,
    order_from_pair,
    order_form,
)
from grosslat.errors import (
    IntegralityError,
    LiftError,
    NotAnOrder,
    NotMaximal,
    RankError,
)
from grosslat.lattice import row_quaternion
from grosslat.linalg import det_fractions, det_int, is_prime, smallest_prime_factor
from grosslat.orders import Order, _adjoin, _enlarge_once, _integral_cosets

from conftest import (SATURATED_CASES, grid_seeds, least_algebra, random_order_element,
                      saturated_order)
from norm_scan import norm_p_ideal_by_scan
from saturation_scan import (
    adjoin_by_products,
    discriminant_by_gram,
    integral_cosets_by_scan,
    saturate_by_scan,
)

F = Fraction


def standard_lattice(algebra):
    return Lattice.from_generators(
        algebra, [algebra.one, algebra.i, algebra.j, algebra.k])


def integral_cosets(order, q):
    """_integral_cosets as quaternions: each row y is s * q times the coset."""
    scale = order.lattice.hnf[0]
    return [row_quaternion(order.algebra, y, scale * q) for y in _integral_cosets(order, q)]


def trace_form_discriminant(lattice):
    """Independent oracle: sqrt |det Trd(b_i * conj(b_j))| from scratch."""
    basis = lattice.basis
    rows = [[(u * v.conjugate()).reduced_trace() for v in basis] for u in basis]
    d = det_fractions(rows)
    assert d.denominator == 1
    n = abs(int(d))
    r = isqrt(n)
    assert r * r == n
    return r


def order_from_pair_by_quaternions(alpha, beta):
    """`order_from_pair` in Quaternion arithmetic: the checks and messages it raises."""
    if not alpha.is_integral():
        raise IntegralityError(f"{alpha} is not integral")
    if not beta.is_integral():
        raise IntegralityError(f"{beta} is not integral")
    prod = alpha * beta
    if prod.reduced_trace().denominator != 1:
        raise IntegralityError(f"Trd(alpha*beta) = {prod.reduced_trace()} is not an integer")
    lat = Lattice.from_generators(alpha.algebra, [alpha.algebra.one, alpha, beta, prod])
    if lat.rank != 4:
        raise RankError("1, alpha, beta, alpha*beta are linearly dependent")
    return Order(lat)


class TestIsOrder:
    def test_standard_lattice_is_order(self, alg19):
        assert is_order(standard_lattice(alg19))

    def test_half_i_is_not_integral(self, alg19):
        lat = Lattice.from_generators(
            alg19, [alg19.one, alg19.i / 2, alg19.j, alg19.k])
        assert not is_order(lat)

    @pytest.mark.parametrize("scalar, message", [
        (F(1, 2), "does not meet Q in exactly Z: it holds 1/2"),
        (F(1, 6), "does not meet Q in exactly Z: it holds 1/6"),
        (2, "does not contain 1"),
    ])
    def test_must_meet_q_in_z(self, alg19, scalar, message):
        # Z/n holds 1 but also the non-integral 1/n; 2Z misses 1
        lat = Lattice.from_generators(alg19, [scalar * alg19.one, alg19.i, alg19.j, alg19.k])
        assert not is_order(lat)
        with pytest.raises(NotAnOrder, match=message):
            Order(lat)

    def test_fixture_lattice_is_order(self, order_p11):
        assert is_order(order_p11.lattice)

    def test_rank_enforced(self, alg19):
        with pytest.raises(RankError):
            is_order(Lattice.from_generators(alg19, [alg19.one, alg19.i]))

    def test_constructor_rejects_non_closed(self, alg19):
        # j*k = 19i is an odd multiple of i, outside the span of 2i
        lat = Lattice.from_generators(
            alg19, [alg19.one, 2 * alg19.i, alg19.j, alg19.k])
        assert not is_order(lat)
        with pytest.raises(NotAnOrder):
            Order(lat)


class TestDiscriminant:
    def test_fixture_is_maximal(self, order_p11):
        assert order_p11.reduced_discriminant() == 11
        assert order_p11.is_maximal()

    def test_standard_lattice_p19(self, alg19):
        order = Order(standard_lattice(alg19))
        assert order.reduced_discriminant() == trace_form_discriminant(order.lattice) == 76
        assert not order.is_maximal()

    def test_matches_trace_form_oracle(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            assert order.reduced_discriminant() == trace_form_discriminant(order.lattice)

    def test_discriminant_grows_with_index(self, order_p11):
        one, a1, a2, a3 = order_p11.lattice.canonical_basis
        sub = Order(Lattice.from_generators(
            order_p11.algebra, [one, 2 * a1, 2 * a2, 2 * a3]))
        assert sub.reduced_discriminant() % order_p11.reduced_discriminant() == 0
        assert sub.reduced_discriminant() > order_p11.reduced_discriminant()


class TestPivotCovolume:
    """Rank-4 det() = (ap det H)^2 / s^8 against det_fractions of the Gram, and
    reduced_discriminant() = 4ap det(H) / s^4 against isqrt(det T)."""

    @staticmethod
    def check(order):
        lattice = order.lattice
        assert lattice.det() == det_fractions([list(row) for row in lattice.gram().entries])
        n = det_int(order.trace_gram())
        root = isqrt(n)
        assert root * root == n
        assert Order(lattice).reduced_discriminant() == order.reduced_discriminant() == root

    def test_fixtures(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            assert order.lattice.hnf[0] > 1
            self.check(order)

    @pytest.mark.parametrize("a, p, c1, c2", SATURATED_CASES)
    def test_saturated_cases(self, a, p, c1, c2):
        self.check(saturated_order(a, p, c1, c2))

    def test_grid_seeds_and_their_saturations(self):
        scaled = 0
        for seed in grid_seeds():
            maximal = extend_to_maximal(seed)
            self.check(seed)
            self.check(maximal)
            scaled += maximal.lattice.hnf[0] > 1
        assert scaled > 0


class TestOrderFromPair:
    def test_standard_generators(self, alg19):
        order = order_from_pair(alg19.i, alg19.j)
        assert order.lattice == standard_lattice(alg19)

    def test_counterexample_seed(self):
        algebra = AlgebraParams(1, 31)
        alpha = algebra.quat(F(31, 2), F(-31, 3), F(-7, 6), F(-2, 3))
        beta = 3 * algebra.i
        assert (alpha * beta).reduced_trace() == 62
        order = order_from_pair(alpha, beta)
        assert order.contains(alpha)

    def test_non_integral_pair_trace(self, alg11):
        alpha = (alg11.one + alg11.i) / 2
        beta = (alg11.one + alg11.j) / 2
        assert alpha.is_integral() and beta.is_integral()
        with pytest.raises(IntegralityError):
            order_from_pair(alpha, beta)

    def test_non_integral_element(self, alg11):
        with pytest.raises(IntegralityError):
            order_from_pair(alg11.i / 2, alg11.j)

    def test_dependent_generators(self, alg19):
        with pytest.raises(RankError):
            order_from_pair(alg19.i, 2 * alg19.i)

    @staticmethod
    def outcome(build, alpha, beta):
        """The HNF of the order build(alpha, beta) makes, or the class and message it raises."""
        try:
            return build(alpha, beta).lattice.hnf
        except (IntegralityError, RankError, NotAnOrder) as exc:
            return type(exc), str(exc)

    @classmethod
    def assert_matches_quaternion_route(cls, alpha, beta, seen):
        expected = cls.outcome(order_from_pair_by_quaternions, alpha, beta)
        assert cls.outcome(order_from_pair, alpha, beta) == expected, (alpha, beta)
        if not isinstance(expected[0], type):
            seen.add("order")
        elif expected[0] is IntegralityError:
            seen.add("Trd" if "Trd" in expected[1] else
                     "alpha" if expected[1] == f"{alpha} is not integral" else "beta")
        else:
            seen.add(expected[0].__name__)

    def test_integer_rows_match_quaternion_route(self, maximal_orders):
        """The orders and refusals of `order_from_pair` against the Quaternion
        route {1, alpha, beta, alpha*beta}: pairs of basis vectors and of random
        elements of maximal orders, scaled by 1/2 and 1/3 or made dependent."""
        rng = random.Random(160)
        seen = set()
        for order in maximal_orders:
            basis = order.lattice.canonical_basis
            for i in range(1, 4):
                for j in range(1, 4):
                    self.assert_matches_quaternion_route(basis[i], basis[j], seen)
            for _ in range(6):
                x, y = (random_order_element(rng, order, span=3) for _ in range(2))
                dx, dy = rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2, 3))
                for alpha, beta in ((x / dx, y / dy), (x, x * x), (x, 3 * x + 2)):
                    self.assert_matches_quaternion_route(alpha, beta, seen)
        # integral alpha, beta with integral Trd(alpha*beta) always span an order
        assert seen == {"order", "alpha", "beta", "Trd", "RankError"}

    def test_integer_rows_on_grid_seeds(self):
        """Z<c1 i, c2 j> for every prime p <= 47 and every (c1, c2) in 1..6."""
        for p in (q for q in range(2, 48) if is_prime(q)):
            algebra = least_algebra(p)
            for c1 in range(1, 7):
                for c2 in range(1, 7):
                    alpha, beta = c1 * algebra.i, c2 * algebra.j
                    expected = order_from_pair_by_quaternions(alpha, beta).lattice.hnf
                    assert order_from_pair(alpha, beta).lattice.hnf == expected


class TestExtendToMaximal:
    def test_p31_saturation(self, fixture_p31):
        algebra = fixture_p31.algebra
        alpha = fixture_p31.alpha
        seed = order_from_pair(alpha, 3 * algebra.i)
        maximal = extend_to_maximal(seed)
        assert maximal.reduced_discriminant() == 31
        assert maximal.contains(alpha)
        # reduced discriminant scales with the containment index
        assert seed.reduced_discriminant() == seed.lattice.index_in(maximal.lattice) * 31
        assert maximal.lattice == fixture_p31.order().lattice

    def test_already_maximal_unchanged(self, order_p11):
        assert extend_to_maximal(order_p11).lattice == order_p11.lattice

    def test_p19_saturation_contains_alpha(self, fixture_p19):
        algebra = fixture_p19.algebra
        alpha = fixture_p19.alpha
        maximal = extend_to_maximal(order_from_pair(alpha, algebra.i))
        assert maximal.reduced_discriminant() == 19
        assert maximal.contains(alpha)

    def test_standard_p19_lattice_saturates(self, alg19):
        maximal = extend_to_maximal(Order(standard_lattice(alg19)))
        assert maximal.reduced_discriminant() == 19


class TestPrimeAxis:
    """Saturation past the grid's p <= 47: every prime 53 <= p <= 199."""

    @pytest.mark.parametrize("c1, c2", [(1, 1), (2, 3)])
    def test_saturates_to_a_certified_maximal_order(self, c1, c2):
        for p in (q for q in range(53, 200) if is_prime(q)):
            algebra = least_algebra(p)
            maximal = extend_to_maximal(order_from_pair(c1 * algebra.i, c2 * algebra.j))
            assert maximal.reduced_discriminant() == p
            assert Order(maximal.lattice).reduced_discriminant() == p
            ideal = maximal.norm_p_ideal()
            assert commutator_basis(maximal) == ideal
            assert ideal.index_in(maximal.lattice) == p * p
            assert order_form(maximal)[0] == 4 * p


class TestSaturationMatchesScanOracle:
    """extend_to_maximal (integer coset test, integer closure) against the
    Fraction coset scan of tests/saturation_scan.py: same maximal order,
    basis for basis."""

    @pytest.mark.parametrize("a, p, c1, c2", SATURATED_CASES)
    def test_saturated_cases(self, a, p, c1, c2):
        algebra = AlgebraParams(a, p)
        seed = order_from_pair(c1 * algebra.i, c2 * algebra.j)
        expected = saturate_by_scan(seed.lattice).canonical_basis
        maximal = saturated_order(a, p, c1, c2)
        assert maximal.lattice.canonical_basis == expected
        # saturation builds its orders unchecked; the full check still passes
        assert Order(maximal.lattice).reduced_discriminant() == p

    def test_p31_fixture_path(self, fixture_p31):
        seed = order_from_pair(fixture_p31.alpha, 3 * fixture_p31.algebra.i)
        expected = saturate_by_scan(seed.lattice).canonical_basis
        assert extend_to_maximal(seed).lattice.canonical_basis == expected
        assert expected == fixture_p31.order().lattice.canonical_basis

    def test_seeded_grid(self):
        for seed in grid_seeds():
            maximal = extend_to_maximal(seed)
            expected = saturate_by_scan(seed.lattice)
            assert maximal.lattice.canonical_basis == expected.canonical_basis
            assert maximal.reduced_discriminant() == discriminant_by_gram(expected) \
                == Order(maximal.lattice).reduced_discriminant() == seed.algebra.p

    @pytest.mark.slow
    def test_whole_grid(self):
        """All 540 seeds: p <= 47 and c1, c2 in 1..6 (about 30 s; `pytest -m slow`)."""
        count = 0
        for seed in grid_seeds(per_prime=36):
            expected = saturate_by_scan(seed.lattice)
            assert extend_to_maximal(seed).lattice.canonical_basis == expected.canonical_basis
            count += 1
        assert count == 540

    def test_adjoin(self, alg19):
        """Each unchecked order from _adjoin is the oracle's closure and a full Order."""
        orders = [Order(standard_lattice(alg19))]
        orders += [seed for seed, _ in zip(grid_seeds(), range(9))]
        built = 0
        for order in orders:
            for q in (2, 3):
                for y, x in zip(_integral_cosets(order, q), integral_cosets(order, q)):
                    closed = _adjoin(order, y, q)
                    expected = adjoin_by_products(order.lattice, x)
                    assert (closed and closed.lattice) == expected
                    if closed is not None:
                        assert Order(closed.lattice).lattice == closed.lattice
                        built += 1
        assert built > 0

    def test_integral_cosets(self, alg19, order_p11, order_p31, order_p19, fixture_p31):
        """The scan solves the trace congruence for c_3: Trd(b_3) is 0 or 1,
        and there is one c_3 when it is 1, every c_3 or none when it is 0.
        Both branches are compared with the Fraction scan, at q = 5 and 13
        along the saturation of Z<alpha, 3i> to the shipped p31 order too,
        where each step contains the last order and divides its reduced
        discriminant by the index."""
        branches = set()

        def check(order, q):
            scale, rows = order.lattice.hnf
            assert 2 * rows[3][0] in (0, scale)
            branches.add((q, 2 * rows[3][0] // scale))
            assert integral_cosets(order, q) == integral_cosets_by_scan(order.lattice, q)

        orders = [Order(standard_lattice(alg19)), order_p11, order_p31, order_p19]
        orders += [seed for seed, _ in zip(grid_seeds(), range(12))]
        for k, order in enumerate(orders):
            for q in (2, 3, 5, 7) if k < 8 else (2, 3, 5):
                check(order, q)
        # (j + k)/2 has norm 38/4: 2 Nrd = 76 is 0 mod q^2 but not mod 2q^2
        assert (alg19.j + alg19.k) / 2 not in integral_cosets(orders[0], 2)
        order = order_from_pair(fixture_p31.alpha, 3 * fixture_p31.algebra.i)
        steps, discs = [], [order.reduced_discriminant()]
        while not order.is_maximal():
            q = smallest_prime_factor(order.reduced_discriminant() // 31)
            check(order, q)
            steps.append(q)
            enlarged = _enlarge_once(order, q)
            assert all(enlarged.contains(b) for b in order.lattice.basis)
            index = order.lattice.index_in(enlarged.lattice)
            assert order.reduced_discriminant() == enlarged.reduced_discriminant() * index
            order = enlarged
            discs.append(order.reduced_discriminant())
        assert steps == [5, 13] and order == fixture_p31.order()
        assert discs == [2015, 403, 31]
        assert {(7, 0), (7, 1), (5, 0), (13, 1)} <= branches

    def test_trace_gram(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            basis = order.lattice.canonical_basis
            expected = [[(u * v.conjugate()).reduced_trace() for v in basis] for u in basis]
            assert order.trace_gram() == expected


class TestGrossBasisConversion:
    def test_standard_lattice_basis(self, alg19):
        order = Order(standard_lattice(alg19))
        assert order.gross_basis() == (2 * alg19.i, 2 * alg19.j, 2 * alg19.k)

    def test_known_gross_basis_lift_is_maximal(self, alg11):
        b1 = alg11.i
        b2 = alg11.quat(0, F(1, 3), 1, F(-1, 3))
        b3 = alg11.quat(0, F(1, 3), 0, F(2, 3))
        order = lift_gross_basis(b1, b2, b3)
        # nrd 3, 15, 15: all parities forced to t = 1
        assert order.contains((1 + b1) / 2)
        assert order.contains((1 + b2) / 2)
        assert order.is_maximal()

    def test_round_trip_through_gross_lattice(self, order_p11, order_p19):
        for order in (order_p11, order_p19):
            lifted = lift_gross_basis(*order.gross_basis())
            assert lifted.gross_lattice() == order.gross_lattice()
            assert lifted.lattice == order.lattice

    def test_lift_rejects_bad_parity(self, alg19):
        # nrd(i) = 1 is 1 mod 4: neither t = 0 nor t = 1 lifts
        with pytest.raises(LiftError):
            lift_gross_basis(alg19.i, 2 * alg19.j, 2 * alg19.k)

    def test_lift_rejects_non_closed(self, alg19):
        with pytest.raises(LiftError):
            lift_gross_basis(2 * alg19.i, 2 * alg19.j, 4 * alg19.k)

    def test_lift_rejects_nonzero_trace(self, alg19):
        with pytest.raises(LiftError):
            lift_gross_basis(alg19.one + alg19.i, 2 * alg19.j, 2 * alg19.k)

    def test_normalized_basis_shape(self, maximal_orders, skewed_orders):
        for order in (*maximal_orders, *skewed_orders):
            one, a1, a2, a3 = order.lattice.canonical_basis
            assert one == order.algebra.one
            for a in (a1, a2, a3):
                assert 0 <= a.w < 1
            # the Gross lattice's HNF basis is the images, in order
            images = [gross_map(a) for a in (a1, a2, a3)]
            assert tuple(images) == order.gross_basis() == order.gross_lattice().basis


class TestNormPIdeal:
    def test_p11_index_and_membership(self, order_p11):
        ideal = order_p11.norm_p_ideal()
        assert ideal.index_in(order_p11.lattice) == 121
        assert ideal.contains(order_p11.algebra.scalar(11))

    def test_two_sided(self, order_p11):
        ideal = order_p11.norm_p_ideal()
        for g in ideal.basis:
            assert g.reduced_norm() % 11 == 0
            for b in order_p11.lattice.basis:
                assert ideal.contains(b * g)
                assert ideal.contains(g * b)

    def test_requires_maximal(self, alg19):
        order = Order(standard_lattice(alg19))
        with pytest.raises(NotMaximal):
            order.norm_p_ideal()

    def test_matches_scan_on_fixtures(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            ideal = order.norm_p_ideal()
            assert ideal == norm_p_ideal_by_scan(order) == commutator_basis(order)

    @pytest.mark.parametrize("a, p, c1, c2", SATURATED_CASES)
    def test_matches_scan_on_saturated_orders(self, a, p, c1, c2):
        order = saturated_order(a, p, c1, c2)
        ideal = order.norm_p_ideal()
        assert ideal == norm_p_ideal_by_scan(order) == commutator_basis(order)
        assert ideal.index_in(order.lattice) == p * p


class TestClosureSampling:
    def test_random_products_stay_inside(self, order_p11):
        rng = random.Random(301)
        basis = order_p11.lattice.basis
        for _ in range(25):
            x = sum((rng.randint(-4, 4) * b for b in basis), order_p11.algebra.quat())
            y = sum((rng.randint(-4, 4) * b for b in basis), order_p11.algebra.quat())
            assert order_p11.contains(x * y)
            assert (x * y).is_integral()
