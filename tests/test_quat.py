import random
from fractions import Fraction
from math import isqrt

import pytest

from grosslat import AlgebraParams, commutator, gross_map, inner
from grosslat.errors import AlgebraMismatch, LimitExceeded, MalformedInput, RamificationError
from grosslat.linalg import PRIME_TEST_LIMIT, is_prime
from grosslat.quat import A_LIMIT, ramified_places

from conftest import SATURATED_CASES, random_quat

F = Fraction


class TestMultiplicationTable:
    def test_ij_is_k(self, alg11):
        assert alg11.i * alg11.j == alg11.k

    def test_i_squared(self, alg11):
        assert alg11.i * alg11.i == alg11.scalar(-3)

    def test_ji_anticommutes(self, alg11):
        assert alg11.j * alg11.i == -alg11.k

    def test_associativity_randomized(self, alg11, alg19):
        rng = random.Random(101)
        for algebra in (alg11, alg19):
            for _ in range(50):
                x, y, z = (random_quat(rng, algebra) for _ in range(3))
                assert (x * y) * z == x * (y * z)

    def test_mismatched_algebras(self, alg11, alg19):
        with pytest.raises(AlgebraMismatch):
            alg11.i * alg19.i
        with pytest.raises(AlgebraMismatch):
            inner(alg11.i, alg19.i)
        with pytest.raises(AlgebraMismatch):
            commutator(alg11.i, alg19.j)


class TestConjugation:
    def test_basic(self, alg11):
        assert (1 + alg11.i).conjugate() == 1 - alg11.i

    def test_scalars_fixed(self, alg11):
        assert alg11.scalar(5).conjugate() == alg11.scalar(5)

    def test_anti_automorphism(self, alg11):
        rng = random.Random(102)
        for _ in range(30):
            x, y = random_quat(rng, alg11), random_quat(rng, alg11)
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()

    def test_involution(self, alg19):
        rng = random.Random(103)
        for _ in range(20):
            x = random_quat(rng, alg19)
            assert x.conjugate().conjugate() == x


class TestTraceAndNorm:
    def test_counterexample_elements(self, alg11, alg19):
        a11 = alg11.quat(F(11, 2), F(11, 2))
        assert a11.reduced_trace() == 11
        assert a11.reduced_norm() == 121

        a31 = AlgebraParams(1, 31).quat(F(31, 2), F(-31, 3), F(-7, 6), F(-2, 3))
        assert a31.reduced_trace() == 31
        assert a31.reduced_norm() == 403

        a19 = alg19.quat(F(19, 2), F(-19, 2), F(-1, 2), F(-1, 2))
        assert a19.reduced_trace() == 19
        assert a19.reduced_norm() == 190

    def test_norm_is_multiplicative(self, alg11):
        rng = random.Random(104)
        for _ in range(40):
            x, y = random_quat(rng, alg11), random_quat(rng, alg11)
            assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()

    def test_trace_is_symmetric(self, alg19):
        rng = random.Random(105)
        for _ in range(40):
            x, y = random_quat(rng, alg19), random_quat(rng, alg19)
            assert (x * y).reduced_trace() == (y * x).reduced_trace()

    def test_cayley_hamilton(self, alg11):
        rng = random.Random(106)
        zero = alg11.quat()
        for _ in range(40):
            x = random_quat(rng, alg11)
            assert x * x - x.reduced_trace() * x + x.reduced_norm() == zero


class TestInnerProduct:
    def test_values(self, alg11):
        assert inner(alg11.i, alg11.i) == 3
        assert inner(alg11.one, alg11.i) == 0
        b1 = alg11.i
        b2 = alg11.quat(0, F(1, 3), 1, F(-1, 3))
        assert inner(b1, b2) == 1

    def test_matches_half_trace(self, alg11):
        rng = random.Random(107)
        for _ in range(30):
            x, y = random_quat(rng, alg11), random_quat(rng, alg11)
            assert inner(x, y) == (x * y.conjugate()).reduced_trace() / 2
            assert inner(x, x) == x.reduced_norm()


class TestGrossMap:
    def test_kills_scalars(self, alg11):
        assert gross_map(alg11.scalar(F(7, 3))) == alg11.quat()

    def test_linearity_example(self, alg11):
        assert gross_map(alg11.quat(3, 2)) == alg11.quat(0, 4)

    def test_halved_lift(self, alg19):
        rng = random.Random(108)
        for _ in range(20):
            q = random_quat(rng, alg19)
            beta = gross_map(q)  # trace zero by construction
            assert gross_map((1 + beta) / 2) == beta

    def test_trace_and_norm_relations(self, alg11):
        rng = random.Random(109)
        for _ in range(40):
            x = random_quat(rng, alg11)
            t = gross_map(x)
            assert t.reduced_trace() == 0
            assert t.reduced_norm() == 4 * x.reduced_norm() - x.reduced_trace() ** 2


class TestCommutator:
    def test_self_bracket_vanishes(self, alg11):
        rng = random.Random(110)
        x = random_quat(rng, alg11)
        assert commutator(x, x) == alg11.quat()

    def test_ij_bracket(self, alg11):
        assert commutator(alg11.i, alg11.j) == 2 * alg11.k

    def test_antisymmetric_and_traceless(self, alg19):
        rng = random.Random(111)
        for _ in range(30):
            x, y = random_quat(rng, alg19), random_quat(rng, alg19)
            b = commutator(x, y)
            assert b == -commutator(y, x)
            assert b.reduced_trace() == 0

    def test_gross_image_brackets_quadruple(self, alg11):
        # [tau(x), tau(y)] = 4 [x, y], the bracket identity behind the
        # trace-zero basis of the commutator ideal
        rng = random.Random(112)
        for _ in range(30):
            x, y = random_quat(rng, alg11), random_quat(rng, alg11)
            assert commutator(gross_map(x), gross_map(y)) == 4 * commutator(x, y)


class TestConstruction:
    def test_algebra_validation(self):
        with pytest.raises(ValueError):
            AlgebraParams(0, 11)
        with pytest.raises(ValueError):
            AlgebraParams(1, 15)

    def test_refuses_algebras_not_ramified_at_p(self):
        # (-1, -5) and (-1, -13) split at p and ramify at 2 instead
        for p in (5, 13):
            assert ramified_places(1, p) == {0, 2}
            with pytest.raises(RamificationError):
                AlgebraParams(1, p)
        assert ramified_places(1, 17) == {0, 2}
        # primes dividing a can ramify too, by the product formula in pairs
        assert ramified_places(3, 7) == {0, 3}
        assert ramified_places(5, 13) == {0, 2, 5, 13}
        # p | a: (-7, -7)_7 = (-1)^((7-1)/2) (-1/7)^2 = -1
        assert ramified_places(7, 7) == {0, 7}
        assert ramified_places(1, 2) == {0, 2}

    def test_accepts_fixture_and_saturated_algebras(self):
        for a, p in [(3, 11), (1, 31), (1, 19)] + [(a, p) for a, p, _, _ in SATURATED_CASES]:
            assert ramified_places(a, p) == {0, p}
            assert AlgebraParams(a, p).p == p

    def test_size_caps(self):
        # 10^18 + 3 is prime; trial division would need about 10^9 / 3 steps
        assert AlgebraParams(1, 10**18 + 3).p == 10**18 + 3
        with pytest.raises(LimitExceeded):
            AlgebraParams(1, PRIME_TEST_LIMIT)
        with pytest.raises(LimitExceeded):
            AlgebraParams(A_LIMIT + 1, 11)

    def test_coordinate_with_zero_denominator(self, alg11):
        for bad in ("1/0", "0/0", "x"):
            with pytest.raises(MalformedInput):
                alg11.from_coord_strings([bad, "0", "0", "0"])

    def test_coord_strings_round_trip(self, alg11):
        q = alg11.quat(F(11, 2), F(11, 2))
        assert q.to_coord_strings() == ["11/2", "11/2", "0", "0"]
        assert alg11.from_coord_strings(["11/2", "11/2", "0", "0"]) == q

    def test_scalar_operators(self, alg11):
        q = alg11.quat(1, 2, 3, 4)
        assert 2 * q == q + q
        assert q / 2 + q / 2 == q
        assert 1 + q - 1 == q


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


class TestPrimality:
    def test_matches_trial_division(self):
        assert [n for n in range(-3, 10**5) if is_prime(n)] \
            == [n for n in range(-3, 10**5) if is_prime_by_trial_division(n)]

    def test_strong_pseudoprimes(self):
        # psi_1, ..., psi_12: the least strong pseudoprimes to the first k prime
        # bases (psi_7 = psi_8 and psi_9 = psi_10 = psi_11)
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        assert is_prime(2**61 - 1) and is_prime(10**18 + 3)

    def test_refuses_above_the_proved_bound(self):
        assert not is_prime(PRIME_TEST_LIMIT - 1)
        with pytest.raises(LimitExceeded):
            is_prime(PRIME_TEST_LIMIT)
