import random
from fractions import Fraction
from itertools import product

import pytest

from grosslat import AlgebraParams, extend_to_maximal, load_fixture, order_from_pair
from grosslat.errors import RamificationError
from grosslat.linalg import is_prime

# (a, p, c1, c2): saturate the order generated by c1*i and c2*j.  -a is a
# non-square mod p, with one or two p per residue class: 3 mod 4 (7, 23),
# 5 mod 8 (5, 13, 29) and 1 mod 8 (17, where (17/3) = -1).
SATURATED_CASES = [
    (2, 5, 1, 1), (1, 7, 2, 1), (2, 13, 1, 2),
    (3, 17, 1, 1), (1, 23, 1, 3), (2, 29, 2, 1),
]


def saturated_order(a, p, c1, c2):
    algebra = AlgebraParams(a, p)
    return extend_to_maximal(order_from_pair(c1 * algebra.i, c2 * algebra.j))


def least_algebra(p):
    """AlgebraParams(a, p) for the least a that ramifies exactly at {p, infinity}."""
    a = 1
    while True:
        try:
            return AlgebraParams(a, p)
        except RamificationError:
            a += 1


def grid_seeds(per_prime: int = 3):
    """Z<c1 i, c2 j> for every prime p <= 47 and per_prime seeded (c1, c2) in
    1..6 each; per_prime = 36 is the whole grid of 540 seeds."""
    rng = random.Random(505)
    pairs = list(product(range(1, 7), repeat=2))
    for p in (q for q in range(2, 48) if is_prime(q)):
        algebra = least_algebra(p)
        for c1, c2 in rng.sample(pairs, per_prime):
            yield order_from_pair(c1 * algebra.i, c2 * algebra.j)


@pytest.fixture(scope="session")
def alg11():
    return AlgebraParams(3, 11)


@pytest.fixture(scope="session")
def alg19():
    return AlgebraParams(1, 19)


@pytest.fixture(scope="session")
def fixture_p11():
    return load_fixture("p11")


@pytest.fixture(scope="session")
def fixture_p31():
    return load_fixture("p31")


@pytest.fixture(scope="session")
def fixture_p19():
    return load_fixture("p19")


@pytest.fixture(scope="session")
def order_p11(fixture_p11):
    return fixture_p11.order()


@pytest.fixture(scope="session")
def order_p31(fixture_p31):
    return fixture_p31.order()


@pytest.fixture(scope="session")
def order_p19(fixture_p19):
    return fixture_p19.order()


@pytest.fixture(scope="session")
def maximal_orders(order_p11, order_p19, order_p31):
    """The shipped orders, SATURATED_CASES and the saturations of the grid seeds."""
    return ([order_p11, order_p19, order_p31]
            + [saturated_order(*case) for case in SATURATED_CASES]
            + [extend_to_maximal(seed) for seed in grid_seeds()])


def random_quat(rng: random.Random, algebra, span: int = 8, dens=(1, 1, 2, 3, 6)):
    def coord():
        return Fraction(rng.randint(-span, span), rng.choice(dens))
    return algebra.quat(coord(), coord(), coord(), coord())


def random_order_element(rng: random.Random, order, span: int = 5):
    x = order.algebra.quat()
    for b in order.lattice.basis:
        x = x + rng.randint(-span, span) * b
    return x


def random_unimodular(rng, n):
    """Product of random integer shears and row swaps; determinant +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return rows
