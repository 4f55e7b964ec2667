"""Fraction-free elimination (det_int, adjugate) against cofactor expansion."""

import random

import pytest

from grosslat.linalg import adjugate, det_int

from cofactor import adjugate_by_cofactors, det_by_cofactors


def matmul(u, v):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)] for row in u]


def random_matrix(rng, n):
    """A random n x n integer matrix; a third of them singular, a third with
    a zero in the leading corner, entries up to 10^6 now and then."""
    span = rng.choice([1, 3, 9, 10**6])
    m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 0 and n >= 2:
        # the last row a combination of two others
        i, j = rng.sample(range(n - 1), 2) if n >= 3 else (0, 0)
        m[-1] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(m[i], m[j])]
    elif kind == 1 and n >= 1:
        m[0][0] = 0
    return m


class TestBareiss:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_against_cofactors(self, n):
        rng = random.Random(300 + n)
        seen = set()
        for _ in range(400):
            m = random_matrix(rng, n)
            before = [list(row) for row in m]
            det = det_by_cofactors(m)
            assert det_int(m) == det, m
            if det == 0:
                seen.add("singular")
                with pytest.raises(ValueError):
                    adjugate(m)
                continue
            seen.add("negative" if det < 0 else "positive")
            if n and m[0][0] == 0:
                seen.add("zero leading pivot")
            assert adjugate(m) == (det, adjugate_by_cofactors(m)), m
            adj = adjugate(m)[1]
            scalar = [[det * (i == j) for j in range(n)] for i in range(n)]
            assert matmul(m, adj) == matmul(adj, m) == scalar
            assert m == before
        expected = {"positive"}
        if n >= 1:
            expected |= {"negative", "singular"}
        if n >= 2:
            expected.add("zero leading pivot")
        assert expected <= seen

    @pytest.mark.parametrize("m, det, adj", [
        ([], 1, []),
        ([[-7]], -7, [[1]]),
        ([[0, 1], [1, 0]], -1, [[0, -1], [-1, 0]]),
        # every step needs a swap: the anti-diagonal permutation of size 4
        ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1,
         [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
        # the leading 2 x 2 minor vanishes, so the swap comes at the second step
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1, [[0, -1, 1], [-1, 1, -1], [1, -1, 0]]),
    ])
    def test_known_values(self, m, det, adj):
        assert det_int(m) == det_by_cofactors(m) == det
        assert adjugate(m) == (det, adjugate_by_cofactors(m)) == (det, adj)

    def test_trace_grams_of_maximal_orders(self, maximal_orders):
        """The matrices `Order.norm_p_ideal` eliminates: det T = p^2."""
        for order in maximal_orders:
            gram = order.trace_gram()
            assert det_int(gram) == det_by_cofactors(gram) == order.algebra.p ** 2
            assert adjugate(gram) == (order.algebra.p ** 2, adjugate_by_cofactors(gram))
