"""Integer greedy reduction against the Fraction oracle of tests/fraction_reduce.py."""

import random
from fractions import Fraction
from itertools import product

import pytest

from grosslat import Lattice, TernaryForm, canonical_reduced_form, extend_to_maximal
from grosslat import reduction
from grosslat.forms import order_form
from grosslat.linalg import det_int
from grosslat.reduction import greedy_reduce

from conftest import SATURATED_CASES, grid_seeds, random_unimodular, saturated_order
from fraction_reduce import (
    canonical_form_by_fractions,
    greedy_reduce_by_fractions,
    minkowski_by_fractions,
)

# Gram matrices with many vectors of equal norm (Z^n, A2, A3, and a rank-3
# lattice with two equal minima), where the tie rules decide the output.
TIED = [
    [[1]], [[3]],
    [[1, 0], [0, 1]], [[2, 1], [1, 2]], [[2, -1], [-1, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[2, 0, 1], [0, 2, 1], [1, 1, 5]],
]


# Rank-3 lattices with large symmetry groups: the cubic Z^3, the root
# lattices A3 and D3 on other bases, and the body-centred cubic A3*.
SYMMETRIC = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    [[2, 0, 1], [0, 2, -1], [1, -1, 2]], [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
]


def _inner(gram, u, v) -> int:
    return sum(ui * vj * gram[i][j] for i, ui in enumerate(u) for j, vj in enumerate(v))


def _norm(gram, v) -> int:
    return _inner(gram, v, v)


def closest_in_window(gram, head, target):
    """Closest vector over the +-2 window around the floor of the real solution,
    ties to the smaller coefficient tuple: the scan that `_closest_coeffs`
    narrowed to the corners of the floor cell.  Returns (coeffs, norm)."""
    normal = [[_inner(gram, u, v) for v in head] for u in head]
    rhs = [_inner(gram, target, u) for u in head]
    det = det_int(normal)
    floors = [det_int([row[:k] + [b] + row[k + 1:] for row, b in zip(normal, rhs)]) // det
              for k in range(len(head))]

    def key(coeffs):
        diff = target
        for c, h in zip(coeffs, head):
            diff = [a - c * b for a, b in zip(diff, h)]
        return (_norm(gram, diff), coeffs)

    coeffs = min(product(*(range(f - 2, f + 3) for f in floors)), key=key)
    return coeffs, key(coeffs)[0]


def congruent(gram, rows):
    """rows * gram * rows^T."""
    n = len(gram)
    left = [[sum(r[k] * gram[k][j] for k in range(n)) for j in range(n)] for r in rows]
    return [[sum(u[j] * r[j] for j in range(n)) for r in rows] for u in left]


def is_definite(gram) -> bool:
    return all(det_int([row[:k] for row in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


def seeded_grams(seed: int, count: int):
    """Positive definite integer Grams of rank 1-3: B B^T for random integer B,
    and the tied Grams of TIED under a random unimodular change of basis."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((1, 2, 3))
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        gram = congruent([[int(i == j) for j in range(n)] for i in range(n)], rows)
        if is_definite(gram):
            yield gram
        tied = rng.choice(TIED)
        yield congruent(tied, random_unimodular(rng, len(tied)))


class TestGreedyReduce:
    def test_matches_fraction_oracle(self):
        tied = 0
        for gram in seeded_grams(701, 120):
            expected = greedy_reduce_by_fractions(gram)
            assert greedy_reduce(gram) == expected
            norms = [congruent(gram, [row])[0][0] for row in expected]
            tied += len(set(norms)) < len(norms)
        assert tied > 40

    def test_corners_match_window(self, monkeypatch):
        """Every closest-vector step of a reduction, on unimodular images of random
        Grams and of SYMMETRIC, against the full window on the carried Gram of
        the current vectors: head b_0..b_{k-1}, target b_k."""
        corners = reduction._closest_coeffs
        calls, mismatches = [0], []

        def checked(g, k):
            found = corners(g, k)
            calls[0] += 1
            sub = [row[:k + 1] for row in g[:k + 1]]
            unit = [[int(i == j) for j in range(k + 1)] for i in range(k + 1)]
            if found != closest_in_window(sub, unit[:k], unit[k]):
                mismatches.append((sub, k))
            return found

        monkeypatch.setattr(reduction, "_closest_coeffs", checked)
        rng = random.Random(708)
        for _ in range(1300):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            for gram in (congruent(SYMMETRIC[0], rows), rng.choice(SYMMETRIC)):
                if is_definite(gram):
                    greedy_reduce(congruent(gram, random_unimodular(rng, 3)))
        assert calls[0] >= 20_000
        assert mismatches == []

    def test_skewed_large_grams(self):
        """Grams B B^T whose rows of B differ in scale by up to 500x, and skewed
        diagonal Grams under unimodular changes, entries up to 10^6 (Gross Grams
        reach 1.75 * 10^5), against the oracle."""
        rng = random.Random(709)
        seen, largest = 0, 0
        for _ in range(300):
            n = rng.choice((1, 2, 3))
            scales = [rng.choice((1, 3, 10, 30, 100, 300, 500)) for _ in range(n)]
            rows = [[rng.randint(-s, s) for _ in range(n)] for s in scales]
            diagonal = sorted(rng.randint(1, 10 ** k) for k in rng.sample((1, 3, 5), n))
            skewed = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for gram in (congruent([[int(i == j) for j in range(n)] for i in range(n)], rows),
                         congruent(skewed, random_unimodular(rng, n))):
                if not is_definite(gram) or max(abs(e) for row in gram for e in row) > 10 ** 6:
                    continue
                seen += 1
                largest = max(largest, max(abs(e) for row in gram for e in row))
                assert greedy_reduce(gram) == greedy_reduce_by_fractions(gram)
        assert seen > 300 and largest > 10 ** 5

    @pytest.mark.parametrize("scale", [2, 3, 6])
    def test_scaled_gram_gives_same_transform(self, scale):
        for gram in seeded_grams(702 + scale, 50):
            expected = greedy_reduce_by_fractions(gram)
            assert greedy_reduce([[scale * g for g in row] for row in gram]) == expected
            rational = [[Fraction(g, scale) for g in row] for row in gram]
            assert greedy_reduce_by_fractions(rational) == expected

    def test_form_grams(self):
        """The doubled Gram 2G of a form against the oracle on its half-integral G."""
        rng = random.Random(705)
        forms = 0
        for gram in seeded_grams(706, 60):
            if len(gram) != 3:
                continue
            # an odd off-diagonal entry of gram becomes a half in the form's Gram
            form = TernaryForm(gram[0][0], gram[1][1], gram[2][2],
                               gram[0][1], gram[0][2], gram[1][2])
            if not form.is_positive_definite():
                continue
            forms += 1
            for moved in (form, form.transformed(random_unimodular(rng, 3))):
                assert greedy_reduce(moved.doubled_gram()) \
                    == greedy_reduce_by_fractions(moved.gram())
                assert canonical_reduced_form(moved) == canonical_form_by_fractions(moved)
        assert forms > 10


class TestCanonicalForm:
    @pytest.mark.parametrize("gram", SYMMETRIC)
    def test_symmetric_forms_under_unimodular_changes(self, gram):
        """Z^3, A3, D3 and A3* have the largest sets of minimal bases, so the
        pruned search must still find the oracle's minimum there."""
        rng = random.Random(710 + sum(map(sum, gram)))
        form = TernaryForm.from_gram(gram)
        canonical = canonical_form_by_fractions(form)
        assert canonical_reduced_form(form) == canonical
        for _ in range(40):
            assert canonical_reduced_form(form.transformed(random_unimodular(rng, 3))) == canonical


@pytest.fixture(scope="module")
def maximal_orders(order_p11, order_p19, order_p31):
    """The shipped orders (p31 is also the p31-path saturation), SATURATED_CASES
    and the 45 grid saturations of test_orders.py."""
    return ([order_p11, order_p19, order_p31]
            + [saturated_order(*case) for case in SATURATED_CASES]
            + [extend_to_maximal(seed) for seed in grid_seeds()])


class TestGrossReductionMatchesOracle:
    """minkowski_reduced and canonical_reduced_form against the Fraction route."""

    def test_minkowski_bases(self, maximal_orders):
        assert len(maximal_orders) == 3 + len(SATURATED_CASES) + 45
        for order in maximal_orders:
            gross = order.gross_lattice()
            reduced = gross.minkowski_reduced()
            assert reduced.basis == minkowski_by_fractions(gross).basis
            assert reduced == gross

    def test_canonical_forms(self, maximal_orders):
        for order in maximal_orders:
            _, form = order_form(order)
            assert canonical_reduced_form(form) == canonical_form_by_fractions(form)

    def test_sublattices_and_moved_forms(self, maximal_orders):
        """Sublattices of the Gross lattices (other canonical bases, other Grams)
        and the forms under random unimodular substitutions."""
        rng = random.Random(707)
        for order in maximal_orders[::6]:
            gross = order.gross_lattice()
            _, form = order_form(order)
            for _ in range(3):
                rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                if det_int(rows) == 0:
                    continue
                sub = Lattice(gross.algebra, [
                    sum((c * b for c, b in zip(row, gross.basis)), gross.algebra.quat())
                    for row in rows])
                assert sub.minkowski_reduced().basis == minkowski_by_fractions(sub).basis
                moved = form.transformed(random_unimodular(rng, 3))
                assert canonical_reduced_form(moved) == canonical_form_by_fractions(moved) \
                    == canonical_reduced_form(form)
