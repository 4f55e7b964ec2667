import random
from fractions import Fraction

import pytest

from grosslat import (
    TernaryForm,
    canonical_reduced_form,
    exterior_square_form,
    pair_determinant,
    inner,
    representation_counts,
    represents,
)
from grosslat.errors import DefinitenessError, IntegralityError
from grosslat.forms import _columns, _completed_square, column_bound, representations
from grosslat.lattice import GramMatrix

from fraction_enum import counts_by_value, enumerate_gram_solutions, ldl

F = Fraction

Q11 = TernaryForm(1, 1, 4, -1, -1, 1)
Q31 = TernaryForm(1, 2, 5, -1, -1, 2)
Q19 = TernaryForm(1, 2, 3, -1, -1, 1)


def gram_from_ints(rows):
    return GramMatrix(tuple(map(tuple, rows)), 1)


def random_definite_form(rng, coeff_bound=10):
    while True:
        a, b, c = (rng.randint(1, coeff_bound) for _ in range(3))
        d, e, f = (rng.randint(-coeff_bound, coeff_bound) for _ in range(3))
        form = TernaryForm(a, b, c, d, e, f)
        if form.is_positive_definite():
            return form


def box_represented_set(form, n_max):
    """Independent oracle: every value <= n_max hit inside an exact box."""
    m = form.gram()
    from grosslat.linalg import det_fractions
    det = det_fractions(m)
    bounds = []
    for i in range(3):
        minor = [[m[r][c] for c in range(3) if c != i] for r in range(3) if r != i]
        bound = n_max * det_fractions(minor) / det
        from math import isqrt
        bounds.append(isqrt(bound.numerator // bound.denominator) + 1)
    hit = set()
    for x in range(-bounds[0], bounds[0] + 1):
        for y in range(-bounds[1], bounds[1] + 1):
            for z in range(-bounds[2], bounds[2] + 1):
                v = form(x, y, z)
                if v <= n_max:
                    hit.add(v)
    return hit


class TestExteriorSquareForm:
    def test_p11_exact(self):
        gram = gram_from_ints([[3, 1, 1], [1, 15, -7], [1, -7, 15]])
        content, q = exterior_square_form(gram)
        assert content == 44
        assert q == Q11

    def test_fixture_forms_up_to_equivalence(self, order_p31, order_p19):
        for order, reference in ((order_p31, Q31), (order_p19, Q19)):
            reduced = order.gross_lattice().minkowski_reduced()
            content, q = exterior_square_form(reduced.gram())
            assert content == 4 * order.algebra.p
            assert representation_counts(q, 100) == representation_counts(reference, 100)

    def test_half_integral_determinant(self, order_p11, order_p31, order_p19):
        # content = 4p and det of the primitive form's Gram is p/4
        from grosslat.linalg import det_fractions
        for order in (order_p11, order_p31, order_p19):
            p = order.algebra.p
            reduced = order.gross_lattice().minkowski_reduced()
            content, q = exterior_square_form(reduced.gram())
            assert content == 4 * p
            assert det_fractions(q.gram()) == F(p, 4)

    def test_pair_determinant_factors_through_minors(self, order_p11, order_p31):
        rng = random.Random(601)
        for order in (order_p11, order_p31):
            reduced = order.gross_lattice().minkowski_reduced()
            content, q = exterior_square_form(reduced.gram())
            basis = reduced.basis
            for _ in range(20):
                c = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
                g1 = c[0][0] * basis[0] + c[0][1] * basis[1] + c[0][2] * basis[2]
                g2 = c[1][0] * basis[0] + c[1][1] * basis[1] + c[1][2] * basis[2]
                x = c[0][0] * c[1][1] - c[0][1] * c[1][0]
                y = c[0][0] * c[1][2] - c[0][2] * c[1][0]
                z = c[0][1] * c[1][2] - c[0][2] * c[1][1]
                assert pair_determinant(g1, g2) == content * q(x, y, z)

    def test_integer_compound_matches_fraction_inner_products(self, maximal_orders,
                                                               skewed_orders):
        pairs = ((0, 1), (0, 2), (1, 2))
        for order in (*maximal_orders, *skewed_orders):
            reduced = order.reduced_gross_lattice()
            basis = reduced.basis
            g = [[inner(u, v) for v in basis] for u in basis]
            compound = [[g[i][k] * g[j][l] - g[i][l] * g[j][k] for (k, l) in pairs]
                        for (i, j) in pairs]
            coeffs = [compound[i][i] for i in range(3)] + [2 * compound[i][j] for i, j in pairs]
            content, q = exterior_square_form(reduced.gram())
            assert content == 4 * order.algebra.p
            assert [content * c for c in q.coefficients()] == coeffs

    def test_rejects_non_integral(self):
        gram = GramMatrix(((3, 1, 1), (1, 15, -7), (1, -7, 15)), 2)
        with pytest.raises(IntegralityError):
            exterior_square_form(gram)

    def test_rejects_indefinite(self):
        gram = gram_from_ints([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        with pytest.raises(DefinitenessError):
            exterior_square_form(gram)


def diagonalize(form):
    """d = (A, P/4A, Delta/4AP) and r = (D/2A, E/2A, R/P) from the completed square."""
    a = form.a
    p, r, delta = _completed_square(form)
    return ((F(a), F(p, 4 * a), F(delta, 4 * a * p)),
            (F(form.d, 2 * a), F(form.e, 2 * a), F(r, p)))


def completes_the_square(form, v):
    """4AP Q(v) = P (2Ax + Dy + Ez)^2 + (Py + Rz)^2 + Delta z^2 at the integer triple v."""
    a, _, _, d, e, _ = form.coefficients()
    p, r, delta = _completed_square(form)
    x, y, z = v
    return (4 * a * p * form(x, y, z)
            == p * (2 * a * x + d * y + e * z) ** 2 + (p * y + r * z) ** 2 + delta * z * z)


class TestDiagonalize:
    """The completed square that `_columns` and `column_bound` run on, and the
    rational diagonalization it gives, against the rational LDL^T."""

    def test_p11_form(self):
        assert diagonalize(Q11) == ((1, F(3, 4), F(11, 3)), (F(-1, 2), F(-1, 2), F(1, 3)))

    def test_identity_form(self):
        assert diagonalize(TernaryForm(1, 1, 1, 0, 0, 0)) == ((1, 1, 1), (0, 0, 0))

    def test_p19_form(self):
        diagonal, (_, _, r23) = diagonalize(Q19)
        assert (diagonal, r23) == ((1, F(7, 4), F(19, 7)), F(1, 7))

    def test_p31_form(self):
        diagonal, (_, _, r23) = diagonalize(Q31)
        assert (diagonal, r23) == ((1, F(7, 4), F(31, 7)), F(3, 7))

    def test_round_trip_randomized(self):
        rng = random.Random(602)
        for _ in range(25):
            form = random_definite_form(rng)
            for _ in range(20):
                v = tuple(rng.randint(-9, 9) for _ in range(3))
                assert completes_the_square(form, v), (form, v)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            _completed_square(TernaryForm(1, -1, 1, 0, 0, 0))

    def test_matches_rational_ldl(self):
        rng = random.Random(602)  # the forms of test_round_trip_randomized
        for form in [random_definite_form(rng) for _ in range(25)] + [Q11, Q31, Q19]:
            low, diag = ldl(form.gram())
            assert diagonalize(form) == (tuple(diag), (low[1][0], low[2][0], low[2][1]))


class TestRepresents:
    def test_counterexample_values(self):
        assert represents(Q11, 11) is None
        assert represents(Q31, 13) is None
        assert represents(Q19, 10) is None

    def test_unit_witness(self):
        assert represents(Q11, 1) == (1, 0, 0)

    def test_witness_evaluates(self):
        for n in (1, 3, 4, 12, 15):
            w = represents(Q11, n)
            if w is not None:
                assert Q11(*w) == n

    def test_zero(self):
        assert represents(Q11, 0) == (0, 0, 0)

    def test_negative_n_on_an_indefinite_form(self):
        # a definite form represents no n < 0; an indefinite one can, so it
        # is refused rather than answered: x^2 + y^2 - z^2 takes -1 at (0, 0, 1)
        assert represents(Q11, -1) is None
        indefinite = TernaryForm(1, 1, -1, 0, 0, 0)
        assert indefinite(0, 0, 1) == -1
        with pytest.raises(DefinitenessError):
            represents(indefinite, -1)

    def test_agrees_with_box_oracle_small(self):
        rng = random.Random(603)
        for _ in range(8):
            form = random_definite_form(rng, coeff_bound=6)
            hit = box_represented_set(form, 60)
            for n in range(61):
                assert (represents(form, n) is not None) == (n in hit)

    def test_scaled_identity(self):
        # 12*Q11 = 3(2x - y - z)^2 + (3y + z)^2 + 44 z^2 on a small box
        for x in range(-3, 4):
            for y in range(-3, 4):
                for z in range(-3, 4):
                    assert 12 * Q11(x, y, z) == \
                        3 * (2 * x - y - z) ** 2 + (3 * y + z) ** 2 + 44 * z * z


def unimodular(rng, steps=8):
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def assert_same_sequence(form, n, gram=None):
    gram = form.gram() if gram is None else gram
    assert list(representations(form, n)) == list(enumerate_gram_solutions(gram, n)), \
        f"{form} at n={n}"


class TestKernelMatchesFractionOracle:
    """The integer kernel yields the rational enumerator's exact sequence."""

    def test_gross_grams_of_fixtures(self, order_p11, order_p31, order_p19):
        for order in (order_p11, order_p31, order_p19):
            p = order.algebra.p
            b = order.gross_basis()
            gram = [[inner(u, v) for v in b] for u in b]
            form = TernaryForm.from_gram(gram)
            for ell in range(1, 51):
                assert_same_sequence(form, 4 * ell * p, gram)

    def test_fixture_forms(self):
        for form in (Q11, Q31, Q19):
            for n in range(101):
                assert_same_sequence(form, n)
            assert representation_counts(form, 100) == counts_by_value(form.gram(), 100)

    def test_random_forms(self):
        rng = random.Random(605)
        forms = [random_definite_form(rng) for _ in range(8)]
        forms += [f.transformed(unimodular(rng)) for f in forms[:6]]
        assert any(c % 2 for f in forms for c in f.coefficients()[3:]), "no half-integral Gram"
        for form in forms:
            for n in range(41):
                assert_same_sequence(form, n)
            assert representation_counts(form, 40) == counts_by_value(form.gram(), 40)

    def test_columns_start_without_materializing_z(self):
        # z_max is about 10^20 here; the z order 0, 1, -1, ... comes lazily
        y, z, room = next(_columns(TernaryForm(1, 1, 1, 0, 0, 0), 10**40))
        assert z == 0 and room >= 0
        seen = []
        for _, z, _ in _columns(Q11, 60):
            if z not in seen:
                seen.append(z)
        assert seen == sorted(seen, key=lambda c: (abs(c), c < 0))
        assert len(seen) == 2 * max(seen) + 1 > 3

    def test_column_bound(self):
        """column_bound is an upper bound on the columns _columns yields, and
        grows with the skew of equivalent forms."""
        rng = random.Random(611)
        forms = [Q11, Q31, Q19] + [random_definite_form(rng) for _ in range(6)]
        forms += [f.transformed(unimodular(rng)) for f in forms]
        for form in forms:
            for n in (0, 1, 7, 60, 400):
                assert sum(1 for _ in _columns(form, n)) <= column_bound(form, n)
        cube = TernaryForm(1, 1, 1, 0, 0, 0)
        skewed = TernaryForm(100030002, 10001, 1, 2000400, 20002, 200)
        assert canonical_reduced_form(skewed) == cube
        assert column_bound(cube, 10**6) == 4006002
        assert column_bound(skewed, 999) > 10**7 > column_bound(cube, 999)

    def test_edge_inputs(self):
        assert representation_counts(Q11, 0) == [1]
        assert representation_counts(Q11, -1) == []
        assert list(representations(Q11, -3)) == []
        indefinite = TernaryForm(1, -1, 1, 0, 0, 0)
        for call in (lambda: represents(indefinite, 1),
                     lambda: representation_counts(indefinite, 5)):
            with pytest.raises(DefinitenessError):
                call()


class TestTransformed:
    def test_matches_rational_gram_product(self):
        rng = random.Random(606)
        for _ in range(20):
            form = random_definite_form(rng)
            rows = unimodular(rng)
            m = form.gram()
            n = [[sum(F(rows[i][k]) * m[k][l] * rows[j][l]
                      for k in range(3) for l in range(3))
                  for j in range(3)] for i in range(3)]
            assert form.transformed(rows) == TernaryForm.from_gram(n)

    def test_rejects_non_integral_substitution(self):
        with pytest.raises(IntegralityError):
            Q11.transformed([[F(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])


class TestCanonicalReducedForm:
    def test_equivalence_invariance(self):
        rng = random.Random(604)
        canonical = canonical_reduced_form(Q11)
        for _ in range(10):
            rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            for _ in range(8):
                i, j = rng.randrange(3), rng.randrange(3)
                if i == j:
                    continue
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            transformed = Q11.transformed(rows)
            assert canonical_reduced_form(transformed) == canonical

    def test_counts_preserved(self):
        canonical = canonical_reduced_form(Q11)
        assert representation_counts(canonical, 100) == representation_counts(Q11, 100)

    def test_scaling_pattern(self):
        doubled = TernaryForm(*(2 * c for c in Q11.coefficients()))
        canonical = canonical_reduced_form(doubled)
        counts2 = representation_counts(canonical, 60)
        counts1 = representation_counts(Q11, 30)
        assert all(counts2[2 * n] == counts1[n] for n in range(31))
        assert all(counts2[m] == 0 for m in range(61) if m % 2 == 1)

    def test_reference_forms_stable(self):
        for q in (Q11, Q31, Q19):
            c = canonical_reduced_form(q)
            assert c.is_positive_definite()
            assert representation_counts(c, 50) == representation_counts(q, 50)


class TestSerialization:
    def test_wire_format(self):
        data = Q11.to_dict()
        assert data == {"A": 1, "B": 1, "C": 4, "D": -1, "E": -1, "F": 1}
        assert TernaryForm.from_dict(data) == Q11
