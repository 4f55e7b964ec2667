import random
from fractions import Fraction
from math import gcd

import pytest

from grosslat import (GramMatrix, Lattice, TernaryForm, extend_to_maximal,
                      trace_zero_commutator_basis)
from grosslat import lattice as lattice_module
from grosslat.errors import AlgebraMismatch, ContainmentError, EmptyLatticeInput, RankError
from grosslat.lattice import row_quaternion
from grosslat.linalg import det_fractions, det_int, hnf_rows, is_positive_definite, solve_left
from grosslat.quat import gross_map, inner

from conftest import grid_seeds, random_order_element, random_quat, random_unimodular
from echelon_hnf import hnf_by_reversed_echelon
from fraction_enum import ldl
from saturation_scan import products_outside_by_fractions

F = Fraction


def gross_basis_p11(alg11):
    # orientation chosen so the Gram matrix has the +1 / -7 off-diagonals
    return [
        alg11.i,
        alg11.quat(0, F(1, 3), 1, F(-1, 3)),
        alg11.quat(0, F(1, 3), 0, F(2, 3)),
    ]


def transformed(lattice, rows):
    algebra = lattice.algebra
    new_basis = []
    for row in rows:
        v = algebra.quat()
        for c, b in zip(row, lattice.basis):
            v = v + c * b
        new_basis.append(v)
    return Lattice(algebra, new_basis)


class TestCanonicalize:
    def test_redundant_generators(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.i, 2 * alg11.i])
        assert lat.rank == 1
        assert lat.basis == (alg11.i,)

    def test_standard_basis(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        assert lat.rank == 4

    def test_empty_input(self, alg11):
        with pytest.raises(EmptyLatticeInput):
            Lattice.from_generators(alg11, [])

    def test_zero_generators_make_zero_lattice(self, alg11):
        empty = {"algebra": alg11.to_dict(), "basis": []}
        for lat in (Lattice.from_generators(alg11, [alg11.quat()]), Lattice(alg11, ()),
                    Lattice.from_dict(empty)):
            assert lat.rank == 0
            assert lat.contains(alg11.quat())
            assert not lat.contains(alg11.i)
            assert lat.canonical_basis == ()

    def test_idempotent_and_equality(self, alg11):
        rng = random.Random(201)
        for _ in range(10):
            gens = [random_quat(rng, alg11) for _ in range(5)]
            lat = Lattice.from_generators(alg11, gens)
            again = Lattice.from_generators(alg11, lat.canonical_basis)
            assert again.canonical_basis == lat.canonical_basis
            assert again == lat

    def test_equality_invariant_under_unimodular_change(self, alg11):
        rng = random.Random(202)
        base = Lattice.from_generators(
            alg11, [alg11.one, (alg11.one + alg11.i) / 2, alg11.j, alg11.k])
        for _ in range(10):
            other = transformed(base, random_unimodular(rng, base.rank))
            assert other == base
            assert hash(other) == hash(base)

    def test_dependent_direct_basis_rejected(self, alg11):
        with pytest.raises(RankError):
            Lattice(alg11, [alg11.i, 2 * alg11.i])

    @staticmethod
    def assert_hnf_shape(hnf) -> bool:
        """Trailing pivots, positive, in increasing columns, reduced below;
        True when some entry below a pivot is not zero."""
        pivots = [max(j for j, e in enumerate(row) if e) for row in hnf]
        assert pivots == sorted(set(pivots))
        for i, (row, col) in enumerate(zip(hnf, pivots)):
            assert row[col] > 0
            assert all(0 <= below[col] < row[col] for below in hnf[i + 1:])
        return any(below[col] for i, col in enumerate(pivots) for below in hnf[i + 1:])

    def test_hnf_rows_matches_reversed_echelon(self):
        """The one-pass HNF against the reversed leading-pivot echelon, on
        random integer matrices with zero rows and entries up to 10^6."""
        rng = random.Random(204)
        seen = set()
        for _ in range(2400):
            ncols, nrows = rng.randint(1, 4), rng.randint(0, 6)
            span = rng.choice((1, 3, 10, 10**6))
            rows = [[rng.randint(-span, span) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                    for _ in range(nrows)]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [0] * ncols
            before = [list(r) for r in rows]
            hnf = hnf_rows(rows)
            assert hnf == hnf_by_reversed_echelon(rows), rows
            assert rows == before
            if self.assert_hnf_shape(hnf):
                seen.add("entry below a pivot")
            if [0] * ncols in rows:
                seen.add("zero row")
            seen.add("empty" if not hnf else "full" if len(hnf) == ncols else "deficient")
        assert seen == {"empty", "full", "deficient", "zero row", "entry below a pivot"}

    def test_hnf_rows_on_saturation_inputs(self, monkeypatch):
        """The same on every matrix `hnf_rows` meets while saturating the grid seeds."""
        inputs = []

        def recording(rows):
            inputs.append([list(r) for r in rows])
            return hnf_rows(rows)

        monkeypatch.setattr(lattice_module, "hnf_rows", recording)
        for seed in grid_seeds():
            extend_to_maximal(seed)
        assert len(inputs) > 200
        for rows in inputs:
            hnf = hnf_rows(rows)
            assert hnf == hnf_by_reversed_echelon(rows), rows
            self.assert_hnf_shape(hnf)


class TestMembership:
    def test_half_not_in_integer_lattice(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        assert not lat.contains(alg11.scalar(F(1, 2)))

    def test_basis_coords_are_unit_vectors(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        assert lat.coords_of(lat.basis[1]) == (0, 1, 0, 0)

    def test_alpha_in_fixture_order(self, order_p11):
        alpha = order_p11.algebra.quat(F(11, 2), F(11, 2))
        assert order_p11.lattice.contains(alpha)

    def test_nonmember_signals_none(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.i])
        assert lat.coords_of(alg11.j) is None

    def test_algebra_mismatch(self, alg11, alg19):
        lat = Lattice.from_generators(alg11, [alg11.i])
        with pytest.raises(AlgebraMismatch):
            lat.contains(alg19.i)


def rational_rank(rows) -> int:
    """Rank over Q by exact Gaussian elimination."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        piv = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / piv
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def random_lattice(rng, algebra, rank):
    """A lattice on `rank` random independent quaternions (as given, not HNF)."""
    while True:
        basis = [random_quat(rng, algebra, span=5) for _ in range(rank)]
        if rational_rank([list(q.coords) for q in basis]) == rank:
            return Lattice(algebra, basis)


def combination(lattice, coeffs):
    x = lattice.algebra.quat()
    for c, b in zip(coeffs, lattice.basis):
        x = x + c * b
    return x


def expected_coords(lattice, x):
    """Coordinates by exact rational elimination, or None for a non-member."""
    sol = solve_left([list(q.coords) for q in lattice.basis], list(x.coords))
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


class TestIntegerMembership:
    """coords_of (back-substitution on the HNF rows) against linalg.solve_left."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_lattices(self, alg11, rank):
        rng = random.Random(210 + rank)
        for _ in range(12):
            lat = random_lattice(rng, alg11, rank)
            for _ in range(10):
                coeffs = tuple(rng.randint(-6, 6) for _ in range(rank))
                member = combination(lat, coeffs)
                assert lat.coords_of(member) == coeffs == expected_coords(lat, member)
                halves = [F(c, rng.choice((1, 2, 3))) for c in coeffs]
                inside_span = combination(lat, halves)
                assert lat.coords_of(inside_span) == expected_coords(lat, inside_span)
                if any(c.denominator != 1 for c in halves):
                    assert lat.coords_of(inside_span) is None
                other = random_quat(rng, alg11)
                assert lat.coords_of(other) == expected_coords(lat, other)

    def test_gross_lattice_rank_three(self, order_p11, order_p19):
        rng = random.Random(215)
        for order in (order_p11, order_p19):
            gross = order.gross_lattice()
            assert gross.rank == 3
            for _ in range(40):
                coeffs = tuple(rng.randint(-9, 9) for _ in range(3))
                member = combination(gross, coeffs)
                assert gross.coords_of(member) == coeffs
                off = combination(gross, [F(c, 2) for c in coeffs])
                assert gross.coords_of(off) == expected_coords(gross, off)
                # the scalar part leaves the trace-zero span
                assert gross.coords_of(member + 1) is None
                assert expected_coords(gross, member + 1) is None

    def test_index_matches_coefficient_determinant(self, alg11):
        rng = random.Random(216)
        for rank in (1, 2, 3, 4):
            top = random_lattice(rng, alg11, rank)
            for _ in range(5):
                rows = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rank)]
                det = det_int(rows)
                if det == 0:
                    continue
                sub = Lattice(alg11, [combination(top, r) for r in rows])
                assert sub.index_in(top) == abs(det)

    def test_caches_are_per_lattice(self, alg11):
        base = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        same = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        doubled = Lattice.from_generators(alg11, [2 * b for b in base.basis])
        x = alg11.quat(1, 3, 5, 7)
        for _ in range(2):
            assert base.coords_of(x) == (1, 3, 5, 7) == same.coords_of(x)
            assert doubled.coords_of(x) is None
            assert doubled.coords_of(2 * x) == (1, 3, 5, 7)
        assert base.hnf == same.hnf and base.hnf is not same.hnf
        assert base.hnf != doubled.hnf
        # the doubled lattice keeps scale 1; its pivots multiply to 2^4
        assert base.hnf[0] == 1 and doubled.hnf[0] == 1
        assert base.pivot_product() == 1 and doubled.pivot_product() == 16


def products_outside(lattice):
    """Lattice._products_outside as quaternions: each row m is s^2 (b_i * b_j)."""
    scale = lattice.hnf[0]
    return [row_quaternion(lattice.algebra, m, scale * scale)
            for m in lattice._products_outside()]


class TestBackSubstitution:
    """coords_of and contains (back-substitution on the stored HNF) against the
    solve_left oracle, on canonical bases and on bases other than H / s."""

    def check_against_oracle(self, lat, rng, trials=8):
        for _ in range(trials):
            coeffs = tuple(rng.randint(-6, 6) for _ in range(lat.rank))
            member = combination(lat, coeffs)
            assert lat.coords_of(member) == coeffs == expected_coords(lat, member)
            assert lat.contains(member)
            inside_span = combination(lat, [F(c, rng.choice((1, 2, 3))) for c in coeffs])
            for x in (inside_span, random_quat(rng, lat.algebra)):
                expected = expected_coords(lat, x)
                assert lat.coords_of(x) == expected
                assert lat.contains(x) == (expected is not None)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_canonical_and_unimodular_bases(self, alg11, rank):
        rng = random.Random(250 + rank)
        for _ in range(8):
            canonical = Lattice.from_generators(alg11, random_lattice(rng, alg11, rank).basis)
            assert canonical.basis == canonical.canonical_basis
            self.check_against_oracle(canonical, rng)
            rows = random_unimodular(rng, rank)
            rows[0] = [-c for c in rows[0]]
            image = transformed(canonical, rows)
            assert image == canonical and image.basis != canonical.basis
            self.check_against_oracle(image, rng)

    def test_minkowski_and_commutator_bases(self, order_p11, order_p31, order_p19):
        rng = random.Random(255)
        reordered = 0
        for order in (order_p11, order_p31, order_p19):
            reduced = order.gross_lattice().minkowski_reduced()
            triple = Lattice(order.algebra, trace_zero_commutator_basis(order))
            for lat in (reduced, triple):
                reordered += lat.basis != lat.canonical_basis
                self.check_against_oracle(lat, rng, trials=20)
        assert reordered == 6


class TestIntegerClosureAndDet:
    """_products_outside (the products b_i * b_j, 1 <= i <= j, of the HNF basis)
    against Fraction products with contains; its closure verdict against all
    16 products (`products_outside_by_fractions`) on lattices that hold 1 and
    have integral traces; det against det_fractions of the Gram matrix."""

    def check_closure(self, lat) -> bool:
        basis = lat.canonical_basis
        assert basis[0] == lat.algebra.one
        found = products_outside(lat)
        assert found == [u * v for i, u in enumerate(basis) if i for v in basis[i:]
                         if not lat.contains(u * v)]
        assert not any(lat.contains(x) for x in found)
        assert (not found) == (not products_outside_by_fractions(lat))
        return not found

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_lattices(self, alg11, order_p11, rank):
        rng = random.Random(230 + rank)
        verdicts = set()
        for _ in range(20):
            lat = random_lattice(rng, alg11, rank)
            assert lat.det() == det_fractions([list(r) for r in lat.gram().entries])
            # 1 and rank - 1 elements with integral trace: elements x of an order,
            # some scaled, and (2x - Trd(x))/d, whose norm may be fractional
            while True:
                basis = [alg11.one]
                for _ in range(rank - 1):
                    x = random_order_element(rng, order_p11, span=3)
                    d = rng.choice((1, 2, 3))
                    basis.append(d * x if rng.random() < 0.5 else gross_map(x) / d)
                if rational_rank([list(b.coords) for b in basis]) == rank:
                    break
            verdicts.add(self.check_closure(Lattice(alg11, basis)))
        assert verdicts == {True} if rank == 1 else False in verdicts

    def test_orders_and_suborders(self, maximal_orders):
        rng = random.Random(235)
        mixed = 0
        orders = [*maximal_orders[:12], *(seed for seed, _ in zip(grid_seeds(), range(12)))]
        for order in orders:
            assert self.check_closure(order.lattice)
            for _ in range(4):
                scales = [1] + [rng.choice((1, 2, 3)) for _ in range(3)]
                sub = Lattice(order.algebra, [c * b for c, b in
                                              zip(scales, order.lattice.canonical_basis)])
                closed = self.check_closure(sub)
                assert sub.det() == det_fractions([list(r) for r in sub.gram().entries])
                mixed += not closed and len(products_outside(sub)) < 6
        assert mixed > 0


class TestIntegralBasis:
    """basis_is_integral (cleared rows: s | 2 r_0 and s^2 | r^T W r) against
    Quaternion.is_integral on every basis vector."""

    @pytest.mark.parametrize("den", [2, 3, 6])
    def test_rank_four_lattices(self, alg19, order_p11, order_p31, order_p19, den):
        rng = random.Random(240 + den)
        verdicts = set()
        for order in (order_p11, order_p31, order_p19):
            trials = 0
            while trials < 12:
                basis = [random_order_element(rng, order, span=3) for _ in range(4)]
                basis = [x / den if rng.random() < 0.4 else x for x in basis]
                if rational_rank([list(b.coords) for b in basis]) < 4:
                    continue
                trials += 1
                lat = Lattice(order.algebra, basis)
                expected = all(b.is_integral() for b in basis)
                assert lat.basis_is_integral() == expected
                verdicts.add(expected)
        assert verdicts == {True, False}
        # (j + k)/2 in (-1, -19): Trd 0, and r^T W r = 38 for r = (0, 0, 1, 1) is
        # divisible by s = 2 but not by s^2
        half = Lattice(alg19, [alg19.one, alg19.i, alg19.j, (alg19.j + alg19.k) / 2])
        assert not half.basis_is_integral()
        assert Lattice(alg19, [alg19.one, alg19.i, alg19.j, alg19.k]).basis_is_integral()


class TestIndex:
    def test_doubling(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        doubled = Lattice.from_generators(alg11, [2 * b for b in lat.basis])
        assert doubled.index_in(lat) == 2 ** lat.rank

    def test_index_matches_solve_left_oracle(self, alg11):
        """index_in on the HNF rows: |det| of the oracle's coordinates of the
        sublattice basis in the superlattice basis, for either basis."""
        rng = random.Random(217)
        for rank in (1, 2, 3, 4):
            top = random_lattice(rng, alg11, rank)
            for _ in range(5):
                rows = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rank)]
                if det_int(rows) == 0:
                    continue
                sub = Lattice(alg11, [combination(top, r) for r in rows])
                oracle = abs(det_int([list(expected_coords(top, b)) for b in sub.basis]))
                canonical_sub = Lattice.from_generators(alg11, sub.basis)
                canonical_top = Lattice.from_generators(alg11, top.basis)
                assert sub.index_in(top) == canonical_sub.index_in(canonical_top) == oracle

    def test_self_index(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.i, alg11.j])
        assert lat.index_in(lat) == 1

    def test_tower_multiplicativity(self, alg11):
        rng = random.Random(203)
        top = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        for _ in range(8):
            mid = Lattice.from_generators(
                alg11, [rng.choice((1, 2, 3)) * b for b in top.basis])
            bot = Lattice.from_generators(
                alg11, [rng.choice((1, 2)) * b for b in mid.basis])
            assert bot.index_in(top) == bot.index_in(mid) * mid.index_in(top)

    def test_rank_mismatch(self, alg11):
        big = Lattice.from_generators(alg11, [alg11.one, alg11.i])
        small = Lattice.from_generators(alg11, [alg11.i])
        with pytest.raises(ContainmentError):
            small.index_in(big)

    def test_non_inclusion(self, alg11):
        lat = Lattice.from_generators(alg11, [2 * alg11.i])
        other = Lattice.from_generators(alg11, [3 * alg11.i])
        with pytest.raises(ContainmentError):
            lat.index_in(other)


class TestGramAndDet:
    def test_reference_gross_gram(self, alg11):
        lat = Lattice(alg11, gross_basis_p11(alg11))
        expected = [[3, 1, 1], [1, 15, -7], [1, -7, 15]]
        assert [[int(v) for v in row] for row in lat.gram().entries] == expected
        assert lat.det() == 484  # cofactor expansion of the matrix above

    def test_rank2_minor(self, alg11):
        b = gross_basis_p11(alg11)
        pair = Lattice(alg11, b[:2])
        assert pair.det() == 44  # 3*15 - 1^2

    def test_det_invariant_under_unimodular_change(self, alg11):
        rng = random.Random(204)
        lat = Lattice(alg11, gross_basis_p11(alg11))
        for _ in range(10):
            other = transformed(lat, random_unimodular(rng, lat.rank))
            assert other.det() == lat.det()

    def test_positive_definite(self, alg11):
        lat = Lattice(alg11, gross_basis_p11(alg11))
        assert lat.gram().is_positive_definite()

    @pytest.mark.parametrize("n", [3, 4])
    def test_ldl_agrees_with_leading_minors(self, n):
        from grosslat.linalg import det_fractions

        rng = random.Random(205 + n)
        matrices = []
        for _ in range(60):
            # B B^T is positive semidefinite, singular when B has fewer columns
            cols = rng.choice([n - 2, n - 1, n, n])
            b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(n)]
            matrices.append([[sum(x * y for x, y in zip(u, v)) for v in b] for u in b])
            sym = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    sym[i][j] = sym[j][i] = rng.randint(-4, 6)
            matrices.append(sym)
        definite = 0
        for m in matrices:
            sylvester = all(det_fractions([row[:k] for row in m[:k]]) > 0
                            for k in range(1, n + 1))
            factors = ldl(m)
            assert (factors is not None) == sylvester, m
            assert is_positive_definite(m) == sylvester
            # integer rows over den: halved (in lowest terms when an entry
            # is odd) and scaled by 2 and 6 (not in lowest terms)
            for scale, den in ((1, 1), (1, 2), (2, 4), (6, 6)):
                gram = GramMatrix(tuple(tuple(scale * x for x in row) for row in m), den)
                entries = tuple(tuple(F(scale * x, den) for x in row) for row in m)
                assert gram.entries == entries
                assert gram.is_positive_definite() == sylvester
                assert gram.is_integral() == all(e.denominator == 1 for row in entries for e in row)
                assert gram.to_strings() == [[str(e) for e in row] for row in entries]
            if n == 3:
                form = TernaryForm.from_gram(m)
                a, b, c, d, e, f = form.coefficients()
                p = 4 * a * b - d * d
                delta = p * (4 * a * c - e * e) - (2 * a * f - d * e) ** 2
                assert (a > 0 and p > 0 and delta > 0) == sylvester
                assert form.is_positive_definite() == sylvester
            if factors is None:
                continue
            definite += 1
            low, diag = factors
            assert all(low[i][i] == 1 and not any(low[i][i + 1:]) for i in range(n))
            assert [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n))
                     for j in range(n)] for i in range(n)] == m
        singular = sum(det_fractions(m) == 0 for m in matrices)
        assert 0 < definite < len(matrices) and singular > 0


class TestIntegerGram:
    """gram() (the integer Gram of the basis rows over s^2) against Fraction
    inner products, in the lattice's own basis order."""

    @staticmethod
    def assert_matches_inner(lat):
        basis = lat.basis
        products = tuple(tuple(inner(u, v) for v in basis) for u in basis)
        gram = lat.gram()
        assert gram.entries == products
        # integer rows over a positive denominator in lowest terms, read as the Fractions
        assert gram.den > 0 and gcd(gram.den, *(e for row in gram.rows for e in row)) == 1
        assert gram.is_integral() == all(e.denominator == 1 for row in products for e in row)
        assert gram.is_positive_definite()
        assert gram.to_strings() == [[str(e) for e in row] for row in products]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_canonical_and_unimodular_bases(self, alg11, rank):
        rng = random.Random(270 + rank)
        scaled = 0
        for _ in range(8):
            given = random_lattice(rng, alg11, rank)
            canonical = Lattice.from_generators(alg11, given.basis)
            scaled += canonical.hnf[0] > 1
            for lat in (given, canonical, transformed(canonical, random_unimodular(rng, rank))):
                self.assert_matches_inner(lat)
        assert scaled

    def test_orders_minkowski_and_commutator_bases(self, maximal_orders, skewed_orders):
        for order in (*maximal_orders, *skewed_orders):
            gross = order.gross_lattice()
            triple = Lattice(order.algebra, trace_zero_commutator_basis(order))
            for lat in (order.lattice, gross, gross.minkowski_reduced(), triple):
                self.assert_matches_inner(lat)


class TestGrossImage:
    def test_fixture_order_image(self, order_p11):
        image = order_p11.lattice.gross_image()
        assert image.rank == 3
        assert image.det() == 4 * 11 ** 2

    def test_scalars_collapse(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.one])
        assert lat.gross_image().rank == 0

    def test_standard_lattice(self, alg11):
        lat = Lattice.from_generators(alg11, [alg11.one, alg11.i, alg11.j, alg11.k])
        image = lat.gross_image()
        expected = Lattice.from_generators(
            alg11, [2 * alg11.i, 2 * alg11.j, 2 * alg11.k])
        assert image == expected


class TestMinkowskiReduce:
    def test_fixture_gross_lattice(self, order_p11):
        reduced = order_p11.lattice.gross_image().minkowski_reduced()
        assert [int(v) for v in reduced.gram().diagonal] == [3, 15, 15]

    def test_idempotent_diagonal(self, order_p11):
        reduced = order_p11.lattice.gross_image().minkowski_reduced()
        again = reduced.minkowski_reduced()
        assert again.gram().diagonal == reduced.gram().diagonal

    def test_rank_one_normalization(self, alg11):
        lat = Lattice.from_generators(alg11, [2 * alg11.i, alg11.i])
        reduced = lat.minkowski_reduced()
        assert reduced.basis == (alg11.i,)

    def test_preserves_lattice_and_dominates_diagonal(self, alg11):
        rng = random.Random(205)
        for _ in range(10):
            gens = [random_quat(rng, alg11) for _ in range(3)]
            lat = Lattice.from_generators(alg11, gens)
            if lat.rank > 3:
                continue
            reduced = lat.minkowski_reduced()
            assert reduced == lat
            before = sorted(lat.gram().diagonal)
            after = list(reduced.gram().diagonal)
            assert after == sorted(after)
            assert all(a <= b for a, b in zip(after, before))

    def test_rank_four_rejected(self, order_p11):
        with pytest.raises(RankError):
            order_p11.lattice.minkowski_reduced()

    def test_diagonal_achieves_successive_minima(self, alg11):
        from itertools import product
        from math import isqrt

        from grosslat.linalg import det_fractions

        def brute_minima(lat):
            gram = [list(r) for r in lat.gram().entries]
            n = len(gram)
            det = det_fractions(gram)
            cap = max(gram[i][i] for i in range(n))
            bounds = []
            for i in range(n):
                minor = [[gram[r][c] for c in range(n) if c != i]
                         for r in range(n) if r != i]
                bd = cap * (det_fractions(minor) if n > 1 else F(1)) / det
                bounds.append(isqrt(bd.numerator // bd.denominator) + 1)
            vecs = []
            for v in product(*(range(-b, b + 1) for b in bounds)):
                if any(v):
                    q = sum(v[i] * gram[i][j] * v[j]
                            for i in range(n) for j in range(n))
                    if q <= cap:
                        vecs.append((q, list(v)))
            vecs.sort(key=lambda t: t[0])
            chosen, minima = [], []
            for q, v in vecs:
                stack = [list(map(F, w)) for w in chosen + [v]]
                if rational_rank(stack) == len(chosen) + 1:
                    chosen.append(v)
                    minima.append(q)
                    if len(chosen) == n:
                        break
            return minima

        rng = random.Random(206)
        trials = 0
        while trials < 8:
            gens = [random_quat(rng, alg11, span=2, dens=(1, 2))
                    for _ in range(rng.choice((1, 2, 3)))]
            lat = Lattice.from_generators(alg11, gens)
            if lat.rank == 0:
                continue
            trials += 1
            reduced = lat.minkowski_reduced()
            assert list(reduced.gram().diagonal) == brute_minima(lat)


class TestMinkowskiSharesHnf:
    """The reduced lattice is built from the integer rows, the HNF and the
    transform the reduction already holds; it must be the lattice
    that the public constructor builds on the same basis."""

    @staticmethod
    def assert_same_lattice(reduced, rng):
        rebuilt = Lattice(reduced.algebra, reduced.basis)
        assert reduced.basis == rebuilt.basis
        assert reduced.hnf == rebuilt.hnf
        assert reduced.gram().entries == rebuilt.gram().entries
        assert reduced.canonical_basis == rebuilt.canonical_basis
        assert reduced.canonical_basis == Lattice.from_generators(reduced.algebra,
                                                                  reduced.basis).basis
        assert reduced == rebuilt and hash(reduced) == hash(rebuilt)
        assert reduced.basis_is_integral() == rebuilt.basis_is_integral()
        rank = reduced.rank
        for k, b in enumerate(rebuilt.basis):
            unit = tuple(int(i == k) for i in range(rank))
            assert reduced.coords_of(b) == rebuilt.coords_of(b) == unit
        for _ in range(6):
            coeffs = tuple(rng.randint(-40, 40) for _ in range(rank))
            x = combination(rebuilt, coeffs)
            assert reduced.coords_of(x) == rebuilt.coords_of(x) == coeffs
            assert reduced.coords_of(x / 3) == rebuilt.coords_of(x / 3)

    def test_maximal_orders(self, maximal_orders):
        rng = random.Random(1301)
        for order in maximal_orders:
            self.assert_same_lattice(order.gross_lattice().minkowski_reduced(), rng)

    def test_skewed_order_and_conjugate(self, skewed_orders):
        rng = random.Random(1302)
        for o in skewed_orders:
            self.assert_same_lattice(o.gross_lattice().minkowski_reduced(), rng)


class TestSerialization:
    def test_round_trip(self, order_p11):
        data = order_p11.lattice.to_dict()
        assert data["algebra"] == {"a": 3, "p": 11}
        assert Lattice.from_dict(data) == order_p11.lattice

    def test_gram_strings(self, alg11):
        g = Lattice(alg11, gross_basis_p11(alg11)).gram()
        assert g.to_strings()[1] == ["1", "15", "-7"]
