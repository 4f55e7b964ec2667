"""Integer lattices of rank <= 4 inside the quaternion algebra.

A lattice is stored as integer rows: a scale s > 0 and the row Hermite
normal form H (trailing-pivot convention) of s times a basis, with the gcd
that s shares with the entries of H divided out.  The pair (s, H) is unique
to the lattice, so two lattices are equal iff their pairs coincide, and
H / s is the canonical basis.  The one other representation a lattice
keeps is the integer rows of its own basis over their scale, from which its
basis quaternions are built when first read: (s, H) itself after
`Lattice.from_generators`, the given basis for `Lattice(...)`, and the
reduced rows over s for Minkowski reduction, which so runs no HNF and no
solve.  No change of basis is stored; `coords_of` solves for it.

Every query runs on H.  Row i of H ends in a positive pivot in column c_i,
with c_0 < c_1 < ..., so c * H = y is solved by back-substitution from the
last row: each pivot must divide exactly and the residual must vanish.
Membership, coordinates and the index are this solve; coordinates in an
own basis other than H / s also solve its rows against H.  In rank 4, H is
lower triangular and det H is the product of its pivots (`pivot_product`).
Two rows of H multiply to an integer m with b_i * b_j = m / s^2; three
such products and the norms of the three squares decide closure
(`_products_outside`).
`basis_is_integral` reads Trd and Nrd off the rows s * b_i of the
lattice's own basis; `gram` is their integer Gram over s^2 in lowest terms.
Determinants and Minkowski reduction use the integer Gram s^2 G of H.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import AlgebraMismatch, ContainmentError, EmptyLatticeInput, RankError
from .linalg import adjugate, combine_rows, det_int, hnf_rows, is_positive_definite
from .linalg import solve_left  # noqa: F401  (perfbench's tracer patches it in this namespace)
from .quat import AlgebraParams, Quaternion, mul_coords, rat_str
from .reduction import greedy_reduce


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise inner products (1/2)Trd(b_i * conj(b_j)) as integer rows over den > 0."""

    rows: tuple[tuple[int, ...], ...]
    den: int

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.rows)

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[i], self.den) for i, row in enumerate(self.rows))

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion on the integer rows (den > 0 keeps every sign)."""
        return is_positive_definite(self.rows)

    def is_integral(self) -> bool:
        return all(e % self.den == 0 for row in self.rows for e in row)

    def to_strings(self) -> list[list[str]]:
        """Entries in the wire format of `rat_str`; integers directly when den == 1."""
        if self.den == 1:
            return [[str(e) for e in row] for row in self.rows]
        return [[rat_str(e) for e in row] for row in self.entries]


class Lattice:
    """Finitely generated Z-lattice in the algebra, with an ordered basis."""

    __slots__ = ("algebra", "hnf", "_pivots", "_rows", "_basis")

    def __init__(self, algebra: AlgebraParams, basis):
        basis = tuple(basis)
        for q in basis:
            if q.algebra != algebra:
                raise AlgebraMismatch("basis vector from a different algebra")
        scale, rows = cleared_rows(basis)
        self._set_rows(algebra, scale, rows)
        # the HNF drops exactly the dependent directions
        if self.rank != len(basis):
            raise RankError("basis vectors are linearly dependent")
        self._rows, self._basis = (scale, rows), basis

    # -- construction -----------------------------------------------------

    @classmethod
    def from_generators(cls, algebra: AlgebraParams, generators) -> "Lattice":
        """Lattice generated by arbitrary (possibly dependent) quaternions."""
        generators = list(generators)
        if not generators:
            raise EmptyLatticeInput("no generators supplied")
        for q in generators:
            if q.algebra != algebra:
                raise AlgebraMismatch("generator from a different algebra")
        return cls._from_rows(algebra, *cleared_rows(generators))

    @classmethod
    def _from_rows(cls, algebra: AlgebraParams, scale: int, rows) -> "Lattice":
        """Lattice spanned by the integer rows / scale, on its canonical basis."""
        lattice = cls.__new__(cls)
        lattice._set_rows(algebra, scale, rows)
        return lattice

    def _set_rows(self, algebra: AlgebraParams, scale: int, rows) -> None:
        hnf = hnf_rows(rows)
        g = gcd(scale, *(e for row in hnf for e in row))
        self.algebra = algebra
        self.hnf = (scale // g, tuple(tuple(e // g for e in row) for row in hnf))
        self._pivots = tuple(max(j for j, e in enumerate(row) if e) for row in hnf)
        self._rows = self.hnf  # the own basis is H / s until a caller gives another
        self._basis = None

    @property
    def rank(self) -> int:
        return len(self.hnf[1])

    @property
    def basis(self) -> tuple[Quaternion, ...]:
        if self._basis is None:
            scale, rows = self._rows
            self._basis = tuple(row_quaternion(self.algebra, row, scale) for row in rows)
        return self._basis

    @property
    def canonical_basis(self) -> tuple[Quaternion, ...]:
        if self._rows is self.hnf:
            return self.basis
        scale, rows = self.hnf
        return tuple(row_quaternion(self.algebra, row, scale) for row in rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.algebra == other.algebra and self.hnf == other.hnf

    def __hash__(self) -> int:
        return hash((self.algebra, self.hnf))

    def __repr__(self) -> str:
        return f"Lattice(rank={self.rank}, basis={[str(b) for b in self.basis]})"

    # -- membership --------------------------------------------------------

    def _solve(self, num, den: int) -> tuple[int, ...] | None:
        """Integer c with c * H / s = num / den for an integer vector num, or None.

        Back-substitution from the last row of H: the residual
        s * num - den * (c * H) in the column of each pivot fixes one
        coordinate, which must divide exactly and so clears that column.  A
        row of H ends at its pivot, so a step touches only the columns to its
        left.  The residual must end at zero.
        """
        scale, rows = self.hnf
        residual = [scale * v for v in num]
        coords = []
        for row, col in zip(reversed(rows), reversed(self._pivots)):
            c, rem = divmod(residual[col], den * row[col])
            if rem:
                return None
            if c:
                step = c * den
                for j in range(col):
                    residual[j] -= step * row[j]
                residual[col] = 0
            coords.append(c)
        if any(residual):
            return None
        return tuple(reversed(coords))

    def coords_of(self, x: Quaternion) -> tuple[int, ...] | None:
        """Integer coordinates of x in this basis, or None when x is not a member."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        den, (num,) = cleared_rows((x,))
        coords = self._solve(num, den)
        if not coords or self._rows is self.hnf:  # None, rank 0, or on H / s already
            return coords
        # the own rows are change * H / s; change is unimodular, so change^-1 = det * adj
        scale, rows = self._rows
        det, adj = adjugate([self._solve(row, scale) for row in rows])
        return tuple(det * e for e in combine_rows(coords, adj))

    def contains(self, x: Quaternion) -> bool:
        return self.coords_of(x) is not None

    def _products_outside(self):
        """Yield as the row m = s^2 * (b_i * b_j) each product, 1 <= i <= j, of
        the HNF basis H / s that is outside; i runs in the outer loop.

        For b_0 = 1 and integral Trd(b_i) the lattice is closed iff nothing is
        yielded: b_j b_i = Trd(b_i) b_j + Trd(b_j) b_i - Trd(b_i conj b_j) -
        b_i b_j, with Trd(b_i conj b_j) = Trd(b_i) Trd(b_j) - Trd(b_i b_j).
        A square needs no solve: b_i^2 = Trd(b_i) b_i - Nrd(b_i) is inside iff
        Nrd(b_i) is in L meet Q = Z, that is iff s^2 | u^T W u for the row u
        of H and W = diag(1, a, p, ap); only a square outside is multiplied.
        """
        scale, rows = self.hnf
        a, p = self.algebra.a, self.algebra.p
        weights = norm_weights(self.algebra)
        den = scale * scale
        for i, u in enumerate(rows[1:], 1):
            if sum(w * c * c for w, c in zip(weights, u)) % den:
                yield mul_coords(a, p, u, u)
            for v in rows[i + 1:]:
                m = mul_coords(a, p, u, v)
                if self._solve(m, den) is None:
                    yield m

    def basis_is_integral(self) -> bool:
        """True when every basis vector has integral reduced trace and norm.

        For a cleared row r = s * b, Trd(b) = 2 r_0 / s and Nrd(b) = r^T W r / s^2
        with W = diag(1, a, p, ap): the test is s | 2 r_0 and s^2 | r^T W r.
        """
        scale, rows = self._rows
        weights = norm_weights(self.algebra)
        return all(2 * r[0] % scale == 0
                   and sum(w * c * c for w, c in zip(weights, r)) % (scale * scale) == 0
                   for r in rows)

    # -- invariants ----------------------------------------------------------

    def gram(self) -> GramMatrix:
        """Inner products of the lattice's own basis: its rows' integer Gram over s^2, reduced."""
        scale, rows = self._rows
        gram = integer_gram(self.algebra, rows)
        g = gcd(scale * scale, *(e for row in gram for e in row))
        return GramMatrix(tuple(tuple(e // g for e in row) for row in gram), scale * scale // g)

    def pivot_product(self) -> int:
        """Product of the pivots of H; det H in rank 4, where H is triangular."""
        return prod(row[col] for row, col in zip(self.hnf[1], self._pivots))

    def det(self) -> Fraction:
        """Gram determinant, det(S) / s^(2r) for the integer Gram S of the r rows of H."""
        scale, rows = self.hnf
        return Fraction(det_int(integer_gram(self.algebra, rows)), scale ** (2 * self.rank))

    def index_in(self, sup: "Lattice") -> int:
        """Index [sup : self] for a finite-index sublattice of equal rank."""
        if self.algebra != sup.algebra:
            raise AlgebraMismatch("lattices in different algebras")
        if self.rank != sup.rank:
            raise ContainmentError(f"rank mismatch: {self.rank} vs {sup.rank}")
        scale, rows = self.hnf
        coords = [sup._solve(row, scale) for row in rows]
        if None in coords:
            raise ContainmentError("the lattice is not inside the claimed superlattice")
        return abs(det_int(coords))

    # -- derived lattices ----------------------------------------------------

    def gross_image(self) -> "Lattice":
        """Lattice {2x - Trd(x) : x in L}; drops one rank for a unital order."""
        scale, rows = self.hnf
        return Lattice._from_rows(self.algebra, scale,
                                  [(0, 2 * r[1], 2 * r[2], 2 * r[3]) for r in rows])

    def minkowski_reduced(self) -> "Lattice":
        """Basis achieving the successive minima (rank <= 3, greedy reduction).

        The result spans the same lattice; its Gram diagonal is nondecreasing.
        Ties are broken by coordinate order with the first nonzero coordinate
        of every basis vector made positive.  Integer work on the rows of H
        and their Gram s^2 G (Sylvester's criterion, then greedy reduction).
        The result is a copy of this lattice with the same (s, H) and pivots;
        its own rows are the reduced integer rows over s, and no change of
        basis is kept.  No quaternion is built until its basis is read.
        """
        if self.rank > 3:
            raise RankError("reduction is only supported up to rank 3")
        scale, rows = self.hnf
        gram = integer_gram(self.algebra, rows)
        if not is_positive_definite(gram):
            raise RankError("Gram matrix is not positive definite")
        weights = norm_weights(self.algebra)
        reduced = []
        for t in greedy_reduce(gram):
            v = combine_rows(t, rows)
            sign = 1 if next(c for c in v if c) > 0 else -1
            reduced.append((sum(w * c * c for w, c in zip(weights, v)), tuple(sign * c for c in v)))
        reduced.sort()
        lattice = copy.copy(self)
        lattice._rows, lattice._basis = (scale, [v for _, v in reduced]), None
        return lattice

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra.to_dict(),
            "basis": [b.to_coord_strings() for b in self.canonical_basis],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lattice":
        algebra = AlgebraParams.from_dict(data["algebra"])
        gens = [algebra.from_coord_strings(row) for row in data["basis"]]
        return cls.from_generators(algebra, gens) if gens else cls(algebra, ())


def cleared_rows(quaternions) -> tuple[int, list[list[int]]]:
    """(s, rows): s is the lcm of all coordinate denominators and rows[i] =
    s * coords(quaternions[i]) is integral."""
    coords = [q.coords for q in quaternions]
    scale = lcm(*(c.denominator for row in coords for c in row))
    return scale, [[c.numerator * (scale // c.denominator) for c in row] for row in coords]


def norm_weights(algebra: AlgebraParams) -> tuple[int, int, int, int]:
    """The diagonal (1, a, p, ap) of the norm form in the basis {1, i, j, k}."""
    return (1, algebra.a, algebra.p, algebra.a * algebra.p)


def integer_gram(algebra: AlgebraParams, rows) -> list[list[int]]:
    """Gram matrix of integer rows under the norm form (1, a, p, ap).

    For rows = s * coords(b_i) it is s^2 times the Gram matrix of inner
    products (1/2) Trd(b_i * conj(b_j)).
    """
    weights = norm_weights(algebra)
    gram = [[0] * len(rows) for _ in rows]
    for i, u in enumerate(rows):
        wu = [n * c for n, c in zip(weights, u)]
        for j in range(i, len(rows)):
            gram[i][j] = gram[j][i] = sum(map(mul, wu, rows[j]))
    return gram


def row_quaternion(algebra: AlgebraParams, row, den: int) -> Quaternion:
    """The quaternion with coordinates row / den."""
    return algebra.quat(*(Fraction(c, den) for c in row))
