"""Integer lattices of rank <= 4 inside the quaternion algebra.

A lattice is stored as integer rows: a scale s > 0 and the row Hermite
normal form H (trailing-pivot convention) of s times a basis, with the gcd
that s shares with the entries of H divided out.  The pair (s, H) is unique
to the lattice, so two lattices are equal iff their pairs coincide, and
H / s is the canonical basis.  Constructors that canonicalize
(`Lattice.from_generators`) return that basis; a lattice built on a given
basis (`Lattice(...)`, Minkowski reduction) keeps its own ordering and the
inverse of the unimodular change from H / s to it.

Every query runs on H.  Row i of H ends in a positive pivot in column c_i,
with c_0 < c_1 < ..., so c * H = y is solved by back-substitution from the
last row: each pivot must divide exactly and the residual must vanish.
Membership, coordinates (mapped into the lattice's own basis when that is
not H / s) and the index are this solve.  In rank 4, H is lower triangular
and det H is the product of its pivots, so the Gram determinant is
(ap det H)^2 / s^8 for the norm form (1, a, p, ap).  Closure, integrality
and the Gram matrix read the integer rows s * b_i of the basis: two rows
multiply to an integer m with b_i * b_j = m / s^2 (`products_outside`),
`basis_is_integral` reads Trd and Nrd off each row, and `gram` is their
integer Gram over s^2.  Lower-rank determinants and Minkowski reduction use
the integer Gram s^2 G of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import AlgebraMismatch, ContainmentError, EmptyLatticeInput, RankError
from .linalg import adjugate, combine_rows, det_int, hnf_rows, is_positive_definite
from .linalg import solve_left  # noqa: F401  (perfbench's tracer patches it in this namespace)
from .quat import AlgebraParams, Quaternion, mul_coords, rat_str
from .reduction import greedy_reduce


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise inner products (1/2)Trd(b_i * conj(b_j))."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.size))

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion on the entries times their common denominator."""
        den = lcm(*(e.denominator for row in self.entries for e in row))
        return is_positive_definite([[int(e * den) for e in row] for row in self.entries])

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def to_strings(self) -> list[list[str]]:
        return [[rat_str(e) for e in row] for row in self.entries]


class Lattice:
    """Finitely generated Z-lattice in the algebra, with an ordered basis."""

    __slots__ = ("algebra", "hnf", "_pivots", "_rows", "_basis", "_from_hnf")

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
        self._basis, self._rows = basis, (scale, rows)
        # basis = change * H / s with det(change) = +-1, so change^-1 = +-adj(change)
        change = [self._solve(row, scale) for row in rows]
        if change != [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]:
            det = det_int(change)
            self._from_hnf = [[det * e for e in row] for row in adjugate(change)]

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
        self._rows = self.hnf  # (s, s * basis), kept by __init__ for a given basis
        self._basis = self._from_hnf = None

    @property
    def rank(self) -> int:
        return len(self.hnf[1])

    @property
    def basis(self) -> tuple[Quaternion, ...]:
        if self._basis is None:
            scale, rows = self.hnf
            self._basis = tuple(row_quaternion(self.algebra, row, scale) for row in rows)
        return self._basis

    @property
    def canonical_basis(self) -> tuple[Quaternion, ...]:
        if self._from_hnf is None:
            return self.basis
        return Lattice._from_rows(self.algebra, *self.hnf).basis

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
        coordinate, which must divide exactly and so clears that column; the
        residual must already be zero in the columns without a pivot.
        """
        scale, rows = self.hnf
        pivots = self._pivots
        residual = [scale * v for v in num]
        coords = []
        for row, col in zip(reversed(rows), reversed(pivots)):
            c, rem = divmod(residual[col], den * row[col])
            if rem:
                return None
            if c:
                step = c * den
                residual = [v - step * e for v, e in zip(residual, row)]
            coords.append(c)
        if any(v for j, v in enumerate(residual) if j not in pivots):
            return None
        return tuple(reversed(coords))

    def coords_of(self, x: Quaternion) -> tuple[int, ...] | None:
        """Integer coordinates of x in this basis, or None when x is not a member."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        den = lcm(*(c.denominator for c in x.coords))
        coords = self._solve([c.numerator * (den // c.denominator) for c in x.coords], den)
        if coords is None or self._from_hnf is None:
            return coords
        return tuple(combine_rows(coords, self._from_hnf))

    def contains(self, x: Quaternion) -> bool:
        return self.coords_of(x) is not None

    def products_outside(self):
        """Yield each product of basis vectors that is not in the lattice.

        A product u * v is yielded as the integer row m = s^2 * (u * v), for
        s the lcm of the denominators of the basis; u runs over the basis in
        the outer loop, v in the inner one.  The lattice is closed under
        multiplication iff nothing is yielded.
        """
        scale, rows = self._rows
        a, p = self.algebra.a, self.algebra.p
        den = scale * scale
        for u in rows:
            for v in rows:
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
        """Inner products (1/2) Trd(b_i * conj(b_j)) of the lattice's own basis."""
        scale, rows = self._rows
        return GramMatrix(tuple(tuple(Fraction(g, scale * scale) for g in row)
                                for row in integer_gram(self.algebra, rows)))

    def pivot_product(self) -> int:
        """Product of the pivots of H; det H in rank 4, where H is triangular."""
        return prod(row[col] for row, col in zip(self.hnf[1], self._pivots))

    def det(self) -> Fraction:
        """Gram determinant; invariant under unimodular basis change.

        (ap det H)^2 / s^8 in rank 4; in lower rank det(S) / s^(2r) for the
        integer Gram S of the rows of H.
        """
        scale, rows = self.hnf
        if self.rank == 4:
            ap = self.algebra.a * self.algebra.p
            return Fraction((ap * self.pivot_product()) ** 2, scale ** 8)
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
        and their Gram s^2 G (Sylvester's criterion, then greedy reduction);
        each output vector becomes a quaternion once.
        """
        if self.rank > 3:
            raise RankError("reduction is only supported up to rank 3")
        scale, rows = self.hnf
        gram = integer_gram(self.algebra, rows)
        if not is_positive_definite(gram):
            raise RankError("Gram matrix is not positive definite")
        weights = norm_weights(self.algebra)
        vecs = []
        for t in greedy_reduce(gram):
            v = combine_rows(t, rows)
            sign = 1 if next(c for c in v if c) > 0 else -1
            vecs.append(tuple(sign * c for c in v))
        vecs.sort(key=lambda v: (sum(w * c * c for w, c in zip(weights, v)), v))
        return Lattice(self.algebra, [row_quaternion(self.algebra, v, scale) for v in vecs])

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
    weighted = [[n * c for n, c in zip(weights, row)] for row in rows]
    return [[sum(x * y for x, y in zip(wu, v)) for v in rows] for wu in weighted]


def row_quaternion(algebra: AlgebraParams, row, den: int) -> Quaternion:
    """The quaternion with coordinates row / den."""
    return algebra.quat(*(Fraction(c, den) for c in row))
