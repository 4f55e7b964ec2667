"""Integer lattices of rank <= 4 inside the quaternion algebra.

A lattice is stored with an explicit ordered basis of quaternions.  Its
canonical form clears denominators and takes the row Hermite normal form in
the trailing-pivot convention; two lattices are equal iff the canonical
bases coincide.  Constructors that canonicalize (``Lattice.from_generators``)
return the HNF basis, while operations that care about a particular basis
(Minkowski reduction) keep their own ordering.

Membership is integer arithmetic only.  Each lattice computes once, on its
first membership query, the adjugate and determinant of an r x r minor of
its basis with denominators cleared (the whole basis in rank 4, the first
nonsingular choice of r columns below).  Coordinates of x are then one
integer vector-matrix product and an exact division; a candidate is
accepted only after re-multiplying by the basis reproduces x exactly.

Closure, integrality, the determinant and reduction use the same cleared
rows s * b_i.  Two rows multiply to an integer m with b_i * b_j = m / s^2,
so `products_outside` tests the r^2 products with the cached adjugate.
`basis_is_integral` reads Trd and Nrd off each row.  `det` is
det(S) / s^(2r) for the integer Gram S = s^2 G of the rows under the norm
form (1, a, p, ap), and `minkowski_reduced` runs greedy reduction on S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import (
    AlgebraMismatch,
    ContainmentError,
    EmptyLatticeInput,
    RankError,
)
from .linalg import adjugate, det_fractions, det_int, hnf_rows
from .linalg import solve_left  # noqa: F401  (perfbench's tracer patches it in this namespace)
from .quat import AlgebraParams, Quaternion, gross_map, inner, mul_coords, rat_str
from .reduction import greedy_reduce


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise inner products (1/2)Trd(b_i * conj(b_j))."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_quaternions(cls, basis) -> "GramMatrix":
        rows = tuple(tuple(inner(u, v) for v in basis) for u in basis)
        return cls(rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.size))

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading principal minor is positive."""
        return all(det_fractions([list(row[:k]) for row in self.entries[:k]]) > 0
                   for k in range(1, self.size + 1))

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def to_strings(self) -> list[list[str]]:
        return [[rat_str(e) for e in row] for row in self.entries]


class Lattice:
    """Finitely generated Z-lattice in the algebra, with an ordered basis."""

    __slots__ = ("algebra", "basis", "_canonical", "_inverse")

    def __init__(self, algebra: AlgebraParams, basis, *, _assume_independent: bool = False):
        basis = tuple(basis)
        for q in basis:
            if q.algebra != algebra:
                raise AlgebraMismatch("basis vector from a different algebra")
        self.algebra = algebra
        self.basis = basis
        self._canonical = None
        self._inverse = None
        if not _assume_independent and basis:
            # the canonical HNF basis drops exactly the dependent directions
            if len(self.canonical_basis) != len(basis):
                raise RankError("basis vectors are linearly dependent")

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
        basis = _canonical_basis(algebra, generators)
        lat = cls(algebra, basis, _assume_independent=True)
        lat._canonical = basis
        return lat

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def canonical_basis(self) -> tuple[Quaternion, ...]:
        if self._canonical is None:
            if self.basis:
                self._canonical = _canonical_basis(self.algebra, list(self.basis))
            else:
                self._canonical = ()
        return self._canonical

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return (self.algebra == other.algebra
                and self.canonical_basis == other.canonical_basis)

    def __hash__(self) -> int:
        return hash((self.algebra, self.canonical_basis))

    def __repr__(self) -> str:
        return f"Lattice(rank={self.rank}, basis={[str(b) for b in self.basis]})"

    # -- membership --------------------------------------------------------

    def coords_of(self, x: Quaternion) -> tuple[int, ...] | None:
        """Integer coordinates of x in this basis, or None when x is not a member."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        if self.rank == 0:
            return () if not x else None
        coords = x.coords
        den = lcm(*(c.denominator for c in coords))
        return self._cleared_coords([c.numerator * (den // c.denominator) for c in coords], den)

    def _cleared_coords(self, num, den: int) -> tuple[int, ...] | None:
        """Integer coordinates of num / den for an integer vector num, or None."""
        scale, rows, cols, adj, det = self._integer_inverse()
        # the coordinates c solve c * rows = scale * num / den
        picked = [scale * num[j] for j in cols]
        div = den * det
        sol = []
        for k in range(len(cols)):
            t = sum(v * row[k] for v, row in zip(picked, adj))
            if t % div:
                return None
            sol.append(t // div)
        for j in range(4):
            if den * sum(c * row[j] for c, row in zip(sol, rows)) != scale * num[j]:
                return None
        return tuple(sol)

    def _integer_inverse(self):
        """(scale, rows, cols, adj, det): rows = scale * basis is integral and
        adj * rows[:, cols] = det * identity with det != 0; computed once."""
        if self._inverse is None:
            scale, rows = cleared_rows(self.basis)
            for cols in combinations(range(4), self.rank):
                minor = [[row[j] for j in cols] for row in rows]
                det = det_int(minor)
                if det:
                    break
            self._inverse = (scale, rows, cols, adjugate(minor), det)
        return self._inverse

    def contains(self, x: Quaternion) -> bool:
        return self.coords_of(x) is not None

    def products_outside(self):
        """Yield each product u * v of basis vectors that is not in the lattice.

        u runs over the basis in the outer loop, v in the inner one.  The
        products are taken of the cleared integer rows and tested with the
        membership adjugate; only a product outside becomes a quaternion.
        The lattice is closed under multiplication iff nothing is yielded.
        """
        scale, rows = self._integer_inverse()[:2]
        a, p = self.algebra.a, self.algebra.p
        den = scale * scale
        for u in rows:
            for v in rows:
                m = mul_coords(a, p, u, v)
                if self._cleared_coords(m, den) is None:
                    yield self.algebra.quat(*(Fraction(c, den) for c in m))

    def basis_is_integral(self) -> bool:
        """True when every basis vector has integral reduced trace and norm.

        For a cleared row r = s * b, Trd(b) = 2 r_0 / s and Nrd(b) = r^T W r / s^2
        with W = diag(1, a, p, ap): the test is s | 2 r_0 and s^2 | r^T W r.
        """
        scale, rows = self._integer_inverse()[:2]
        weights = norm_weights(self.algebra)
        return all(2 * r[0] % scale == 0
                   and sum(w * c * c for w, c in zip(weights, r)) % (scale * scale) == 0
                   for r in rows)

    # -- invariants ----------------------------------------------------------

    def gram(self) -> GramMatrix:
        return GramMatrix.from_quaternions(self.basis)

    def det(self) -> Fraction:
        """Gram determinant; invariant under unimodular basis change.

        Computed in integers: det(S) / s^(2r) for the cleared rows s * b_i
        and their integer Gram S.
        """
        scale, rows = cleared_rows(self.basis)
        return Fraction(det_int(integer_gram(self.algebra, rows)), scale ** (2 * self.rank))

    def index_in(self, sup: "Lattice") -> int:
        """Index [sup : self] for a finite-index sublattice of equal rank."""
        if self.algebra != sup.algebra:
            raise AlgebraMismatch("lattices in different algebras")
        if self.rank != sup.rank:
            raise ContainmentError(
                f"rank mismatch: {self.rank} vs {sup.rank}")
        if self.rank == 0:
            return 1
        coord_rows = []
        for b in self.basis:
            c = sup.coords_of(b)
            if c is None:
                raise ContainmentError(f"{b} is not in the claimed superlattice")
            coord_rows.append(list(c))
        return abs(det_int(coord_rows))

    # -- derived lattices ----------------------------------------------------

    def gross_image(self) -> "Lattice":
        """Lattice {2x - Trd(x) : x in L}; drops one rank for a unital order."""
        if not self.basis:
            return Lattice(self.algebra, ())
        images = [gross_map(b) for b in self.basis]
        if not any(images):
            return Lattice(self.algebra, ())
        return Lattice.from_generators(self.algebra, images)

    def minkowski_reduced(self) -> "Lattice":
        """Basis achieving the successive minima (rank <= 3, greedy reduction).

        The result spans the same lattice; its Gram diagonal is nondecreasing.
        Ties are broken by coordinate order with the first nonzero coordinate
        of every basis vector made positive.  Integer work on the cleared
        canonical rows s * b_i and their Gram s^2 G (Sylvester's criterion,
        then greedy reduction); each output vector becomes a quaternion once.
        """
        if self.rank > 3:
            raise RankError("reduction is only supported up to rank 3")
        scale, rows = cleared_rows(self.canonical_basis)
        gram = integer_gram(self.algebra, rows)
        if not all(det_int([row[:k] for row in gram[:k]]) > 0 for k in range(1, self.rank + 1)):
            raise RankError("Gram matrix is not positive definite")
        weights = norm_weights(self.algebra)
        vecs = []
        for t in greedy_reduce(gram):
            v = [sum(c * row[j] for c, row in zip(t, rows)) for j in range(4)]
            sign = 1 if next(c for c in v if c) > 0 else -1
            vecs.append(tuple(sign * c for c in v))
        vecs.sort(key=lambda v: (sum(w * c * c for w, c in zip(weights, v)), v))
        return Lattice(self.algebra, [self.algebra.quat(*(Fraction(c, scale) for c in v))
                                      for v in vecs], _assume_independent=True)

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
        if not gens:
            return cls(algebra, ())
        return cls.from_generators(algebra, gens)


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


def _canonical_basis(algebra: AlgebraParams, generators) -> tuple[Quaternion, ...]:
    scale, rows = cleared_rows(generators)
    hnf = hnf_rows(rows)
    return tuple(
        algebra.quat(*(Fraction(e, scale) for e in row)) for row in hnf
    )
