"""Orders in the definite quaternion algebra.

An order is a rank-4 lattice containing 1, closed under multiplication,
whose elements are all integral.  Its invariants are read off the HNF rows
H = s * b_i of its lattice: the trace Gram T_ij = Trd(b_i * conj(b_j)) is
2 H W H^T / s^2 for W = diag(1, a, p, ap), and the reduced discriminant,
the square root of det T, is 4ap det(H) / s^4 (Voight, Quaternion Algebras,
ch. 15); it is exactly p for a maximal order.  The ideal of elements with
norm divisible by p is p times the trace dual of O.

A non-maximal order is enlarged by scanning the cosets of (1/q)O over O
for integral elements whose adjunction shrinks the discriminant.  For
y = sum c_i b_i, the element y/q is integral iff q | sum c_i Trd(b_i) and
2q^2 | c^T T c, since Trd(y) = sum c_i Trd(b_i) and 2 Nrd(y) = c^T T c.
Cosets and closure stay integer rows; no quaternion is built on the way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import (AlgebraInconsistency, IntegralityError, LiftError, NotAnOrder, NotMaximal,
                     RankError, SaturationError)
from .lattice import Lattice, cleared_rows, integer_gram, row_quaternion
from .linalg import adjugate, combine_rows, det_int, smallest_prime_factor
from .quat import AlgebraParams, Quaternion, gross_map


class Order:
    """A verified order; construction raises NotAnOrder when the axioms fail."""

    __slots__ = ("lattice", "_trace_gram", "_discriminant", "_gross_lattice")

    def __init__(self, lattice: Lattice):
        if lattice.rank != 4:
            raise RankError(f"an order must have rank 4, got {lattice.rank}")
        if not lattice.contains(lattice.algebra.one):
            raise NotAnOrder("lattice does not contain 1")
        if not lattice.basis_is_integral():
            raise NotAnOrder("a basis element is not integral")
        outside = next(lattice.products_outside(), None)
        if outside is not None:
            scale = cleared_rows(lattice.basis)[0]
            outside = row_quaternion(lattice.algebra, outside, scale * scale)
            raise NotAnOrder(f"not closed under multiplication: {outside} is outside")
        self._adopt(lattice)

    def _adopt(self, lattice: Lattice) -> "Order":
        """Take the lattice as it is: after the checks above, or from `_adjoin`,
        which has just shown its lattice to hold 1 and be integral and closed."""
        self.lattice = lattice
        self._trace_gram = self._discriminant = self._gross_lattice = None
        return self

    @property
    def algebra(self) -> AlgebraParams:
        return self.lattice.algebra

    def __eq__(self, other) -> bool:
        if not isinstance(other, Order):
            return NotImplemented
        return self.lattice == other.lattice

    def __hash__(self) -> int:
        return hash(self.lattice)

    def __repr__(self) -> str:
        return f"Order({self.lattice!r})"

    def contains(self, x: Quaternion) -> bool:
        return self.lattice.contains(x)

    # -- discriminant and maximality -------------------------------------

    def trace_gram(self) -> list[list[int]]:
        """The integer matrix T_ij = Trd(b_i * conj(b_j)) of the canonical basis.

        T = 2 S / s^2 for the integer Gram S of the HNF rows H = s * b_i.
        Computed once per order.
        """
        if self._trace_gram is None:
            scale, rows = self.lattice.hnf
            den = scale * scale
            doubled = [[2 * g for g in row] for row in integer_gram(self.algebra, rows)]
            if any(g % den for row in doubled for g in row):
                raise AlgebraInconsistency("trace form of the order is not integral")
            self._trace_gram = [[g // den for g in row] for row in doubled]
        return self._trace_gram

    def reduced_discriminant(self) -> int:
        """4ap det(H) / s^4, the square root of det T; equals p iff maximal."""
        if self._discriminant is None:
            ap = self.algebra.a * self.algebra.p
            disc, rem = divmod(4 * ap * self.lattice.pivot_product(), self.lattice.hnf[0] ** 4)
            if rem:
                raise AlgebraInconsistency("reduced discriminant is not an integer")
            self._discriminant = disc
        return self._discriminant

    def is_maximal(self) -> bool:
        return self.reduced_discriminant() == self.algebra.p

    # -- normalized and Gross bases ----------------------------------------

    def normalized_basis(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        """Canonical basis in the shape {1, a1, a2, a3}.

        The trailing-pivot HNF of an order always exposes 1 as its first
        basis vector, with the scalar parts of the rest reduced into [0, 1).
        """
        basis = self.lattice.canonical_basis
        if basis[0] != self.algebra.one:
            raise AlgebraInconsistency("canonical order basis does not start with 1")
        return basis

    def gross_basis(self) -> tuple[Quaternion, Quaternion, Quaternion]:
        """Images 2x - Trd(x) of the non-unit normalized basis vectors."""
        _, a1, a2, a3 = self.normalized_basis()
        return (gross_map(a1), gross_map(a2), gross_map(a3))

    def gross_lattice(self) -> Lattice:
        if self._gross_lattice is None:
            self._gross_lattice = self.lattice.gross_image()
        return self._gross_lattice

    # -- the ideal of norms divisible by p -----------------------------------

    def norm_p_ideal(self) -> Lattice:
        """The lattice P = {x in O : p | Nrd(x)}, in closed form as p * O^#.

        O^# is the dual of O under Trd(x * conj(y)); for a maximal order it is
        P^{-1} and P^2 = pO (Voight, Quaternion Algebras, ch. 15-16).  For the
        integer trace Gram T of the basis, the rows of p * T^{-1} =
        p * adj(T) / det(T) are coordinates in O of a basis of p * O^#.
        """
        p = self.algebra.p
        if not self.is_maximal():
            raise NotMaximal("the norm-p ideal requires a maximal order")
        scale, rows = self.lattice.hnf
        trace_gram = self.trace_gram()
        det = det_int(trace_gram)
        generators = []
        for coeffs in adjugate(trace_gram):
            if any(p * c % det for c in coeffs):
                raise AlgebraInconsistency("p times the dual basis is not in the order")
            generators.append(combine_rows([p * c // det for c in coeffs], rows))
        return Lattice._from_rows(self.algebra, scale, generators)


def is_order(lattice: Lattice) -> bool:
    """True iff the rank-4 lattice is a unital, closed, integral ring."""
    try:
        Order(lattice)
    except NotAnOrder:
        return False
    return True


# -- constructors ------------------------------------------------------------


def order_from_pair(alpha: Quaternion, beta: Quaternion) -> Order:
    """The order with module basis {1, alpha, beta, alpha*beta}.

    Requires alpha and beta integral with integral Trd(alpha*beta); the four
    elements must be linearly independent.
    """
    alpha._check_same_algebra(beta)
    algebra = alpha.algebra
    if not alpha.is_integral():
        raise IntegralityError(f"{alpha} is not integral")
    if not beta.is_integral():
        raise IntegralityError(f"{beta} is not integral")
    prod = alpha * beta
    if prod.reduced_trace().denominator != 1:
        raise IntegralityError(f"Trd(alpha*beta) = {prod.reduced_trace()} is not an integer")
    gens = [algebra.one, alpha, beta, prod]
    lat = Lattice.from_generators(algebra, gens)
    if lat.rank != 4:
        raise RankError("1, alpha, beta, alpha*beta are linearly dependent")
    return Order(lat)


def lift_gross_basis(b1: Quaternion, b2: Quaternion, b3: Quaternion) -> Order:
    """Order with basis {1, (t1+b1)/2, (t2+b2)/2, (t3+b3)/2}, t_i in {0, 1}.

    Each parity t_i is forced by integrality of (t_i^2 + Nrd(b_i))/4; the
    minimal choice makes the output deterministic.  Raises LiftError when no
    parity works or when the lifted module is not an order.
    """
    algebra = b1.algebra
    lifted = []
    for b in (b1, b2, b3):
        if b.algebra != algebra:
            raise LiftError("Gross basis vectors in different algebras")
        if b.reduced_trace() != 0:
            raise LiftError(f"{b} does not have trace zero")
        norm = b.reduced_norm()
        if norm.denominator != 1:
            raise LiftError(f"Nrd({b}) is not an integer")
        t = next((t for t in (0, 1) if (t * t + int(norm)) % 4 == 0), None)
        if t is None:
            raise LiftError(f"no parity makes (t^2 + {norm})/4 integral")
        lifted.append((t + b) / 2)
    lat = Lattice.from_generators(algebra, [algebra.one, *lifted])
    if lat.rank != 4:
        raise LiftError("lifted vectors are linearly dependent")
    try:
        return Order(lat)
    except NotAnOrder as exc:
        raise LiftError(f"lifted module is not an order: {exc}") from exc


def extend_to_maximal(order: Order) -> Order:
    """Enlarge an order until its reduced discriminant equals p.

    For each prime q dividing the discriminant cofactor, the q^4 cosets
    y = sum c_i b_i, 0 <= c_i < q, of qO in O are visited in
    `product(range(q), repeat=4)` order over the canonical basis.  Of the
    cosets with y/q integral (`_integral_cosets`), the first whose adjunction
    (closed under multiplication, iterated to stability) strictly shrinks
    the discriminant is taken.
    """
    p = order.algebra.p
    current = order
    while True:
        disc = current.reduced_discriminant()
        if disc == p:
            return current
        if disc % p:
            raise SaturationError(
                f"discriminant {disc} is not a multiple of p = {p}")
        q = smallest_prime_factor(disc // p)
        enlarged = _enlarge_once(current, q)
        if enlarged is None:
            raise SaturationError(
                f"no enlarging element found at q = {q}, discriminant {disc}")
        current = enlarged


def _enlarge_once(order: Order, q: int) -> Order | None:
    disc = order.reduced_discriminant()
    for y in _integral_cosets(order, q):
        candidate = _adjoin(order, y, q)
        if candidate is not None and candidate.reduced_discriminant() < disc:
            return candidate
    return None


def _integral_cosets(order: Order, q: int):
    """Yield the row sum c_i H_i of each nonzero y = sum c_i b_i, 0 <= c_i < q,
    with y/q integral; H = s * b_i are the HNF rows, so y/q is that row over sq.

    The c run in `product(range(q), repeat=4)` order over the canonical
    basis.  Trd(y) = sum c_i Trd(b_i) and 2 Nrd(y) = c^T T c for the trace
    Gram T, so y/q is integral iff q divides the first and 2q^2 the second.
    """
    scale, rows = order.lattice.hnf
    gram = order.trace_gram()
    traces = [2 * row[0] // scale for row in rows]
    two_q2 = 2 * q * q
    for coeffs in product(range(q), repeat=4):
        if not any(coeffs):
            continue
        if sum(c * t for c, t in zip(coeffs, traces)) % q:
            continue
        if sum(c * sum(g * d for g, d in zip(row, coeffs))
               for c, row in zip(coeffs, gram)) % two_q2:
            continue
        yield combine_rows(coeffs, rows)


def _adjoin(order: Order, y, q: int) -> Order | None:
    """The order on the smallest closed lattice containing O and x, or None.

    x = y / (sq) is integral (`_integral_cosets`).  Iterated closure on
    integer rows (`Lattice.products_outside`); bails out when a basis element
    goes non-integral or the covolume drops below that of a maximal order
    (det Gram < p^2 / 16).  Each round adds a product outside the current
    lattice, so det Gram falls by a factor >= 4 and the floor ends the loop.
    The lattice returned contains 1, is integral and closed: it becomes an
    Order without a second check.
    """
    p = order.algebra.p
    floor_det = Fraction(p * p, 16)
    lattice, factor, extra = order.lattice, q, [y]
    while True:
        # the lattice spanned by the last one, over s, and the rows extra over s * factor
        scale, rows = lattice.hnf
        lattice = Lattice._from_rows(order.algebra, scale * factor,
                                     [*([factor * e for e in row] for row in rows), *extra])
        if lattice.rank != 4 or lattice.det() < floor_det or not lattice.basis_is_integral():
            return None
        extra = list(lattice.products_outside())
        if not extra:
            return Order.__new__(Order)._adopt(lattice)
        factor = lattice.hnf[0]
