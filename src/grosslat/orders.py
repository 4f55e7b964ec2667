"""Orders in the definite quaternion algebra.

An order is a rank-4 lattice containing 1, closed under multiplication,
whose elements are all integral.  Its invariants are read off the HNF rows
H = s * b_i of its lattice: the trace Gram T_ij = Trd(b_i * conj(b_j)) is
2 H W H^T / s^2 for W = diag(1, a, p, ap), and the reduced discriminant,
the square root of det T, is 4ap det(H) / s^4 (Voight, Quaternion Algebras,
ch. 15); it is exactly p for a maximal order.  The ideal of elements with
norm divisible by p is p times the trace dual of O.

A non-maximal order is enlarged by scanning the cosets of (1/q)O over O
for integral elements outside O; adjoining one shrinks the discriminant.  For
y = sum c_i b_i, the element y/q is integral iff q | sum c_i Trd(b_i) and
2q^2 | c^T T c, since Trd(y) = sum c_i Trd(b_i) and 2 Nrd(y) = c^T T c;
the scan solves the first for c_3 and splits the second at the head
(c_0, c_1, c_2), so each coset costs a few integer products.  Cosets and
closure stay integer rows, and the covolume floor that ends a closure is
an integer comparison.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (AlgebraInconsistency, IntegralityError, LiftError, NotAnOrder, NotMaximal,
                     RankError, SaturationError)
from .lattice import Lattice, cleared_rows, integer_gram, norm_weights, row_quaternion
from .linalg import adjugate, combine_rows, smallest_prime_factor
from .quat import AlgebraParams, Quaternion, mul_coords


class Order:
    """A verified order; construction raises NotAnOrder when the axioms fail."""

    # _gross_form caches `forms.gross_form`, the norm form on the reduced Gross basis
    __slots__ = ("lattice", "_gross_lattice", "_reduced_gross", "_gross_form")

    def __init__(self, lattice: Lattice):
        if lattice.rank != 4:
            raise RankError(f"an order must have rank 4, got {lattice.rank}")
        if not lattice.contains(lattice.algebra.one):
            raise NotAnOrder("lattice does not contain 1")
        scale, rows = lattice.hnf  # with 1 in it, the first row spans the meet with Q
        if rows[0][0] != scale:
            raise NotAnOrder(f"lattice does not meet Q in exactly Z: it holds 1/{scale // rows[0][0]}")
        if not lattice.basis_is_integral():
            raise NotAnOrder("a basis element is not integral")
        outside = next(lattice._products_outside(), None)
        if outside is not None:
            outside = row_quaternion(lattice.algebra, outside, scale * scale)
            raise NotAnOrder(f"not closed under multiplication: {outside} is outside")
        self._adopt(lattice)

    def _adopt(self, lattice: Lattice) -> "Order":
        """Take the lattice as it is: after the checks above, or from `_adjoin` or
        `order_from_pair`, which show their lattices to hold 1 and be integral and closed."""
        self.lattice = lattice
        self._gross_lattice = self._reduced_gross = self._gross_form = None
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
        """
        scale, rows = self.lattice.hnf
        den = scale * scale
        doubled = [[2 * g for g in row] for row in integer_gram(self.algebra, rows)]
        if any(g % den for row in doubled for g in row):
            raise AlgebraInconsistency("trace form of the order is not integral")
        return [[g // den for g in row] for row in doubled]

    def reduced_discriminant(self) -> int:
        """4ap det(H) / s^4, the square root of det T; equals p iff maximal."""
        ap = self.algebra.a * self.algebra.p
        disc, rem = divmod(4 * ap * self.lattice.pivot_product(), self.lattice.hnf[0] ** 4)
        if rem:
            raise AlgebraInconsistency("reduced discriminant is not an integer")
        return disc

    def is_maximal(self) -> bool:
        return self.reduced_discriminant() == self.algebra.p

    # -- Gross bases ----------------------------------------------------------

    def gross_basis(self) -> tuple[Quaternion, Quaternion, Quaternion]:
        """Images 2x - Trd(x) of the non-unit canonical basis vectors, in order."""
        return self.gross_lattice().basis

    def gross_lattice(self) -> Lattice:
        if self._gross_lattice is None:
            self._gross_lattice = self.lattice.gross_image()
        return self._gross_lattice

    def reduced_gross_lattice(self) -> Lattice:
        """The Gross lattice on its Minkowski-reduced basis, computed once per order."""
        if self._reduced_gross is None:
            self._reduced_gross = self.gross_lattice().minkowski_reduced()
        return self._reduced_gross

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
        det, adj = adjugate(self.trace_gram())
        generators = []
        for coeffs in adj:
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
    elements must be linearly independent.  All of it runs on the cleared
    rows u = s * alpha and v = s * beta: integrality is s | 2 u_0 and
    s^2 | u^T W u (`Lattice.basis_is_integral`), m = u * v is s^2 alpha*beta,
    so Trd(alpha*beta) = 2 m_0 / s^2, and the lattice is spanned by the rows
    (s^2, 0, 0, 0), s * u, s * v and m over s^2.

    The lattice is adopted without `Order`'s checks, which cannot fail here:
    it holds 1, and it is closed, since alpha^2 = Trd(alpha) alpha - Nrd(alpha),
    likewise beta^2, and beta alpha = Trd(alpha) beta + Trd(beta) alpha
    + Trd(alpha beta) - Trd(alpha) Trd(beta) - alpha beta.  A ring that is a
    lattice has only integral elements, and an order meets Q in exactly Z.
    """
    alpha._check_same_algebra(beta)
    algebra = alpha.algebra
    scale, (u, v) = cleared_rows((alpha, beta))
    den = scale * scale
    weights = norm_weights(algebra)
    for x, r in ((alpha, u), (beta, v)):
        if 2 * r[0] % scale or sum(w * c * c for w, c in zip(weights, r)) % den:
            raise IntegralityError(f"{x} is not integral")
    m = mul_coords(algebra.a, algebra.p, u, v)
    if 2 * m[0] % den:
        raise IntegralityError(f"Trd(alpha*beta) = {Fraction(2 * m[0], den)} is not an integer")
    lat = Lattice._from_rows(algebra, den, [(den, 0, 0, 0), [scale * c for c in u],
                                            [scale * c for c in v], m])
    if lat.rank != 4:
        raise RankError("1, alpha, beta, alpha*beta are linearly dependent")
    return Order.__new__(Order)._adopt(lat)


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
    (closed under multiplication, iterated to stability) yields an order is
    taken; as y/q is outside O, that divides the discriminant by the index.
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
    for y in _integral_cosets(order, q):
        candidate = _adjoin(order, y, q)
        if candidate is not None:
            return candidate
    return None


def _integral_cosets(order: Order, q: int):
    """Yield the row sum c_i H_i of each nonzero y = sum c_i b_i, 0 <= c_i < q,
    with y/q integral; H = s * b_i are the HNF rows, so y/q is that row over sq.

    The c run in `product(range(q), repeat=4)` order over the canonical
    basis.  Trd(y) = sum c_i Trd(b_i) and 2 Nrd(y) = c^T T c for the trace
    Gram T, so y/q is integral iff q divides the first and 2q^2 the second.
    The HNF puts the scalar part of b_3 in [0, 1), so Trd(b_3) is 0 or 1 and
    the first fixes c_3 when it is 1; when it is 0, every c_3 or none passes.
    The second is split at the head h = (c_0, c_1, c_2, 0): with v = T h and
    Q(h) = h . v, c^T T c = Q(h) + c_3 (2 v_3 + T_33 c_3).  The same split at
    (c_0, c_1, 0, 0) gives v and Q(h) from one row of T per head.
    """
    scale, rows = order.lattice.hnf
    gram = order.trace_gram()
    t0, t1, t2, t3 = (2 * row[0] // scale for row in rows)
    t22, t23, t33 = gram[2][2], gram[2][3], gram[3][3]
    two_q2 = 2 * q * q
    for c0 in range(q):
        for c1 in range(q):
            u = [c0 * g0 + c1 * g1 for g0, g1 in zip(gram[0], gram[1])]  # T (c0, c1, 0, 0)
            norm01, twice_u2 = c0 * u[0] + c1 * u[1], 2 * u[2]
            trace01 = c0 * t0 + c1 * t1
            for c2 in range(q):
                rest = -(trace01 + c2 * t2) % q
                if rest and not t3:
                    continue
                c3s = (rest,) if t3 else range(q)
                norm = norm01 + c2 * (twice_u2 + t22 * c2)
                twice_v3 = 2 * (u[3] + c2 * t23)
                for c3 in c3s:
                    if not (norm + c3 * (twice_v3 + t33 * c3)) % two_q2 and (c0 or c1 or c2 or c3):
                        yield combine_rows((c0, c1, c2, c3), rows)


def _adjoin(order: Order, y, q: int) -> Order | None:
    """The order on the smallest closed lattice containing O and x, or None.

    x = y / (sq) is integral (`_integral_cosets`).  Iterated closure on
    integer rows (`Lattice._products_outside`); bails out when a basis element
    goes non-integral or the covolume drops below that of a maximal order:
    det Gram = (ap det H)^2 / s^8 < p^2 / 16, tested in integers as
    16 (ap det H)^2 < p^2 s^8.  Each round adds a product outside the current
    lattice, so det Gram falls by a factor >= 4 and the floor ends the loop.
    Once integral, a lattice holding 1 holds no 1/n, so its HNF basis starts
    with 1 as `_products_outside` requires.  The lattice returned contains 1,
    is integral and closed: it becomes an Order without a second check.
    """
    p, ap = order.algebra.p, order.algebra.a * order.algebra.p
    lattice, factor, extra = order.lattice, q, [y]
    while True:
        # of rank 4: spanned by the last one, over s, and the rows extra over s * factor
        scale, rows = lattice.hnf
        lattice = Lattice._from_rows(order.algebra, scale * factor,
                                     [*([factor * e for e in row] for row in rows), *extra])
        if (16 * (ap * lattice.pivot_product()) ** 2 < p * p * lattice.hnf[0] ** 8
                or not lattice.basis_is_integral()):
            return None
        extra = list(lattice._products_outside())
        if not extra:
            return Order.__new__(Order)._adopt(lattice)
        factor = lattice.hnf[0]
