"""Explicit bases for the commutator ideal of a maximal order.

With normalized order basis {1, a1, a2, a3}, the four brackets
{[a1,a2], [a1,a3], [a2,a3], a1*[a2,a3]} span the commutator ideal, which
equals the ideal of elements of norm divisible by p and has index p^2.
The three brackets alone span its trace-zero sublattice; in terms of the
Gross basis b_i = 2a_i - Trd(a_i) they are (b_i b_j - b_j b_i)/4.  They are
computed once, as s^2 [a_i, a_j] = H_i H_j - H_j H_i on the HNF rows H_i = s a_i.
"""

from __future__ import annotations

from .errors import NotMaximal
from .lattice import Lattice, row_quaternion
from .orders import Order
from .quat import Quaternion, mul_coords


def _brackets(order: Order, message: str):
    """(s, H_1, rows s^2 [a1,a2], s^2 [a1,a3], s^2 [a2,a3]); NotMaximal unless maximal."""
    if not order.is_maximal():
        raise NotMaximal(message)
    a, p = order.algebra.a, order.algebra.p
    scale, (_, h1, h2, h3) = order.lattice.hnf
    return scale, h1, [[x - y for x, y in zip(mul_coords(a, p, u, v), mul_coords(a, p, v, u))]
                       for u, v in ((h1, h2), (h1, h3), (h2, h3))]


def commutator_basis(order: Order) -> Lattice:
    """Rank-4 lattice spanned by the bracket basis; index p^2 in the order."""
    scale, h1, brackets = _brackets(
        order, "the bracket basis spans the norm ideal only for maximal orders")
    fourth = mul_coords(order.algebra.a, order.algebra.p, h1, brackets[2])  # s^3 a1[a2,a3]
    return Lattice._from_rows(order.algebra, scale ** 3,
                              [[scale * e for e in c] for c in brackets] + [fourth])


def trace_zero_commutator_basis(order: Order) -> tuple[Quaternion, Quaternion, Quaternion]:
    """Ordered basis of the trace-zero sublattice of the commutator ideal.

    Kept as an ordered triple (not canonicalized): the correspondence between
    trace-zero elements and coefficient matrices needs coordinates in exactly
    this basis.
    """
    scale, _, brackets = _brackets(order, "requires a maximal order")
    return tuple(row_quaternion(order.algebra, c, scale * scale) for c in brackets)
