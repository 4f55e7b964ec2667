"""Both directions of the trace-zero element / rank-2 sublattice correspondence.

A pair (g1, g2) of Gross-lattice vectors yields the trace-zero order element

    alpha = (1/2) g1 conj(g2) - (1/4) Trd(g1 conj(g2)),

whose norm is a quarter of the pair determinant.  Conversely, a trace-zero
element of norm divisible by p has integer coordinates (a1, a2, a3) in the
bracket basis, and any integer 2x3 matrix whose minors reproduce

    a1 = c12 c21 - c11 c22,  a2 = c13 c21 - c11 c23,  a3 = c13 c22 - c12 c23

recovers a pair with determinant 4*Nrd(alpha).  These minor signs are used
throughout this module; they must not be mixed with the opposite convention
used by the determinant form in `forms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .commutator_ideal import trace_zero_commutator_basis
from .errors import (
    AlgebraInconsistency,
    DegeneratePair,
    MembershipError,
    NormError,
    TraceError,
)
from .forms import TernaryForm, representations
from .lattice import Lattice
from .linalg import xgcd
from .orders import Order
from .quat import Quaternion, inner


@dataclass(frozen=True)
class CoeffMatrix:
    """Integer 2x3 coefficient matrix ((c11, c12, c13), (c21, c22, c23))."""

    rows: tuple[tuple[int, int, int], tuple[int, int, int]]

    def minors(self) -> tuple[int, int, int]:
        (c11, c12, c13), (c21, c22, c23) = self.rows
        return (
            c12 * c21 - c11 * c22,
            c13 * c21 - c11 * c23,
            c13 * c22 - c12 * c23,
        )


@dataclass(frozen=True)
class SublatticePair:
    """Two independent Gross-lattice vectors spanning a rank-2 sublattice."""

    gamma1: Quaternion
    gamma2: Quaternion

    def det(self) -> Fraction:
        return pair_determinant(self.gamma1, self.gamma2)


def pair_determinant(g1: Quaternion, g2: Quaternion) -> Fraction:
    """Nrd(g1)Nrd(g2) - (1/4)Trd(g1 conj(g2))^2, the rank-2 Gram determinant."""
    return inner(g1, g1) * inner(g2, g2) - inner(g1, g2) ** 2


def sublattice_to_endo(order: Order, g1: Quaternion, g2: Quaternion) -> Quaternion:
    """Trace-zero element of the order built from a rank-2 Gross sublattice.

    The result has Nrd = (pair determinant)/4.
    """
    gross = order.gross_lattice()
    for g in (g1, g2):
        if not gross.contains(g):
            raise MembershipError(f"{g} is not in the Gross lattice of the order")
    det = pair_determinant(g1, g2)
    if det == 0:
        raise DegeneratePair("the two vectors are linearly dependent")
    prod = g1 * g2.conjugate()
    alpha = prod / 2 - prod.reduced_trace() / 4
    if not order.contains(alpha):
        raise AlgebraInconsistency(f"constructed element {alpha} escaped the order")
    return alpha


def plucker_lift(a1: int, a2: int, a3: int) -> CoeffMatrix:
    """Integer 2x3 matrix whose minors reproduce (a1, a2, a3).

    When a1 = a2 = 0 the matrix is supported on c12 = a3, c23 = -1 (all-zero
    input gives the zero matrix).  Otherwise c11 = gcd(a1, a2) and (c12, c13)
    is the minimal solution of a2*c12 - a1*c13 = c11*a3 with c12 >= 0 reduced
    modulo |a1|/c11 (c13 = 0 when a1 = 0).
    """
    if a1 == 0 and a2 == 0:
        if a3 == 0:
            return CoeffMatrix(((0, 0, 0), (0, 0, 0)))
        return CoeffMatrix(((0, a3, 0), (0, 0, -1)))
    g, u, v = xgcd(a1, a2)
    c11 = g
    c22 = -(a1 // g)
    c23 = -(a2 // g)
    # particular solution of a2*c12 - a1*c13 = g*a3: (c12, c13) = a3*(v, -u)
    c12 = v * a3
    c13 = -u * a3
    if a1 != 0:
        step = abs(a1) // g
        shift = c12 // step
        c12 -= shift * step
        c13 = (a2 * c12 - g * a3) // a1
    else:
        c12 = (g * a3) // a2
        c13 = 0
    return CoeffMatrix(((c11, c12, c13), (0, c22, c23)))


def endo_to_sublattice(order: Order, alpha: Quaternion) -> SublatticePair:
    """Rank-2 Gross sublattice pair reconstructing a trace-zero element.

    Requires alpha in the order with trace zero and norm divisible by p; the
    returned pair satisfies the reconstruction identity exactly and has
    determinant 4*Nrd(alpha).
    """
    p = order.algebra.p
    if not order.contains(alpha):
        raise MembershipError(f"{alpha} is not in the order")
    if alpha.reduced_trace() != 0:
        raise TraceError(f"Trd = {alpha.reduced_trace()}, expected 0")
    norm = alpha.reduced_norm()
    if norm % p != 0:
        raise NormError(f"Nrd = {norm} is not divisible by p = {p}")
    triple = trace_zero_commutator_basis(order)
    coords = Lattice(order.algebra, triple).coords_of(alpha)
    if coords is None:
        raise MembershipError(
            "element is not in the trace-zero sublattice of the commutator ideal")
    coeff = plucker_lift(*coords)
    b = order.gross_basis()
    (c11, c12, c13), (c21, c22, c23) = coeff.rows
    g1 = c11 * b[0] + c12 * b[1] + c13 * b[2]
    g2 = c21 * b[0] + c22 * b[1] + c23 * b[2]
    prod = g1 * g2.conjugate()
    rebuilt = prod / 2 - prod.reduced_trace() / 4
    if rebuilt != alpha:
        raise AlgebraInconsistency("pair does not reconstruct the element")
    return SublatticePair(g1, g2)


def search_elements(order: Order, trace: int, norm: int) -> list[Quaternion]:
    """All x in the order with Trd(x) = trace and Nrd(x) = norm.

    Writes x = (trace + g)/2 with g in the Gross lattice of norm
    4*norm - trace^2 and enumerates g exactly with the integer kernel
    `forms.representations` on the Gross Gram form.  For the normalized
    basis {1, a_i}, g = sum c_i (2 a_i - Trd a_i) and s = sum c_i Trd(a_i),
    x = (trace - s)/2 + sum c_i a_i lies in the order iff trace - s is even.
    It always is, as Nrd(g) = 4 Nrd(y) - s^2 for y = sum c_i a_i; an odd
    value raises AlgebraInconsistency.  The empty list is a valid result.
    """
    target = 4 * norm - trace * trace
    if norm < 0 or target < 0:
        return []
    one, *units = order.normalized_basis()
    if target == 0:  # 4 * norm = trace^2 makes trace even
        return [one * (trace // 2)]
    b = order.gross_basis()
    form = TernaryForm.from_gram([[inner(u, v) for v in b] for u in b])
    traces = [a.reduced_trace().numerator for a in units]
    found = []
    for coeffs in representations(form, target):
        twice_scalar = trace - sum(c * t for c, t in zip(coeffs, traces))
        if twice_scalar % 2:
            raise AlgebraInconsistency(f"(trace + g)/2 escaped the order at g = {coeffs}")
        x = one * (twice_scalar // 2)
        for c, a in zip(coeffs, units):
            x = x + c * a
        found.append(x)
    found.sort(key=lambda q: q.coords)
    return found
