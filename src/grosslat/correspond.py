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
from .forms import gross_form, representations
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


def _pair_element(g1: Quaternion, g2: Quaternion) -> Quaternion:
    """g1 conj(g2)/2 - Trd(g1 conj(g2))/4, the trace-zero element of the pair."""
    prod = g1 * g2.conjugate()
    return prod / 2 - prod.reduced_trace() / 4


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
    alpha = _pair_element(g1, g2)
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
    g, _, v = xgcd(a1, a2)
    # v * a3 solves a2*c12 = g*a3 modulo a1; c13 follows from c12
    if a1 != 0:
        c12 = v * a3 % (abs(a1) // g)
        c13 = (a2 * c12 - g * a3) // a1
    else:
        c12, c13 = g * a3 // a2, 0
    return CoeffMatrix(((g, c12, c13), (0, -(a1 // g), -(a2 // g))))


def endo_to_sublattice(order: Order, alpha: Quaternion) -> SublatticePair:
    """Rank-2 Gross sublattice pair reconstructing a trace-zero element.

    Requires a nonzero alpha in the order with trace zero and norm divisible
    by p; the returned pair satisfies the reconstruction identity exactly and
    has determinant 4*Nrd(alpha).
    """
    p = order.algebra.p
    if not order.contains(alpha):
        raise MembershipError(f"{alpha} is not in the order")
    if alpha.reduced_trace() != 0:
        raise TraceError(f"Trd = {alpha.reduced_trace()}, expected 0")
    norm = alpha.reduced_norm()
    if norm % p != 0:
        raise NormError(f"Nrd = {norm} is not divisible by p = {p}")
    if not alpha:
        raise DegeneratePair("the zero element has no rank-2 sublattice")
    triple = trace_zero_commutator_basis(order)
    coords = Lattice(order.algebra, triple).coords_of(alpha)
    if coords is None:
        raise MembershipError(
            "element is not in the trace-zero sublattice of the commutator ideal")
    coeff = plucker_lift(*coords)
    b = order.gross_basis()
    g1, g2 = (c1 * b[0] + c2 * b[1] + c3 * b[2] for c1, c2, c3 in coeff.rows)
    if _pair_element(g1, g2) != alpha:
        raise AlgebraInconsistency("pair does not reconstruct the element")
    return SublatticePair(g1, g2)


def search_elements(order: Order, trace: int, norm: int) -> list[Quaternion]:
    """All x in the order with Trd(x) = trace and Nrd(x) = norm, sorted by coordinates.

    Writes x = (trace + g)/2 for g = sum c_k r_k in the Gross lattice, r_k
    its reduced basis, and enumerates Nrd(g) = 4*norm - trace^2 exactly with
    the integer kernel `forms.representations` on `forms.gross_form`.  As
    g = 2y - Trd(y) for some y in the order, x lies in it iff trace is
    Trd(y) = Nrd(g) mod 2; the form's cross terms are even, so that reads
    trace = sum c_k Nrd(r_k) mod 2 off its diagonal.  It always holds, as
    Nrd(g) = 4*norm - trace^2; an odd value raises AlgebraInconsistency.
    The empty list is a valid result.
    """
    target = 4 * norm - trace * trace
    if norm < 0 or target < 0:
        return []
    form = gross_form(order)
    basis = order.reduced_gross_lattice().basis
    diagonal = (form.a, form.b, form.c)
    found = []
    for coeffs in representations(form, target):
        if (trace - sum(c * n for c, n in zip(coeffs, diagonal))) % 2:
            raise AlgebraInconsistency(f"(trace + g)/2 escaped the order at g = {coeffs}")
        twice = trace
        for c, r in zip(coeffs, basis):
            twice = twice + c * r
        found.append(twice / 2)
    found.sort(key=lambda q: q.coords)
    return found
