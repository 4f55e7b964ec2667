"""Integral ternary quadratic forms and the rank-2 determinant form.

The determinant of a rank-2 sublattice of a rank-3 lattice with Gram matrix
G is a quadratic form in the Plucker coordinates

    (x, y, z) = (c11 c22 - c12 c21, c11 c23 - c13 c21, c12 c23 - c13 c22)

of the 2x3 coefficient matrix; by Cauchy-Binet its matrix is the second
compound of G.  Dividing by the content (the gcd of the six coefficients)
leaves a primitive positive definite form Q, and a sublattice of determinant
content * n exists iff Q represents n.

Representation testing is exact: the form is diagonalized by completing the
square with rational arithmetic, and candidate coordinates are enumerated
inside exact bounds, innermost solved by a rational square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import DefinitenessError, IntegralityError
from .lattice import GramMatrix
from .linalg import ldl
from .orders import Order
from .reduction import greedy_reduce


@dataclass(frozen=True)
class TernaryForm:
    """A x^2 + B y^2 + C z^2 + D xy + E xz + F yz with integer coefficients."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def __call__(self, x: int, y: int, z: int):
        return (self.a * x * x + self.b * y * y + self.c * z * z
                + self.d * x * y + self.e * x * z + self.f * y * z)

    def coefficients(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def gram(self) -> list[list[Fraction]]:
        """Half-integral Gram matrix of the form."""
        a, b, c, d, e, f = self.coefficients()
        h = Fraction(1, 2)
        return [
            [Fraction(a), h * d, h * e],
            [h * d, Fraction(b), h * f],
            [h * e, h * f, Fraction(c)],
        ]

    def is_positive_definite(self) -> bool:
        return ldl(self.gram()) is not None

    def content(self) -> int:
        return gcd(*(abs(c) for c in self.coefficients()))

    def transformed(self, rows) -> "TernaryForm":
        """Form Q(v * U) for an integer substitution with rows U (new vars in rows)."""
        m = self.gram()
        n = [[sum(Fraction(rows[i][k]) * m[k][l] * rows[j][l]
                  for k in range(3) for l in range(3))
              for j in range(3)] for i in range(3)]
        return _form_from_gram(n)

    def to_dict(self) -> dict:
        return {"A": self.a, "B": self.b, "C": self.c,
                "D": self.d, "E": self.e, "F": self.f}

    @classmethod
    def from_dict(cls, data: dict) -> "TernaryForm":
        return cls(int(data["A"]), int(data["B"]), int(data["C"]),
                   int(data["D"]), int(data["E"]), int(data["F"]))

    def __str__(self) -> str:
        names = ("x^2", "y^2", "z^2", "xy", "xz", "yz")
        parts = []
        for coeff, name in zip(self.coefficients(), names):
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = name if mag == 1 else f"{mag}{name}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def _form_from_gram(m) -> TernaryForm:
    coeffs = (m[0][0], m[1][1], m[2][2], 2 * m[0][1], 2 * m[0][2], 2 * m[1][2])
    if any(Fraction(c).denominator != 1 for c in coeffs):
        raise IntegralityError("Gram matrix is not half-integral")
    return TernaryForm(*(int(c) for c in coeffs))


@dataclass(frozen=True)
class DiagonalData:
    """Completed-square data: d1 (x + r12 y + r13 z)^2 + d2 (y + r23 z)^2 + d3 z^2."""

    d1: Fraction
    d2: Fraction
    d3: Fraction
    r12: Fraction
    r13: Fraction
    r23: Fraction

    @property
    def diagonal(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.d1, self.d2, self.d3)

    def reconstruct(self) -> TernaryForm:
        """Expand the diagonal data back into the original form (exactly)."""
        m = [
            [self.d1, self.d1 * self.r12, self.d1 * self.r13],
            [self.d1 * self.r12, self.d1 * self.r12 ** 2 + self.d2,
             self.d1 * self.r12 * self.r13 + self.d2 * self.r23],
            [self.d1 * self.r13, self.d1 * self.r12 * self.r13 + self.d2 * self.r23,
             self.d1 * self.r13 ** 2 + self.d2 * self.r23 ** 2 + self.d3],
        ]
        return _form_from_gram(m)


def _ldl(gram) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    factors = ldl(gram)
    if factors is None:
        raise DefinitenessError("form is not positive definite")
    low, (d1, d2, d3) = factors
    return d1, d2, d3, low[1][0], low[2][0], low[2][1]


def diagonalize_form(form: TernaryForm) -> DiagonalData:
    """Exact completing-the-square diagonalization of a definite form."""
    return DiagonalData(*_ldl(form.gram()))


def _centered_range(shift: Fraction, bound: Fraction) -> list[int]:
    """Integers c with (c + shift)^2 <= bound, ordered by (|c|, sign)."""
    if bound < 0:
        return []
    radius = isqrt(bound.numerator // bound.denominator) + 1
    lo = -shift.numerator // shift.denominator - radius - 1 if shift else -radius - 1
    hi = lo + 2 * (radius + 1) + 2
    vals = [c for c in range(lo, hi + 1) if (c + shift) ** 2 <= bound]
    vals.sort(key=lambda c: (abs(c), c < 0))
    return vals


def _exact_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    rn = isqrt(value.numerator)
    rd = isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        return None
    return Fraction(rn, rd)


def enumerate_gram_solutions(gram, target: Fraction):
    """Yield every integer triple v with v * gram * v^T = target.

    Enumeration is exhaustive inside diagonalized bounds, ordered outermost-
    last coordinate by (|value|, sign), so the first yield is the canonical
    witness.
    """
    if target < 0:
        return
    d1, d2, d3, r12, r13, r23 = _ldl(gram)
    for c3 in _centered_range(Fraction(0), target / d3):
        rem2 = target - d3 * c3 * c3
        for c2 in _centered_range(r23 * c3, rem2 / d2):
            rem1 = rem2 - d2 * (c2 + r23 * c3) ** 2
            root = _exact_sqrt(rem1 / d1)
            if root is None:
                continue
            shift = r12 * c2 + r13 * c3
            candidates = {-shift + root, -shift - root}
            ints = sorted(
                (int(c) for c in candidates if c.denominator == 1),
                key=lambda c: (abs(c), c < 0),
            )
            for c1 in ints:
                yield (c1, c2, c3)


def represents(form: TernaryForm, n: int) -> tuple[int, int, int] | None:
    """A witness triple with Q(x, y, z) = n, or None when no one exists.

    The witness is the first solution in the deterministic search order
    (smallest |z|, then |y|, then |x|, positive sign preferred).
    """
    if n < 0:
        return None
    if not form.is_positive_definite():
        raise DefinitenessError("representation testing needs a definite form")
    for triple in enumerate_gram_solutions(form.gram(), Fraction(n)):
        return triple
    return None


def representation_counts(form: TernaryForm, n_max: int) -> list[int]:
    """Vector [r(0), r(1), ..., r(n_max)] of representation counts."""
    if not form.is_positive_definite():
        raise DefinitenessError("representation counting needs a definite form")
    counts = [0] * (n_max + 1)
    gram = form.gram()
    for n in range(n_max + 1):
        counts[n] = sum(1 for _ in enumerate_gram_solutions(gram, Fraction(n)))
    return counts


def exterior_square_form(gram: GramMatrix) -> tuple[int, TernaryForm]:
    """Content and primitive form of the rank-2 determinant in Plucker coordinates.

    The 3x3 input must be the integral Gram matrix of a Gross lattice; the
    quartic pair determinant factors through the minors as content * Q with
    Q primitive.
    """
    if gram.size != 3:
        raise IntegralityError("second compound needs a 3x3 Gram matrix")
    if not gram.is_integral():
        raise IntegralityError("Gram matrix must be integral")
    if not gram.is_positive_definite():
        raise DefinitenessError("Gram matrix must be positive definite")
    g = gram.entries
    pairs = ((0, 1), (0, 2), (1, 2))
    compound = [
        [g[i][k] * g[j][l] - g[i][l] * g[j][k] for (k, l) in pairs]
        for (i, j) in pairs
    ]
    coeffs = [
        compound[0][0], compound[1][1], compound[2][2],
        2 * compound[0][1], 2 * compound[0][2], 2 * compound[1][2],
    ]
    ints = [int(c) for c in coeffs]
    content = gcd(*(abs(c) for c in ints))
    primitive = TernaryForm(*(c // content for c in ints))
    return content, primitive


def order_form(order: Order) -> tuple[int, TernaryForm]:
    """Content and primitive determinant form of an order's reduced Gross lattice."""
    reduced = order.gross_lattice().minkowski_reduced()
    return exterior_square_form(reduced.gram())


def canonical_reduced_form(form: TernaryForm) -> TernaryForm:
    """Deterministic reduced representative of the form's equivalence class.

    Greedy reduction finds the successive minima; among all bases realizing
    them (an intrinsic, finite set), the lexicographically smallest
    coefficient tuple is returned, so equivalent forms map to one output.
    """
    if not form.is_positive_definite():
        raise DefinitenessError("reduction needs a definite form")
    gram = form.gram()
    transform = greedy_reduce(gram)
    reduced = form.transformed(transform)
    red_gram = reduced.gram()
    minima = []
    for i in range(3):
        minima.append(red_gram[i][i])
    values = sorted(set(minima))
    sols = {v: list(enumerate_gram_solutions(red_gram, v)) for v in values}
    best = None
    for v1 in sols[minima[0]]:
        for v2 in sols[minima[1]]:
            for v3 in sols[minima[2]]:
                det = (
                    v1[0] * (v2[1] * v3[2] - v2[2] * v3[1])
                    - v1[1] * (v2[0] * v3[2] - v2[2] * v3[0])
                    + v1[2] * (v2[0] * v3[1] - v2[1] * v3[0])
                )
                if det not in (1, -1):
                    continue
                candidate = reduced.transformed([list(v1), list(v2), list(v3)])
                key = candidate.coefficients()
                if best is None or key < best:
                    best = key
    assert best is not None
    return TernaryForm(*best)
