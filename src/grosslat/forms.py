"""Integral ternary quadratic forms and the rank-2 determinant form.

The determinant of a rank-2 sublattice of a rank-3 lattice with Gram matrix
G is a quadratic form in the Plucker coordinates

    (x, y, z) = (c11 c22 - c12 c21, c11 c23 - c13 c21, c12 c23 - c13 c22)

of the 2x3 coefficient matrix; by Cauchy-Binet its matrix is the second
compound of G.  Dividing by the content (the gcd of the six coefficients)
leaves a primitive positive definite form Q, and a sublattice of determinant
content * n exists iff Q represents n.

A form's shape comes from one completed square.  With P = 4AB - D^2,
R = 2AF - DE and Delta = P(4AC - E^2) - R^2 = 16 A det(Gram),

    4AP Q(x, y, z) = P (2Ax + Dy + Ez)^2 + (Py + Rz)^2 + Delta z^2.

Definiteness is Sylvester's criterion on the integer Gram matrix of 2Q
(`linalg.is_positive_definite`), whose leading minors are 2A, P and
Delta/2A.  Dividing by 4AP gives the rational diagonalization, and the
integer identity drives representation testing and counting: the vectors
with Q <= n lie in exact `isqrt` bounds on z, then y, then 2Ax + Dy + Ez
(Fincke and Pohst, Math. Comp. 44, 1985; Cohen, GTM 138, 2.7.3), and the
solutions of Q = n come from an exact integer square test on the innermost
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import DefinitenessError, IntegralityError, require_fields, scalar_field
from .lattice import GramMatrix
from .linalg import is_positive_definite
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
        return [[Fraction(v, 2) for v in row] for row in self.doubled_gram()]

    def doubled_gram(self) -> list[list[int]]:
        """Integer Gram matrix [[2A, D, E], [D, 2B, F], [E, F, 2C]] of 2Q."""
        a, b, c, d, e, f = self.coefficients()
        return [[2 * a, d, e], [d, 2 * b, f], [e, f, 2 * c]]

    def is_positive_definite(self) -> bool:
        return is_positive_definite(self.doubled_gram())

    def content(self) -> int:
        return gcd(*(abs(c) for c in self.coefficients()))

    def transformed(self, rows) -> "TernaryForm":
        """Form Q(v * U) for an integer substitution with rows U (new vars in rows)."""
        m = self.doubled_gram()
        um = [[sum(r[k] * m[k][l] for k in range(3)) for l in range(3)] for r in rows]
        return _form_from_doubled_gram(
            [[sum(u[l] * r[l] for l in range(3)) for r in rows] for u in um])

    def to_dict(self) -> dict:
        return {"A": self.a, "B": self.b, "C": self.c,
                "D": self.d, "E": self.e, "F": self.f}

    @classmethod
    def from_dict(cls, data: dict) -> "TernaryForm":
        require_fields(data, "ABCDEF", "form")
        return cls(*(int(scalar_field(data[k], f"form field {k}")) for k in "ABCDEF"))

    @classmethod
    def from_gram(cls, m) -> "TernaryForm":
        """Form v * m * v^T of a half-integral symmetric 3x3 matrix."""
        return _form_from_doubled_gram([[2 * v for v in row] for row in m])

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


def _form_from_doubled_gram(m2) -> TernaryForm:
    diagonal = (m2[0][0], m2[1][1], m2[2][2])
    cross = (m2[0][1], m2[0][2], m2[1][2])
    if any(v % 2 for v in diagonal) or any(v % 1 for v in cross):
        raise IntegralityError("Gram matrix is not half-integral")
    return TernaryForm(*(int(v) // 2 for v in diagonal), *(int(v) for v in cross))


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
        return TernaryForm.from_gram(m)


def _completed_square(form: TernaryForm) -> tuple[int, int, int]:
    """(P, R, Delta) of 4AP Q = P (2Ax + Dy + Ez)^2 + (Py + Rz)^2 + Delta z^2
    for a positive definite form; DefinitenessError otherwise."""
    if not form.is_positive_definite():
        raise DefinitenessError("form is not positive definite")
    a, b, c, d, e, f = form.coefficients()
    p = 4 * a * b - d * d
    r = 2 * a * f - d * e
    return p, r, p * (4 * a * c - e * e) - r * r


def diagonalize_form(form: TernaryForm) -> DiagonalData:
    """Exact completing-the-square diagonalization of a definite form.

    d = (A, P/4A, Delta/4AP) and r = (D/2A, E/2A, R/P), read off the
    completed square.
    """
    a = form.a
    p, r, delta = _completed_square(form)
    return DiagonalData(Fraction(a), Fraction(p, 4 * a), Fraction(delta, 4 * a * p),
                        Fraction(form.d, 2 * a), Fraction(form.e, 2 * a), Fraction(r, p))


def _columns(form: TernaryForm, bound: int):
    """Yield (y, z, room) for every integer pair (y, z) with room >= 0.

    For every integer x, Q(x, y, z) <= bound iff (2Ax + Dy + Ez)^2 <= room,
    with equality iff Q(x, y, z) = bound, so every vector with Q <= bound
    lies over a yielded pair.  z runs 0, 1, -1, 2, -2, ..., generated
    lazily; y ascends.  Raises DefinitenessError unless A, P and Delta are
    positive.
    """
    p, r, delta = _completed_square(form)
    if bound < 0:
        return
    top = 4 * form.a * p * bound
    z_max = isqrt(top // delta)
    for k in range(2 * z_max + 1):
        z = (k + 1) // 2 if k % 2 else -(k // 2)
        rest = top - delta * z * z
        s = isqrt(rest)
        rz = r * z
        for y in range(-((s + rz) // p), (s - rz) // p + 1):
            u = p * y + rz
            # exact: rest and u^2 are both R^2 z^2 modulo P
            yield y, z, (rest - u * u) // p


def representations(form: TernaryForm, n: int):
    """Yield every integer triple v with Q(v) = n, in witness order.

    The order is by |z|, then |y|, then |x|, the positive sign first at each
    level, so the first yield is the canonical witness.  Raises
    DefinitenessError unless the form is positive definite.
    """
    a, d, e = form.a, form.d, form.e
    two_a = 2 * a
    hits: list[tuple[int, int, int]] = []
    current = None
    for y, z, room in _columns(form, n):
        if z != current:
            yield from sorted(hits, key=_witness_key)
            hits, current = [], z
        root = isqrt(room)
        if root * root != room:
            continue
        lin = d * y + e * z
        for lead in {root, -root}:
            if (lead - lin) % two_a == 0:
                hits.append(((lead - lin) // two_a, y, z))
    yield from sorted(hits, key=_witness_key)


def _witness_key(v: tuple[int, int, int]):
    x, y, _ = v
    return (abs(y), y < 0, abs(x), x < 0)


def represents(form: TernaryForm, n: int) -> tuple[int, int, int] | None:
    """A witness triple with Q(x, y, z) = n, or None when no one exists.

    The witness is the first solution in the deterministic search order
    (smallest |z|, then |y|, then |x|, positive sign preferred).
    """
    if n < 0:
        return None
    return next(representations(form, n), None)


def representation_counts(form: TernaryForm, n_max: int) -> list[int]:
    """Vector [r(0), r(1), ..., r(n_max)] of representation counts.

    One pass over the vectors with Q <= n_max, each counted where it lands.
    """
    a, b, c, d, e, f = form.coefficients()
    two_a = 2 * a
    counts = [0] * (n_max + 1)
    for y, z, room in _columns(form, n_max):
        lead = isqrt(room)
        lin = d * y + e * z
        const = b * y * y + c * z * z + f * y * z
        for x in range(-((lead + lin) // two_a), (lead - lin) // two_a + 1):
            counts[(a * x + lin) * x + const] += 1
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
    coeffs = [int(compound[i][i]) for i in range(3)] + [int(2 * compound[i][j]) for i, j in pairs]
    content = gcd(*coeffs)
    return content, TernaryForm(*(c // content for c in coeffs))


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
    reduced = form.transformed(greedy_reduce(form.doubled_gram()))
    minima = (reduced.a, reduced.b, reduced.c)
    sols = {v: list(representations(reduced, v)) for v in set(minima)}
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
