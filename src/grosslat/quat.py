"""Exact arithmetic in the definite rational quaternion algebra (-a, -p | Q).

Elements are written over the fixed basis {1, i, j, k} with i^2 = -a,
j^2 = -p and k = ij = -ji.  All coordinates are exact rationals
(fractions.Fraction), so no operation ever rounds.  Parameters (a, p) are
accepted only when the Hilbert symbols (-a, -p)_v show the algebra
ramified exactly at {p, infinity}, the algebra of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import (
    AlgebraMismatch,
    LimitExceeded,
    MalformedInput,
    RamificationError,
    rational_field,
    require_fields,
    scalar_field,
)
from .linalg import is_prime, smallest_prime_factor

RatLike = Union[int, str, Fraction]
A_LIMIT = 10**12


def as_fraction(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def rat_str(value: Fraction) -> str:
    """Wire format for rationals: "11/2", or "11" when the denominator is 1."""
    return str(value)


@dataclass(frozen=True)
class AlgebraParams:
    """Parameters (a, p) of the algebra: i^2 = -a, j^2 = -p, k = ij.

    Raises ValueError unless a >= 1 and p is prime, and RamificationError
    unless (-a, -p | Q) ramifies exactly at {p, infinity}.  The sizes are
    capped, with LimitExceeded: a <= A_LIMIT = 10^12, so that factoring a
    for the ramification check (trial division) stays under 0.1 s, and
    p < linalg.PRIME_TEST_LIMIT (about 3.3 * 10^24), below which the
    primality test is exact.
    """

    a: int
    p: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError(f"a must be a positive integer, got {self.a}")
        if self.a > A_LIMIT:
            raise LimitExceeded(f"a must be at most {A_LIMIT}, got {self.a}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        places = ramified_places(self.a, self.p)
        if places != {0, self.p}:
            named = ", ".join("infinity" if v == 0 else str(v) for v in sorted(places))
            raise RamificationError(
                f"(-{self.a}, -{self.p} | Q) ramifies at {{{named}}}, "
                f"not exactly at {{{self.p}, infinity}}")

    def quat(self, w: RatLike = 0, x: RatLike = 0, y: RatLike = 0, z: RatLike = 0) -> "Quaternion":
        return Quaternion(self, as_fraction(w), as_fraction(x), as_fraction(y), as_fraction(z))

    def scalar(self, value: RatLike) -> "Quaternion":
        return self.quat(value)

    @property
    def one(self) -> "Quaternion":
        return self.quat(1)

    @property
    def i(self) -> "Quaternion":
        return self.quat(0, 1)

    @property
    def j(self) -> "Quaternion":
        return self.quat(0, 0, 1)

    @property
    def k(self) -> "Quaternion":
        return self.quat(0, 0, 0, 1)

    def from_coord_strings(self, coords) -> "Quaternion":
        if not isinstance(coords, (list, tuple)) or len(coords) != 4:
            raise MalformedInput("quaternion coordinates must be a list of length 4")
        return self.quat(*(rational_field(c, "quaternion coordinate") for c in coords))

    def to_dict(self) -> dict:
        return {"a": self.a, "p": self.p}

    @classmethod
    def from_dict(cls, data: dict) -> "AlgebraParams":
        require_fields(data, ("a", "p"), "algebra")
        return cls(*(int(scalar_field(data[k], f"algebra field {k}")) for k in "ap"))


def _split(n: int, q: int) -> tuple[int, int]:
    """(v, u) with n = q^v * u and q not dividing u."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def hilbert_symbol(a: int, b: int, v: int) -> int:
    """The Hilbert symbol (a, b)_v of nonzero integers at a prime v; v = 0 is infinity.

    Serre, A Course in Arithmetic, ch. III, Thm. 1.
    """
    if v == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(a, v)
    beta, w = _split(b, v)
    if v == 2:  # epsilon(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8, mod 2
        e = ((u - 1) // 2 * ((w - 1) // 2)
             + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    sign = -1 if alpha * beta * ((v - 1) // 2) % 2 else 1
    return sign * _legendre(u, v) ** beta * _legendre(w, v) ** alpha


def _legendre(u: int, q: int) -> int:
    """Legendre symbol (u/q) of a unit u at an odd prime q (Euler's criterion)."""
    return 1 if pow(u, (q - 1) // 2, q) == 1 else -1


@lru_cache(maxsize=256)
def ramified_places(a: int, p: int) -> frozenset[int]:
    """Places where (-a, -p | Q) ramifies, for a >= 1 and p prime; 0 is infinity.

    Only infinity, 2, p and the primes dividing a can ramify.  Every
    AlgebraParams runs this check, once per parsed fixture or payload, and
    programs use few algebras, so the results are kept.
    """
    places = {0, 2, p}
    rest = a
    while rest > 1:
        q = smallest_prime_factor(rest)
        places.add(q)
        rest = _split(rest, q)[1]
    return frozenset(v for v in places if hilbert_symbol(-a, -p, v) == -1)


@dataclass(frozen=True)
class Quaternion:
    """Element w + x*i + y*j + z*k with exact rational coordinates."""

    algebra: AlgebraParams
    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def _check_same_algebra(self, other: "Quaternion") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"operands in different algebras: {self.algebra} vs {other.algebra}"
            )

    def __add__(self, other):
        if isinstance(other, Quaternion):
            self._check_same_algebra(other)
            return Quaternion(self.algebra, self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.algebra, self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            self._check_same_algebra(other)
            return Quaternion(self.algebra, self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.algebra, self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.algebra, other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.algebra, -self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            self._check_same_algebra(other)
            algebra = self.algebra
            return Quaternion(algebra, *mul_coords(algebra.a, algebra.p, self.coords, other.coords))
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.algebra, self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.algebra, self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.coords)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.algebra, self.w, -self.x, -self.y, -self.z)

    def reduced_trace(self) -> Fraction:
        return 2 * self.w

    def reduced_norm(self) -> Fraction:
        a = self.algebra.a
        p = self.algebra.p
        return self.w ** 2 + a * self.x ** 2 + p * self.y ** 2 + a * p * self.z ** 2

    def is_integral(self) -> bool:
        """True when both the reduced trace and reduced norm are integers."""
        return self.reduced_trace().denominator == 1 and self.reduced_norm().denominator == 1

    def to_coord_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coords]

    def __str__(self) -> str:
        parts = []
        for value, label in zip(self.coords, ("", "i", "j", "k")):
            if value == 0:
                continue
            mag = abs(value)
            body = label if (mag == 1 and label) else (f"{mag}{label}" if label else f"{mag}")
            if not parts:
                parts.append(body if value > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if value > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Quaternion({self})"


def mul_coords(a: int, p: int, u, v) -> tuple:
    """Coordinates of the product of w + xi + yj + zk by w' + x'i + y'j + z'k.

    The multiplication table of (-a, -p | Q); the coordinates may be
    Fractions or, for denominator-cleared lattice rows, plain integers.
    """
    w1, x1, y1, z1 = u
    w2, x2, y2, z2 = v
    return (
        w1 * w2 - a * x1 * x2 - p * y1 * y2 - a * p * z1 * z2,
        w1 * x2 + x1 * w2 + p * (y1 * z2 - z1 * y2),
        w1 * y2 + y1 * w2 + a * (z1 * x2 - x1 * z2),
        w1 * z2 + z1 * w2 + (x1 * y2 - y1 * x2),
    )


def inner(x: Quaternion, y: Quaternion) -> Fraction:
    """Inner product (1/2)*Trd(x * conj(y)); inner(x, x) = Nrd(x)."""
    x._check_same_algebra(y)
    a = x.algebra.a
    p = x.algebra.p
    return x.w * y.w + a * x.x * y.x + p * x.y * y.y + a * p * x.z * y.z


def gross_map(x: Quaternion) -> Quaternion:
    """The doubled trace-zero projection x -> 2x - Trd(x)."""
    return Quaternion(x.algebra, Fraction(0), 2 * x.x, 2 * x.y, 2 * x.z)


def commutator(x: Quaternion, y: Quaternion) -> Quaternion:
    """The bracket x*y - y*x; always has reduced trace zero."""
    x._check_same_algebra(y)
    return x * y - y * x
