"""Ternary short-vector enumeration in rational arithmetic: a test oracle.

`forms.representations` solves Q(v) = n in integers only.  This module
solves it the older way: an exact rational LDL^T of the Gram matrix,
centred coordinate ranges for z and y, and a rational square root for x.
It yields the same triples in the same order (|z|, then |y|, then |x|,
positive sign first) and is many times slower.  The LDL^T is also the
oracle for the completed square of `forms` and for the definiteness tests.
"""

from fractions import Fraction
from math import isqrt


def ldl(matrix) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """Exact LDL^T of a symmetric matrix, or None unless it is positive definite.

    Returns (L, d) with L unit lower-triangular and matrix = L diag(d) L^T;
    each d_k is a ratio of consecutive leading minors (Sylvester's criterion).
    """
    n = len(matrix)
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag: list[Fraction] = []
    for i in range(n):
        scaled = [Fraction(matrix[i][j]) for j in range(i + 1)]  # ends as low[i][j] * diag[j]
        for j in range(i + 1):
            for k in range(j):
                scaled[j] -= scaled[k] * low[j][k]
            if j < i:
                low[i][j] = scaled[j] / diag[j]
        if scaled[i] <= 0:
            return None
        diag.append(scaled[i])
    return low, diag


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


def enumerate_gram_solutions(gram, target):
    """Yield every integer triple v with v * gram * v^T = target, in witness order."""
    target = Fraction(target)
    if target < 0:
        return
    factors = ldl(gram)
    assert factors is not None, "Gram matrix is not positive definite"
    low, (d1, d2, d3) = factors
    r12, r13, r23 = low[1][0], low[2][0], low[2][1]
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


def counts_by_value(gram, n_max: int) -> list[int]:
    """[r(0), ..., r(n_max)], one enumeration per value."""
    return [sum(1 for _ in enumerate_gram_solutions(gram, n)) for n in range(n_max + 1)]
