"""Exact integer and rational linear algebra for small (rank <= 4) problems.

Integer routines carry the package.  The Hermite normal form, trailing
pivots and built in one pass from the last column, is the stored form of
every lattice, and membership is back-substitution on it.  One
fraction-free elimination (Bareiss, Math. Comp. 22, 1968) gives the
determinant (index, lower-rank determinants, trace dual), the one
definiteness test, and as Gauss-Jordan the adjugate
(trace dual in `Order.norm_p_ideal`, the HNF to a lattice's own basis).
The rational routines have no caller here: the tests and the benchmark
import `det_fractions`; `solve_left` is the tests' membership oracle, which
the benchmark's tracer patches under this name.  Primality is a
deterministic Miller-Rabin test, refused above the bound where it is proved.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LimitExceeded


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_TEST_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; LimitExceeded for n >= PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise LimitExceeded(f"primality is only decided below {PRIME_TEST_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"no prime factor of {n}")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row HNF in the trailing-pivot (lower-triangular) convention.

    Each row's pivot is its last nonzero entry; pivots are positive, sit in
    strictly increasing columns, and the entries below a pivot in its column
    are reduced into [0, pivot).  Zero rows are dropped.  One pass over the
    columns from the right (Cohen, GTM 138, 2.4): the first row with an entry
    in the column clears it from the others, by one subtraction when its
    entry divides theirs and by extended gcd otherwise, and then reduces
    that column of the rows already taken.
    """
    if not rows:
        return []
    work = [list(r) for r in rows]
    taken: list[list[int]] = []
    for col in reversed(range(len(work[0]))):
        top, rest = None, []
        for row in work:
            b = row[col]
            if b and top is None:
                top = row
                continue
            if b:
                a = top[col]
                if b % a:
                    g, u, v = xgcd(a, b)
                    a, b = a // g, b // g
                    top, row = ([u * x + v * y for x, y in zip(top, row)],
                                [a * y - b * x for x, y in zip(top, row)])
                else:
                    q = b // a
                    row = [y - q * x for x, y in zip(top, row)]
            rest.append(row)
        if top is None:
            continue
        work = rest
        if top[col] < 0:
            top = [-x for x in top]
        for j, row in enumerate(taken):
            q = row[col] // top[col]
            if q:
                taken[j] = [x - q * y for x, y in zip(row, top)]
        taken.append(top)
    return taken[::-1]


def combine_rows(coeffs, rows) -> list[int]:
    """The row vector sum_i coeffs[i] * rows[i]."""
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def _bareiss(m: list[list[int]], jordan: bool) -> tuple[int, list[int]]:
    """Fraction-free elimination on the rows m, in place: step k clears column
    k below the pivot (and above it when `jordan`) by the exact division of
    pivot * row - row[k] * pivot row by the last pivot.  A zero pivot is
    swapped with a lower row, or ends the run.  Returns the swap count and the
    pivots: with no swap, the leading principal minors; the last is +-det."""
    n, prev, swaps, pivots = len(m), 1, 0, []
    for k in range(n):
        if not m[k][k]:
            sel = next((i for i in range(k + 1, n) if m[i][k]), None)
            if sel is None:
                return swaps, [*pivots, 0]
            m[k], m[sel], swaps = m[sel], m[k], swaps + 1
        top = m[k]
        for row in m if jordan else m[k + 1:]:
            if row is not top:
                row[k:] = [(top[k] * x - row[k] * y) // prev for x, y in zip(row[k:], top[k:])]
        prev = top[k]
        pivots.append(prev)
    return swaps, pivots


def det_int(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix (`_bareiss`)."""
    swaps, pivots = _bareiss([list(row) for row in matrix], jordan=False)
    return (-1) ** swaps * pivots[-1] if pivots else 1


def is_positive_definite(matrix: list[list[int]]) -> bool:
    """Sylvester's criterion: the leading principal minors, the pivots of
    `_bareiss` when it makes no swap, must all be positive."""
    swaps, pivots = _bareiss([list(row) for row in matrix], jordan=False)
    return not swaps and all(d > 0 for d in pivots)


def adjugate(matrix: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det, adj) of a nonsingular square integer matrix: matrix * adj = det * identity.

    Gauss-Jordan on [matrix | I] ends at [d I | d matrix^-1], d = (-1)^swaps det."""
    n = len(matrix)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)]
    swaps, pivots = _bareiss(m, jordan=True)
    if 0 in pivots:
        raise ValueError("the adjugate is only computed for a nonsingular matrix")
    sign = (-1) ** swaps
    return sign * (pivots[-1] if pivots else 1), [[sign * e for e in row[n:]] for row in m]


def det_fractions(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix by exact Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        sel = None
        for i in range(col, n):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            return Fraction(0)
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            det = -det
        piv = m[col][col]
        det *= piv
        inv = 1 / piv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def solve_left(rows: list[list[Fraction]], target: list[Fraction]) -> tuple[Fraction, ...] | None:
    """Solve sum_i c_i * rows[i] = target exactly.

    Returns the coefficient tuple, or None when the system is inconsistent.
    Free coefficients (dependent rows) are set to zero; callers relying on
    uniqueness should pass independent rows.
    """
    m = len(rows)
    if m == 0:
        return () if not any(target) else None
    n = len(target)
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(target[j])] for j in range(n)]
    piv_cols: list[int] = []
    top = 0
    for col in range(m):
        sel = None
        for i in range(top, n):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[top], aug[sel] = aug[sel], aug[top]
        piv = aug[top][col]
        aug[top] = [v / piv for v in aug[top]]
        for i in range(n):
            if i != top and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[top])]
        piv_cols.append(col)
        top += 1
    for i in range(top, n):
        if aug[i][m] != 0:
            return None
    coeffs = [Fraction(0)] * m
    for idx, col in enumerate(piv_cols):
        coeffs[col] = aug[idx][m]
    return tuple(coeffs)
