"""Exact integer and rational linear algebra for small (rank <= 4) problems.

Integer routines carry the package.  The Hermite normal form is the stored
form of every lattice, and membership is back-substitution on it.  The
determinant serves the index, lower-rank lattice determinants, the trace
dual and Cramer's rule in reduction; the adjugate serves the trace dual
(`Order.norm_p_ideal`) and the change from the HNF to a lattice's own basis.
`is_positive_definite` is the one definiteness test.  The rational routines
have no caller here: the tests and the benchmark (`perfbench`) import
`det_fractions`, and `solve_left` is the tests' membership oracle, which
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


def _echelon_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row HNF with leading pivots: pivots positive, entries above a pivot
    reduced into [0, pivot), rows ordered by pivot column."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    pivots: list[tuple[int, int]] = []  # (col, row index in result)
    top = 0
    for col in range(ncols):
        sel = None
        for i in range(top, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        for i in range(top + 1, len(work)):
            if work[i][col]:
                a, b = work[top][col], work[i][col]
                g, u, v = xgcd(a, b)
                aa, bb = a // g, b // g
                r0, r1 = work[top], work[i]
                work[top] = [u * x + v * y for x, y in zip(r0, r1)]
                work[i] = [-bb * x + aa * y for x, y in zip(r0, r1)]
        if work[top][col] < 0:
            work[top] = [-x for x in work[top]]
        pivots.append((col, top))
        top += 1
    result = [work[i] for i in range(top)]
    for col, ri in pivots:
        piv = result[ri][col]
        for j in range(ri):
            q = result[j][col] // piv
            if q:
                result[j] = [x - q * y for x, y in zip(result[j], result[ri])]
    return result


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row HNF in the trailing-pivot (lower-triangular) convention.

    Each row's pivot is its last nonzero entry; pivots are positive, sit in
    strictly increasing columns, and the entries below a pivot in its column
    are reduced into [0, pivot).  Zero rows are dropped.
    """
    if not rows:
        return []
    rev = [list(reversed(r)) for r in rows]
    ech = _echelon_hnf(rev)
    return [list(reversed(r)) for r in reversed(ech)]


def combine_rows(coeffs, rows) -> list[int]:
    """The row vector sum_i coeffs[i] * rows[i]."""
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def det_int(matrix: list[list[int]]) -> int:
    """Determinant of a small square integer matrix by cofactor expansion."""
    if not matrix:
        return 1
    return sum((-1) ** j * a * det_int([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j, a in enumerate(matrix[0]) if a)


def is_positive_definite(matrix: list[list[int]]) -> bool:
    """Sylvester's criterion: the pivots of fraction-free (Bareiss) elimination
    are the leading principal minors, so all of them must be positive."""
    m, prev = [list(row) for row in matrix], 1
    for k, top in enumerate(m):
        if top[k] <= 0:
            return False
        for row in m[k + 1:]:
            row[k:] = [(top[k] * x - row[k] * y) // prev for x, y in zip(row[k:], top[k:])]
        prev = top[k]
    return True


def adjugate(matrix: list[list[int]]) -> list[list[int]]:
    """Adjugate of a square integer matrix: matrix * adj = det * identity."""
    n = len(matrix)
    return [
        [(-1) ** (i + j) * det_int([row[:i] + row[i + 1:]
                                    for k, row in enumerate(matrix) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


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
