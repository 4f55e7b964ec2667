"""Hermite normal form by reversed leading-pivot echelon: an oracle for the tests.

`linalg.hnf_rows` builds the trailing-pivot HNF in one pass from the last
column.  This module takes the other route: it reverses every row, runs a
leading-pivot echelon from the first column, reduces above each pivot only
once the echelon is complete, and reverses the rows and their order back.
The row HNF of a lattice is unique, so the two must agree exactly.
"""

from grosslat.linalg import xgcd


def echelon_hnf(rows: list[list[int]]) -> list[list[int]]:
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


def hnf_by_reversed_echelon(rows: list[list[int]]) -> list[list[int]]:
    """The trailing-pivot row HNF as the reversal of `echelon_hnf` on reversed rows."""
    rev = [list(reversed(r)) for r in rows]
    return [list(reversed(r)) for r in reversed(echelon_hnf(rev))]
