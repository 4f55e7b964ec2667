"""Determinant and adjugate by cofactor expansion: an oracle for the tests.

`linalg.det_int` and `linalg.adjugate` run fraction-free (Bareiss)
elimination with row swaps.  This module expands along the first row
instead, which shares no step with elimination: no pivot, no swap, no
division.  It costs O(n!), so it is only for the small matrices here.
"""


def det_by_cofactors(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * a * det_by_cofactors([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j, a in enumerate(matrix[0]) if a)


def adjugate_by_cofactors(matrix: list[list[int]]) -> list[list[int]]:
    """Adjugate of a square integer matrix: entry (i, j) is the (j, i) cofactor."""
    n = len(matrix)
    return [
        [(-1) ** (i + j) * det_by_cofactors([row[:i] + row[i + 1:]
                                             for k, row in enumerate(matrix) if k != j])
         for j in range(n)]
        for i in range(n)
    ]
