"""Greedy basis reduction for positive definite integer Gram matrices of rank <= 3.

Works on integer coordinate rows relative to a fixed starting basis whose
Gram matrix is supplied; in rank <= 3 the greedy algorithm reaches the
successive minima (Nguyen and Stehle, ACM TALG 5, 2009).  The integer Gram
matrix of the current vectors is carried along with them: each sort permutes
its rows and columns, each size-reduction step rewrites one row and one
column, and every sort key (norm, coords) and corner norm is read off it, so
no inner product is recomputed from coordinates.  Closest-vector subproblems
are in dimension <= 2: Cramer's rule in closed form, as integer floor
division by the positive determinant of the normal equations, floors the
real solution, and the corners of its unit cell are scanned, which suffices
once the smaller basis is itself reduced.  A positive multiple of the Gram
matrix (s^2 G, 2G) gives the same transform, so callers stay in integers.
"""

from __future__ import annotations


def _closest_coeffs(g, k):
    """(coeffs, norm) of a closest vector to b_k in span(b_0, ..., b_{k-1}), k <= 2.

    g is the Gram matrix of the current vectors b; norm is |b_k - sum c_i b_i|^2.
    The floor f of the real solution is Cramer's rule on the normal
    equations, with floor division by their positive determinant.  Only the
    2^k corners of the cell f + {0, 1}^k are scanned, ties going to the
    smaller coefficient tuple.  That suffices because `_greedy` hands over a
    Lagrange-reduced head: |2 <h1, h2>| <= |h1|^2 <= |h2|^2 makes both
    triangles of the cell non-obtuse, and a point of a non-obtuse lattice
    triangle is closest to one of its vertices.
    """
    row = g[k]
    top = row[k]
    if k == 1:
        a, r = g[0][0], row[0]
        f = r // a
        # |b_1 - c b_0|^2 = top - c (2r - c a)
        low, high = top - f * (2 * r - f * a), top - (f + 1) * (2 * r - (f + 1) * a)
        return ((f,), low) if low <= high else ((f + 1,), high)
    a, b, c = g[0][0], g[0][1], g[1][1]
    r0, r1 = row[0], row[1]
    det = a * c - b * b
    f0 = (r0 * c - b * r1) // det
    f1 = (a * r1 - b * r0) // det
    best = None
    for c0 in (f0, f0 + 1):
        for c1 in (f1, f1 + 1):
            norm = top - 2 * (c0 * r0 + c1 * r1) + c0 * (c0 * a + 2 * c1 * b) + c1 * c1 * c
            if best is None or norm < best[1]:
                best = ((c0, c1), norm)
    return best


def _sort(g, vectors, d) -> None:
    """Sort vectors[:d] by (norm, coords), permuting the rows and columns of g."""
    order = sorted(range(d), key=lambda i: (g[i][i], vectors[i]))
    if order == list(range(d)):
        return
    order += range(d, len(g))
    vectors[:d] = [vectors[i] for i in order[:d]]
    g[:] = [[g[i][j] for j in order] for i in order]


def _greedy(g, vectors, d) -> None:
    if d <= 1:
        return
    t = d - 1
    while True:
        _sort(g, vectors, d)
        _greedy(g, vectors, t)
        coeffs, norm = _closest_coeffs(g, t)
        if norm >= g[t][t]:
            break
        # b_t -= sum c_i b_i: one row and one column of g change
        target = vectors[t]
        new_row = list(g[t])
        for c, h, hg in zip(coeffs, vectors, g):
            if c:
                target = [x - c * y for x, y in zip(target, h)]
                new_row = [x - c * y for x, y in zip(new_row, hg)]
        new_row[t] = norm
        vectors[t] = target
        g[t] = new_row
        for row, x in zip(g, new_row):
            row[t] = x


def greedy_reduce(gram) -> list[list[int]]:
    """Unimodular integer rows U such that U * gram * U^T is greedy-reduced.

    gram is a positive definite integer matrix.  Rows are returned with
    nondecreasing norms, ties broken by the smaller row.
    """
    d = len(gram)
    if d > 3:
        raise ValueError("greedy reduction is only implemented for rank <= 3")
    g = [list(row) for row in gram]
    vectors = [[int(i == j) for j in range(d)] for i in range(d)]
    _greedy(g, vectors, d)
    _sort(g, vectors, d)
    return vectors
