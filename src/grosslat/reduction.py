"""Greedy basis reduction for positive definite integer Gram matrices of rank <= 3.

Works on integer coordinate rows relative to a fixed starting basis whose
Gram matrix is supplied; in rank <= 3 the greedy algorithm reaches the
successive minima (Nguyen and Stehle, ACM TALG 5, 2009).  Closest-vector
subproblems are in dimension <= 2: Cramer's rule, as integer floor division
by the positive determinant of the normal equations, floors the real
solution, and the corners of its unit cell are scanned, which suffices once
the smaller basis is itself reduced.  A positive multiple of the Gram matrix
(s^2 G, 2G) gives the same transform, so callers stay in integers.
"""

from __future__ import annotations

from itertools import product

from .linalg import det_int


def _inner(gram, u, v) -> int:
    total = 0
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = gram[i]
        for j, vj in enumerate(v):
            if vj:
                total += ui * vj * row[j]
    return total


def _norm(gram, v) -> int:
    return _inner(gram, v, v)


def _sub(u, v, c):
    return [a - c * b for a, b in zip(u, v)]


def _closest_coeffs(gram, head, target):
    """Integer coefficients of a closest vector to target in span(head), |head| <= 2.

    The floor f of the real solution is Cramer's rule on the normal
    equations, with floor division by their positive determinant.  Only the
    2^k corners of the cell f + {0, 1}^k are scanned, ties going to the
    smaller coefficient tuple.  That suffices because `_greedy` hands over a
    Lagrange-reduced head: |2 <h1, h2>| <= |h1|^2 <= |h2|^2 makes both
    triangles of the cell non-obtuse, and a point of a non-obtuse lattice
    triangle is closest to one of its vertices.
    """
    normal = [[_inner(gram, u, v) for v in head] for u in head]
    rhs = [_inner(gram, target, u) for u in head]
    det = det_int(normal)
    floors = [det_int([row[:k] + [b] + row[k + 1:] for row, b in zip(normal, rhs)]) // det
              for k in range(len(head))]

    def key(coeffs):
        diff = target
        for c, h in zip(coeffs, head):
            diff = _sub(diff, h, c)
        return (_norm(gram, diff), coeffs)

    return min(product(*((f, f + 1) for f in floors)), key=key)


def _sort_key(gram):
    def key(v):
        return (_norm(gram, v), tuple(v))
    return key


def _greedy(gram, vectors, d) -> None:
    if d <= 1:
        return
    key = _sort_key(gram)
    while True:
        vectors[:d] = sorted(vectors[:d], key=key)
        _greedy(gram, vectors, d - 1)
        head = vectors[:d - 1]
        coeffs = _closest_coeffs(gram, head, vectors[d - 1])
        reduced = vectors[d - 1]
        for c, h in zip(coeffs, head):
            reduced = _sub(reduced, h, c)
        if _norm(gram, reduced) < _norm(gram, vectors[d - 1]):
            vectors[d - 1] = reduced
        else:
            break


def greedy_reduce(gram) -> list[list[int]]:
    """Unimodular integer rows U such that U * gram * U^T is greedy-reduced.

    gram is a positive definite integer matrix.  Rows are returned with
    nondecreasing norms, ties broken by the smaller row.
    """
    d = len(gram)
    if d > 3:
        raise ValueError("greedy reduction is only implemented for rank <= 3")
    vectors = [[int(i == j) for j in range(d)] for i in range(d)]
    _greedy(gram, vectors, d)
    vectors.sort(key=_sort_key(gram))
    return vectors
