"""Greedy basis reduction for positive definite Gram matrices of rank <= 3.

Works purely on integer coordinate rows relative to a fixed starting basis
whose Gram matrix is supplied; in rank <= 3 the greedy algorithm returns a
basis realizing the successive minima.  Closest-vector subproblems are in
dimension <= 2 and solved exactly: the real solution is computed with
rational arithmetic and a +-2 integer window around it is scanned, which is
sufficient once the smaller basis is itself reduced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor

from .linalg import det_fractions


def _inner(gram, u, v) -> Fraction:
    total = Fraction(0)
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = gram[i]
        for j, vj in enumerate(v):
            if vj:
                total += ui * vj * row[j]
    return total


def _norm(gram, v) -> Fraction:
    return _inner(gram, v, v)


def _sub(u, v, c):
    return [a - c * b for a, b in zip(u, v)]


def _closest_coeffs(gram, head, target):
    """Integer coefficients of a closest vector to target in span(head), |head| <= 2.

    The exact real solution comes from Cramer's rule on the normal
    equations; the +-2 window around its floor is scanned, ties going to
    the smaller coefficient tuple.
    """
    normal = [[_inner(gram, u, v) for v in head] for u in head]
    rhs = [_inner(gram, target, u) for u in head]
    det = det_fractions(normal)
    floors = [floor(det_fractions([row[:k] + [b] + row[k + 1:] for row, b in zip(normal, rhs)])
                    / det)
              for k in range(len(head))]

    def key(coeffs):
        diff = target
        for c, h in zip(coeffs, head):
            diff = _sub(diff, h, c)
        return (_norm(gram, diff), coeffs)

    return min(product(*(range(f - 2, f + 3) for f in floors)), key=key)


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

    Rows are returned with nondecreasing norms.
    """
    d = len(gram)
    if d > 3:
        raise ValueError("greedy reduction is only implemented for rank <= 3")
    vectors = [[int(i == j) for j in range(d)] for i in range(d)]
    _greedy(gram, vectors, d)
    vectors.sort(key=_sort_key(gram))
    return vectors
