"""Greedy reduction in rational arithmetic: a test oracle.

`reduction.greedy_reduce` runs on an integer Gram matrix (s^2 G for a
lattice, 2G for a form), with Cramer's rule as integer floor division.
This module keeps the earlier route: the Gram matrix of Fraction inner
products, Cramer's rule through `det_fractions` and a Fraction floor, and,
for lattices and forms, the reduced vectors built as quaternions and sorted
by their Fraction norms.  Its closest-vector step scans the +-2 window
around the floor, where `reduction` scans the corners of the floor cell;
with the same (norm, coeffs) tie rule both must give the same transform,
basis and coefficients.
"""

from fractions import Fraction
from itertools import product
from math import floor

from grosslat import Lattice, TernaryForm
from grosslat.forms import representations
from grosslat.linalg import det_fractions
from grosslat.quat import inner


def _inner(gram, u, v) -> Fraction:
    return sum((Fraction(ui * vj) * gram[i][j]
                for i, ui in enumerate(u) for j, vj in enumerate(v)), Fraction(0))


def _norm(gram, v) -> Fraction:
    return _inner(gram, v, v)


def _sub(u, v, c):
    return [a - c * b for a, b in zip(u, v)]


def _closest_coeffs(gram, head, target):
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
    return lambda v: (_norm(gram, v), tuple(v))


def _greedy(gram, vectors, d) -> None:
    if d <= 1:
        return
    while True:
        vectors[:d] = sorted(vectors[:d], key=_sort_key(gram))
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


def greedy_reduce_by_fractions(gram) -> list[list[int]]:
    """Unimodular rows U with U * gram * U^T greedy-reduced, for a rational gram."""
    d = len(gram)
    vectors = [[int(i == j) for j in range(d)] for i in range(d)]
    _greedy(gram, vectors, d)
    vectors.sort(key=_sort_key(gram))
    return vectors


def _canonical_sign(q):
    for c in q.coords:
        if c:
            return q if c > 0 else -q
    return q


def minkowski_by_fractions(lattice) -> Lattice:
    """The reduced basis from Fraction inner products and quaternion sums."""
    start = lattice.canonical_basis
    transform = greedy_reduce_by_fractions([[inner(u, v) for v in start] for u in start])
    vecs = [_canonical_sign(sum((c * b for c, b in zip(row, start)), lattice.algebra.quat()))
            for row in transform]
    vecs.sort(key=lambda q: (q.reduced_norm(), q.coords))
    return Lattice(lattice.algebra, vecs)


def canonical_form_by_fractions(form: TernaryForm) -> TernaryForm:
    """The least coefficient tuple over the bases of successive minima."""
    reduced = form.transformed(greedy_reduce_by_fractions(form.gram()))
    minima = (reduced.a, reduced.b, reduced.c)
    sols = {v: list(representations(reduced, v)) for v in set(minima)}
    candidates = (reduced.transformed([list(v1), list(v2), list(v3)]).coefficients()
                  for v1 in sols[minima[0]] for v2 in sols[minima[1]] for v3 in sols[minima[2]]
                  if abs(v1[0] * (v2[1] * v3[2] - v2[2] * v3[1])
                         - v1[1] * (v2[0] * v3[2] - v2[2] * v3[0])
                         + v1[2] * (v2[0] * v3[1] - v2[1] * v3[0])) == 1)
    return TernaryForm(*min(candidates))
