"""Order saturation by the Fraction coset scan: an independent oracle for the tests.

`extend_to_maximal` keeps a coset y = sum c_i b_i of qO only when two
integer congruences on the trace Gram say that y/q is integral, and closes
under multiplication with the denominator-cleared integer basis rows.  This
module takes the same greedy steps the slow way: it builds every y/q as a
quaternion and asks `is_integral`, closes with Fraction products and
`Lattice.contains`, and reads discriminants off the Fraction Gram
determinant (`det_fractions`).
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from grosslat import Lattice
from grosslat.linalg import det_fractions, smallest_prime_factor


def gram_det(lattice) -> Fraction:
    return det_fractions([list(row) for row in lattice.gram().entries])


def discriminant_by_gram(lattice) -> int:
    """sqrt(16 det Gram) of a rank-4 order lattice."""
    d = 16 * gram_det(lattice)
    assert d.denominator == 1
    r = isqrt(int(d))
    assert r * r == d
    return r


def integral_cosets_by_scan(lattice, q: int) -> list:
    """Every integral y/q, y = sum c_i b_i over the canonical basis, 0 <= c_i < q."""
    basis = lattice.canonical_basis
    found = []
    for coeffs in product(range(q), repeat=4):
        if not any(coeffs):
            continue
        x = lattice.algebra.quat()
        for c, b in zip(coeffs, basis):
            x = x + c * b
        x = x / q
        if x.is_integral():
            found.append(x)
    return found


def products_outside_by_fractions(lattice) -> list:
    """Every product u * v of basis vectors outside the lattice, u outer."""
    return [u * v for u in lattice.basis for v in lattice.basis
            if not lattice.contains(u * v)]


def adjoin_by_products(lattice, x):
    """Closure of the lattice plus x under multiplication, or None past the floor."""
    algebra = lattice.algebra
    floor_det = Fraction(algebra.p ** 2, 16)
    current = Lattice.from_generators(algebra, [*lattice.basis, x])
    while True:
        if current.rank != 4 or gram_det(current) < floor_det:
            return None
        if not all(b.is_integral() for b in current.basis):
            return None
        new = products_outside_by_fractions(current)
        if not new:
            return current
        current = Lattice.from_generators(algebra, [*current.basis, *new])


def saturate_by_scan(lattice) -> Lattice:
    """The lattice of the maximal order the greedy coset scan reaches."""
    p = lattice.algebra.p
    while True:
        disc = discriminant_by_gram(lattice)
        if disc == p:
            return lattice
        assert disc % p == 0
        q = smallest_prime_factor(disc // p)
        for x in integral_cosets_by_scan(lattice, q):
            closed = adjoin_by_products(lattice, x)
            if closed is not None and discriminant_by_gram(closed) < disc:
                lattice = closed
                break
        else:
            raise AssertionError(f"no enlarging coset at q = {q}, discriminant {disc}")
