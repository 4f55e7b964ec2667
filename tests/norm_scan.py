"""The norm-p ideal by brute force: an independent oracle for the tests.

`Order.norm_p_ideal` computes the ideal in closed form as p * O^#.  This
module finds it instead by scanning all p^4 classes of O/pO for those whose
norm is divisible by p, and by checking that they form a subgroup of order
p^2.  It costs O(p^4), so the tests run it only for small p.
"""

from grosslat import Lattice, inner


def norm_p_ideal_by_scan(order) -> Lattice:
    """The lattice {x in O : p | Nrd(x)} from the p^4 classes of O/pO."""
    p = order.algebra.p
    assert order.is_maximal()
    basis = order.lattice.canonical_basis
    n0, n1, n2, n3 = (int(inner(b, b)) % p for b in basis)
    cross = [[int(2 * inner(u, v)) % p for v in basis] for u in basis]
    classes = []
    rng = range(p)
    for c0 in rng:
        a0 = n0 * c0 * c0
        t01, t02, t03 = cross[0][1] * c0, cross[0][2] * c0, cross[0][3] * c0
        for c1 in rng:
            a1 = a0 + (n1 * c1 + t01) * c1
            t12, t13 = cross[1][2] * c1, cross[1][3] * c1
            for c2 in rng:
                a2 = a1 + (n2 * c2 + t02 + t12) * c2
                lin3 = t03 + t13 + cross[2][3] * c2
                for c3 in rng:
                    if (a2 + (n3 * c3 + lin3) * c3) % p == 0:
                        classes.append((c0, c1, c2, c3))
    assert len(classes) == p * p, f"expected {p * p} norm-divisible classes, found {len(classes)}"
    g1, g2 = _subgroup_generators(set(classes), p)
    lifts = []
    for g in (g1, g2):
        x = order.algebra.quat()
        for c, b in zip(g, basis):
            x = x + c * b
        lifts.append(x)
    return Lattice.from_generators(order.algebra, [p * b for b in basis] + lifts)


def _subgroup_generators(members: set, p: int):
    """Two F_p-independent generators whose span is exactly the member set."""
    nonzero = sorted(m for m in members if any(m))
    assert nonzero, "no nonzero norm-divisible class"
    g1 = nonzero[0]
    span1 = {tuple((k * c) % p for c in g1) for k in range(p)}
    g2 = next((m for m in nonzero if m not in span1), None)
    assert g2 is not None, "norm-divisible classes lie on one line"
    span = {
        tuple((k1 * c1 + k2 * c2) % p for c1, c2 in zip(g1, g2))
        for k1 in range(p)
        for k2 in range(p)
    }
    assert span == members, "norm-divisible classes do not form a subgroup"
    return g1, g2
