"""Regenerate the shipped fixture files.

p11: lift of the successive-minima Gross basis (orientation fixed so the
     Gram matrix has the +1/-7 off-diagonal signs).
p31: greedy saturation of the order generated by {1, alpha, 3i, 3*alpha*i}.
p19: greedy saturation lands on the maximal-order type containing i, whose
     determinant form represents 10; the shipped order is an index-2
     neighbor of that one which still contains alpha and whose form does
     not represent 10.  The neighbor step is frozen here as an explicit
     basis.
"""

import json
from fractions import Fraction
from pathlib import Path

from grosslat import (
    AlgebraParams,
    Lattice,
    Order,
    extend_to_maximal,
    lift_gross_basis,
    order_from_pair,
    order_form,
    represents,
)


F = Fraction
OUT = Path(__file__).resolve().parent.parent / "src" / "grosslat" / "fixtures"


def freeze(label, order, alpha, ell):
    algebra = order.algebra
    p = algebra.p
    assert order.is_maximal()
    assert order.contains(alpha)
    assert alpha.reduced_trace() == p
    assert alpha.reduced_norm() == ell * p
    gram = order.reduced_gross_lattice().gram()
    content, form = order_form(order)
    assert content == 4 * p
    assert represents(form, ell) is None
    data = {
        "label": label,
        "algebra": algebra.to_dict(),
        "order_basis": [b.to_coord_strings() for b in order.lattice.canonical_basis],
        "alpha": alpha.to_coord_strings(),
        "ell": ell,
        "expected": {
            "reduced_discriminant": p,
            "gross_det": int(4 * p * p),
            "gross_gram_diagonal": [int(v) for v in gram.diagonal],
            "content": 4 * p,
            "form": form.to_dict(),
            "represents_ell": False,
            "alpha_trace": p,
            "alpha_norm": ell * p,
        },
    }
    path = OUT / f"{label}.json"
    path.write_text(json.dumps(data, indent=2) + "\n", "utf-8")
    print(f"wrote {path.name}: diag={data['expected']['gross_gram_diagonal']} form={form}")


def build_p11():
    A = AlgebraParams(3, 11)
    b1 = A.i
    b2 = A.quat(0, F(1, 3), 1, F(-1, 3))
    b3 = A.quat(0, F(1, 3), 0, F(2, 3))
    order = lift_gross_basis(b1, b2, b3)
    alpha = A.quat(F(11, 2), F(11, 2))
    freeze("p11-j0", order, alpha, 11)


def build_p31():
    A = AlgebraParams(1, 31)
    alpha = A.quat(F(31, 2), F(-31, 3), F(-7, 6), F(-2, 3))
    order = extend_to_maximal(order_from_pair(alpha, 3 * A.i))
    freeze("p31-j4", alpha=alpha, order=order, ell=13)


def build_p19():
    A = AlgebraParams(1, 19)
    alpha = A.quat(F(19, 2), F(-19, 2), F(-1, 2), F(-1, 2))
    basis = [
        A.one,
        2 * A.i,
        A.quat(F(1, 2), F(5, 4), F(1, 4), 0),
        A.quat(F(1, 2), 1, 0, F(1, 2)),
    ]
    order = Order(Lattice.from_generators(A, basis))
    freeze("p19-j7", order, alpha, 10)


if __name__ == "__main__":
    build_p11()
    build_p31()
    build_p19()
