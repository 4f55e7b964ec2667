"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All comparisons are exact; the stated runtime budgets
are asserted.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction


from grosslat import (
    TernaryForm,
    commutator_basis,
    endo_to_sublattice,
    extend_to_maximal,
    order_from_pair,
    order_form,
    plucker_lift,
    representation_counts,
    represents,
    search_elements,
    sublattice_to_endo,
    trace_zero_commutator_basis,
)

from norm_scan import norm_p_ideal_by_scan

F = Fraction

REFERENCE_FORMS = {
    11: TernaryForm(1, 1, 4, -1, -1, 1),
    31: TernaryForm(1, 2, 5, -1, -1, 2),
    19: TernaryForm(1, 2, 3, -1, -1, 1),
}


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] FAIL {description} ({elapsed:.2f}s)",
              file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS {description} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_p11_counterexample(order_p11):
    with criterion(1, "p = 11 counter-example", budget=1.0):
        order = order_p11
        assert order.reduced_discriminant() == 11
        content, q = order_form(order)
        reduced = order.gross_lattice().minkowski_reduced()
        assert [int(v) for v in reduced.gram().diagonal] == [3, 15, 15]
        assert reduced.det() == 484
        assert content == 44
        assert representation_counts(q, 100) == \
            representation_counts(REFERENCE_FORMS[11], 100)
        assert represents(q, 11) is None
        alpha = order.algebra.quat(F(11, 2), F(11, 2))
        assert order.contains(alpha)
        assert alpha.reduced_trace() == 11
        assert alpha.reduced_norm() == 121


def test_criterion_2_p31_counterexample(fixture_p31):
    with criterion(2, "p = 31 counter-example (with saturation)", budget=5.0):
        algebra = fixture_p31.algebra
        alpha = fixture_p31.alpha
        order = extend_to_maximal(order_from_pair(alpha, 3 * algebra.i))
        assert order.lattice == fixture_p31.order().lattice
        assert order.contains(alpha)
        assert alpha.reduced_trace() == 31
        assert alpha.reduced_norm() == 403
        content, q = order_form(order)
        assert content == 124
        assert representation_counts(q, 100) == \
            representation_counts(REFERENCE_FORMS[31], 100)
        assert represents(q, 13) is None


def test_criterion_3_p19_counterexample(order_p19, fixture_p19):
    with criterion(3, "p = 19 counter-example", budget=5.0):
        alpha = fixture_p19.alpha
        assert order_p19.contains(alpha)
        assert alpha.reduced_trace() == 19
        assert alpha.reduced_norm() == 190
        content, q = order_form(order_p19)
        assert content == 76
        assert representation_counts(q, 100) == \
            representation_counts(REFERENCE_FORMS[19], 100)
        assert represents(q, 10) is None


def test_criterion_4_diagonal_identity():
    with criterion(4, "12*Q11 diagonal identity on 9261 points"):
        q11 = REFERENCE_FORMS[11]
        for x in range(-10, 11):
            for y in range(-10, 11):
                for z in range(-10, 11):
                    assert 12 * q11(x, y, z) == \
                        3 * (2 * x - y - z) ** 2 + (3 * y + z) ** 2 + 44 * z * z


def test_criterion_5_commutator_ideal_identity(order_p11, order_p31, order_p19):
    with criterion(5, "commutator ideal equals norm ideal, index p^2", budget=30.0):
        for order in (order_p11, order_p31, order_p19):
            p = order.algebra.p
            bracket_lattice = commutator_basis(order)
            norm_lattice = order.norm_p_ideal()
            assert bracket_lattice == norm_lattice == norm_p_ideal_by_scan(order)
            assert bracket_lattice.index_in(order.lattice) == p * p


def test_criterion_6_round_trip(order_p11, order_p31, order_p19):
    with criterion(6, "round trip on >= 200 sampled trace-zero elements", budget=10.0):
        rng = random.Random(20260808)
        for order in (order_p11, order_p31, order_p19):
            triple = trace_zero_commutator_basis(order)
            checked = 0
            while checked < 200:
                alpha = order.algebra.quat()
                for e in triple:
                    alpha = alpha + rng.randint(-6, 6) * e
                if not alpha or alpha.reduced_norm() > 10 ** 4:
                    continue
                checked += 1
                pair = endo_to_sublattice(order, alpha)
                assert pair.det() == 4 * alpha.reduced_norm()
                assert sublattice_to_endo(order, pair.gamma1, pair.gamma2) == alpha
            assert checked == 200


def test_criterion_7_existence_equivalence(order_p11, order_p31, order_p19):
    with criterion(7, "existence equivalence for ell in [1, 50], 150 rows", budget=60.0):
        for order in (order_p11, order_p31, order_p19):
            p = order.algebra.p
            content, q = order_form(order)
            assert content == 4 * p
            for ell in range(1, 51):
                endo_exists = bool(search_elements(order, 0, ell * p))
                form_represents = represents(q, ell) is not None
                assert endo_exists == form_represents, \
                    f"p={p}, ell={ell}: search={endo_exists}, form={form_represents}"


def test_criterion_8_oracle_agreement():
    with criterion(8, "represents vs box oracle: 50 forms, n <= 200"):
        import numpy as np

        from grosslat.linalg import det_fractions
        from math import isqrt

        rng = random.Random(88)
        forms = []
        while len(forms) < 50:
            a, b, c = (rng.randint(1, 10) for _ in range(3))
            d, e, f = (rng.randint(-10, 10) for _ in range(3))
            form = TernaryForm(a, b, c, d, e, f)
            if form.is_positive_definite():
                forms.append(form)
        for form in forms:
            m = form.gram()
            det = det_fractions(m)
            bounds = []
            for i in range(3):
                minor = [[m[r][cc] for cc in range(3) if cc != i]
                         for r in range(3) if r != i]
                bound = 200 * det_fractions(minor) / det
                bounds.append(isqrt(bound.numerator // bound.denominator) + 1)
            bx, by, bz = bounds
            ys = np.arange(-by, by + 1, dtype=np.int64)[:, None]
            zs = np.arange(-bz, bz + 1, dtype=np.int64)[None, :]
            base = form.b * ys * ys + form.c * zs * zs + form.f * ys * zs
            hit = set()
            for x in range(-bx, bx + 1):
                vals = base + (form.a * x * x) + (form.d * x) * ys + (form.e * x) * zs
                near = vals[vals <= 200]
                hit.update(np.unique(near[near >= 0]).tolist())
            for n in range(201):
                assert (represents(form, n) is not None) == (n in hit), \
                    f"form {form}, n={n}"


def test_criterion_9_plucker_exhaustive():
    with criterion(9, "plucker lift minors, |a_i| <= 20 (68921 triples)", budget=1.0):
        for a1 in range(-20, 21):
            for a2 in range(-20, 21):
                for a3 in range(-20, 21):
                    assert plucker_lift(a1, a2, a3).minors() == (a1, a2, a3)
