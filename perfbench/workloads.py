"""The three benchmark workloads: seeded inputs, ops and their checks.

An op is one unit of work.  `run` does the work and returns a JSON-able
output; `check` raises CheckFailed when that output is mathematically
wrong.  Every output is also digested and compared with the reference
recorded under perfbench/reference/ for the op's key, so reports must stay
byte-identical.  Keys outside the recorded input pools (the generated
cli-mix fixtures) are compared with their first pass instead.

Each workload's `setup(seed)` builds its passes of ops from generated
inputs only; the same seed gives the same ops.  The timed loop runs the
passes in turn, cycling, and stops only between passes.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable

from grosslat import (
    Lattice,
    Order,
    canonical_reduced_form,
    commutator_basis,
    exterior_square_form,
    extend_to_maximal,
    load_fixture,
    order_from_pair,
    representation_counts,
    represents,
    search_elements,
    trace_zero_commutator_basis,
)
from grosslat import cli
from grosslat.linalg import det_fractions

from . import gen

SHIPPED = ("p11", "p19", "p31")
GENERATED_RANGE = (53, 199)
ELL_MAX = 50
THETA_N = 100
EQUIVALENCE_PASSES = 6


class CheckFailed(Exception):
    """An op's output contradicts the mathematics or its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    key: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    recorded: bool = True


@dataclass
class Workload:
    passes: list[list[Op]]
    inputs: dict


def form_of(order: Order):
    """(content, primitive determinant form) of the order's reduced Gross lattice."""
    reduced = order.gross_lattice().minkowski_reduced()
    return exterior_square_form(reduced.gram())


def form_det(form) -> Fraction:
    return det_fractions(form.gram())


# -- equivalence-table ---------------------------------------------------------


@dataclass
class TableOrder:
    label: str
    order: Order
    form: Any
    frozen_ell: int | None = None


def shipped_table_order(case: str) -> TableOrder:
    config = load_fixture(case)
    order = config.order()
    content, form = form_of(order)
    expected = config.expected
    if content != expected["content"] or form.to_dict() != expected["form"]:
        raise CheckFailed(f"{config.label}: form does not match the frozen fixture")
    if order.reduced_discriminant() != expected["reduced_discriminant"]:
        raise CheckFailed(f"{config.label}: discriminant does not match the fixture")
    return TableOrder(config.label, order, form, config.ell)


def generated_table_order(p: int) -> TableOrder:
    order = gen.maximal_order(p)
    content, form = form_of(order)
    if content != 4 * p:
        raise CheckFailed(f"p{p}: content {content} != 4p")
    return TableOrder(f"gen-p{p}", order, form)


def theta_op(t: TableOrder) -> Op:
    def run():
        return representation_counts(t.form, THETA_N)

    def check(counts):
        require(len(counts) == THETA_N + 1 and counts[0] == 1, "bad r(0) or length")
        require(all(c % 2 == 0 for c in counts[1:]), "r(n) must be even (v and -v)")

    return Op(f"{t.label}|theta", "theta", run, check)


def canonical_op(t: TableOrder) -> Op:
    det = form_det(t.form)

    def run():
        return list(canonical_reduced_form(t.form).coefficients())

    def check(coeffs):
        a, b, c = coeffs[:3]
        require(0 < a <= b <= c, "canonical form is not reduced")
        require(form_det(type(t.form)(*coeffs)) == det, "canonical form changed the determinant")

    return Op(f"{t.label}|canonical", "canonical", run, check)


def row_op(t: TableOrder, ell: int) -> Op:
    p = t.order.algebra.p

    def run():
        found = search_elements(t.order, 0, ell * p)
        witness = represents(t.form, ell)
        return {
            "elements": [x.to_coord_strings() for x in found],
            "witness": list(witness) if witness is not None else None,
        }

    def check(out):
        algebra = t.order.algebra
        for coords in out["elements"]:
            x = algebra.from_coord_strings(coords)
            require(x.reduced_trace() == 0 and x.reduced_norm() == ell * p,
                    "element has the wrong trace or norm")
        witness = out["witness"]
        if witness is not None:
            require(t.form(*witness) == ell, "witness does not represent ell")
        require(bool(out["elements"]) == (witness is not None),
                f"ell={ell}: existence and representation disagree")
        if ell == t.frozen_ell:
            require(witness is None, "the fixture's ell must not be represented")

    return Op(f"{t.label}|row|{ell}", "row", run, check)


def table_ops(t: TableOrder) -> list[Op]:
    return [theta_op(t), canonical_op(t)] + [row_op(t, ell) for ell in range(1, ELL_MAX + 1)]


def setup_equivalence_table(seed: int, out_dir: Path) -> Workload:
    """Each pass covers the shipped orders and three generated ones, one per
    residue class, drawn afresh for each of EQUIVALENCE_PASSES passes, so
    that a run's median op does not hang on the cost of three orders."""
    rng = random.Random(seed)
    shipped = [op for case in SHIPPED for op in table_ops(shipped_table_order(case))]
    built: dict[int, list[Op]] = {}
    passes, labels = [], []
    for _ in range(EQUIVALENCE_PASSES):
        primes = gen.one_per_class(rng, *GENERATED_RANGE)
        for p in primes:
            if p not in built:
                built[p] = table_ops(generated_table_order(p))
        passes.append(shipped + [op for p in primes for op in built[p]])
        labels.append([f"gen-p{p}" for p in primes])
    return Workload(passes, {"generated": labels})


# -- order-certify -------------------------------------------------------------

# A pass certifies 43, 47 and eight of the nine primes in [5, 31], always
# including 17, the only one that is 1 mod 8.  Each pass draws the dropped
# prime and every (c1, c2) afresh.  The cost of an op grows as p^4; with
# this mix the pass cost barely depends on the draw, the median op lies
# among the small primes and the tail among 43, 47 and the p31 path.
CERTIFY_SMALL = (5, 7, 11, 13, 17, 19, 23, 29, 31)
CERTIFY_LARGE = (43, 47)
CERTIFY_PASSES = 64
COEFF_RANGE = range(1, 7)


def certify_primes(rng: random.Random) -> list[int]:
    dropped = rng.choice([p for p in CERTIFY_SMALL if p != 17])
    return [p for p in CERTIFY_SMALL if p != dropped] + list(CERTIFY_LARGE)


def _certify(order: Order, p: int) -> dict:
    """Steps 2-5 of a certify op on an order built in step 1."""
    maximal = extend_to_maximal(order)
    algebra = order.algebra
    verified = Order(Lattice.from_generators(algebra, list(maximal.lattice.basis)))
    reduced = verified.gross_lattice().minkowski_reduced()
    content, form = exterior_square_form(reduced.gram())
    ideal = verified.norm_p_ideal()
    commutator = commutator_basis(verified)
    return {
        "p": p,
        "discriminant": verified.reduced_discriminant(),
        "basis": [b.to_coord_strings() for b in verified.lattice.canonical_basis],
        "gross_gram": reduced.gram().to_strings(),
        "content": content,
        "form": form.to_dict(),
        "ideal": [b.to_coord_strings() for b in ideal.canonical_basis],
        "commutator_is_ideal": commutator == ideal,
        "index": ideal.index_in(verified.lattice),
    }


def _certify_check(out: dict, p: int) -> None:
    require(out["discriminant"] == p, "saturation did not reach discriminant p")
    require(out["content"] == 4 * p, "content is not 4p")
    require(out["commutator_is_ideal"], "commutator ideal differs from the norm-p ideal")
    require(out["index"] == p * p, "norm-p ideal does not have index p^2")


def certify_op(p: int, c1: int, c2: int) -> Op:
    algebra = gen.check_algebra(gen.choose_a(p), p)

    def run():
        return _certify(order_from_pair(c1 * algebra.i, c2 * algebra.j), p)

    return Op(f"p{p}|c{c1},{c2}", "certify", run, lambda out: _certify_check(out, p))


def p31_path_op() -> Op:
    config = load_fixture("p31")
    shipped = config.to_dict()["order_basis"]
    alpha = config.alpha
    three_i = 3 * config.algebra.i

    def run():
        return _certify(order_from_pair(alpha, three_i), 31)

    def check(out):
        _certify_check(out, 31)
        require(out["basis"] == shipped, "p31 path did not saturate to the shipped order")

    return Op("p31-path", "certify", run, check)


def setup_order_certify(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    p31_path = p31_path_op()
    passes = [
        [certify_op(p, rng.choice(COEFF_RANGE), rng.choice(COEFF_RANGE))
         for p in certify_primes(rng)] + [p31_path]
        for _ in range(CERTIFY_PASSES)
    ]
    return Workload(passes, {"first_pass": [op.key for op in passes[0]]})


# -- cli-mix -------------------------------------------------------------------

ELEMENT_POOL = [v for v in product(range(-2, 3), repeat=3) if any(v)]
_UNIT = [v for v in product(range(-1, 2), repeat=3) if any(v)]
PAIR_POOL = [
    (u, v) for u in _UNIT for v in _UNIT
    if (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    != (0, 0, 0)
]
SEARCH_ELLS = range(1, 11)
REPRESENT_NS = range(1, 101)
CLI_ELL_MAX = 10
CLI_PASSES = 6


@dataclass
class CliFixture:
    label: str
    source: list[str]  # ["--case", name] or ["--config", path]
    order: Order
    form: Any
    shipped: bool


def call_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _report(out: dict) -> dict:
    require(out["status"] == 0, f"exit status {out['status']}: {out['stderr'].strip()}")
    report = json.loads(out["stdout"])
    require(report.get("ok") is True, "report is not ok")
    return report


def cli_op(fx: CliFixture, verb: str, arg, argv: list[str],
           check: Callable[[dict], None] | None = None) -> Op:
    def full_check(out):
        report = _report(out)
        if check is not None:
            check(report)

    key = f"{fx.label}|{verb}|{arg}" if arg is not None else f"{fx.label}|{verb}"
    return Op(key, f"cli.{verb}", lambda: call_cli(argv), full_check, recorded=fx.shipped)


def verify_order_op(fx: CliFixture) -> Op:
    return cli_op(fx, "verify-order", None, ["verify-order", *fx.source])


def reproduce_op(fx: CliFixture) -> Op:
    return cli_op(fx, "reproduce", None, ["reproduce", fx.source[1]])


def equivalence_op(fx: CliFixture) -> Op:
    def check(report):
        require(len(report["rows"]) == CLI_ELL_MAX, "wrong number of rows")

    return cli_op(fx, "equivalence", None,
                  ["equivalence", *fx.source, "--ell-max", str(CLI_ELL_MAX)], check)


def to_sublattice_op(fx: CliFixture, coeffs) -> Op:
    element = gen.combine(coeffs, trace_zero_commutator_basis(fx.order))
    payload = json.dumps(element.to_coord_strings())

    def check(report):
        require(report["det_is_4nrd"] and report["round_trip"], "round trip failed")

    return cli_op(fx, "correspond-to-sublattice", list(coeffs),
                  ["correspond", "to-sublattice", *fx.source, "--element", payload], check)


def to_endo_op(fx: CliFixture, pair) -> Op:
    basis = fx.order.gross_basis()
    g1, g2 = (gen.combine(c, basis) for c in pair)
    payload = json.dumps([g1.to_coord_strings(), g2.to_coord_strings()])

    def check(report):
        require(report["trd"] == "0", "element does not have trace zero")
        require(4 * Fraction(report["nrd"]) == Fraction(report["pair_det"]),
                "Nrd is not a quarter of the pair determinant")

    return cli_op(fx, "correspond-to-endo", [list(c) for c in pair],
                  ["correspond", "to-endo", *fx.source, "--pair", payload], check)


def search_endo_op(fx: CliFixture, ell: int) -> Op:
    norm = ell * fx.order.algebra.p

    def check(report):
        require(report["count"] == len(report["elements"]), "count mismatch")

    return cli_op(fx, "search-endo", ell,
                  ["search-endo", *fx.source, "--trace", "0", "--norm", str(norm)], check)


def represents_op(fx: CliFixture, n: int) -> Op:
    form_json = json.dumps(fx.form.to_dict())

    def check(report):
        witness = report["witness"]
        require(report["represented"] == (witness is not None), "flag and witness disagree")
        if witness is not None:
            require(fx.form(*witness) == n, "witness does not represent n")

    return cli_op(fx, "represents", n,
                  ["represents", "--form", form_json, "--ell", str(n)], check)


def shipped_cli_fixture(case: str) -> CliFixture:
    config = load_fixture(case)
    order = config.order()
    _, form = form_of(order)
    return CliFixture(config.label, ["--case", case], order, form, True)


def generated_cli_fixture(p: int, out_dir: Path) -> CliFixture:
    order = gen.maximal_order(p)
    config = gen.fixture_config(f"gen-p{p}", order)
    path = gen.write_fixture(config, out_dir)
    _, form = form_of(order)
    return CliFixture(config.label, ["--config", str(path)], order, form, False)


def cli_fixture_ops(fx: CliFixture, rng: random.Random) -> list[Op]:
    ops = [
        verify_order_op(fx),
        to_sublattice_op(fx, rng.choice(ELEMENT_POOL)),
        to_endo_op(fx, rng.choice(PAIR_POOL)),
        search_endo_op(fx, rng.choice(SEARCH_ELLS)),
        represents_op(fx, rng.choice(REPRESENT_NS)),
        equivalence_op(fx),
    ]
    if fx.shipped:
        ops.append(reproduce_op(fx))
    return ops


def cli_primes(rng: random.Random) -> list[int]:
    """Two primes from [53, 199], in two different residue classes."""
    classes = rng.sample(gen.CLASSES, 2)
    return [rng.choice(gen.primes_in(*GENERATED_RANGE, cls)) for cls in classes]


def setup_cli_mix(seed: int, out_dir: Path) -> Workload:
    """Each of CLI_PASSES passes draws its two generated fixtures and every
    op argument afresh, so that a run's tail does not hang on two orders."""
    rng = random.Random(seed)
    shipped = [shipped_cli_fixture(case) for case in SHIPPED]
    built: dict[int, CliFixture] = {}
    passes, labels = [], []
    for _ in range(CLI_PASSES):
        primes = cli_primes(rng)
        for p in primes:
            if p not in built:
                built[p] = generated_cli_fixture(p, out_dir / "fixtures")
        fixtures = shipped + [built[p] for p in primes]
        passes.append([op for fx in fixtures for op in cli_fixture_ops(fx, rng)])
        labels.append([built[p].label for p in primes])
    return Workload(passes, {"generated": labels})


SETUPS = {
    "equivalence-table": setup_equivalence_table,
    "order-certify": setup_order_certify,
    "cli-mix": setup_cli_mix,
}
