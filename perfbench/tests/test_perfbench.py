"""Tests of the benchmark itself: generator, tracer and output contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import grosslat  # noqa: E402
from grosslat import cli, correspond, lattice, orders  # noqa: E402
from perfbench import gen, spans, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("p", [7, 11, 13, 29, 17, 41, 73, 97, 193])
def test_generator_reaches_discriminant_p_in_every_class(p):
    order = gen.maximal_order(p)
    assert order.reduced_discriminant() == p
    assert gen.ramified_places(gen.choose_a(p), p) == {0, p}


def test_generator_covers_the_three_classes():
    assert {gen.residue_class(p) for p in (7, 13, 17)} == set(gen.CLASSES)
    assert [gen.choose_a(p) for p in (7, 13, 17, 73, 193)] == [1, 2, 3, 7, 11]


@pytest.mark.parametrize("a, p", [(1, 5), (1, 13), (1, 17), (2, 17), (3, 13), (1, 15)])
def test_generator_rejects_algebras_not_ramified_exactly_at_p(a, p):
    with pytest.raises(ValueError):
        gen.check_algebra(a, p)


@pytest.mark.parametrize("a, b", [(-1, -1), (-3, -7), (2, 5), (-2, -13), (6, -35), (-11, 13)])
def test_hilbert_symbols_satisfy_the_product_formula(a, b):
    places = {0, 2} | gen._prime_divisors(a) | gen._prime_divisors(b)
    product = 1
    for v in places:
        product *= gen.hilbert_symbol(a, b, v)
    assert product == 1


def test_hilbert_symbol_of_hamilton_quaternions():
    assert gen.hilbert_symbol(-1, -1, 0) == -1
    assert gen.hilbert_symbol(-1, -1, 2) == -1
    assert gen.hilbert_symbol(-1, -1, 3) == 1


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.setup_order_certify(11, tmp_path)
    second = workloads.setup_order_certify(11, tmp_path)
    assert [[op.key for op in ops] for ops in first.passes] == \
        [[op.key for op in ops] for ops in second.passes]
    assert first.inputs == second.inputs


def test_certify_draw_honours_the_constraints():
    import random

    for seed in range(50):
        primes = workloads.certify_primes(random.Random(seed))
        assert {gen.residue_class(p) for p in primes} == set(gen.CLASSES)
        assert sum(p >= 43 for p in primes) >= 2
        assert sum(p <= 23 for p in primes) >= 2


def _bindings():
    return {
        "grosslat.search_elements": grosslat.search_elements,
        "cli.search_elements": cli.search_elements,
        "workloads.search_elements": workloads.search_elements,
        "correspond.search_elements": correspond.search_elements,
        "cli.load_fixture": cli.load_fixture,
        "Order.__init__": orders.Order.__dict__["__init__"],
        "Order.norm_p_ideal": orders.Order.__dict__["norm_p_ideal"],
        "Lattice.from_generators": lattice.Lattice.__dict__["from_generators"],
        "Lattice.contains": lattice.Lattice.__dict__["contains"],
        "lattice.solve_left": lattice.solve_left,
    }


def test_wrappers_are_removed_after_the_traced_run():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        with tracer.recording(0):
            order = grosslat.load_fixture("p11").order()
            workloads.search_elements(order, 0, 11)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.patched
    names = {s.name for s in tracer.spans}
    assert {"fixtures.load_fixture", "fixtures.FixtureConfig.order", "orders.Order", "lattice.contains",
            "correspond.search_elements"} <= names
    assert {s.op for s in tracer.spans} == {0}


def test_self_time_excludes_children():
    spans_ = [
        spans.Span(0, "op", 0.0, 10.0, None, 0, False),
        spans.Span(1, "correspond.search_elements", 1.0, 9.0, 0, 0, False, 2),
        spans.Span(2, "lattice.contains", 2.0, 3.0, 1, 0, False),
        spans.Span(3, "lattice.contains", 4.0, 7.0, 1, 0, False),
    ]
    m = spans.span_metrics(spans_)
    assert m["correspond.search_elements.busy_s"] == 8.0
    assert m["correspond.search_elements.self_s"] == 4.0
    assert m["correspond.search_elements.hit_ratio"] == 1.0
    assert m["lattice.contains.calls"] == 2


def test_layer_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.LAYER_METRICS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "cli-mix", "--seed", "5", "--seconds", "0.2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
