"""Record the reference output digests of every op a seed can draw.

    python3 perfbench/record_reference.py [equivalence-table order-certify cli-mix]

The digests are written to perfbench/reference/<workload>.json.  Each op
key stands for one input from the workload's finite pool, so the recorded
file covers every seed.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen, workloads as w  # noqa: E402
from perfbench.measure import REFERENCE_DIR, digest  # noqa: E402


def equivalence_pool():
    orders = [w.shipped_table_order(case) for case in w.SHIPPED]
    orders += [w.generated_table_order(p) for p in gen.primes_in(*w.GENERATED_RANGE)]
    for t in orders:
        yield from w.table_ops(t)


def certify_pool():
    for p in w.CERTIFY_SMALL + w.CERTIFY_LARGE:
        for c1 in w.COEFF_RANGE:
            for c2 in w.COEFF_RANGE:
                yield w.certify_op(p, c1, c2)
    yield w.p31_path_op()


def cli_pool():
    for case in w.SHIPPED:
        fx = w.shipped_cli_fixture(case)
        yield w.verify_order_op(fx)
        yield w.reproduce_op(fx)
        yield w.equivalence_op(fx)
        for coeffs in w.ELEMENT_POOL:
            yield w.to_sublattice_op(fx, coeffs)
        for pair in w.PAIR_POOL:
            yield w.to_endo_op(fx, pair)
        for ell in w.SEARCH_ELLS:
            yield w.search_endo_op(fx, ell)
        for n in w.REPRESENT_NS:
            yield w.represents_op(fx, n)


POOLS = {
    "equivalence-table": equivalence_pool,
    "order-certify": certify_pool,
    "cli-mix": cli_pool,
}


def record(name: str) -> int:
    start = time.perf_counter()
    digests = {}
    for op in POOLS[name]():
        output = op.run()
        op.check(output)
        digests[op.key] = digest(output)
    path = REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": name, "digests": digests}, indent=0,
                               sort_keys=True) + "\n", "utf-8")
    print(f"{name}: {len(digests)} digests in {time.perf_counter() - start:.1f} s -> {path}")
    return len(digests)


if __name__ == "__main__":
    for name in sys.argv[1:] or list(POOLS):
        record(name)
