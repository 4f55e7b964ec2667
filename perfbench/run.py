"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload equivalence-table --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ./src, never
from an installed copy, and the benchmark exits with status 1 when ./src
is missing.  With --trace 0 the last line of standard output is the JSON
result with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a separate traced pass and a cProfile-counted pass.
Reports and spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOADS = ("equivalence-table", "order-certify", "cli-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Put ./src first on the path, import grosslat and the benchmark; return
    the import time."""
    src = ROOT / "src"
    if not (src / "grosslat" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'grosslat'} not found; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    import grosslat.cli  # noqa: F401
    import perfbench.measure  # noqa: F401
    import perfbench.spans  # noqa: F401
    return time.perf_counter() - start


def timed_setup(name: str, seed: int):
    """Build the workload SETUP_REPEATS times, probing the machine's speed
    before each build; return the last build, the median build time and
    the speed scale."""
    from perfbench.measure import SpeedProbe
    from perfbench.workloads import SETUPS

    times, workload, probe = [], None, SpeedProbe()
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        workload = SETUPS[name](seed, OUT_DIR)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times), probe.scale()


def traced_run(name: str, seed: int, ops, referee, outcome):
    """Per-layer metrics: a traced set-up, a traced pass and a counted pass.

    Each op of the traced pass runs once unwrapped and once traced, back to
    back, so the overhead ratio compares runs made at nearly the same time.
    """
    from perfbench import measure, spans
    from perfbench.workloads import SETUPS

    tracer = spans.Tracer()
    with tracer.installed(), tracer.recording("setup"):
        SETUPS[name](seed, OUT_DIR)
    untraced_s = traced_s = 0.0
    for i, op in enumerate(ops):
        untraced_s += measure.execute(op, referee, outcome)
        with tracer.installed(), tracer.recording(i):
            traced_s += measure.execute(op, referee, outcome)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    layer = spans.span_metrics(tracer.spans)

    def profiled(op, profiler):
        outcome.attempted += 1
        profiler.enable()
        try:
            output = op.run()
        except Exception as exc:
            profiler.disable()
            outcome.record_failure(op, f"{type(exc).__name__}: {exc}")
            return
        profiler.disable()
        try:
            referee.judge(op, output)
        except Exception as exc:
            outcome.record_failure(op, f"{type(exc).__name__}: {exc}")

    layer.update(spans.counted_pass(ops, profiled))
    layer["trace.overhead_ratio"] = traced_s / untraced_s
    return layer, untraced_s, traced_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    from perfbench import measure, spans

    workload, build_s, setup_scale = timed_setup(args.workload, args.seed)
    referee = measure.Referee(measure.load_reference(args.workload))
    outcome = measure.Outcome()
    trace = args.trace == 1
    run = measure.timed_phase(workload.passes, args.seconds, referee, outcome)
    metrics, details = measure.end_to_end(run, import_s + build_s, setup_scale)
    p50s = measure.p50_by_kind(run)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(workload.passes[0]),
        "import_s": import_s,
        "inputs": workload.inputs,
        "kind_p50_ms": {k: v * 1e3 for k, v in sorted(p50s.items())},
    })

    if trace:
        layer, untraced_pass_s, traced_s = traced_run(args.workload, args.seed,
                                                      workload.passes[0], referee, outcome)
        for verb in spans.CLI_VERBS:
            layer[f"cli.{verb}.p50_ms"] = p50s.get(f"cli.{verb}", 0.0) * 1e3
        details.update({"untraced_pass_s": untraced_pass_s, "traced_pass_s": traced_s})
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}

    details.update({
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_ratio": outcome.failed / outcome.attempted,
        "failures": outcome.failures,
        "wall_s": time.perf_counter() - START,
    })
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({"details": details, "metrics": metrics}, indent=2),
                           "utf-8")

    for key in ("workload", "seed", "python", "platform", "nproc", "ops_per_pass",
                "samples", "full_passes", "tail_percentile", "tail_samples_beyond",
                "speed_scale", "raw"):
        print(f"{key}: {details[key]}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {details['fail_ratio']:.6g} ratio")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
