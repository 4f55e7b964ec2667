"""Timed execution of ops: the closed loop, result checking and statistics.

One caller runs the ops of a pass back to back, pass after pass, and only
the op calls themselves are timed.  Checks run between ops, outside the
timed region.

On a shared 2-vCPU Intel Xeon VM, CPU speed was seen to change by 20-30%
for minutes at a time, which no run length averages out.  A speed probe, a
fixed piece of exact arithmetic that does not touch grosslat, therefore
runs between ops about every PROBE_EVERY_S of op time.  The end-to-end
times are reported in reference seconds: measured seconds scaled by
REFERENCE_PROBE_S over the probe's mean time in the same run.  The raw
values are kept in the report beside them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .workloads import CheckFailed, Op

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.25
# Mean probe time on the 2-vCPU Intel Xeon VM, Python 3.11.7, where the
# baseline in NOTES.md was recorded.
REFERENCE_PROBE_S = 0.0025


def probe_kernel() -> Fraction:
    """Fixed Fraction arithmetic, like grosslat's inner loops but independent
    of it, so that its time tracks only the machine's speed."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns measured seconds into reference seconds."""
        return REFERENCE_PROBE_S / statistics.mean(self.samples)


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference(workload: str) -> dict[str, str]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text("utf-8"))["digests"]


class Referee:
    """Checks an op's output and compares its digest with the recorded one.

    Ops whose key lies outside the recorded pools are compared with the
    digest of their first execution in this process instead.
    """

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.first_seen: dict[str, str] = {}

    def judge(self, op: Op, output) -> None:
        op.check(output)
        d = digest(output)
        if op.recorded:
            expected = self.recorded.get(op.key)
            if expected is None:
                raise CheckFailed(f"no recorded reference for {op.key}")
            if d != expected:
                raise CheckFailed(f"{op.key}: output digest {d} != recorded {expected}")
        elif self.first_seen.setdefault(op.key, d) != d:
            raise CheckFailed(f"{op.key}: output differs from its first pass")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record_failure(self, op: Op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.key}: {message}")


def execute(op: Op, referee: Referee, outcome: Outcome) -> float:
    """Run and check one op; return its latency in seconds.

    An exception from the op or its check is a failed op: it is recorded
    and the run goes on.
    """
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception:
        latency = time.perf_counter() - start
        outcome.record_failure(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return latency
    latency = time.perf_counter() - start
    try:
        referee.judge(op, output)
    except Exception as exc:
        outcome.record_failure(op, f"{type(exc).__name__}: {exc}")
    return latency


@dataclass
class TimedRun:
    latencies: list[float]
    kinds: list[str]
    busy_s: float
    pass_busy_s: list[float]
    probe: SpeedProbe


def timed_phase(passes: list[list[Op]], seconds: float, referee: Referee,
                outcome: Outcome) -> TimedRun:
    """Run whole passes, cycling through `passes`, until at least `seconds`
    reference seconds of op time have been measured.  Every run thus
    measures whole copies of the pass mix, and the same number of them
    whatever the machine's speed at the time."""
    latencies, kinds, pass_busy = [], [], []
    probe = SpeedProbe()
    probe.sample()
    busy = probed = 0.0
    while busy * probe.scale() < seconds:
        current = 0.0
        for op in passes[len(pass_busy) % len(passes)]:
            latency = execute(op, referee, outcome)
            latencies.append(latency)
            kinds.append(op.kind)
            current += latency
            if busy + current - probed >= PROBE_EVERY_S:
                probed = busy + current
                probe.sample()
        pass_busy.append(current)
        busy += current
    return TimedRun(latencies, kinds, busy, pass_busy, probe)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples above it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: TimedRun, setup_s: float, setup_scale: float) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds, and the details recorded
    beside them, raw values included."""
    value, percentile, beyond = tail(run.latencies)
    raw = {
        "ops_per_s": len(run.latencies) / run.busy_s,
        "op_p50_ms": statistics.median(run.latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "setup_s": setup_s,
    }
    scale = run.probe.scale()
    metrics = {
        "ops_per_s": {"value": raw["ops_per_s"] / scale, "unit": "1/s"},
        "op_p50_ms": {"value": raw["op_p50_ms"] * scale, "unit": "ms"},
        "op_tail_ms": {"value": raw["op_tail_ms"] * scale, "unit": "ms"},
        "setup_s": {"value": setup_s * setup_scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    details = {
        "raw": raw,
        "speed_scale": scale,
        "setup_speed_scale": setup_scale,
        "probe_samples": len(run.probe.samples),
        "samples": len(run.latencies),
        "timed_s": run.busy_s,
        "full_passes": len(run.pass_busy_s),
        "pass_busy_s": run.pass_busy_s,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
    }
    return metrics, details


def p50_by_kind(run: TimedRun) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for kind, latency in zip(run.kinds, run.latencies):
        groups.setdefault(kind, []).append(latency)
    return {kind: statistics.median(v) for kind, v in groups.items()}
