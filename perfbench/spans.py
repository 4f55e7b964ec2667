"""The traced run: span recorders around grosslat's public functions.

`Tracer.install` wraps each target and patches every grosslat and
benchmark module namespace that holds it (names bound with
``from ... import`` included); `Tracer.uninstall` puts the originals back,
so timed runs call unwrapped code.  Spans are kept in memory and written
out at the end of the run.

Primitive calls (quaternion multiply, lattice coordinates, Fraction
construction) are too frequent to wrap without distorting the timings;
`counted_pass` counts them exactly under cProfile in a separate pass.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import pstats
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (span name, module, attribute path, tag taken from (args, result))
TARGETS = (
    ("forms.represents", "grosslat.forms", "represents", None),
    ("forms.representation_counts", "grosslat.forms", "representation_counts", None),
    ("forms.canonical_reduced_form", "grosslat.forms", "canonical_reduced_form", None),
    ("forms.exterior_square_form", "grosslat.forms", "exterior_square_form", None),
    ("correspond.search_elements", "grosslat.correspond", "search_elements",
     lambda args, result: len(result)),
    ("correspond.endo_to_sublattice", "grosslat.correspond", "endo_to_sublattice", None),
    ("correspond.sublattice_to_endo", "grosslat.correspond", "sublattice_to_endo", None),
    ("lattice.contains", "grosslat.lattice", "Lattice.contains", None),
    ("lattice.from_generators", "grosslat.lattice", "Lattice.from_generators", None),
    ("lattice.minkowski_reduced", "grosslat.lattice", "Lattice.minkowski_reduced", None),
    ("lattice.index_in", "grosslat.lattice", "Lattice.index_in", None),
    ("linalg.hnf_rows", "grosslat.linalg", "hnf_rows", None),
    ("linalg.solve_left", "grosslat.linalg", "solve_left", None),
    ("reduction.greedy_reduce", "grosslat.reduction", "greedy_reduce", None),
    ("orders.Order", "grosslat.orders", "Order.__init__", None),
    ("orders.extend_to_maximal", "grosslat.orders", "extend_to_maximal", None),
    ("orders.norm_p_ideal", "grosslat.orders", "Order.norm_p_ideal",
     lambda args, result: args[0].algebra.p),
    ("commutator_ideal.commutator_basis", "grosslat.commutator_ideal", "commutator_basis", None),
    ("fixtures.load_fixture", "grosslat.fixtures", "load_fixture", None),
    ("fixtures.FixtureConfig.order", "grosslat.fixtures", "FixtureConfig.order", None),
)

# Primitive functions counted under cProfile: (metric, file suffix, function).
COUNTED = (
    ("quat.mul.calls", "grosslat/quat.py", "__mul__"),
    ("lattice.coords_of.calls", "grosslat/lattice.py", "coords_of"),
    ("quat.fraction_new.calls", "fractions.py", "__new__"),
)

CLI_VERBS = ("verify-order", "reproduce", "correspond-to-sublattice", "correspond-to-endo",
             "search-endo", "represents", "equivalence")

SMALL_P, LARGE_P = 23, 43

# Every per-layer metric, in output order, with its unit.
LAYER_METRICS = (
    ("forms.represents.busy_s", "s"),
    ("forms.represents.calls", "count"),
    ("forms.representation_counts.busy_s", "s"),
    ("forms.canonical_reduced_form.busy_s", "s"),
    ("forms.exterior_square_form.busy_s", "s"),
    ("correspond.search_elements.busy_s", "s"),
    ("correspond.search_elements.self_s", "s"),
    ("correspond.search_elements.hit_ratio", "ratio"),
    ("correspond.endo_to_sublattice.busy_s", "s"),
    ("correspond.sublattice_to_endo.busy_s", "s"),
    ("lattice.contains.calls", "count"),
    ("lattice.contains.busy_s", "s"),
    ("lattice.from_generators.calls", "count"),
    ("lattice.from_generators.busy_s", "s"),
    ("lattice.minkowski_reduced.busy_s", "s"),
    ("lattice.index_in.busy_s", "s"),
    ("linalg.hnf_rows.calls", "count"),
    ("linalg.solve_left.calls", "count"),
    ("reduction.greedy_reduce.busy_s", "s"),
    ("orders.Order.calls", "count"),
    ("orders.Order.busy_s", "s"),
    ("orders.extend_to_maximal.busy_s", "s"),
    ("orders.extend_to_maximal.accept_ratio", "ratio"),
    ("orders.norm_p_ideal.busy_s", "s"),
    ("orders.norm_p_ideal.small_p_ms", "ms"),
    ("orders.norm_p_ideal.large_p_ms", "ms"),
    ("commutator_ideal.commutator_basis.busy_s", "s"),
    ("fixtures.load_fixture.busy_s", "s"),
    ("fixtures.FixtureConfig.order.busy_s", "s"),
    *((f"cli.{verb}.p50_ms", "ms") for verb in CLI_VERBS),
    ("quat.mul.calls", "calls/op"),
    ("quat.fraction_new.calls", "calls/op"),
    ("lattice.coords_of.calls", "calls/op"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | str | None
    error: bool
    tag: object = None


def _traced_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "grosslat" or name.startswith(("grosslat.", "perfbench")))]


class Tracer:
    """Records spans while installed; all spans of one op share `op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, tag):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, error = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = clock()
                stack.pop()
                value = tag(args, result) if tag is not None and not error else None
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.op, error, value))

        return recorder

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = _traced_modules()
        for name, module_name, path, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, tag)))
                else:
                    self._set(cls, attr, self._wrap(name, raw, tag))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, tag)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- recording --------------------------------------------------------

    @contextmanager
    def recording(self, op):
        """Record the spans of one op (or of set-up) under a root span."""
        self.op = op
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, "op" if isinstance(op, int) else str(op),
                                   start, end, None, op, False))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- per-layer metrics from spans ---------------------------------------------


def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        up = by_id[parent]
        if up.name == name:
            return True
        parent = up.parent
    return False


def span_metrics(spans: list[Span]) -> dict[str, float]:
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        duration = s.end - s.start
        self_s[s.name] = self_s.get(s.name, 0.0) + duration - child_time.get(s.id, 0.0)
        if not _has_ancestor(s, by_id, s.name):
            busy[s.name] = busy.get(s.name, 0.0) + duration

    out: dict[str, float] = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    searches = [s for s in spans if s.name == "correspond.search_elements" and not s.error]
    returned = sum(s.tag for s in searches)
    probes = sum(1 for s in spans if s.name == "lattice.contains"
                 and _has_ancestor(s, by_id, "correspond.search_elements"))
    out["correspond.search_elements.hit_ratio"] = returned / probes if probes else 0.0

    built = [s for s in spans if s.name == "orders.Order"
             and _has_ancestor(s, by_id, "orders.extend_to_maximal")]
    accepted = sum(1 for s in built if not s.error)
    out["orders.extend_to_maximal.accept_ratio"] = accepted / len(built) if built else 0.0

    ideal = [s for s in spans if s.name == "orders.norm_p_ideal" and not s.error]
    small = [s.end - s.start for s in ideal if s.tag <= SMALL_P]
    large = [s.end - s.start for s in ideal if s.tag >= LARGE_P]
    out["orders.norm_p_ideal.small_p_ms"] = statistics.median(small) * 1e3 if small else 0.0
    out["orders.norm_p_ideal.large_p_ms"] = statistics.median(large) * 1e3 if large else 0.0
    return out


# -- exact primitive counts -------------------------------------------------------


def counted_pass(ops, run_op) -> dict[str, float]:
    """Exact calls per op of the COUNTED primitives over one pass.

    The profiler is enabled only around `op.run`; `run_op(op, profiler)`
    runs the op that way and checks its output outside the profiled region.
    """
    profiler = cProfile.Profile()
    for op in ops:
        run_op(op, profiler)
    stats = pstats.Stats(profiler).stats
    totals = {metric: 0 for metric, *_ in COUNTED}
    for (filename, _, func), (_, ncalls, *_rest) in stats.items():
        path = filename.replace("\\", "/")
        for metric, suffix, name in COUNTED:
            if func == name and path.endswith(suffix):
                totals[metric] += ncalls
    return {metric: count / len(ops) for metric, count in totals.items()}
