"""Stage timing, output gates, spans and counters for one benchmark run.

Every call the benchmark makes into a ``rumkit`` module goes through
``Recorder.stage``: the call is timed, counted under its module, and its output
is passed to a gate. A stage that raises, or whose output misses its gate, is
one failed operation; it never aborts the run.

A traced pass additionally keeps spans in memory (name, start, end, parent,
run id and pass index) and counters; they are written out once, when the run
ends. A pass in "spans" mode records only that, so its stage times stay
comparable with untraced ones. A pass in "memory" mode also runs tracemalloc
and gives each span its allocation peak above the span's starting level;
tracemalloc hooks every allocation, which slows Python-heavy stages several
fold, so stage times are never taken from those passes. Untraced ("plain")
passes record no spans, so the end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

MIB = float(1 << 20)


class StageFailed(Exception):
    """A stage raised; the stages of the pass that need its output are skipped."""


@dataclass
class PassRecord:
    """What one pass through a workload's stages measured."""

    index: int
    seed: int
    mode: str  # "plain", "spans" or "memory"
    stage_s: dict = field(default_factory=lambda: defaultdict(float))
    values: dict = field(default_factory=dict)
    calls: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.mode != "plain"

    @property
    def wall_s(self) -> float:
        """Time spent inside the stages, excluding gates and oracles."""
        return float(sum(self.stage_s.values()))

    def put_max(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, value), value)

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value


class CountingRatio:
    """Counts the calls into a ratio surface and the points they evaluate.

    Handed to ``build_omega`` in place of the ``RatioFunction`` it wraps;
    attribute access falls through to the wrapped object.
    """

    def __init__(self, ratio):
        self._ratio = ratio
        self.calls = 0
        self.points = 0

    def __call__(self, a_j, a_m):
        self.calls += 1
        self.points += int(np.broadcast(np.asarray(a_j), np.asarray(a_m)).size)
        return self._ratio(a_j, a_m)

    def __getattr__(self, name):
        return getattr(self._ratio, name)


class Recorder:
    """Collects pass records, and spans for traced passes, for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.passes: list[PassRecord] = []
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @property
    def current(self) -> PassRecord:
        return self.passes[-1]

    def run_pass(self, index: int, seed: int, mode: str, body) -> PassRecord:
        """Run ``body(recorder, seed)`` as one pass; a raising stage ends it early."""
        rec = PassRecord(index=index, seed=seed, mode=mode)
        self.passes.append(rec)
        memory = mode == "memory"
        if memory:
            tracemalloc.start()
        try:
            with self._span("pass"):
                body(self, seed)
        except StageFailed:
            pass
        finally:
            if memory:
                tracemalloc.stop()
        return rec

    def stage(self, module: str, metric: str, fn, *args, gate=None, **kwargs):
        """Call ``fn`` as one operation of ``module``; add its time to ``metric``.

        ``gate(out)`` returns ``(ok, detail)``. A miss counts the operation as
        failed and the output is still returned; an exception from ``fn``
        counts it as failed and raises ``StageFailed``.
        """
        rec = self.current
        rec.calls[module] += 1
        name = f"{module}.{metric.removesuffix('_s')}"
        with self._span(name):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # any error from the program is a failed operation
                rec.failed[module] += 1
                rec.failures.append(f"{name} raised {type(exc).__name__}: {exc}")
                raise StageFailed(name) from exc
            finally:
                rec.stage_s[f"{module}.{metric}"] += time.perf_counter() - t0
        if gate is not None:
            try:
                ok, detail = gate(out)
            except Exception as exc:  # a gate that cannot read the output is a miss
                ok, detail = False, f"gate raised {type(exc).__name__}: {exc}"
            if not ok:
                rec.failed[module] += 1
                rec.failures.append(f"{name}: {detail}")
        return out

    def last_span(self, name: str) -> dict | None:
        for sp in reversed(self.spans):
            if sp["name"] == name:
                return sp
        return None

    # -- spans ------------------------------------------------------------

    def _span(self, name: str):
        return _Span(self, name) if self.current.traced else _NO_SPAN


class _Span:
    """Context manager for one span; tracemalloc peaks nest through the stack."""

    def __init__(self, recorder: Recorder, name: str):
        self.r = recorder
        self.name = name
        self.memory = recorder.current.mode == "memory"

    def __enter__(self):
        r = self.r
        current = None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if r._stack:
                r._stack[-1]["_peak"] = max(r._stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()
        sp = {
            "name": self.name,
            "run_id": r.run_id,
            "pass": r.current.index,
            "mode": r.current.mode,
            "id": len(r.spans),
            "parent": r._stack[-1]["id"] if r._stack else None,
            "start": time.perf_counter() - r._t0,
            "end": None,
            "peak_alloc_mb": None,
            "_base": current,
            "_peak": current,
        }
        r.spans.append(sp)
        r._stack.append(sp)
        return sp

    def __exit__(self, *exc):
        r = self.r
        sp = r._stack.pop()
        sp["end"] = time.perf_counter() - r._t0
        if self.memory:
            sp["_peak"] = max(sp["_peak"], tracemalloc.get_traced_memory()[1])
            sp["peak_alloc_mb"] = (sp["_peak"] - sp["_base"]) / MIB
            if r._stack:
                r._stack[-1]["_peak"] = max(r._stack[-1]["_peak"], sp["_peak"])
        return False


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def span_records(spans: list[dict]) -> list[dict]:
    """Spans as written to the trace file, without the bookkeeping fields."""
    return [{k: v for k, v in sp.items() if not k.startswith("_")} for sp in spans]
