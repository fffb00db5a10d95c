"""In-memory span recording around the program's public functions.

A traced run replaces each function in :data:`TARGETS` at the site where the
program looks it up (a class attribute or a module global) with a wrapper
that pushes a span on a per-thread stack.  Spans carry name, start, end and
parent, stay in memory, and are turned into per-layer metrics once the run
ends.  The program's own ``repro.obs`` tracer is never used.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _decode_info(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"success": bool(result.success)}


def _checkpoint_info(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(args[0])}


#: (span name, module, attribute path within the module, info hook).  The
#: module is where the caller looks the name up, so the wrapper is what the
#: program actually calls.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("sketches.fermat.decode", "repro.sketches.fermat", "FermatSketch.decode", _decode_info),
    ("sketches.fermat.decode_scalar", "repro.sketches.fermat", "FermatSketch.decode_scalar", None),
    ("sketches.fermat.insert_batch", "repro.sketches.fermat", "FermatSketch.insert_batch", None),
    ("sketches.mrac.em", "repro.controlplane.tasks", "estimate_flow_size_distribution", None),
    ("controlplane.analyze", "repro.controlplane.controller", "CentralController.process_epoch", None),
    ("controlplane.decode", "repro.controlplane.controller", "packet_loss_detection", None),
    ("controlplane.mrac_em", "repro.controlplane.controller", "network_flow_size_distribution", None),
    ("controlplane.tasks.heavy_hitters", "repro.controlplane.controller", "network_heavy_hitters", None),
    ("controlplane.tasks.cardinality", "repro.controlplane.controller", "network_cardinality", None),
    ("controlplane.tasks.entropy", "repro.controlplane.controller", "network_entropy", None),
    ("controlplane.snapshot", "repro.controlplane.controller", "build_snapshot", None),
    ("controlplane.reconfig", "repro.controlplane.reconfig", "AttentionController.reconfigure", None),
    ("core.run_epoch", "repro.core.runner", "ChameleMon.run_epoch", None),
    ("network.simulate", "repro.network.simulator", "NetworkSimulator.run_epoch", None),
    ("network.loss_apply", "repro.network.simulator", "apply_victim_losses", None),
    ("dataplane.upstream", "repro.dataplane.switch", "EdgeSwitch.process_flows_upstream_arrays", None),
    ("dataplane.downstream", "repro.dataplane.switch", "EdgeSwitch.process_flows_downstream_arrays", None),
    ("dataplane.collect", "repro.dataplane.switch", "EdgeSwitch.end_epoch", None),
    ("dataplane.begin_epoch", "repro.dataplane.switch", "EdgeSwitch.begin_epoch", None),
    ("dataplane.apply_config", "repro.dataplane.switch", "EdgeSwitch.apply_config", None),
    ("traffic.generate", "repro.stream.sources", "generate_workload", None),
    ("traffic.store.read", "repro.traffic.store", "BinaryTraceReader.read_epoch", None),
    ("stream.engine", "repro.stream.engine", "StreamingEngine.run", None),
    ("stream.sink_write", "repro.stream.sinks", "JsonlSink.write", None),
    ("service.checkpoint", "repro.service.service", "write_checkpoint", _checkpoint_info),
    ("service.alerts", "repro.service.alerts", "AlertEngine.observe", None),
)


class SpanRecorder:
    """Collects spans from wrapped functions; one stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else None)
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info = info(result, args, kwargs)
                return result
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()

        return traced


def resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """The object that holds ``path``'s last attribute, and that attribute."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Instrumentation:
    """Installs wrappers for :data:`TARGETS` and restores the originals.

    Use as a context manager; the originals are put back even if the traced
    run raises.  Every target is defined on its owner itself (a module
    global or a method in the class body), so restoring is a plain set.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for name, module_name, path, info in TARGETS:
                owner, attr = resolve(module_name, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.recorder.wrap(name, original, info))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def _covered(intervals: Iterable[Tuple[int, int]], start: int, end: int) -> int:
    """Length of the part of [start, end) that the intervals cover."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def totals_ms(spans: Sequence[Span], use_self: bool = False) -> Dict[str, float]:
    """Summed duration (or self time) per span name, in milliseconds."""
    values = self_times(spans) if use_self else [span.duration for span in spans]
    totals: Dict[str, int] = {}
    for span, value in zip(spans, values):
        totals[span.name] = totals.get(span.name, 0) + value
    return {name: value / 1e6 for name, value in totals.items()}
