"""Fast self-tests of the benchmark's own machinery (not of the program).

Run from the root of a checkout with ``python3 perfbench/selftest.py`` or
``python3 -m pytest -q perfbench/selftest.py``.  The file name keeps the
repository's root-level ``pytest`` run from collecting it.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from spans import (  # noqa: E402
    TARGETS, Instrumentation, Span, SpanRecorder, resolve, self_times, totals_ms,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_only():
    spans = [
        Span("root", 0, 100, None),
        Span("child", 10, 30, 0),
        Span("child", 50, 60, 0),
        Span("grandchild", 12, 20, 1),
    ]
    assert self_times(spans) == [70, 12, 10, 8]
    assert totals_ms(spans, use_self=True) == {"root": 70e-6, "child": 22e-6, "grandchild": 8e-6}
    assert totals_ms(spans) == {"root": 100e-6, "child": 30e-6, "grandchild": 8e-6}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 40, 0),
        Span("b", 30, 50, 0),
        Span("c", 90, 120, 0),
    ]
    assert self_times(spans)[0] == 100 - 40 - 10


def test_wrappers_restored_after_traced_run():
    originals = {}
    for _, module_name, path, _ in TARGETS:
        owner, attr = resolve(module_name, path)
        originals[path] = (owner, attr, vars(owner)[attr])
    recorder = SpanRecorder()
    try:
        with Instrumentation(recorder):
            for path, (owner, attr, original) in originals.items():
                assert vars(owner)[attr] is not original, path
            raise RuntimeError("traced run failed")
    except RuntimeError:
        pass
    for path, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, path


def test_spans_nest_through_wrapped_calls():
    from repro.sketches.fermat import FermatSketch

    sketch = FermatSketch(64, num_arrays=3, seed=7)
    sketch.insert_batch([11, 22, 33], [5, 6, 7])
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        result = sketch.decode()
    assert result.success and result.flows == {11: 5, 22: 6, 33: 7}
    names = [span.name for span in recorder.spans]
    assert names[0] == "sketches.fermat.decode"
    assert recorder.spans[0].info == {"success": True}
    for span in recorder.spans[1:]:
        assert span.parent == 0 and span.start >= recorder.spans[0].start
        assert span.end <= recorder.spans[0].end


def test_declared_metrics_are_computed_and_well_named():
    from workloads import WORKLOADS

    assert [entry["name"] for entry in run.SPEC["workloads"]] == list(WORKLOADS)
    for names in (run.END_TO_END, run.PER_LAYER, WORKLOADS):
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name
    covered = set(run.SPAN_SUMS) | set(run.SELF_TIMES) | set(run.CALL_COUNTS) | set(run.SHARES)
    derived = {
        "sketches.fermat.decode_success_ratio", "service.checkpoint_bytes",
        "quality.phantom_decode_ratio",
        "trace.epochs_per_s", "trace.wrapper_calls",
    } | set(run.state_counts([]))
    assert covered | derived == set(run.PER_LAYER)


def test_trimmed_rates_leave_out_the_slowest_share():
    from workloads import Run

    timed = Run(epoch_ms=[100.0, 300.0] * 5, epoch_packets=[10, 30] * 5)
    assert run.trimmed_rates(timed, 0.0) == {
        "epochs_per_s": 5.0, "packets_per_s": 100.0,
    }
    timed.epoch_ms[4] = 5000.0
    assert math.isclose(run.trimmed_rates(timed, 0.0)["epochs_per_s"], 10 / 6.9)
    # 10% of 10 epochs: only the 5 s one is left out.
    trimmed = run.trimmed_rates(timed, 0.1)
    assert math.isclose(trimmed["epochs_per_s"], 9 / 1.9)
    assert math.isclose(trimmed["packets_per_s"], 190 / 1.9)


def test_state_counts_from_outputs():
    outputs = [
        {"record": {"level": "healthy"}, "decode": {"hh": True, "hl": False, "ll": True}},
        {"record": {"level": "ill"}, "decode": {"hh": False, "hl": False, "ll": True}},
        {"record": {"level": "ill"}, "decode": {"hh": True, "hl": True, "ll": True}},
    ]
    assert run.state_counts(outputs) == {
        "controlplane.decode_failures.hh": 1,
        "controlplane.decode_failures.hl": 2,
        "controlplane.decode_failures.ll": 0,
        "controlplane.level_changes": 1,
    }


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
