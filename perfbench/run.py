"""ChameleMon benchmark: one workload per process, or all of them with --all.

Run from the root of a checkout::

    python3 perfbench/run.py --workload testbed_shift --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

One run sets the workload up several times (``setup_s`` is the median),
measures a fixed number of epochs (whole periods; the count scales with
``--seconds``, never with the machine's speed), checks every epoch's output,
replays the first epochs on a fresh instance and requires an identical
output digest.  Its last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics (from wrapped program functions) with
``--trace 1``.  The line before it, prefixed ``#info``, carries the digest,
sample counts and wrapper call counts.

``--all`` runs every workload untraced, traced and untraced again, each in
its own process, prints every metric by name with its unit, requires the
three digests to be identical and prints the traced/untraced
``epochs_per_s`` ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

from spans import Instrumentation, SpanRecorder, totals_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
#: About this many calibrations are spread over a run's timed epochs.
RUN_CALIBRATIONS = 20
#: Median time of :func:`calibration_work` on the reference machine: a
#: 2-core x86_64 VM (Python 3.11.7, NumPy 2.4.6) in a quiet period.
REFERENCE_CALIBRATION_S = 0.049

#: The metrics BENCHMARK.json declares: name -> unit, in declared order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

#: Per-layer "_ms" metric -> span names whose summed duration it reports.
#: ``core.run_epoch_ms`` and ``stream.engine_self_ms`` report self time.
SPAN_SUMS = {
    "sketches.fermat.decode_ms": ("sketches.fermat.decode",),
    "sketches.fermat.scalar_tail_ms": ("sketches.fermat.decode_scalar",),
    "sketches.fermat.insert_ms": ("sketches.fermat.insert_batch",),
    "sketches.mrac.em_ms": ("sketches.mrac.em",),
    "controlplane.analyze_ms": ("controlplane.analyze",),
    "controlplane.decode_ms": ("controlplane.decode",),
    "controlplane.mrac_em_ms": ("controlplane.mrac_em",),
    "controlplane.tasks_ms": (
        "controlplane.tasks.heavy_hitters",
        "controlplane.tasks.cardinality",
        "controlplane.tasks.entropy",
    ),
    "controlplane.snapshot_ms": ("controlplane.snapshot",),
    "controlplane.reconfig_ms": ("controlplane.reconfig",),
    "network.simulate_ms": ("network.simulate",),
    "network.loss_apply_ms": ("network.loss_apply",),
    "dataplane.upstream_ms": ("dataplane.upstream",),
    "dataplane.downstream_ms": ("dataplane.downstream",),
    "dataplane.collect_ms": ("dataplane.collect",),
    "dataplane.install_ms": ("dataplane.begin_epoch", "dataplane.apply_config"),
    "traffic.generate_ms": ("traffic.generate",),
    "traffic.store.read_ms": ("traffic.store.read",),
    "stream.sink_write_ms": ("stream.sink_write",),
    "service.checkpoint_ms": ("service.checkpoint",),
    "service.alerts_ms": ("service.alerts",),
}
SELF_TIMES = {
    "core.run_epoch_ms": "core.run_epoch",
    "stream.engine_self_ms": "stream.engine",
}
CALL_COUNTS = {
    "sketches.fermat.decode_calls": "sketches.fermat.decode",
    "sketches.fermat.scalar_tail_calls": "sketches.fermat.decode_scalar",
    "sketches.mrac.em_calls": "sketches.mrac.em",
}
SHARES = {
    "core.share.simulate": "network.simulate",
    "core.share.analyze": "controlplane.analyze",
    "core.share.decode": "controlplane.decode",
    "core.share.mrac_em": "controlplane.mrac_em",
}


def digest(outputs: List[Dict[str, Any]]) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def state_counts(outputs: List[Dict[str, Any]]) -> Dict[str, int]:
    """Decode failures per part and attention-level changes over a run."""
    counts = {f"controlplane.decode_failures.{part}": 0 for part in ("hh", "hl", "ll")}
    counts["controlplane.level_changes"] = 0
    previous = None
    for output in outputs:
        if "decode" not in output:
            continue  # fermat_decode has no controller
        for part, success in output["decode"].items():
            counts[f"controlplane.decode_failures.{part}"] += int(not success)
        level = output["record"]["level"]
        if previous is not None and level != previous:
            counts["controlplane.level_changes"] += 1
        previous = level
    return counts


def layer_metrics(
    spans, epochs: int, epochs_per_s: float, phantom_ratio: float, counts: Dict[str, int]
) -> Dict[str, float]:
    per_epoch = 1.0 / max(epochs, 1)
    total = totals_ms(spans)
    own = totals_ms(spans, use_self=True)
    calls = Counter(span.name for span in spans)
    values: Dict[str, float] = dict(counts)
    for metric, names in SPAN_SUMS.items():
        values[metric] = sum(total.get(name, 0.0) for name in names) * per_epoch
    for metric, name in SELF_TIMES.items():
        values[metric] = own.get(name, 0.0) * per_epoch
    for metric, name in CALL_COUNTS.items():
        values[metric] = calls.get(name, 0) * per_epoch
    run_epoch = total.get("core.run_epoch", 0.0)
    for metric, name in SHARES.items():
        values[metric] = total.get(name, 0.0) / run_epoch if run_epoch else 0.0
    decodes = [span.info["success"] for span in spans if span.name == "sketches.fermat.decode"]
    values["sketches.fermat.decode_success_ratio"] = (
        sum(decodes) / len(decodes) if decodes else 0.0
    )
    sizes = [span.info["bytes"] for span in spans if span.name == "service.checkpoint"]
    values["service.checkpoint_bytes"] = statistics.mean(sizes) if sizes else 0.0
    values["quality.phantom_decode_ratio"] = phantom_ratio
    values["trace.epochs_per_s"] = epochs_per_s
    values["trace.wrapper_calls"] = len(spans) * per_epoch
    return values


def trimmed_rates(run, trim: float) -> Dict[str, float]:
    """Epochs and packets per second over the timed epochs, leaving out the
    slowest ``trim`` share of them (none when ``trim`` is 0)."""
    count = len(run.epoch_ms)
    kept = sorted(range(count), key=run.epoch_ms.__getitem__)[: count - int(count * trim)]
    if not kept:
        return {"epochs_per_s": 0.0, "packets_per_s": 0.0}
    seconds = sum(run.epoch_ms[index] for index in kept) / 1e3
    return {
        "epochs_per_s": len(kept) / seconds,
        "packets_per_s": sum(run.epoch_packets[index] for index in kept) / seconds,
    }


def calibration_work() -> float:
    """Seconds taken by a fixed mix of Python big-int, dict and NumPy work.

    It runs none of the program's code, so a change to the program cannot
    move it; only the machine's current speed does.  Wall time on the
    benchmark's shared 2-core VM drifts by 15-40% over minutes, and the
    gated timings are scaled by this measurement to cancel that drift.
    """
    import numpy as np

    values = np.random.default_rng(20231017).integers(1, 1 << 60, 20_000, dtype=np.uint64)
    begin = time.perf_counter()
    prime = (1 << 61) - 1
    accumulator = 1
    table = {}
    for value in values.tolist():
        accumulator = (accumulator * value + 7) % prime
        table[value & 4095] = accumulator
    for _ in range(40):
        hashed = (values * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(48)
        np.bincount(hashed.astype(np.int64), minlength=1 << 16)
        np.argsort(hashed, kind="stable")
    return time.perf_counter() - begin


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; returns the result object plus ``info``."""
    from workloads import WORKLOADS

    tmp_parent = ROOT / ".perfbench-tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_parent)
    try:
        workload = WORKLOADS[name](seed, tmpdir)
        workload.prepare()
        epochs = workload.epochs(seconds)
        # Each set-up is timed, then followed by one calibration; only the
        # last instance is kept, for the timed run.
        setup_times: List[float] = []
        setup_calibration: List[float] = []
        for index in range(SETUP_REPEATS):
            if index:
                workload.discard(instance)
            gc.collect()
            begin = time.perf_counter()
            instance = workload.setup(index)
            setup_times.append(time.perf_counter() - begin)
            setup_calibration.append(calibration_work())
        # Calibrations before, between (every few epochs) and after the run.
        calibration = [calibration_work()]
        every = -(-epochs // RUN_CALIBRATIONS)
        done = [0]

        def between() -> None:
            done[0] += 1
            if done[0] % every == 0:
                calibration.append(calibration_work())

        recorder = SpanRecorder()
        gc.collect()
        if trace:
            with Instrumentation(recorder):
                run = workload.run(instance, epochs, between)
        else:
            run = workload.run(instance, epochs, between)
        workload.discard(instance)
        calibration.append(calibration_work())
        replay_instance = workload.setup(SETUP_REPEATS)
        replayed = workload.replay(replay_instance)
        workload.discard(replay_instance)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    run_digest = digest(run.outputs)
    window = run.outputs[: workload.window]
    if len(window) < workload.window or digest(window) != digest(replayed):
        mismatched = sum(
            1 for index in range(workload.window)
            if index >= len(window) or index >= len(replayed)
            or digest([window[index]]) != digest([replayed[index]])
        )
        run.failed += mismatched
        run.problems.append(f"replay: {mismatched} epochs differ")
    phantom_ratio = run.phantoms / run.exact_checked if run.exact_checked else 0.0
    rates = trimmed_rates(run, workload.trim)
    epochs_per_s = rates["epochs_per_s"]
    samples = len(run.epoch_ms)
    tail = percentile(run.epoch_ms, workload.tail_percentile) if samples else 0.0
    if trace:
        values = layer_metrics(
            recorder.spans, len(run.outputs), epochs_per_s, phantom_ratio, state_counts(run.outputs)
        )
        units = PER_LAYER
    else:
        # Machine speed relative to the reference: >1 means slower now.  Each
        # set-up is scaled by the calibration taken right after it.
        slowdown = statistics.median(calibration) / REFERENCE_CALIBRATION_S
        values = {
            "setup_s": statistics.median(
                [spent * REFERENCE_CALIBRATION_S / calibrated
                 for spent, calibrated in zip(setup_times, setup_calibration)]
            ),
            "epochs_per_s": rates["epochs_per_s"] * slowdown,
            "packets_per_s": rates["packets_per_s"] * slowdown,
            "epoch_ms.tail": tail / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_f1": statistics.mean(run.loss_f1),
            "hh_f1": statistics.mean(run.hh_f1),
        }
        units = END_TO_END
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "digest": run_digest,
        "replayed_epochs": workload.window,
        "epochs": len(run.outputs),
        "samples": samples,
        "epoch_ms.p50": percentile(run.epoch_ms, 50) if samples else 0.0,
        "epoch_ms": [round(value, 3) for value in run.epoch_ms],
        "tail_percentile": workload.tail_percentile,
        "beyond_tail": sum(1 for value in run.epoch_ms if value > tail),
        "epoch_error_rate": run.failed / max(run.attempted, 1),
        "phantom_decodes": [run.phantoms, run.exact_checked],
        "epochs_per_s": epochs_per_s,
        "setup_runs_s": setup_times,
        "calibration_s": calibration,
        "setup_calibration_s": setup_calibration,
        "raw": {"setup_s": statistics.median(setup_times), **rates, "epoch_ms.tail": tail},
        "wrapper_calls": dict(sorted(Counter(span.name for span in recorder.spans).items())),
        "problems": run.problems,
    }
    result = {
        "correct": run.failed == 0 and samples == epochs,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    return {"result": result, "info": info}


# --------------------------------------------------------------------------- #
# --all: every workload, untraced then traced
# --------------------------------------------------------------------------- #
def _subprocess_run(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"perfbench: {name} (trace {trace}) exited {completed.returncode}")
    info = next(json.loads(line[len("#info "):]) for line in lines if line.startswith("#info "))
    return {"result": json.loads(lines[-1]), "info": info}


def run_all(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        # Untraced, traced, untraced: the ratio's base is the mean of the two
        # untraced runs around the traced one, which cancels linear drift.
        plain = _subprocess_run(name, seed, seconds, 0)
        traced = _subprocess_run(name, seed, seconds, 1)
        again = _subprocess_run(name, seed, seconds, 0)
        runs = (plain, traced, again)
        same = len({run["info"]["digest"] for run in runs}) == 1
        base = (plain["info"]["epochs_per_s"] + again["info"]["epochs_per_s"]) / 2
        ratio = traced["info"]["epochs_per_s"] / base
        ok = ok and same and all(run["result"]["correct"] for run in runs)
        print(f"== {name} (seed {seed}) ==")
        for label, run in (("end-to-end", plain), ("per-layer (traced)", traced)):
            print(f"  {label}: correct={run['result']['correct']} "
                  f"attempted={run['result']['attempted']} failed={run['result']['failed']} "
                  f"epoch_error_rate={run['info']['epoch_error_rate']:.4f}")
            for metric, entry in run["result"]["metrics"].items():
                print(f"    {metric:40s} {entry['value']:14.6g} {entry['unit']}")
            if run is plain:
                print(f"    {'epoch_ms.p50 (raw, not gated)':40s} "
                      f"{plain['info']['epoch_ms.p50']:14.6g} ms")
        print(f"  epoch_ms.tail is p{plain['info']['tail_percentile']:g} over "
              f"{plain['info']['samples']} epochs ({plain['info']['beyond_tail']} beyond it)")
        print(f"  phantom decodes: {plain['info']['phantom_decodes'][0]} of "
              f"{plain['info']['phantom_decodes'][1]} successful decodes checked")
        digests = ", ".join(run["info"]["digest"][:16] for run in runs)
        print(f"  digests (untraced, traced, untraced) {digests}: "
              f"{'identical' if same else 'MISMATCH'} over all "
              f"{plain['info']['epochs']} epochs")
        print(f"  traced/untraced epochs_per_s = {ratio:.3f} "
              f"(base: mean of {plain['info']['epochs_per_s']:.4g} and {again['info']['epochs_per_s']:.4g})")
        print(f"  wrapper calls: {json.dumps(traced['info']['wrapper_calls'])}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("testbed_shift", "fabric_steady", "fermat_decode"))
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args.seed, args.seconds)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("#info " + json.dumps(outcome["info"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
