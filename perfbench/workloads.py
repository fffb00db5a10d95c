"""The benchmark's three workloads.

Every workload is a closed loop with one caller: the next epoch starts only
after the previous epoch's output exists.  Inputs derive from the workload
seed only.  ``Run.outputs`` holds each epoch's deterministic outputs; they
feed the digest and the decode-failure counts, and the first ``window`` of
them are compared with a replay on a fresh instance.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.controlplane.tasks import network_heavy_hitters
from repro.core.runner import ChameleMon
from repro.dataplane.config import SwitchResources
from repro.metrics.accuracy import f1_score, loss_detection_accuracy
from repro.network.topology import FatTreeSpec, FatTreeTopology
from repro.obs.identity import comparable, comparable_records
from repro.service import (
    AlertEngine,
    DecodeFailureStreak,
    RollingAreCeiling,
    RollingF1Floor,
    TelemetryService,
    read_checkpoint,
)
from repro.sketches.fermat import MERSENNE_PRIME_61, FermatSketch
from repro.stream import EpochSink, JsonlSink, StreamingEngine
from repro.stream.sources import Phase, SyntheticSource
from repro.traffic.generator import generate_caida_like_trace, generate_workload
from repro.traffic.store import BinaryTraceReader, write_binary_trace

#: Heavy-hitter threshold (packets) used for ``hh_f1`` on every workload.
HH_THRESHOLD = 500
#: The ``--seconds`` at which a run measures ``Workload.periods`` periods;
#: it is ``run_seconds`` in BENCHMARK.json.
NOMINAL_SECONDS = 25.0


@dataclass
class Run:
    """What one timed run measured."""

    #: One sample per timed epoch, and the packets that epoch carried.
    epoch_ms: List[float] = field(default_factory=list)
    epoch_packets: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    loss_f1: List[float] = field(default_factory=list)
    hh_f1: List[float] = field(default_factory=list)
    #: Per-epoch deterministic outputs.
    outputs: List[Dict[str, Any]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Successful decodes compared flow by flow with the truth, and how many
    #: of those recovered a different flow set (phantom flows).
    exact_checked: int = 0
    phantoms: int = 0

    def fail(self, epoch: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"epoch {epoch}: {message}")


class Workload:
    """One workload.  Subclasses set the class constants and implement
    ``setup(index)`` (one ready-to-run instance; timed and repeated),
    ``discard(instance)`` and ``_drive(instance, epochs, between)``.

    A run measures a fixed number of epochs: ``periods`` whole periods of
    ``period`` epochs at the nominal ``--seconds``, scaled with
    ``--seconds``.  The count never depends on how fast the machine is, so
    every run of a seed times the same epochs.  Throughput leaves out the
    slowest ``trim`` share of the timed epochs (see ``run.trimmed_rates``).
    ``window`` is how many leading epochs the replay check reruns.
    ``between()`` is called after every epoch, outside the timed part.
    """

    name: str
    period: int
    periods: int
    trim: float
    tail_percentile: float
    window: int

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.seed = seed
        self.tmpdir = tmpdir

    def epochs(self, seconds: float) -> int:
        """Timed epochs in a run of ``seconds`` (whole periods, at least one)."""
        return self.period * max(1, round(self.periods * seconds / NOMINAL_SECONDS))

    def prepare(self) -> None:
        """Write input files that are not part of set-up."""

    def run(self, instance: Dict[str, Any], epochs: int, between: Callable[[], None]) -> Run:
        """Measure ``epochs`` epochs, checking each output."""
        return self._drive(instance, epochs, between)

    def replay(self, instance: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The outputs of the first ``window`` epochs on a fresh instance."""
        return self._drive(instance, self.window, lambda: None).outputs

    def _drive(self, instance: Dict[str, Any], epochs: int, between: Callable[[], None]) -> Run:
        raise NotImplementedError


def truth_heavy_hitters(flow_sizes: Dict[int, int]) -> Set[int]:
    return {flow for flow, size in flow_sizes.items() if size >= HH_THRESHOLD}


def _decode_flags(report) -> Dict[str, bool]:
    snapshot = report.snapshot
    return {
        "hh": bool(snapshot.hh_decode_success),
        "hl": bool(snapshot.hl_decode_success),
        "ll": bool(snapshot.ll_decode_success),
    }


def _check_report(run: Run, epoch: int, result, flags: Dict[str, bool]) -> None:
    """Output checks shared by the two pipeline workloads.

    When every decode succeeded and nothing was sampled away, the drained
    encoders account for every lost packet, so the reported losses must sum
    to the true total.  Whether they also match flow by flow is counted, not
    failed: two flows with equal counts in one bucket can peel as one
    phantom flow at their midpoint ID, which passes both the rehash and the
    fingerprint check because both hashes are affine.  That is an accuracy
    outcome and also lowers ``loss_f1``.
    """
    f1 = result.loss_accuracy()["f1"]
    if not 0.0 <= f1 <= 1.0:
        run.fail(epoch, f"loss F1 {f1} outside [0, 1]")
    config = result.report.decision.config
    if config.layout.m_uf != result.config.layout.m_uf:
        run.fail(epoch, "decided layout changed the upstream encoder size")
    if all(flags.values()) and result.config.sample_rate == 1.0:
        reported = result.report.loss_report.all_losses()
        if sum(reported.values()) != result.truth.total_lost_packets():
            run.fail(epoch, "decodes succeeded but the reported losses miss lost packets")
        run.exact_checked += 1
        run.phantoms += reported != result.truth.losses


def _pipeline_output(record: Dict[str, Any], result, flags: Dict[str, bool]) -> Dict[str, Any]:
    return {
        "record": record,
        "decided": result.report.decision.config.to_dict(),
        "decode": flags,
    }


# --------------------------------------------------------------------------- #
# testbed_shift
# --------------------------------------------------------------------------- #
class _RecordSink(EpochSink):
    """The benchmark's own sink: checks each record and stops the service
    after ``records`` records.

    ``epoch_ms`` is the interval between consecutive records arriving here,
    less this sink's own work: each interval runs from the end of the
    previous ``write`` to the next arrival, so the checks, the quality
    scoring and ``between()`` are not counted as program time.
    """

    def __init__(
        self, run: Run, service: TelemetryService, records: int, between: Callable[[], None]
    ) -> None:
        self.run = run
        self.service = service
        self.records = records
        self.between = between
        self.count = 0
        self.left: Optional[float] = None

    def write(self, record: Dict[str, Any]) -> None:
        arrival = time.perf_counter()
        run = self.run
        if self.left is not None:
            run.epoch_ms.append(1e3 * (arrival - self.left))
            run.epoch_packets.append(record["packets"])
            self.between()
        self.count += 1
        epoch = record["epoch"]
        result = self.service.engine.system.results[-1]
        flags = _decode_flags(result.report)
        if record["decode_failures"] != list(flags.values()).count(False):
            run.fail(epoch, "record decode_failures disagrees with the report")
        _check_report(run, epoch, result, flags)
        run.outputs.append(_pipeline_output(comparable(record), result, flags))
        run.loss_f1.append(record["loss_f1"])
        run.hh_f1.append(
            f1_score(result.report.heavy_hitters, truth_heavy_hitters(result.truth.flow_sizes))
        )
        if self.count >= self.records:
            self.service.request_stop()
        self.left = time.perf_counter()


class TestbedShift(Workload):
    """The paper's testbed under a state-shifting synthetic stream, as a service."""

    name = "testbed_shift"
    #: The network state shifts every 6 epochs between these two phases.
    phases = (Phase(epochs=6, num_flows=800, victim_ratio=0.05),
              Phase(epochs=6, num_flows=1600, victim_ratio=0.15))
    #: One schedule period, so every run weighs both phases alike.
    period = 12
    periods = 5
    #: The slowest epochs are decode failures at the state shifts and a few
    #: 3-6 s decodes (against ~0.2 s); whether a seed has them in most
    #: periods would decide the rate.  Their cost is gated on fermat_decode
    #: and shows here in the per-layer decode times and failure counts.
    trim = 0.1
    #: Schedule periods in the source; more than any run needs.
    pairs = 60
    #: p90 falls on the edge between the 1600-flow epochs and the slower
    #: ill-transition epochs (~8-10% of all), so it jumps between the two
    #: from seed to seed; p80 lies inside the 1600-flow epochs.
    tail_percentile = 80.0
    #: Six 800-flow epochs, then the shift to the 1600-flow phase.
    window = 8

    def setup(self, index: int) -> Dict[str, Any]:
        directory = os.path.join(self.tmpdir, f"service{index}")
        os.makedirs(directory)
        source = SyntheticSource(phases=self.phases * self.pairs, num_hosts=8, seed=self.seed)
        engine = StreamingEngine(
            source,
            sinks=[JsonlSink(os.path.join(directory, "records.jsonl"))],
            resources=SwitchResources.scaled(0.05),
            seed=self.seed,
            compute_tasks=True,
            heavy_hitter_threshold=HH_THRESHOLD,
        )
        alerts = AlertEngine(
            [RollingF1Floor(0.9, warmup=2), RollingAreCeiling(0.5, warmup=2), DecodeFailureStreak(3)]
        )
        service = TelemetryService(
            engine,
            alert_engine=alerts,
            checkpoint_path=os.path.join(directory, "service.rtck"),
            checkpoint_interval=1,
        )
        return {"service": service, "directory": directory}

    def discard(self, instance: Dict[str, Any]) -> None:
        instance["service"].engine.close()

    def run(self, instance: Dict[str, Any], epochs: int, between: Callable[[], None]) -> Run:
        # The first record only starts the clock: n timed epochs take n + 1.
        return self._drive(instance, epochs + 1, between)

    def _drive(self, instance: Dict[str, Any], records: int, between: Callable[[], None]) -> Run:
        run = Run()
        crashed = False
        service = instance["service"]
        sink = _RecordSink(run, service, records, between)
        service.engine.sinks.append(sink)
        try:
            service.run()
        except Exception:  # noqa: BLE001 - an epoch that raises is a counted error
            traceback.print_exc(file=sys.stderr)
            run.fail(sink.count, "raised")
            crashed = True
        run.attempted = sink.count + int(crashed)
        self._check_durable_outputs(run, instance["directory"])
        return run

    def _check_durable_outputs(self, run: Run, directory: str) -> None:
        """The JSONL file and the last checkpoint must match what was emitted."""
        with open(os.path.join(directory, "records.jsonl")) as handle:
            lines = [json.loads(line) for line in handle]
        emitted = [output["record"] for output in run.outputs]
        for epoch, (line, record) in enumerate(zip(comparable_records(lines), emitted)):
            if line != record:
                run.fail(epoch, "JSONL record differs from the emitted record")
        if len(lines) != len(emitted):
            run.fail(len(lines), f"JSONL holds {len(lines)} records, {len(emitted)} emitted")
        state = read_checkpoint(os.path.join(directory, "service.rtck"))
        if state["engine"]["next_epoch"] != len(emitted):
            run.fail(len(emitted), "last checkpoint is not at the final boundary")


# --------------------------------------------------------------------------- #
# fabric_steady
# --------------------------------------------------------------------------- #
class FabricSteady(Workload):
    """A k=8 fat-tree under steady DCTCP traffic, replayed from an .rtbin file."""

    name = "fabric_steady"
    k = 8
    flows = 10_000
    victim_ratio = 0.02
    #: Every timed epoch of a nominal run replays a different file epoch:
    #: repeating a few epochs would repeat their loss F1 too.
    epochs_in_file = 25
    period = 5
    periods = 5
    #: At 25 epochs: leaves out epoch 0's failing decode and one more.
    trim = 0.1
    tail_percentile = 60.0
    window = 2

    @property
    def path(self) -> str:
        return os.path.join(self.tmpdir, "fabric.rtbin")

    def prepare(self) -> None:
        hosts = FatTreeTopology(FatTreeSpec(k=self.k)).num_hosts
        write_binary_trace(
            self.path,
            (
                generate_workload(
                    "DCTCP",
                    num_flows=self.flows,
                    victim_ratio=self.victim_ratio,
                    num_hosts=hosts,
                    seed=self.seed * 1_000_003 + epoch,
                    use_five_tuple=False,
                )
                for epoch in range(self.epochs_in_file)
            ),
        )

    def setup(self, index: int) -> Dict[str, Any]:
        system = ChameleMon(
            resources=SwitchResources.scaled(0.1),
            seed=self.seed,
            prime=MERSENNE_PRIME_61,
            topology=FatTreeTopology(FatTreeSpec(k=self.k)),
            history_limit=2,
            destructive_analysis=True,
        )
        return {"system": system, "reader": BinaryTraceReader(self.path)}

    def discard(self, instance: Dict[str, Any]) -> None:
        instance["reader"].close()
        instance["system"].close()

    def _drive(self, instance: Dict[str, Any], epochs: int, between: Callable[[], None]) -> Run:
        run = Run()
        system, reader = instance["system"], instance["reader"]
        for epoch in range(epochs):
            run.attempted += 1
            try:
                begin = time.perf_counter_ns()
                result = system.run_epoch(reader.read_epoch(epoch % len(reader)))
                run.epoch_ms.append((time.perf_counter_ns() - begin) / 1e6)
            except Exception:  # noqa: BLE001 - an epoch that raises is a counted error
                traceback.print_exc(file=sys.stderr)
                run.fail(epoch, "raised")
                break
            flags = _decode_flags(result.report)
            _check_report(run, epoch, result, flags)
            accuracy = result.loss_accuracy()
            record = {
                "epoch": epoch,
                "level": result.level.value,
                "losses": sorted(result.report.loss_report.all_losses().items()),
                "decoded": result.decoded_flow_counts(),
                "loss_f1": accuracy["f1"],
                "loss_are": accuracy["are"],
            }
            run.outputs.append(_pipeline_output(record, result, flags))
            run.loss_f1.append(accuracy["f1"])
            run.hh_f1.append(
                f1_score(
                    network_heavy_hitters(result.report.views, HH_THRESHOLD),
                    truth_heavy_hitters(result.truth.flow_sizes),
                )
            )
            run.epoch_packets.append(sum(result.truth.flow_sizes.values()))
            between()
        return run


# --------------------------------------------------------------------------- #
# fermat_decode
# --------------------------------------------------------------------------- #
class FermatDecode(Workload):
    """Single-link FermatSketch epochs on Figure 10's geometry."""

    name = "fermat_decode"
    flows = 1000
    victims = 100
    #: One cycle of Figure 10's buckets-per-flow ladder, as (buckets per
    #: flow, fingerprint bits): every rung with 8-bit fingerprints, then
    #: every rung without.
    cycle = tuple(
        (bpf, fingerprint)
        for fingerprint in (8, 0)
        for bpf in (1.29, 1.26, 1.23, 1.20, 1.17)
    )
    #: Six cycles, with nothing trimmed: failing decodes are what this
    #: workload measures.  Which epochs fail is up to each epoch's flows and
    #: a failing decode costs ~30x a successful one, so it takes six cycles
    #: to average the failing share out.
    period = 6 * len(cycle)
    periods = 1
    trim = 0.0
    tail_percentile = 83.0
    window = 3

    def _input(self, epoch: int) -> Dict[str, Any]:
        key = self.seed * 1_000_003 + epoch
        trace = generate_caida_like_trace(num_flows=self.flows, victim_flows=self.victims, seed=key)
        columns = trace.columns()
        sizes: Dict[int, int] = {}
        losses: Dict[int, int] = {}
        for flow, size, lost in zip(
            columns.flow_ids.tolist(), columns.sizes.tolist(), columns.lost_packets.tolist()
        ):
            sizes[flow] = sizes.get(flow, 0) + size
            if lost:
                losses[flow] = losses.get(flow, 0) + lost
        buckets_per_flow, fingerprint = self.cycle[epoch % len(self.cycle)]
        return {
            "key": key,
            "buckets_per_array": max(1, int(self.flows * buckets_per_flow / 3)),
            "fingerprint_bits": fingerprint,
            "flow_ids": columns.flow_ids,
            "sizes": columns.sizes,
            "delivered": columns.sizes - columns.lost_packets,
            "truth_sizes": sizes,
            "truth_losses": losses,
        }

    def setup(self, index: int) -> Dict[str, Any]:
        return {"inputs": [self._input(epoch) for epoch in range(len(self.cycle))]}

    def discard(self, instance: Dict[str, Any]) -> None:
        instance["inputs"].clear()

    @staticmethod
    def _epoch(item: Dict[str, Any]):
        upstream = FermatSketch(
            item["buckets_per_array"],
            num_arrays=3,
            prime=MERSENNE_PRIME_61,
            seed=item["key"],
            fingerprint_bits=item["fingerprint_bits"],
        )
        downstream = upstream.empty_like()
        upstream.insert_batch(item["flow_ids"], item["sizes"])
        downstream.insert_batch(item["flow_ids"], item["delivered"])
        loss = (upstream - downstream).decode()
        heavy = upstream.decode()
        return loss, heavy

    def _drive(self, instance: Dict[str, Any], epochs: int, between: Callable[[], None]) -> Run:
        run = Run()
        inputs = instance["inputs"]
        for epoch in range(epochs):
            item = inputs[epoch] if epoch < len(inputs) else self._input(epoch)
            run.attempted += 1
            try:
                begin = time.perf_counter_ns()
                loss, heavy = self._epoch(item)
                run.epoch_ms.append((time.perf_counter_ns() - begin) / 1e6)
            except Exception:  # noqa: BLE001 - an epoch that raises is a counted error
                traceback.print_exc(file=sys.stderr)
                run.fail(epoch, "raised")
                break
            self._check(run, epoch, item, loss, heavy)
            reported_losses = {flow: count for flow, count in loss.flows.items() if count > 0}
            run.loss_f1.append(loss_detection_accuracy(item["truth_losses"], reported_losses)["f1"])
            run.hh_f1.append(
                f1_score(truth_heavy_hitters(heavy.flows), truth_heavy_hitters(item["truth_sizes"]))
            )
            run.epoch_packets.append(int(item["sizes"].sum()))
            run.outputs.append({
                part: {
                    "flows": sorted(result.flows.items()),
                    "success": result.success,
                    "remaining": result.remaining,
                }
                for part, result in (("loss", loss), ("hh", heavy))
            })
            between()
        return run

    @staticmethod
    def _check(run: Run, epoch: int, item: Dict[str, Any], loss, heavy) -> None:
        """A decode that reports success must have drained every packet.

        As in :func:`_check_report`, a flow set that differs from the truth
        after a successful decode is counted as a phantom, not failed.
        """
        for part, result, truth in (
            ("loss", loss, item["truth_losses"]),
            ("hh", heavy, item["truth_sizes"]),
        ):
            if result.success != (result.remaining == 0):
                run.fail(epoch, f"{part} decode success disagrees with remaining buckets")
            elif result.success:
                if sum(result.flows.values()) != sum(truth.values()):
                    run.fail(epoch, f"{part} decode succeeded but lost track of packets")
                run.exact_checked += 1
                run.phantoms += result.flows != truth


WORKLOADS = {cls.name: cls for cls in (TestbedShift, FabricSteady, FermatDecode)}
