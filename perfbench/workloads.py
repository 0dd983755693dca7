"""The benchmark's three workloads.

Each workload generates its inputs from the seed, drives the program
through its public API, and times *units* of identical work.  A run
repeats whole rounds of units, and the repeats double as a determinism
check: every repeat of a unit must produce byte-identical output.

A unit's reported time is the sum, over its *pieces*, of each piece's
median over the repeats (:class:`Pieces`).  A serve session's pieces
are its slices, which also give its slice percentiles; every other unit
is one piece.  On a 2-cpu shared machine the median held stiller than
the fastest repeat did (README, "Estimator").

``round()`` runs one round and accumulates timings, operation counts
and check violations; ``end_to_end()`` and ``per_layer()`` turn them
into metrics.  Every workload reports the same end-to-end metrics, each
naming a role its own units fill:

* ``run_s`` -- the system under test: the FastFlex runs of the sweep,
  the scripted serve session, the sharded run;
* ``reference_s`` -- what it is compared with: the SDN-TE baseline
  runs, the session restored from its mid-run checkpoint and run to the
  end, ``run_single`` on the sharded run's scenario.

Figures only one workload has (serve's slice percentiles, restore time
and checkpoint size) are reported by ``details()``, and among the
per-layer metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from checks import (FlowRate, check_allocation, check_equal_bytes,
                    check_figure3_claim, check_same, check_serve_stream,
                    check_sweep_aggregates, check_unit_interval,
                    compare_shard, digest)

clock = time.perf_counter

#: Name prefix of the counters the tracer adds to the program's registry.
TRACER_PREFIX = "perfbench_"


class Pieces:
    """Per-repeat timings of one unit, cut into the same pieces on every
    repeat; the estimate is the sum of the pieces' medians."""

    def __init__(self) -> None:
        self.repeats: List[List[float]] = []

    def add(self, pieces: List[float]) -> None:
        self.repeats.append(pieces)

    def consistent(self) -> bool:
        """Every repeat was cut into the same number of pieces."""
        return len({len(r) for r in self.repeats}) <= 1

    def medians(self) -> List[float]:
        return [statistics.median(col) for col in zip(*self.repeats)]

    def estimate(self) -> float:
        return math.fsum(self.medians())


class FluidCapture:
    """Remembers every ``FluidNetwork`` started in this process, so the
    allocation it holds after a run can be checked.  One attribute
    lookup per run; the allocator itself is untouched."""

    def __init__(self) -> None:
        from repro.netsim.fluid import FluidNetwork
        self.started: List[Any] = []
        original = FluidNetwork.start
        captured = self.started

        def start(fluid):
            captured.append(fluid)
            return original(fluid)

        FluidNetwork.start = start

    def check_and_clear(self, label: str) -> List[str]:
        """Check each captured network's allocation of its final state."""
        errors = []
        for fluid in self.started:
            result = fluid.update()
            flows = [FlowRate(f.flow_id, f.path_links(),
                              f.effective_demand_bps, f.weight, f.elastic,
                              result.rates.get(f.flow_id, 0.0))
                     for f in fluid.flows.active(fluid.sim.now)]
            capacities = {key: link.capacity_bps
                          for key, link in fluid.topo.links.items()}
            errors += [f"{label}: {e}"
                       for e in check_allocation(flows, capacities)]
        self.started.clear()
        return errors


def counter_total(snapshot: Dict[str, Any], family: str) -> float:
    """A counter family's value summed over its label children."""
    entry = snapshot.get(family)
    if entry is None:
        return 0.0
    return entry.get("value", 0.0) + math.fsum(
        entry.get("labels", {}).values())


def merged(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    from repro.telemetry import MetricsRegistry
    return MetricsRegistry().merge(*snapshots).snapshot()


def stable_bytes(snapshot: Dict[str, Any]) -> bytes:
    """The deterministic part of a registry snapshot: wall-clock families
    and the tracer's own counters left out."""
    from repro.telemetry import WALL_CLOCK_METRICS
    return json.dumps({k: v for k, v in snapshot.items()
                       if k not in WALL_CLOCK_METRICS
                       and not k.startswith(TRACER_PREFIX)},
                      sort_keys=True, separators=(",", ":")).encode()


def layer_metrics(tracer, snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics every workload reports: counters from the
    program's registry, self times and call counts from the tracer."""
    c = lambda family: counter_total(snapshot, family)  # noqa: E731
    updates = c("fluid_updates_total")
    return {
        "engine.events_executed": c("sim_events_executed_total"),
        "engine.events_scheduled": c("sim_events_scheduled_total"),
        "engine.events_cancelled": c("sim_events_cancelled_total"),
        "engine.run_self_s": tracer.self_time("engine.run"),
        "engine.schedule_s": tracer.self_time("engine.schedule"),
        "fluid.updates": updates,
        "fluid.allocation_passes": c("fluid_allocation_passes_total"),
        "fluid.fastpath_hit_ratio": (c("fluid_fastpath_hits_total")
                                     / updates if updates else 0.0),
        "fluid.freeze_rounds": c("fluid_freeze_rounds_total"),
        "fluid.allocate_s": tracer.self_time("fluid.allocate"),
        "fluid.commit_s": tracer.self_time("fluid.update"),
        "routing.sssp_recomputes": c("routing_sssp_recomputes_total"),
        "routing.cache_hits": c("routing_cache_hits_total"),
        "routing.cache_misses": c("routing_cache_misses_total"),
        "routing.compute_s": tracer.self_time("routing.compute"),
        "te.reconfigs": c("sdn_te_reconfigs_total"),
        "switch.receive_calls": tracer.count("switch.receive"),
        "switch.receive_s": tracer.self_time("switch.receive"),
        "links.transmits": tracer.count("links.send"),
        "links.send_s": tracer.self_time("links.send"),
        "links.packets_dropped": c("link_packets_dropped_total"),
        "booster.process_calls": tracer.count("booster.process"),
        "booster.process_s": tracer.self_time("booster.process"),
        "booster.detections": c("booster_detections_total"),
        "booster.reroutes_applied": c("booster_reroutes_applied_total"),
        "modes.probes_sent": c("mode_probes_sent_total"),
        "modes.transitions": c("mode_transitions_total"),
        "dataplane.batch_packets": c("dataplane_batch_packets_total"),
        "telemetry.trace_events": tracer.count("telemetry.emit"),
        "telemetry.emit_s": tracer.self_time("telemetry.emit"),
        "telemetry.drain_s": tracer.self_time("telemetry.drain"),
        "telemetry.stream_bytes": 0,
        "checkpoint.snapshots": tracer.count("checkpoint.snapshot"),
        "checkpoint.snapshot_s": tracer.self_time("checkpoint.snapshot"),
        "checkpoint.bytes": 0,
        "checkpoint.restore_s": tracer.self_time("checkpoint.restore"),
        "shard.partition_s": tracer.self_time("shard.partition"),
        "shard.cut_edges": 0,
        "shard.windows": 0,
        "shard.barrier_s": 0.0,
        "shard.state_bytes": 0,
        "shard.messages": 0,
        "shard.coordinator_cpu_s": 0.0,
        "shard.worker_cpu_s": 0.0,
        "shard.region_imbalance": 0.0,
        "sweep.tasks": 0,
        "sweep.overhead_s": 0.0,
        "serve.slice_p50_ms": 0.0,
        "serve.slice_p95_ms": 0.0,
        "serve.restore_ms": 0.0,
        "serve.checkpoint_kb": 0.0,
    }


class Workload:
    """Shared bookkeeping: operations attempted and failed, violations."""

    name = ""

    def __init__(self, seed: int, scratch: Path, capture: FluidCapture):
        self.seed = seed
        self.scratch = scratch
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.snapshot: Dict[str, Any] = {}
        self.extra: Dict[str, float] = {}

    def config(self) -> Dict[str, Any]:
        raise NotImplementedError

    def round(self, tracer=None) -> None:
        """Run one round; ``tracer`` is the installed tracer, if any."""
        raise NotImplementedError

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """``run_s`` and ``reference_s``: (seconds, unit)."""
        raise NotImplementedError

    def details(self) -> Dict[str, Tuple[float, str]]:
        """Workload-specific figures, reported beside the metrics."""
        return {}

    def per_layer(self, tracer) -> Dict[str, float]:
        metrics = layer_metrics(tracer, self.snapshot)
        metrics.update(self.extra)
        return metrics


# ----------------------------------------------------------------------
# figure3_sweep
# ----------------------------------------------------------------------

class Figure3Sweep(Workload):
    """The paper's Figure 3 for both systems as a two-seed sweep."""

    name = "figure3_sweep"
    SYSTEMS = (("baseline_sdn", "figure3_baseline"),
               ("fastflex", "figure3_fastflex"))

    def __init__(self, seed, scratch, capture):
        super().__init__(seed, scratch, capture)
        self.seeds = [seed, seed + 1]
        #: (system, logical seed) -> the task's wall time, per repeat
        self.pieces: Dict[Tuple[str, int], Pieces] = {}
        self.digests: Dict[Tuple[str, int], List[str]] = {}

    def config(self):
        return {"workload": self.name, "seeds": self.seeds,
                "experiments": [e for _, e in self.SYSTEMS],
                "duration_s": 120.0, "workers": 1}

    def round(self, tracer=None) -> None:
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import SweepSpec
        scalars: Dict[Tuple[str, int], Dict[str, float]] = {}
        snapshots = []
        overhead = 0.0
        tasks = 0
        for system, experiment in self.SYSTEMS:
            spec = SweepSpec(experiment=experiment, seeds=self.seeds)
            result = run_sweep(spec, workers=1)
            self.attempted += len(spec.tasks())
            self.failed += len(result.errors)
            self.errors += [f"{e['task_id']}: {e['error']}"
                            for e in result.errors]
            self.errors += check_sweep_aggregates(result.aggregates,
                                                  result.records)
            self.errors += self.capture.check_and_clear(experiment)
            for record in result.records:
                key = (system, record["logical_seed"])
                self.pieces.setdefault(key, Pieces()).add(
                    [record["wall_seconds"]])
                self.digests.setdefault(key, []).append(
                    digest(record["result"]))
                scalars[key] = record["result"]["scalars"]
                for name, series in record["result"]["series"].items():
                    self.errors += check_unit_interval(
                        series, f"{name} seed {key[1]}")
            overhead += result.wall_seconds - math.fsum(
                r["wall_seconds"] for r in result.records)
            tasks += len(result.records)
            snapshots.append(result.merged_metrics)
        for seed in self.seeds:
            if ("baseline_sdn", seed) in scalars and \
                    ("fastflex", seed) in scalars:
                self.errors += check_figure3_claim(
                    scalars[("baseline_sdn", seed)],
                    scalars[("fastflex", seed)], f"seed {seed}")
        for key, digests in self.digests.items():
            self.errors += check_same(digests, f"{key[0]} seed {key[1]}")
        self.snapshot = merged(*snapshots)
        self.extra = {"sweep.tasks": tasks, "sweep.overhead_s": overhead}

    def _time(self, system: str) -> float:
        return math.fsum(self.pieces[(system, seed)].estimate()
                         for seed in self.seeds)

    def end_to_end(self):
        return {"run_s": (self._time("fastflex"), "s"),
                "reference_s": (self._time("baseline_sdn"), "s")}


# ----------------------------------------------------------------------
# serve_session
# ----------------------------------------------------------------------

#: Scripted commands, keyed to simulated time: each is delivered at the
#: first slice boundary at or after its time (closed loop).  The failed
#: link lies on the unused s5-s6 detour (see README, "Known faults").
COMMANDS: List[Tuple[float, Dict[str, Any]]] = [
    (4.0, {"op": "attach-attack", "start_delay": 1.0}),
    (15.0, {"op": "set-link-capacity", "src": "s2", "dst": "sR",
            "capacity_bps": 5e9}),
    (25.0, {"op": "fail-link", "src": "s5", "dst": "s6"}),
    (35.0, {"op": "detach-attack"}),
    (42.0, {"op": "attach-attack", "start_delay": 1.0}),
]


def drive(service, schedule: List[Tuple[float, Dict[str, Any]]]
          ) -> Tuple[Any, List[float], float]:
    """Run ``service`` to its end, submitting each scheduled command
    once the simulation clock reaches its time.  Returns (result, the
    clock after every slice, session seconds)."""
    pending = list(schedule)
    marks: List[float] = []

    def submit_due() -> None:
        now = service.world.sim.now
        while pending and now >= pending[0][0]:
            service.submit(pending.pop(0)[1])

    async def watcher() -> None:
        while True:
            marks.append(clock())
            submit_due()
            await asyncio.sleep(0)

    async def main():
        submit_due()
        task = asyncio.ensure_future(watcher())
        start = clock()
        marks.append(start)
        result = await service.run()
        elapsed = clock() - start
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        return result, elapsed

    result, elapsed = asyncio.run(main())
    return result, marks, elapsed


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class ServeSession(Workload):
    """A scripted interactive session of the FastFlex service."""

    name = "serve_session"
    DURATION_S = 60.0
    STEP_EVENTS = 250
    CHECKPOINT_EVERY = 8000

    def __init__(self, seed, scratch, capture):
        super().__init__(seed, scratch, capture)
        #: the session's slices plus the rest of its time, per repeat
        self.session = Pieces()
        #: restore, then the resumed session's slices and the rest
        self.resumed = Pieces()
        self.checkpoint_sizes: List[int] = []
        self.digests: List[str] = []

    def config(self):
        return {"workload": self.name, "scenario": "figure3_fastflex",
                "seed": self.seed, "duration_s": self.DURATION_S,
                "step_events": self.STEP_EVENTS,
                "checkpoint_every_events": self.CHECKPOINT_EVERY,
                "commands": COMMANDS}

    def round(self, tracer=None) -> None:
        from repro import telemetry
        from repro.checkpoint.service import EngineService
        from repro.experiments.figure3 import format_report

        ckpt_dir = self.scratch / "checkpoints"
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        ckpt_dir.mkdir(parents=True)
        stream_path = self.scratch / "session.jsonl"
        telemetry.reset()
        with open(stream_path, "w") as stream:
            service = EngineService(
                "figure3_fastflex", seed=self.seed,
                duration_s=self.DURATION_S, step_events=self.STEP_EVENTS,
                checkpoint_every_events=self.CHECKPOINT_EVERY,
                checkpoint_dir=ckpt_dir, stream=stream)
            result, marks, elapsed = drive(service, COMMANDS)
        self.attempted += 1 + len(COMMANDS)
        slices = [b - a for a, b in zip(marks, marks[1:])]
        self.session.add(slices + [elapsed - math.fsum(slices)])
        system = service.world.system
        report = format_report({system: result},
                               service.world.config).encode()
        snapshot = telemetry.metrics().snapshot()
        stable = stable_bytes(snapshot)
        records = read_jsonl(stream_path)
        self.errors += check_serve_stream(records, len(COMMANDS))
        self.errors += self.capture.check_and_clear(self.name)
        self.digests.append(digest([report.decode(), stable.decode(),
                                    len(marks)]))
        self.errors += check_same(self.digests, "session report+metrics")

        checkpoints = sorted(ckpt_dir.glob("ckpt_*.ckpt"))
        if not checkpoints:
            self.errors.append("session wrote no auto-checkpoints")
            return
        self.checkpoint_sizes = [p.stat().st_size for p in checkpoints]
        middle = checkpoints[len(checkpoints) // 2]
        # Commands acked after the middle checkpoint was written are not
        # in its state; the restored session must be sent them again.
        acked_before = 0
        for record in records:
            if record.get("kind") == "service_checkpoint" and \
                    Path(record["path"]).name == middle.name:
                break
            if record.get("kind") == "service_ack":
                acked_before += 1
        resend = COMMANDS[acked_before:]

        restored_path = self.scratch / "restored.jsonl"
        with open(restored_path, "w") as stream:
            start = clock()
            restored = EngineService.from_checkpoint(
                middle, step_events=self.STEP_EVENTS, stream=stream)
            restore_s = clock() - start
            restored_result, marks, elapsed = drive(restored, resend)
        slices = [b - a for a, b in zip(marks, marks[1:])]
        self.resumed.add([restore_s] + slices
                         + [elapsed - math.fsum(slices)])
        for label, pieces in (("session", self.session),
                              ("resumed session", self.resumed)):
            if not pieces.consistent():
                self.errors.append(f"{label}: repeats ran different "
                                   f"numbers of slices")
        self.attempted += 1 + len(resend)
        restored_report = format_report(
            {system: restored_result}, restored.world.config).encode()
        self.errors += check_serve_stream(read_jsonl(restored_path),
                                          len(resend))
        self.errors += check_equal_bytes(report, restored_report,
                                         "restored report")
        self.errors += check_equal_bytes(
            stable, stable_bytes(telemetry.metrics().snapshot()),
            "restored stable metrics")

        self.snapshot = snapshot
        self.extra = {
            "telemetry.stream_bytes": stream_path.stat().st_size,
            "checkpoint.bytes": sum(self.checkpoint_sizes),
        }

    def end_to_end(self):
        return {"run_s": (self.session.estimate(), "s"),
                "reference_s": (self.resumed.estimate(), "s")}

    def details(self):
        per_slice = self.session.medians()[:-1]
        p50, p95 = percentiles(per_slice, (50, 95))
        return {
            "slice_p50_ms": (p50 * 1e3, "ms"),
            "slice_p95_ms": (p95 * 1e3, "ms"),
            "slices": (len(per_slice), "count"),
            "restore_ms": (self.resumed.medians()[0] * 1e3, "ms"),
            "checkpoint_kb": (statistics.fmean(self.checkpoint_sizes)
                              / 1024, "KB"),
        }

    def per_layer(self, tracer):
        metrics = super().per_layer(tracer)
        metrics.update({f"serve.{name}": value for name, (value, _unit)
                        in self.details().items() if name != "slices"})
        return metrics


def percentiles(values: List[float], points) -> List[float]:
    """Linear-interpolated percentiles (``statistics.quantiles``'
    inclusive method) of ``values`` at each of ``points``."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return [cuts[p - 1] for p in points]


# ----------------------------------------------------------------------
# shard_churn
# ----------------------------------------------------------------------

class ShardChurn(Workload):
    """Sharded local-sync run of a churning random scenario, against
    ``run_single`` on the same scenario."""

    name = "shard_churn"
    REGIONS = 4
    WORKERS = 2
    SCENARIO = {"n_switches": 200, "n_hosts": 400, "n_flows": 3000,
                "duration_s": 2.0, "fluid_interval_s": 0.05,
                "churn_per_epoch": 5}

    def __init__(self, seed, scratch, capture):
        super().__init__(seed, scratch, capture)
        from repro.shard import figure3_scenario, random_scenario
        self.scenario = random_scenario(seed=seed, **self.SCENARIO)
        # The known fault's input is fixed: it does not depend on --seed.
        self.fault_scenario = figure3_scenario(seed=0)
        self.shard_s = Pieces()
        self.single_s = Pieces()
        self.digests: Dict[str, List[str]] = {"sharded": [], "single": []}
        self.worst_error = 0.0
        self.fault_goodput: Optional[Tuple[float, float]] = None

    def config(self):
        return {"workload": self.name, "seed": self.seed,
                "scenario": self.SCENARIO, "regions": self.REGIONS,
                "workers": self.WORKERS, "sync": "local",
                "known_fault": {"scenario": "figure3_scenario(seed=0)",
                                "regions": 2, "sync": "local"}}

    def round(self, tracer=None) -> None:
        from repro import telemetry
        from repro.shard import run_sharded, run_single

        start = clock()
        sharded = run_sharded(self.scenario, self.REGIONS,
                              workers=self.WORKERS, sync="local")
        self.shard_s.add([clock() - start])
        self.capture.started.clear()  # regions belong to the workers
        telemetry.reset()
        start = clock()
        single = run_single(self.scenario)
        self.single_s.add([clock() - start])
        single_snapshot = telemetry.metrics().snapshot()
        self.attempted += 2
        self.errors += self.capture.check_and_clear("run_single")
        worst, errors = compare_shard(single, sharded)
        self.worst_error = max(self.worst_error, worst)
        self.errors += errors
        transport = sharded.pop("transport")
        worker_metrics = sharded["merged_stable_metrics"]
        sharded["merged_stable_metrics"] = {
            k: v for k, v in worker_metrics.items()
            if not k.startswith(TRACER_PREFIX)}
        self.digests["sharded"].append(digest(sharded))
        self.digests["single"].append(digest(single))
        for label, digests in self.digests.items():
            self.errors += check_same(digests, label)
        # The per-layer times and counters cover the same runs: the
        # known fault's runs are left out of both.
        with tracer.paused() if tracer else contextlib.nullcontext():
            self.known_fault()
        if tracer is not None:
            tracer.absorb_worker_metrics(worker_metrics)
        self.snapshot = merged(single_snapshot,
                               sharded["merged_stable_metrics"])
        busy = list(tracer.region_busy.values()) if tracer else []
        self.extra = {
            "shard.cut_edges": sharded["cut_edges"],
            "shard.windows": transport["windows"],
            "shard.barrier_s": transport["barrier_seconds_total"],
            "shard.state_bytes": sum(transport["state_bytes"].values()),
            "shard.messages": sum(transport["messages"].values()),
            "shard.coordinator_cpu_s":
                transport["cpu_time_s"]["coordinator"],
            "shard.worker_cpu_s": math.fsum(
                transport["cpu_time_s"]["workers"]),
            "shard.region_imbalance": (max(busy) / statistics.fmean(busy)
                                       if busy else 0.0),
        }

    def known_fault(self) -> None:
        """Local sync on the Figure 3 scenario, against ``run_single``.

        Local sync never allocates boundary-link capacity, and Crossfire
        floods exactly the cut links, so this comparison fails today;
        it is counted as a failed operation, not as a wrong output."""
        from repro.shard import run_sharded, run_single
        single = run_single(self.fault_scenario)
        sharded = run_sharded(self.fault_scenario, 2, workers=1,
                              sync="local")
        self.capture.started.clear()
        self.attempted += 1
        _worst, errors = compare_shard(single, sharded)
        if errors:
            self.failed += 1
            # Normal-flow goodput at the last sample, under attack.
            self.fault_goodput = (single["samples"][-1][1],
                                  sharded["samples"][-1][1])

    def end_to_end(self):
        return {"run_s": (self.shard_s.estimate(), "s"),
                "reference_s": (self.single_s.estimate(), "s")}

    def details(self):
        return {"speedup": (self.single_s.estimate()
                            / self.shard_s.estimate(), "x"),
                "max_rel_error": (self.worst_error, "ratio")}


WORKLOADS = {cls.name: cls for cls in (Figure3Sweep, ServeSession,
                                       ShardChurn)}
