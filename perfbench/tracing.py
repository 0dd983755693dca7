"""Span tracing of the program's layers from outside the program.

:class:`Tracer` wraps the public functions and methods at each layer
boundary (``Simulator.run``, ``max_min_allocate``,
``ProgrammableSwitch.receive``, ...) with a wrapper that records a span
(name, start, end, parent) in memory.  A span's *self time* is its
duration minus the time of the spans it directly caused; a layer's time
is the sum of its spans' self times, so nested layers are never counted
twice.  Nothing under ``src/`` changes: :meth:`Tracer.uninstall` puts
every original back.

Sharded runs fork their region workers after the wrappers are in
place, so the wrappers also run there.  A worker cannot hand its spans
back, so in a forked child each span's self time is added to a labeled
counter of the program's own metrics registry instead; the worker ships
that registry to the coordinator with its results, and
:meth:`Tracer.absorb_worker_metrics` folds it back in.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: Span name -> the (module, attribute path) of every function or method
#: it wraps.  Module-level functions are also replaced wherever another
#: ``repro`` module imported them by name.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "engine.run": [("repro.netsim.engine", "Simulator.run")],
    "engine.schedule": [("repro.netsim.engine", "Simulator.schedule_at")],
    "fluid.allocate": [("repro.netsim.fluid", "max_min_allocate")],
    "fluid.update": [("repro.netsim.fluid", "FluidNetwork.update")],
    "switch.receive": [("repro.netsim.switch",
                        "ProgrammableSwitch.receive")],
    "links.send": [("repro.netsim.links", "Link.send")],
    "booster.process": [("repro.core.booster", "GatedProgram.process")],
    "telemetry.emit": [("repro.telemetry.trace", "EventTrace.emit")],
    "telemetry.drain": [("repro.telemetry.trace", "EventTrace.drain")],
    "checkpoint.snapshot": [("repro.netsim.engine", "Simulator.snapshot")],
    "checkpoint.restore": [("repro.netsim.engine", "Simulator.restore")],
    "routing.compute": [("repro.netsim.routing", "shortest_path"),
                        ("repro.netsim.routing", "k_shortest_paths"),
                        ("repro.core.te", "greedy_min_max_te"),
                        ("repro.shard.region", "compute_paths")],
    "shard.partition": [("repro.shard.partition", "partition_topology")],
    "shard.region_window": [("repro.shard.region",
                             "RegionWorld.run_window")],
}

#: Modules imported before patching so every booster subclass and every
#: by-name import of a wrapped function exists when the tracer looks.
PRELOAD = ("repro.boosters", "repro.checkpoint.service",
           "repro.experiments.figure3", "repro.shard", "repro.sweep.runner",
           "repro.sweep.drivers", "repro.baselines.sdn_te")

WORKER_SELF = "perfbench_worker_self_seconds"
WORKER_CALLS = "perfbench_worker_calls_total"
REGION_BUSY = "perfbench_region_busy_seconds"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = list(TARGETS)
        self._sid = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        #: Region index -> busy seconds inside ``RegionWorld.run_window``
        #: in forked shard workers (see :meth:`absorb_worker_metrics`).
        self.region_busy: Dict[int, float] = {}
        self._stack: List[int] = []
        self._child: List[float] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._in_worker = False
        self._worker_self = None
        self._worker_calls = None
        self._region_counter = None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from importlib import import_module

        from repro import telemetry
        for name in PRELOAD:
            import_module(name)
        registry = telemetry.metrics()
        self._worker_self = registry.counter(
            WORKER_SELF, "benchmark tracer: span self time in shard "
            "workers", labelnames=("span",))
        self._worker_calls = registry.counter(
            WORKER_CALLS, "benchmark tracer: span count in shard workers",
            labelnames=("span",))
        self._region_counter = registry.counter(
            REGION_BUSY, "benchmark tracer: busy time per shard region",
            labelnames=("region",))
        os.register_at_fork(after_in_child=self._forked)
        for span, targets in TARGETS.items():
            for module_name, path in targets:
                self._patch(span, import_module(module_name), path)
        from repro.core.booster import GatedProgram
        pending = list(GatedProgram.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "process" in cls.__dict__:
                self._patch_attr(cls, "process",
                                 self._wrap("booster.process",
                                            cls.__dict__["process"]))

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Put every original back for the block, the wrappers after."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _original, wrapper in self._patches:
                setattr(owner, attr, wrapper)

    def _patch(self, span: str, module, path: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(span, raw.__func__))
            elif span == "shard.region_window":
                wrapped = self._wrap_region(raw)
            else:
                wrapped = self._wrap(span, raw)
            self._patch_attr(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(span, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                self._patch_attr(mod, attr, wrapped)

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr), value))
        setattr(owner, attr, value)

    def _forked(self) -> None:
        """In a forked worker: drop the parent's open spans and report
        through the registry from now on."""
        self._in_worker = True
        self._stack.clear()
        self._child.clear()

    # -- the wrappers ---------------------------------------------------
    def _wrap(self, span: str, fn: Callable) -> Callable:
        sid = self._sid[span]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self._stack, self._child
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            child.append(0.0)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                own = duration - child.pop()
                if child:
                    child[-1] += duration
                self_s[sid] += own
                calls[sid] += 1
                if tracer._in_worker:
                    tracer._worker_self.labels(span).inc(own)
                    tracer._worker_calls.labels(span).inc()
        return wrapper

    def _wrap_region(self, fn: Callable) -> Callable:
        inner = self._wrap("shard.region_window", fn)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(region, *args, **kwargs):
            start = clock()
            try:
                return inner(region, *args, **kwargs)
            finally:
                if tracer._in_worker:
                    tracer._region_counter.labels(
                        str(region.region_index)).inc(clock() - start)
        return wrapper

    # -- results --------------------------------------------------------
    def absorb_worker_metrics(self, snapshot: Dict[str, Any]) -> None:
        """Fold a shard run's merged worker registry into the totals."""
        for span, value in snapshot.get(WORKER_SELF, {}).get(
                "labels", {}).items():
            self.self_s[self._sid[span]] += value
        for span, value in snapshot.get(WORKER_CALLS, {}).get(
                "labels", {}).items():
            self.calls[self._sid[span]] += int(value)
        for region, value in snapshot.get(REGION_BUSY, {}).get(
                "labels", {}).items():
            self.region_busy[int(region)] = (
                self.region_busy.get(int(region), 0.0) + value)

    def self_time(self, span: str) -> float:
        return self.self_s[self._sid[span]]

    def count(self, span: str) -> int:
        return self.calls[self._sid[span]]

    def write(self, path) -> int:
        """Write the recorded spans: a JSON header line naming the span
        table, then the four columns as native arrays.  Returns the
        number of spans written."""
        import json
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "columns": ["name:i32", "parent:i32", "start:f64",
                                  "end:f64"]}
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)
        return len(self.span_start)


def import_breakdown(importtime_log: str) -> Tuple[float, float]:
    """(repro import seconds excluding numpy and networkx, numpy +
    networkx seconds) from ``python -X importtime`` output."""
    third_party = 0.0
    repro_total = 0.0
    seen = set()
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the column header line
        raw_name = parts[2]
        name = raw_name.strip()
        depth = (len(raw_name) - len(raw_name.lstrip()) - 1) // 2
        if name in ("numpy", "networkx") and name not in seen:
            seen.add(name)
            third_party += cumulative_us / 1e6
        if depth == 0 and (name == "repro" or name.startswith("repro.")):
            repro_total += cumulative_us / 1e6
    return max(repro_total - third_party, 0.0), third_party

