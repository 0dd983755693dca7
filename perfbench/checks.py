"""Output checks computed apart from the program.

Every checker takes plain data (numbers, tuples, dicts) rather than the
program's objects, recomputes what the output must satisfy, and returns
a list of human-readable violations: an empty list means the output
passed.  Keeping the checkers free of ``repro`` imports is what lets
``test_checks.py`` feed them perturbed outputs directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LinkKey = Tuple[str, str]

#: Relative slack for the allocation checks.  The allocator's own
#: saturation and demand tests use 1e-9 of capacity / demand; 1e-6
#: leaves room for float residue without admitting a real violation.
ALLOC_TOL = 1e-6

#: Relative tolerance of a sharded run's per-flow results against
#: ``run_single``.  Demand-limited local-sync runs agree to ~2e-15.
SHARD_REL_TOL = 1e-9


@dataclass(frozen=True)
class FlowRate:
    """One flow of an allocation: its path, demand and granted rate."""

    flow_id: int
    links: Optional[Tuple[LinkKey, ...]]
    demand: float
    weight: float
    elastic: bool
    rate: float


def check_allocation(flows: Sequence[FlowRate],
                     capacities: Mapping[LinkKey, float]) -> List[str]:
    """Feasibility and weighted max-min optimality of one allocation.

    * feasible: every rate lies in ``[0, demand]``; on every link the
      elastic load fits in what inelastic traffic leaves of capacity;
      flows without a live path get nothing;
    * max-min: every elastic flow below its demand crosses a saturated
      link on which no elastic flow has a larger rate per unit weight.
    """
    errors: List[str] = []
    inelastic: Dict[LinkKey, float] = {}
    elastic: Dict[LinkKey, float] = {}
    best_share: Dict[LinkKey, float] = {}
    routed: List[FlowRate] = []
    for flow in flows:
        if flow.rate < 0 or flow.rate > flow.demand * (1 + ALLOC_TOL):
            errors.append(f"flow {flow.flow_id}: rate {flow.rate!r} "
                          f"outside [0, demand {flow.demand!r}]")
        if flow.links is None or any(key not in capacities
                                     for key in flow.links):
            if flow.rate != 0.0:
                errors.append(f"flow {flow.flow_id}: no live path but "
                              f"rate {flow.rate!r}")
            continue
        routed.append(flow)
        for key in flow.links:
            if flow.elastic:
                elastic[key] = elastic.get(key, 0.0) + flow.rate
                if flow.demand > 0:
                    share = flow.rate / flow.weight
                    if share > best_share.get(key, -1.0):
                        best_share[key] = share
            else:
                inelastic[key] = inelastic.get(key, 0.0) + flow.rate

    residual = {key: max(0.0, cap - inelastic.get(key, 0.0))
                for key, cap in capacities.items()}
    for key, load in elastic.items():
        if load > residual[key] + ALLOC_TOL * capacities[key]:
            errors.append(f"link {key}: elastic load {load!r} exceeds "
                          f"residual capacity {residual[key]!r}")
    saturated = {key for key, load in elastic.items()
                 if load >= residual[key] - ALLOC_TOL * capacities[key]}

    for flow in routed:
        if (not flow.elastic or flow.demand <= 0
                or flow.rate >= flow.demand * (1 - ALLOC_TOL)):
            continue
        share = flow.rate / flow.weight
        if not any(key in saturated
                   and share >= best_share[key] * (1 - ALLOC_TOL)
                   for key in flow.links):
            errors.append(f"flow {flow.flow_id}: rate {flow.rate!r} below "
                          f"demand {flow.demand!r} without a saturated "
                          f"link where it has the largest share")
    return errors


def check_unit_interval(series: Iterable[Tuple[float, float]],
                        label: str) -> List[str]:
    """Every sample value of a normalized series lies in [0, 1]."""
    return [f"{label}: sample at t={t!r} is {v!r}, outside [0, 1]"
            for t, v in series if not 0.0 <= v <= 1.0]


def check_figure3_claim(baseline: Mapping[str, float],
                        fastflex: Mapping[str, float],
                        label: str) -> List[str]:
    """The paper's Figure 3 claim on one seed: FastFlex keeps more normal
    throughput under attack than the SDN-TE baseline, its attacker never
    rolls, and the baseline's attacker rolls at least once."""
    errors = []
    if not (fastflex["fastflex_mean_during_attack"]
            > baseline["baseline_mean_during_attack"]):
        errors.append(
            f"{label}: FastFlex mean under attack "
            f"{fastflex['fastflex_mean_during_attack']!r} is not above "
            f"the baseline's {baseline['baseline_mean_during_attack']!r}")
    if fastflex["fastflex_attacker_rolls"] != 0:
        errors.append(f"{label}: FastFlex attacker rolled "
                      f"{fastflex['fastflex_attacker_rolls']} times")
    if baseline["baseline_attacker_rolls"] < 1:
        errors.append(f"{label}: baseline attacker never rolled")
    return errors


def digest(value) -> str:
    """SHA-256 of a value's canonical JSON form."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_same(digests: Sequence[str], label: str) -> List[str]:
    """All repeats of one unit produced byte-identical output."""
    if len(set(digests)) > 1:
        return [f"{label}: repeats differ ({len(set(digests))} distinct "
                f"outputs over {len(digests)} repeats)"]
    return []


def _summary_errors(summary: Mapping[str, float], values: List[float],
                    label: str) -> List[str]:
    expected = {"n": len(values), "mean": math.fsum(values) / len(values),
                "min": min(values), "max": max(values)}
    return [f"{label}: {key} is {summary.get(key)!r}, recomputed "
            f"{want!r}" for key, want in expected.items()
            if summary.get(key) != want]


def check_sweep_aggregates(aggregates: Mapping[str, dict],
                           records: Sequence[Mapping]) -> List[str]:
    """The sweep's per-group aggregates equal a ``math.fsum``
    recomputation from the per-seed records."""
    errors: List[str] = []
    groups: Dict[str, List[Mapping]] = {}
    for record in sorted(records, key=lambda r: r["task_id"]):
        groups.setdefault(record["group"], []).append(record)
    if set(groups) != set(aggregates):
        return [f"aggregate groups {sorted(aggregates)} != record groups "
                f"{sorted(groups)}"]
    for name, members in groups.items():
        group = aggregates[name]
        scalars: Dict[str, List[float]] = {}
        series: Dict[str, Dict[float, List[float]]] = {}
        for record in members:
            for key, value in record["result"].get("scalars", {}).items():
                scalars.setdefault(key, []).append(value)
            for key, samples in record["result"].get("series", {}).items():
                for t, v in samples:
                    series.setdefault(key, {}).setdefault(
                        float(t), []).append(v)
        if set(scalars) != set(group["scalars"]):
            errors.append(f"{name}: scalar names differ")
            continue
        for key, values in scalars.items():
            errors += _summary_errors(group["scalars"][key], values,
                                      f"{name}.{key}")
        for key, per_time in series.items():
            points = group["series"].get(key, [])
            if [p["t"] for p in points] != sorted(per_time):
                errors.append(f"{name}.{key}: series times differ")
                continue
            for point in points:
                errors += _summary_errors(point, per_time[point["t"]],
                                          f"{name}.{key}@{point['t']}")
    return errors


def check_serve_stream(records: Sequence[Mapping],
                       commands_sent: int) -> List[str]:
    """Every command acked ``ok`` and heartbeats monotone in sim time."""
    errors = []
    acks = [r for r in records if r.get("kind") == "service_ack"]
    if len(acks) != commands_sent:
        errors.append(f"{len(acks)} acks for {commands_sent} commands")
    errors += [f"command {a.get('op')!r} at t={a.get('sim_time')!r} "
               f"not ok: {a.get('error')}" for a in acks if not a.get("ok")]
    beats = [r["sim_time"] for r in records
             if r.get("kind") == "service_heartbeat"]
    if not beats:
        errors.append("no heartbeats")
    errors += [f"heartbeat sim_time went back from {a!r} to {b!r}"
               for a, b in zip(beats, beats[1:]) if b < a]
    if not any(r.get("kind") == "service_end" for r in records):
        errors.append("no service_end record")
    return errors


def check_equal_bytes(reference: bytes, other: bytes,
                      label: str) -> List[str]:
    """Two renderings of one result are byte-identical."""
    if reference != other:
        return [f"{label}: differs from the uninterrupted session"]
    return []


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def compare_shard(single: Mapping,
                  sharded: Mapping) -> Tuple[float, List[str]]:
    """A sharded run's per-flow finals and goodput samples against
    ``run_single``'s.  Returns (largest relative error, violations)."""
    errors: List[str] = []
    worst = 0.0
    if len(single["flows"]) != len(sharded["flows"]):
        return math.inf, [f"{len(sharded['flows'])} flows, single run has "
                          f"{len(single['flows'])}"]
    if len(single["samples"]) != len(sharded["samples"]):
        return math.inf, ["sample grids differ"]
    pairs = [(f"flow {i}", a, b) for i, (a, b) in
             enumerate(zip(single["flows"], sharded["flows"]))]
    pairs += [(f"sample t={a[0]!r}", a, b)
              for a, b in zip(single["samples"], sharded["samples"])]
    for label, want, got in pairs:
        err = max(_rel(x, y) for x, y in zip(want, got))
        worst = max(worst, err)
        if err > SHARD_REL_TOL:
            errors.append(f"{label}: relative error {err:.3g} > "
                          f"{SHARD_REL_TOL:g}")
    return worst, errors
