"""Flow descriptors for the fluid traffic model.

A :class:`Flow` is an aggregate of one or more transport connections
between two hosts.  Elastic flows model TCP: they take whatever max-min
fair share the network gives them (up to their demand) and back off under
congestion.  Inelastic flows model UDP: they keep sending at their demand
and suffer loss on overloaded links.

The ``weight`` field lets one :class:`Flow` stand in for many parallel
connections — exactly how a Crossfire bot behaves: it opens many
*individually legitimate, low-rate* TCP connections whose combined fair
share crowds out normal traffic on the target link.  Weighted max-min
allocation (see :mod:`repro.netsim.fluid`) reproduces that crowding
without simulating each connection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .packet import FlowKey, Protocol
from .routing import Path

_flow_ids = itertools.count(1)

#: Fields whose mutation changes the outcome of a fluid allocation pass.
#: Assigning any of them notifies the owning :class:`FlowSet` so the
#: fluid model's steady-state fast path knows to re-run the allocator
#: (see DESIGN.md, "Incremental fluid allocator").
_ALLOC_FIELDS = frozenset({
    "demand_bps", "weight", "elastic", "police_rate_bps", "path",
    "start_time", "end_time", "pinned_rate_bps",
})


@dataclass
class Flow:
    """An aggregate traffic flow between two hosts."""

    key: FlowKey
    demand_bps: float
    path: Optional[Path] = None
    #: Number of underlying connections; max-min shares are weighted by it.
    weight: float = 1.0
    #: Elastic flows (TCP) respect their allocated share; inelastic flows
    #: (UDP) transmit at full demand and take losses.
    elastic: bool = True
    start_time: float = 0.0
    end_time: Optional[float] = None
    #: Ground truth used for evaluation only — defenses never read it.
    malicious: bool = False
    #: Set by detectors; read by mitigation boosters.
    suspicious: bool = False
    #: Detector confidence in [0, 1] that the flow is attack traffic.
    suspicion_score: float = 0.0
    #: Rate cap imposed by a packet-dropping/rate-limiting booster;
    #: ``None`` means unpoliced.
    police_rate_bps: Optional[float] = None
    #: Boundary-condition cap imposed by the sharded coordinator: the
    #: rate this flow was granted elsewhere (its other regions, or the
    #: global plan).  ``None`` means unpinned.  Like policing it caps
    #: :attr:`effective_demand_bps`, so both allocators honor it without
    #: special cases (see DESIGN.md, "Sharded simulation").
    pinned_rate_bps: Optional[float] = None
    flow_id: int = field(default_factory=lambda: next(_flow_ids))
    # --- filled in by the fluid allocator ---
    rate_bps: float = 0.0       # smoothed sending rate
    goodput_bps: float = 0.0    # rate surviving congestion loss
    bytes_delivered: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.demand_bps < 0:
            raise ValueError(f"demand must be >= 0, got {self.demand_bps}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    def __setattr__(self, name: str, value) -> None:
        if name not in _ALLOC_FIELDS:
            object.__setattr__(self, name, value)
            return
        unchanged = name in self.__dict__ and self.__dict__[name] == value
        object.__setattr__(self, name, value)
        if unchanged:
            return
        if name == "path":
            self.__dict__["_cached_links"] = None
        owner = self.__dict__.get("_owner")
        if owner is not None:
            owner._mark_dirty()

    def path_links(self) -> Optional[tuple]:
        """The flow's directed link keys, cached until the next reroute.

        Returns ``None`` for pathless flows.  The cache is invalidated by
        any assignment to ``path`` (including :meth:`set_path`), so
        rerouting boosters need no extra bookkeeping.
        """
        links = self.__dict__.get("_cached_links")
        if links is None:
            if self.path is None:
                return None
            links = self.path.link_keys
            self.__dict__["_cached_links"] = links
        return links

    @property
    def effective_demand_bps(self) -> float:
        """Demand after policing and pinning — what may be granted."""
        demand = self.demand_bps
        if self.police_rate_bps is not None:
            demand = min(demand, self.police_rate_bps)
        if self.pinned_rate_bps is not None:
            demand = min(demand, self.pinned_rate_bps)
        return demand

    @property
    def src(self) -> str:
        return self.key.src

    @property
    def dst(self) -> str:
        return self.key.dst

    def active(self, now: float) -> bool:
        if now < self.start_time:
            return False
        return self.end_time is None or now < self.end_time

    def set_path(self, path: Optional[Path]) -> None:
        """Reroute the flow; the next fluid update charges the new path."""
        if path is not None:
            if path.src != self.src or path.dst != self.dst:
                raise ValueError(
                    f"path {path} does not connect {self.src}->{self.dst}")
        self.path = path

    def __repr__(self) -> str:
        tag = "mal" if self.malicious else "leg"
        return (f"Flow(#{self.flow_id} {self.key} {tag} "
                f"demand={self.demand_bps / 1e6:.1f}Mbps w={self.weight:g})")


class FlowSet:
    """The collection of flows a simulation runs; supports tagging queries.

    The set maintains a monotonically increasing :attr:`version` bumped by
    membership changes and by allocation-relevant mutations of member
    flows (reroutes, demand changes, policing).  The fluid model compares
    versions across epochs to skip reallocation in steady state.
    """

    def __init__(self) -> None:
        self._flows: Dict[int, Flow] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped whenever membership or an allocation input changes."""
        return self._version

    def _mark_dirty(self) -> None:
        self._version += 1

    def add(self, flow: Flow) -> Flow:
        if flow.flow_id in self._flows:
            raise ValueError(f"flow #{flow.flow_id} already registered")
        self._flows[flow.flow_id] = flow
        flow.__dict__["_owner"] = self
        self._version += 1
        return flow

    def add_all(self, flows: Iterable[Flow]) -> List[Flow]:
        return [self.add(f) for f in flows]

    def remove(self, flow: Flow) -> None:
        removed = self._flows.pop(flow.flow_id, None)
        if removed is not None:
            removed.__dict__.pop("_owner", None)
            self._version += 1

    def __iter__(self):
        return iter(self._flows.values())

    def __len__(self) -> int:
        return len(self._flows)

    def active(self, now: float) -> List[Flow]:
        return self.active_until(now)[0]

    def active_until(self, now: float) -> Tuple[List[Flow], float]:
        """The flows active at ``now`` and the earliest later start or
        end time — until then (and unless :attr:`version` moves) the
        active set cannot change.  ``inf`` when no such time is left."""
        active = []
        boundary = math.inf
        for flow in self._flows.values():
            # Flow.active, inlined: this runs over every flow.
            start = flow.start_time
            end = flow.end_time
            if now < start:
                if start < boundary:
                    boundary = start
            elif end is None or now < end:
                active.append(flow)
                if end is not None and end < boundary:
                    boundary = end
        return active, boundary

    def normal(self) -> List[Flow]:
        return [f for f in self._flows.values() if not f.malicious]

    def malicious(self) -> List[Flow]:
        return [f for f in self._flows.values() if f.malicious]

    def to_destination(self, dst: str) -> List[Flow]:
        return [f for f in self._flows.values() if f.dst == dst]

    def crossing_link(self, a: str, b: str) -> List[Flow]:
        return [f for f in self._flows.values()
                if f.path is not None and (a, b) in f.path_links()]


def make_flow(src: str, dst: str, demand_bps: float, *,
              proto: Protocol = Protocol.TCP, sport: int = 0, dport: int = 80,
              weight: float = 1.0, elastic: bool = True,
              malicious: bool = False, start_time: float = 0.0,
              end_time: Optional[float] = None,
              path: Optional[Path] = None) -> Flow:
    """Convenience constructor assembling the :class:`FlowKey`."""
    key = FlowKey(src, dst, proto, sport, dport)
    return Flow(key=key, demand_bps=demand_bps, path=path, weight=weight,
                elastic=elastic, start_time=start_time, end_time=end_time,
                malicious=malicious)
