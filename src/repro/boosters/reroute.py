"""Congestion-aware rerouting booster, entirely in data plane (§4.1).

A Hula-style distance-vector over utilization probes [46]: switches near
the protected destinations periodically originate PROBE packets; each
switch that receives a probe learns "via this neighbor, the worst link
utilization toward the origin is U", keeps the best next hop per origin,
and re-floods improved probes.  Forwarding decisions come entirely from
these tables — no controller round trip — which is what lets FastFlex
disperse a rolling attack "almost instantaneously".

Per the paper's step (3), only *suspicious* flows are steered onto the
probe-discovered detours; normal flows stay pinned to their optimal TE
paths (``pin_normal=False`` reproduces the naive reroute-everything
variant for the selective-reroute ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.booster import Booster, GatedProgram
from ..core.dataflow import DataflowGraph
from ..core.ppm import PpmRole
from ..dataplane.resources import ResourceVector
from ..netsim.fluid import FluidNetwork, LinkKey
from ..netsim.packet import Packet, PacketKind, Protocol
from ..netsim.routing import Path, install_flow_route
from ..netsim.switch import Consume, ProgrammableSwitch, ProgramResult
from ..telemetry import metrics, trace
from .base import logic_ppm, parser_ppm
from .lfa_detector import ATTACK_TYPE, MITIGATION_MODE

_MET = metrics()
_TRACE = trace()
_C_REROUTES = _MET.counter(
    "booster_reroutes_applied_total",
    "flow steerings onto probe-discovered detours")
_C_PATHS_RESTORED = _MET.counter(
    "booster_paths_restored_total",
    "steered flows returned to their original TE paths")


@dataclass
class BestPathEntry:
    """Per-origin routing state a switch learns from probes."""

    utilization: float
    next_hop: str
    updated_at: float
    hops: int


class HulaProbeProgram(GatedProgram):
    """Per-switch probe engine: consumes probes, keeps best next hops."""

    def __init__(self, booster_name: str, name: str,
                 entry_ttl_s: float = 0.5, hysteresis: float = 0.02):
        super().__init__(booster_name, name,
                         ResourceVector(stages=2, sram_mb=0.1, alus=4))
        self.entry_ttl_s = entry_ttl_s
        self.hysteresis = hysteresis
        self.best: Dict[str, BestPathEntry] = {}
        self.probes_processed = 0

    # ------------------------------------------------------------------
    def process_enabled(self, switch: ProgrammableSwitch,
                        packet: Packet) -> ProgramResult:
        if packet.kind != PacketKind.PROBE:
            return None
        headers = packet.headers
        origin = headers["origin"]
        self.probes_processed += 1
        if origin == switch.name:
            return Consume()
        sender = headers["sender"]
        walked = headers["path"]
        if switch.name in walked:
            return Consume()  # probe loop; kill it

        # The probe came *from* ``sender``; data toward the origin would
        # leave over our link *to* it.
        link = switch.links.get(sender)
        if link is None:
            return Consume()
        candidate = max(headers["max_util"], link.utilization)

        now = switch.sim.now
        entry = self.best.get(origin)
        should_update = (
            entry is None
            or now - entry.updated_at > self.entry_ttl_s
            or entry.next_hop == sender  # refresh from current best path
            or candidate < entry.utilization - self.hysteresis)
        if should_update:
            self.best[origin] = BestPathEntry(
                utilization=candidate, next_hop=sender,
                updated_at=now, hops=len(walked))
            scope = headers.get("scope", 0)
            if scope > 0:
                self._reflood(switch, origin, candidate,
                              walked + [switch.name], scope - 1, skip=sender)
        return Consume()

    def _reflood(self, switch: ProgrammableSwitch, origin: str,
                 max_util: float, walked: List[str], scope: int,
                 skip: str) -> None:
        for neighbor, link in switch.links.items():
            if neighbor == skip or neighbor in walked:
                continue
            if not isinstance(link.dst, ProgrammableSwitch):
                continue
            probe = Packet(
                src=switch.name, dst=neighbor, size_bytes=64,
                kind=PacketKind.PROBE, proto=Protocol.UDP,
                headers={"origin": origin, "sender": switch.name,
                         "max_util": max_util, "path": list(walked),
                         "scope": scope})
            probe.created_at = switch.sim.now
            link.send(probe)

    # ------------------------------------------------------------------
    def next_hop_toward(self, origin: str,
                        now: float) -> Optional[BestPathEntry]:
        entry = self.best.get(origin)
        if entry is None or now - entry.updated_at > self.entry_ttl_s:
            return None
        return entry

    def export_state(self) -> Dict:
        return {"best": {origin: (e.utilization, e.next_hop, e.updated_at,
                                  e.hops)
                         for origin, e in self.best.items()}}

    def import_state(self, state: Dict) -> None:
        for origin, (util, nxt, at, hops) in state.get("best", {}).items():
            self.best[origin] = BestPathEntry(util, nxt, at, hops)


def _worst_utilization(topo, link_keys: Iterable[LinkKey]) -> float:
    """Highest utilization along ``link_keys``; ``inf`` when one of the
    links no longer exists (failed or removed)."""
    links = topo.links
    worst = 0.0
    for key in link_keys:
        link = links.get(key)
        if link is None:
            return math.inf
        worst = max(worst, link.utilization)
    return worst


class CongestionRerouteBooster(Booster):
    """The rerouting defense: probes plus the flow-steering runtime."""

    name = "reroute"
    attack_types = (ATTACK_TYPE,)

    def __init__(self, fluid: Optional[FluidNetwork] = None,
                 protected_gateways: Optional[List[str]] = None,
                 probe_period_s: float = 0.05,
                 probe_scope: int = 8,
                 reroute_period_s: float = 0.05,
                 entry_ttl_s: float = 0.5,
                 pin_normal: bool = True,
                 improvement_margin: float = 0.15,
                 re_steer_threshold: float = 0.95):
        self.fluid = fluid
        #: Switches that originate probes — the gateways of protected
        #: destination prefixes (e.g. ``sR`` in the Figure 2 network).
        self.protected_gateways = list(protected_gateways or [])
        self.probe_period_s = probe_period_s
        self.probe_scope = probe_scope
        self.reroute_period_s = reroute_period_s
        self.entry_ttl_s = entry_ttl_s
        self.pin_normal = pin_normal
        #: A steered flow only moves again if its current path's worst
        #: utilization reaches ``re_steer_threshold`` and the candidate
        #: beats it by ``improvement_margin`` — Hula-style stickiness
        #: that prevents the herd from oscillating between two equally
        #: attractive detours.
        self.improvement_margin = improvement_margin
        self.re_steer_threshold = re_steer_threshold
        self.programs: Dict[str, HulaProbeProgram] = {}
        self.reroutes_applied = 0
        self._original_paths: Dict[int, Path] = {}
        self._deployment = None

    # ------------------------------------------------------------------
    def dataflow(self) -> DataflowGraph:
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(
            self.name, "parser",
            base=("src", "dst", "proto", "sport", "dport"),
            custom=("origin", "max_util", "path")))
        graph.add_ppm(logic_ppm(
            self.name, "probe_engine", PpmRole.MITIGATION,
            ResourceVector(stages=2, sram_mb=0.1, alus=4),
            factory=self._make_program))
        graph.add_ppm(logic_ppm(
            self.name, "path_table", PpmRole.MITIGATION,
            ResourceVector(stages=1, sram_mb=0.2, alus=2)))
        graph.add_edge("parser", "probe_engine", weight=48)
        graph.add_edge("probe_engine", "path_table", weight=16)
        return graph

    def _make_program(self, switch: ProgrammableSwitch) -> HulaProbeProgram:
        program = HulaProbeProgram(self.name, f"{self.name}.probe_engine",
                                   entry_ttl_s=self.entry_ttl_s)
        self.programs[switch.name] = program
        return program

    # ------------------------------------------------------------------
    def on_deployed(self, deployment) -> None:
        self._deployment = deployment
        sim = deployment.topo.sim
        for gateway in self.protected_gateways:
            sim.every(self.probe_period_s, self._originate_probes,
                      deployment, gateway, start=self.probe_period_s)
        if self.fluid is not None:
            sim.every(self.reroute_period_s, self._steer_flows, deployment,
                      start=self.reroute_period_s)

    def _active(self, deployment) -> bool:
        in_mode = deployment.bus.switches_in_mode(ATTACK_TYPE,
                                                  MITIGATION_MODE)
        return bool(in_mode)

    def _originate_probes(self, deployment, gateway: str) -> None:
        """The protected gateway floods fresh probes while mitigating."""
        if not self._active(deployment):
            return
        switch = deployment.topo.switch(gateway)
        if switch.reconfiguring:
            return
        for neighbor, link in switch.links.items():
            if not isinstance(link.dst, ProgrammableSwitch):
                continue
            probe = Packet(
                src=gateway, dst=neighbor, size_bytes=64,
                kind=PacketKind.PROBE, proto=Protocol.UDP,
                headers={"origin": gateway, "sender": gateway,
                         "max_util": 0.0, "path": [gateway],
                         "scope": self.probe_scope})
            probe.created_at = switch.sim.now
            link.send(probe)

    # ------------------------------------------------------------------
    # Flow steering (the fluid-model face of hop-by-hop forwarding)
    # ------------------------------------------------------------------
    def _steer_flows(self, deployment) -> None:
        if not self._active(deployment):
            if self._original_paths:
                self._restore_paths(deployment)
            return
        now = deployment.topo.sim.now
        for flow in self.fluid.flows:
            if not flow.active(now):
                continue
            if flow.suspicious or not self.pin_normal:
                self._steer_one(deployment, flow, now)

    def _steer_one(self, deployment, flow, now: float) -> None:
        topo = deployment.topo
        dst_host = topo.host(flow.dst)
        origin = dst_host.gateway
        if origin not in self.protected_gateways:
            return
        src_host = topo.host(flow.src)
        new_path = self._walk(topo, src_host.gateway, origin, now)
        if new_path is None:
            return
        nodes = [flow.src] + new_path + [flow.dst]
        if flow.path is not None and tuple(nodes) == flow.path.nodes:
            return
        candidate_util = _worst_utilization(topo, zip(nodes, nodes[1:]))
        if candidate_util == math.inf:
            return  # stale probe state: the walk crosses a failed link
        already_steered = flow.flow_id in self._original_paths
        if already_steered and flow.path is not None:
            # Stickiness: once on a detour, a flow only moves again when
            # its current path is itself congested AND the candidate is
            # clearly better.  Continuously chasing the emptiest path
            # would make the whole steered herd oscillate between
            # equally attractive detours.  A failed link on the current
            # path counts as infinitely congested, forcing a re-steer.
            current_util = _worst_utilization(topo, flow.path.link_keys)
            if current_util < self.re_steer_threshold:
                return
            if candidate_util > current_util - self.improvement_margin:
                return
        if not already_steered and flow.path is not None:
            self._original_paths[flow.flow_id] = flow.path
        new = Path.of(nodes)
        flow.set_path(new)
        # Mirror the steering into per-pair forwarding state so packet
        # traffic of this pair (including traceroutes) follows the detour.
        install_flow_route(topo, new)
        self.reroutes_applied += 1
        _C_REROUTES.inc()
        if _TRACE.enabled:
            _TRACE.emit("mitigation", sim_time=now, booster=self.name,
                        action="reroute", flow_id=flow.flow_id,
                        suspicious=flow.suspicious,
                        path=list(new.nodes))

    def _walk(self, topo, start: str, origin: str,
              now: float) -> Optional[List[str]]:
        """Follow the distributed next-hop tables from ``start`` to the
        probe origin — what hop-by-hop forwarding would do."""
        path = [start]
        current = start
        # switch_names sorts on every access; hoist the hop budget.
        max_hops = len(topo.switch_names) + 1
        while current != origin:
            program = self.programs.get(current)
            if program is None:
                return None
            entry = program.next_hop_toward(origin, now)
            if entry is None or entry.next_hop in path:
                return None
            path.append(entry.next_hop)
            current = entry.next_hop
            if len(path) > max_hops:
                return None
        return path

    def _restore_paths(self, deployment) -> None:
        """Mode is back to default: return every steered flow to its
        original TE path."""
        for flow in self.fluid.flows:
            original = self._original_paths.pop(flow.flow_id, None)
            if original is not None:
                flow.set_path(original)
                install_flow_route(deployment.topo, original)
                _C_PATHS_RESTORED.inc()
        self._original_paths.clear()
