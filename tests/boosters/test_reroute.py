"""Tests for the Hula-style congestion-aware rerouting booster."""


from repro.boosters import CongestionRerouteBooster, HulaProbeProgram
from repro.experiments.figure3 import (Figure3Config, advance_world,
                                       build_world, fail_link,
                                       finish_world)
from repro.netsim import Packet, PacketKind, Protocol
from tests.boosters.test_lfa_detector import (add_bot_flood,
                                              attacked_deployment)


def install_probe_engines(fig2):
    programs = {}
    for name in fig2.topo.switch_names:
        program = HulaProbeProgram("reroute", "reroute.probe_engine")
        fig2.topo.switch(name).install_program(program)
        programs[name] = program
    return programs


def send_probe_round(fig2, sim, origin="sR", scope=8):
    switch = fig2.topo.switch(origin)
    for neighbor, link in switch.links.items():
        if neighbor not in fig2.topo.switch_names:
            continue
        probe = Packet(src=origin, dst=neighbor, size_bytes=64,
                       kind=PacketKind.PROBE, proto=Protocol.UDP,
                       headers={"origin": origin, "sender": origin,
                                "max_util": 0.0, "path": [origin],
                                "scope": scope})
        link.send(probe)
    sim.run(until=sim.now + 0.5)


class TestProbeEngine:
    def test_probes_build_next_hop_tables(self, fig2, sim):
        programs = install_probe_engines(fig2)
        send_probe_round(fig2, sim)
        entry = programs["sL"].next_hop_toward("sR", sim.now)
        assert entry is not None
        assert entry.next_hop in {"s1", "s2", "s3", "s5"}

    def test_probe_prefers_uncongested_path(self, fig2, sim):
        programs = install_probe_engines(fig2)
        # Congest both short paths toward sR.
        for mid in ("s1", "s2"):
            link = fig2.topo.link(mid, "sR")
            link.fluid_load_bps = link.capacity_bps * 0.95
            back = fig2.topo.link("sL", mid)
            back.fluid_load_bps = back.capacity_bps * 0.95
        send_probe_round(fig2, sim)
        entry = programs["sL"].next_hop_toward("sR", sim.now)
        assert entry.next_hop in {"s3", "s5"}
        assert entry.utilization < 0.5

    def test_entries_expire(self, fig2, sim):
        programs = install_probe_engines(fig2)
        send_probe_round(fig2, sim)
        stale_time = sim.now + 10.0
        assert programs["sL"].next_hop_toward("sR", stale_time) is None

    def test_refresh_from_current_best_updates_even_if_worse(self, fig2,
                                                             sim):
        programs = install_probe_engines(fig2)
        send_probe_round(fig2, sim)
        first = programs["sL"].next_hop_toward("sR", sim.now)
        # Congestion appears on the chosen path; the next probe round
        # must raise the recorded utilization (no stale-good stickiness).
        link = fig2.topo.link("sL", first.next_hop)
        link.fluid_load_bps = link.capacity_bps * 0.99
        send_probe_round(fig2, sim)
        second = programs["sL"].next_hop_toward("sR", sim.now)
        assert (second.next_hop != first.next_hop
                or second.utilization > first.utilization)

    def test_probe_loops_are_killed(self, fig2, sim):
        programs = install_probe_engines(fig2)
        # A probe claiming to have visited this switch already must die.
        looped = Packet(src="s1", dst="sL", size_bytes=64,
                        kind=PacketKind.PROBE, proto=Protocol.UDP,
                        headers={"origin": "sR", "sender": "s1",
                                 "max_util": 0.1,
                                 "path": ["sR", "sL", "s1"], "scope": 5})
        fig2.topo.link("s1", "sL").send(looped)
        sim.run(until=sim.now + 0.1)
        assert programs["sL"].next_hop_toward("sR", sim.now) is None

    def test_state_roundtrip(self, fig2, sim):
        programs = install_probe_engines(fig2)
        send_probe_round(fig2, sim)
        clone = HulaProbeProgram("reroute", "clone")
        clone.import_state(programs["sL"].export_state())
        assert clone.best.keys() == programs["sL"].best.keys()


class TestFlowSteering:
    def test_suspicious_steered_normal_pinned(self, fig2_fluid, sim):
        net, fluid, flows, defense, deployment = attacked_deployment(
            fig2_fluid)
        normal_paths = {}

        def snapshot():
            for flow in flows.normal():
                normal_paths[flow.flow_id] = flow.path.nodes

        sim.schedule(1.9, snapshot)
        add_bot_flood(net, fluid)
        sim.run(until=6.0)
        assert defense.reroute.reroutes_applied > 0
        # The flood was pinned through s1; Hula steering must have moved
        # every suspicious flow off the flooded link (where to — the
        # other short path or a detour — is its least-congestion choice).
        flooded = defense.detector.detections[0].link
        for flow in fluid.flows.malicious():
            assert flooded not in flow.path.links(), (
                f"attack flow still on flooded link: {flow.path}")
        for flow in flows.normal():
            assert flow.path.nodes == normal_paths[flow.flow_id]

    def test_reroute_everything_when_pinning_disabled(self, fig2_fluid,
                                                      sim):
        net, fluid, flows = fig2_fluid
        reroute = CongestionRerouteBooster(
            fluid=fluid, protected_gateways=["sR"], pin_normal=False)
        from repro.boosters import build_figure2_defense
        from repro.netsim import install_flow_route
        defense = build_figure2_defense(net, fluid, reroute=reroute)
        deployment = defense.setup(flows)
        for flow in flows:
            install_flow_route(net.topo, flow.path)
        fluid.start()
        add_bot_flood(net, fluid)
        sim.run(until=6.0)
        # The naive variant moves normal flows too (at least is allowed
        # to); every flow should have a live path either way.
        assert all(f.path is not None for f in fluid.flows)
        assert defense.reroute.reroutes_applied > 0

    def test_paths_restored_when_mode_ends(self, fig2_fluid, sim):
        net, fluid, flows, defense, deployment = attacked_deployment(
            fig2_fluid, detector_kwargs={"clear_sustain_s": 0.5})
        add_bot_flood(net, fluid)
        sim.run(until=5.0)
        attack_paths_during = {f.flow_id: f.path.nodes
                               for f in fluid.flows.malicious()}
        now = sim.now
        for flow in fluid.flows.malicious():
            flow.end_time = now
        sim.run(until=10.0)
        assert not defense.mitigation_active()
        assert defense.reroute._original_paths == {}
        # Malicious flows ended; normal flows sit on their TE paths.
        for flow in flows.normal():
            assert flow.path is not None
        del attack_paths_during

    def test_failed_link_under_steered_flows_forces_re_steer(self):
        # A FastFlex figure3 world under attack has steered the attack
        # flows over s3-s4 by t=25; failing that link must not crash the
        # steering loop, and every steered flow must leave the dead link.
        world = build_world("fastflex",
                            Figure3Config(duration_s=30.0, seed=0))
        advance_world(world, until=25.0)
        dead = {("s3", "s4"), ("s4", "s3")}
        stranded = [f for f in world.flows
                    if f.path is not None
                    and dead.intersection(f.path.link_keys)]
        assert stranded, "scenario no longer routes a flow over s3-s4"
        fail_link(world, "s3", "s4")
        advance_world(world)
        finish_world(world)
        assert world.done
        for flow in stranded:
            assert not dead.intersection(flow.path.link_keys), flow.path
            assert flow.goodput_bps > 0
