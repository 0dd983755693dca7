"""Settled-epoch commit equivalence: ``FluidNetwork.update`` against a
full-commit oracle, bit for bit.

``FluidNetwork.update`` reuses the last allocation when its inputs did
not change, and its commit skips every per-flow and per-link write that
is provably a no-op (a *settled* epoch, DESIGN.md "Incremental fluid
allocator", layer 4).  The oracle below does neither: every epoch it
re-runs ``max_min_allocate`` on the active flows and re-derives every
rate, loss, goodput, delivered byte count and link load from scratch.

Each scenario is built twice from one seed — once on the real network,
once on the oracle — and both simulators are stepped one event at a
time.  Between events every flow output and every link load must have
the same bit pattern in both worlds.  Scenarios mix elastic and
inelastic flows, staggered starts and ends, mid-run reroutes (including
to no path), demand and policing changes, flows added and removed,
``set_capacity``, ``remove_link``, shard-style ``rate_pins`` /
``loss_pins`` updates, and one checkpoint round-trip of the real world.
"""

import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.netsim import (FlowSet, FluidNetwork, Simulator,
                          k_shortest_paths, make_flow, max_min_allocate,
                          random_topology, shortest_path)
from repro.netsim.flows import Flow
from repro.netsim.routing import NoRouteError
from repro.netsim.topology import Topology

HORIZON_S = 3.0
MUTATIONS = ("reroute", "demand", "police", "capacity", "remove_link",
             "pins", "unpin", "end", "add", "remove_flow")


class OracleFluid:
    """Test-side twin of :class:`FluidNetwork`: a fresh allocation and
    the full commit every epoch, with no caches of any kind."""

    def __init__(self, topo: Topology, flows: FlowSet,
                 update_interval: float, tcp_tau: float):
        self.topo = topo
        self.sim = topo.sim
        self.flows = flows
        self.update_interval = update_interval
        self.tcp_tau = tcp_tau
        self.rate_pins: dict = {}
        self.loss_pins: dict = {}
        self._last_update: Optional[float] = None

    def start(self) -> None:
        self.sim.every(self.update_interval, self.update)

    def update(self) -> None:
        now = self.sim.now
        dt = 0.0 if self._last_update is None else now - self._last_update
        self._last_update = now
        result = max_min_allocate(self.topo, self.flows.active(now))
        alpha = (1.0 if self.tcp_tau <= 0 or dt <= 0
                 else 1.0 - math.exp(-dt / self.tcp_tau))
        load = {key: 0.0 for key in self.topo.links}
        for flow in self.flows:
            if not flow.active(now):
                flow.rate_bps = flow.goodput_bps = flow.loss_rate = 0.0
                continue
            links = flow.path_links()
            if links is not None and any(key not in load for key in links):
                flow.rate_bps = flow.goodput_bps = 0.0
                flow.loss_rate = 1.0
                continue
            pinned = self.rate_pins.get(flow.flow_id)
            target = (pinned if pinned is not None
                      else result.rates.get(flow.flow_id, 0.0))
            if flow.elastic:
                rate = flow.rate_bps + (target - flow.rate_bps) * alpha
            else:
                rate = target
            flow.rate_bps = rate
            survival = 1.0
            for key in links or ():
                load[key] += rate
                survival *= 1.0 - result.link_loss.get(key, 0.0)
            for loss in self.loss_pins.get(flow.flow_id, ()):
                survival *= 1.0 - loss
            flow.loss_rate = 1.0 - survival
            flow.goodput_bps = rate * survival
            flow.bytes_delivered = (flow.bytes_delivered
                                    + flow.goodput_bps * dt / 8.0)
        for key, link in self.topo.links.items():
            link.fluid_load_bps = load[key]


@dataclass
class World:
    sim: Simulator
    topo: Topology
    flows: FlowSet
    fluid: object
    #: Every flow ever registered, in creation order (mutation targets).
    flow_list: List[Flow]
    #: The fluid model's epoch times (see :func:`epoch_times`).
    grid: List[float]


def epoch_times(interval: float) -> List[float]:
    """The update times of a fluid model started at 0 (the engine
    reschedules by repeated addition), so that flows can start and end
    exactly on an epoch."""
    times, t = [], 0.0
    while t <= HORIZON_S:
        times.append(t)
        t = t + interval
    return times


def _pick_time(rng: random.Random, grid: List[float],
               after: float) -> float:
    """A time after ``after``; half the time exactly on an epoch."""
    later = [t for t in grid if t > after]
    if later and rng.random() < 0.5:
        return rng.choice(later)
    return after + rng.uniform(0.0, HORIZON_S / 2)


def _random_flow(rng: random.Random, topo: Topology, grid: List[float],
                 start: float, sport: int) -> Flow:
    src, dst = rng.sample(topo.host_names, 2)
    elastic = rng.random() > 0.3
    end = None if rng.random() < 0.6 else _pick_time(rng, grid, start)
    flow = make_flow(src, dst, rng.uniform(5e7, 3e9),
                     weight=rng.choice([1.0, 2.5, 40.0]),
                     elastic=elastic, start_time=start, end_time=end,
                     sport=sport)
    try:
        flow.set_path(shortest_path(topo, src, dst))
    except NoRouteError:  # a removed link cut the pair apart
        pass
    return flow


def build(seed: int, oracle: bool) -> World:
    """One scenario world; the same ``seed`` gives the same world and
    the same mutation schedule whichever fluid model runs it."""
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    topo = random_topology(sim, n_switches=7, n_hosts=8, extra_edges=4,
                           link_capacity=2e9, seed=seed)
    interval = rng.choice([0.01, 0.007, 0.013])
    tau = rng.choice([0.05, 0.02, 0.0])
    grid = epoch_times(interval)
    flows = FlowSet()
    world_flows = []
    for index in range(rng.randint(4, 12)):
        start = 0.0 if rng.random() < 0.6 else _pick_time(rng, grid, 0.0)
        world_flows.append(flows.add(
            _random_flow(rng, topo, grid, start, 1000 + index)))
    fluid_cls = OracleFluid if oracle else FluidNetwork
    fluid = fluid_cls(topo, flows, update_interval=interval, tcp_tau=tau)
    world = World(sim, topo, flows, fluid, world_flows, grid)
    for _ in range(rng.randint(3, 10)):
        sim.schedule_at(rng.uniform(0.0, HORIZON_S), mutate, world,
                        rng.choice(MUTATIONS), rng.randrange(2 ** 32))
    fluid.start()
    return world


def mutate(world: World, kind: str, seed: int) -> None:
    """One scheduled mutation; choices read only world state, so both
    twins make the same ones."""
    rng = random.Random(seed)
    topo = world.topo
    flow = rng.choice(world.flow_list)
    now = world.sim.now
    if kind == "reroute":
        try:
            paths = k_shortest_paths(topo, flow.src, flow.dst, 3)
        except NoRouteError:
            paths = []
        flow.set_path(rng.choice(paths + [None]))
    elif kind == "demand":
        flow.demand_bps = rng.uniform(1e7, 4e9)
    elif kind == "police":
        flow.police_rate_bps = rng.choice([None, rng.uniform(1e7, 1e9)])
    elif kind == "capacity":
        key = rng.choice(sorted(topo.links))
        topo.links[key].set_capacity(rng.uniform(2e8, 4e9))
    elif kind == "remove_link":
        key = rng.choice(sorted(topo.links))
        topo.remove_link(*key)
    elif kind == "pins":
        fid = flow.flow_id
        world.fluid.rate_pins[fid] = rng.uniform(0.0, 2e9)
        links = flow.path_links() or ()
        world.fluid.loss_pins[fid] = tuple(rng.choice([0.0, 0.1, 0.5])
                                           for _ in links)
    elif kind == "unpin":
        world.fluid.rate_pins.pop(flow.flow_id, None)
        world.fluid.loss_pins.pop(flow.flow_id, None)
    elif kind == "end":
        flow.end_time = rng.choice([now, _pick_time(rng, world.grid, now)])
    elif kind == "add":
        start = rng.choice([now, _pick_time(rng, world.grid, now)])
        new = _random_flow(rng, topo, world.grid, start,
                           2000 + len(world.flow_list))
        world.flow_list.append(world.flows.add(new))
    elif kind == "remove_flow":
        world.flows.remove(flow)


def outputs(world: World):
    """Every fluid output, as exact bit patterns."""
    flows = [tuple(float.hex(value) for value in
                   (f.rate_bps, f.goodput_bps, f.loss_rate,
                    f.bytes_delivered))
             for f in world.flow_list]
    links = [(key, float.hex(link.fluid_load_bps))
             for key, link in world.topo.links.items()]
    return flows, links


def checkpoint_round_trip(world: World, directory: str) -> World:
    path = FsPath(directory) / "commit.ckpt"
    world.sim.snapshot(path, state=world)
    _sim, restored, _meta = Simulator.restore(path)
    return restored


def run_lockstep(seed: int, checkpoint_at: int) -> dict:
    """Step both twins to the horizon, comparing after every event;
    returns how many real epochs took the settled early exit."""
    real = build(seed, oracle=False)
    oracle = build(seed, oracle=True)
    counts = {"settled": 0, "full": 0}
    step = 0
    with tempfile.TemporaryDirectory() as directory:
        while real.sim.now <= HORIZON_S:
            if step == checkpoint_at:
                real = checkpoint_round_trip(real, directory)
            record = real.fluid._settled_goodput
            updates = real.fluid.updates
            assert real.sim.step() == oracle.sim.step()
            assert real.sim.now == oracle.sim.now
            if real.fluid.updates != updates:
                settled = (real.fluid._settled_result is not None
                           and real.fluid._settled_goodput is record)
                counts["settled" if settled else "full"] += 1
            assert outputs(real) == outputs(oracle), (
                f"seed {seed}: diverged at t={real.sim.now} "
                f"(event {step})")
            step += 1
    return counts


def test_settled_epochs_match_oracle_and_occur():
    counts = run_lockstep(seed=7, checkpoint_at=150)
    # The comparison is only meaningful if both commit kinds ran.
    assert counts["settled"] > 50
    assert counts["full"] > 10


def test_checkpoint_before_first_epoch():
    run_lockstep(seed=3, checkpoint_at=0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       checkpoint_at=st.integers(0, 400))
def test_commit_matches_oracle(seed, checkpoint_at):
    run_lockstep(seed, checkpoint_at)
