"""Negative tests of the benchmark's output checkers: each checker
accepts a correct output and rejects a perturbed one.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (FlowRate, check_allocation, check_equal_bytes,  # noqa: E402
                    check_figure3_claim, check_same, check_serve_stream,
                    check_sweep_aggregates, check_unit_interval,
                    compare_shard)

A, B = ("x", "y"), ("y", "z")
CAPACITIES = {A: 10.0, B: 4.0}


def allocation(f1=7.0, f2=3.0, f3=1.0):
    """Max-min on A (cap 10) and B (cap 4): f3 is demand-limited at 1,
    f2 takes the rest of B (3), f1 the rest of A (7)."""
    return [FlowRate(1, (A,), 100.0, 1.0, True, f1),
            FlowRate(2, (A, B), 100.0, 1.0, True, f2),
            FlowRate(3, (B,), 1.0, 1.0, True, f3)]


class AllocationChecks(unittest.TestCase):
    def test_accepts_the_max_min_allocation(self):
        self.assertEqual(check_allocation(allocation(), CAPACITIES), [])

    def test_rejects_an_overloaded_link(self):
        errors = check_allocation(allocation(f1=8.0), CAPACITIES)
        self.assertTrue(any("exceeds" in e for e in errors), errors)

    def test_rejects_a_flow_held_below_an_unsaturated_link(self):
        errors = check_allocation(allocation(f1=6.0), CAPACITIES)
        self.assertTrue(any("flow 1" in e and "below demand" in e
                            for e in errors), errors)

    def test_rejects_a_flow_that_is_not_the_largest_on_its_bottleneck(self):
        # A saturated (8 + 2) but f2's share there is smaller than f1's,
        # and B (2 + 1 of 4) is not saturated: f2 has no bottleneck.
        errors = check_allocation(allocation(f1=8.0, f2=2.0), CAPACITIES)
        self.assertTrue(any("flow 2" in e for e in errors), errors)

    def test_rejects_a_rate_above_demand(self):
        errors = check_allocation(allocation(f2=2.5, f3=1.5), CAPACITIES)
        self.assertTrue(any("flow 3" in e and "outside" in e
                            for e in errors), errors)

    def test_rejects_a_rate_on_a_dead_path(self):
        flows = allocation() + [FlowRate(4, (("x", "gone"),), 5.0, 1.0,
                                         True, 1.0)]
        errors = check_allocation(flows, CAPACITIES)
        self.assertTrue(any("no live path" in e for e in errors), errors)

    def test_inelastic_overload_leaves_elastic_flows_nothing(self):
        flows = [FlowRate(1, (A,), 12.0, 1.0, False, 12.0),
                 FlowRate(2, (A,), 5.0, 1.0, True, 0.0)]
        self.assertEqual(check_allocation(flows, CAPACITIES), [])
        flows[1] = FlowRate(2, (A,), 5.0, 1.0, True, 0.5)
        self.assertTrue(check_allocation(flows, CAPACITIES))

    def test_weighted_shares(self):
        # Weight 3 vs 1 on one link of capacity 10: rates 7.5 and 2.5.
        flows = [FlowRate(1, (A,), 100.0, 3.0, True, 7.5),
                 FlowRate(2, (A,), 100.0, 1.0, True, 2.5)]
        self.assertEqual(check_allocation(flows, {A: 10.0}), [])
        flows = [FlowRate(1, (A,), 100.0, 3.0, True, 5.0),
                 FlowRate(2, (A,), 100.0, 1.0, True, 5.0)]
        self.assertTrue(check_allocation(flows, {A: 10.0}))

    def test_agrees_with_the_program_allocator(self):
        from repro.netsim.engine import Simulator
        from repro.netsim.flows import make_flow
        from repro.netsim.fluid import max_min_allocate
        from repro.netsim.routing import shortest_path
        from repro.netsim.topology import random_topology
        rng = random.Random(5)
        topo = random_topology(Simulator(seed=5), 12, 16, extra_edges=6,
                               link_capacity=1e9, seed=5)
        hosts = sorted(topo.host_names)
        flows = []
        for i in range(40):
            src, dst = rng.sample(hosts, 2)
            flow = make_flow(src, dst, rng.choice((1e8, 4e8, 2e9)),
                             sport=i, weight=rng.choice((1.0, 2.0, 5.0)))
            flow.set_path(shortest_path(topo, src, dst))
            flows.append(flow)
        result = max_min_allocate(topo, flows)
        views = [FlowRate(f.flow_id, f.path_links(), f.effective_demand_bps,
                          f.weight, f.elastic, result.rates[f.flow_id])
                 for f in flows]
        capacities = {k: link.capacity_bps for k, link in topo.links.items()}
        self.assertEqual(check_allocation(views, capacities), [])
        worst = max(views, key=lambda v: v.rate)
        views[views.index(worst)] = FlowRate(
            worst.flow_id, worst.links, worst.demand, worst.weight,
            worst.elastic, worst.rate * 0.9)
        self.assertTrue(check_allocation(views, capacities))


class SeriesAndClaimChecks(unittest.TestCase):
    def test_unit_interval(self):
        self.assertEqual(check_unit_interval([(0.0, 0.0), (0.5, 1.0)], "s"),
                         [])
        self.assertTrue(check_unit_interval([(0.0, 0.5), (0.5, 1.2)], "s"))
        self.assertTrue(check_unit_interval([(0.0, -0.01)], "s"))

    def test_figure3_claim(self):
        base = {"baseline_mean_during_attack": 0.6,
                "baseline_attacker_rolls": 3}
        ff = {"fastflex_mean_during_attack": 1.0,
              "fastflex_attacker_rolls": 0}
        self.assertEqual(check_figure3_claim(base, ff, "s"), [])
        self.assertTrue(check_figure3_claim(
            base, dict(ff, fastflex_mean_during_attack=0.6), "s"))
        self.assertTrue(check_figure3_claim(
            base, dict(ff, fastflex_attacker_rolls=1), "s"))
        self.assertTrue(check_figure3_claim(
            dict(base, baseline_attacker_rolls=0), ff, "s"))

    def test_repeats_must_match(self):
        self.assertEqual(check_same(["a", "a", "a"], "u"), [])
        self.assertTrue(check_same(["a", "b", "a"], "u"))


class SweepAggregateChecks(unittest.TestCase):
    def records(self):
        rng = random.Random(3)
        records = []
        for seed in range(4):
            records.append({
                "task_id": f"t{seed}", "group": "g", "params": {},
                "logical_seed": seed,
                "result": {"scalars": {"m": rng.random() / 3},
                           "series": {"s": [[0.0, rng.random()],
                                            [0.5, rng.random()]]}}})
        return records

    def test_accepts_the_program_aggregates_and_rejects_a_perturbed_one(self):
        from repro.sweep.aggregate import aggregate_records
        records = self.records()
        aggregates = aggregate_records(records)
        self.assertEqual(check_sweep_aggregates(aggregates, records), [])
        scalar = aggregates["g"]["scalars"]["m"]
        scalar["mean"] = math.nextafter(scalar["mean"], 1.0)
        self.assertTrue(check_sweep_aggregates(aggregates, records))

    def test_rejects_a_perturbed_series_point(self):
        from repro.sweep.aggregate import aggregate_records
        records = self.records()
        aggregates = aggregate_records(records)
        aggregates["g"]["series"]["s"][1]["max"] += 1e-12
        self.assertTrue(check_sweep_aggregates(aggregates, records))


class ServeChecks(unittest.TestCase):
    def stream(self):
        return [{"kind": "service_heartbeat", "sim_time": 0.0},
                {"kind": "service_ack", "op": "attach-attack", "ok": True},
                {"kind": "service_heartbeat", "sim_time": 1.0},
                {"kind": "service_heartbeat", "sim_time": 2.0},
                {"kind": "service_end", "sim_time": 2.0}]

    def test_accepts_a_clean_session(self):
        self.assertEqual(check_serve_stream(self.stream(), 1), [])

    def test_rejects_a_failed_ack(self):
        records = self.stream()
        records[1] = dict(records[1], ok=False, error="boom")
        self.assertTrue(check_serve_stream(records, 1))

    def test_rejects_a_missing_ack(self):
        self.assertTrue(check_serve_stream(self.stream(), 2))

    def test_rejects_a_heartbeat_going_back(self):
        records = self.stream()
        records[3] = dict(records[3], sim_time=0.5)
        self.assertTrue(check_serve_stream(records, 1))

    def test_restored_output_must_match(self):
        self.assertEqual(check_equal_bytes(b"r", b"r", "report"), [])
        self.assertTrue(check_equal_bytes(b"r", b"r ", "report"))


class ShardChecks(unittest.TestCase):
    def single(self):
        return {"flows": [[1e9, 9e8, 1e7, 0.1], [5e8, 5e8, 2e6, 0.0]],
                "samples": [[0.5, 1.4e9, 0.0], [1.0, 1.3e9, 2e8]]}

    def test_accepts_a_match_within_tolerance(self):
        sharded = self.single()
        sharded["flows"][0][0] *= 1 + 1e-15
        worst, errors = compare_shard(self.single(), sharded)
        self.assertEqual(errors, [])
        self.assertLess(worst, 1e-14)

    def test_rejects_a_perturbed_flow_and_sample(self):
        sharded = self.single()
        sharded["flows"][1][1] *= 1 + 1e-6
        sharded["samples"][0][1] *= 0.5
        worst, errors = compare_shard(self.single(), sharded)
        self.assertEqual(len(errors), 2)
        self.assertGreater(worst, 0.4)


if __name__ == "__main__":
    unittest.main()
