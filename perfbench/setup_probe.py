"""One fresh-process set-up of a workload, timed from the inside.

Run by ``run.py`` in a child process, once per set-up sample::

    python3 perfbench/setup_probe.py --workload NAME --seed N --scratch DIR

It times the import of ``repro``, the construction of the workload's
first world or scenario, and one warm-up unit (the workload's unit cut
to a short horizon), then prints ``{"setup_s": seconds}`` as its last
line.  Under ``python -X importtime`` the same run yields the import
breakdown the traced run reports.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def figure3_sweep(seed: int, scratch: Path) -> None:
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec
    for experiment in ("figure3_baseline", "figure3_fastflex"):
        result = run_sweep(SweepSpec(experiment=experiment, seeds=[seed],
                                     base_params={"duration_s": 10.0}))
        if result.errors:
            raise RuntimeError(f"warm-up sweep failed: {result.errors}")


def serve_session(seed: int, scratch: Path) -> None:
    from repro.checkpoint.service import EngineService
    scratch.mkdir(parents=True, exist_ok=True)
    with open(scratch / "setup_stream.jsonl", "w") as stream:
        service = EngineService("figure3_fastflex", seed=seed,
                                duration_s=5.0, step_events=250,
                                stream=stream)
        asyncio.run(service.run())


def shard_churn(seed: int, scratch: Path) -> None:
    from repro.shard import random_scenario, run_sharded
    from workloads import ShardChurn
    params = dict(ShardChurn.SCENARIO)
    # The full-size scenario, cut to one fluid epoch: route precompute,
    # partitioning and region builds are the set-up being measured.
    params["duration_s"] = params["fluid_interval_s"]
    scenario = random_scenario(seed=seed, **params)
    run_sharded(scenario, ShardChurn.REGIONS, workers=1, sync="local")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure3_sweep", "serve_session",
                                 "shard_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    globals()[args.workload](args.seed, Path(args.scratch))
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
