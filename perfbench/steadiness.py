"""Is the benchmark steady?  Two sets of runs of the same code, compared.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10

Reads ``BENCHMARK.json`` for the command, run length, workloads and
bounds.  Each of the two sets runs every workload ``--runs`` times, each
time with another seed (set B uses seeds set A did not).  For every
(workload, end-to-end metric) it prints one row: each set's median and
spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), how much worse set B's median is
than set A's, and the verdict against the metric's bound.  Every
metric's median shift must stay within its bound, and every spread
except that of ``setup_s``: set-up is sampled in fresh processes, so its
spread is the machine's start-up noise, and what a later change must not
do is move its median.  The share of failed operations must be
identical across all runs of a workload.  All runs are kept in
``.perfbench/steadiness.json``.  Exit code 0 when every row holds, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
#: Set A runs seeds FIRST_SEED.., set B the next ``--runs`` seeds.
FIRST_SEED = 100


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed):
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    began = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - began
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their "
                           f"checks\n{proc.stderr[-2000:]}")
    return {"seed": seed, "wall_s": elapsed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    runs = {}
    for name in names:
        for set_index, set_name in enumerate("AB"):
            seeds = [FIRST_SEED + set_index * args.runs + i
                     for i in range(args.runs)]
            key = f"{name}/{set_name}"
            runs[key] = []
            for seed in seeds:
                record = run_once(bench, name, seed)
                runs[key].append(record)
                print(f"  {key} seed {seed}: {record['wall_s']:.1f} s "
                      + " ".join(f"{k}={v:.4g}" for k, v in
                                 sorted(record["metrics"].items())),
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<15} {'metric':<12} {'bound':>5} {'median A':>10} "
          f"{'spread A':>8} {'median B':>10} {'spread B':>8} "
          f"{'worse':>7}  verdict")
    for name in names:
        sets = [runs[f"{name}/A"], runs[f"{name}/B"]]
        shares = {Fraction(r["failed"], r["attempted"])
                  for records in sets for r in records}
        if len(shares) != 1:
            ok = False
            print(f"{name:<15} failed share differs between runs: "
                  f"{sorted(map(str, shares))}")
        for metric in metrics:
            label, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][label] for r in records]
                      for records in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            row_ok = worse <= bound and (
                label == "setup_s" or all(s <= bound for s in spreads))
            ok = ok and row_ok
            print(f"{name:<15} {label:<12} {bound:5.2f} "
                  f"{medians[0]:10.4g} {spreads[0]:8.3f} "
                  f"{medians[1]:10.4g} {spreads[1]:8.3f} {worse:7.3f}  "
                  f"{'ok' if row_ok else 'NOT STEADY'}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
