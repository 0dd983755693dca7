"""The end-to-end benchmark: one workload per run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure3_sweep --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` times whole rounds of the workload for ``--seconds``
(at least ``MIN_ROUNDS`` rounds), samples fresh-process set-up
``SETUP_SAMPLES`` times, and reports the end-to-end metrics.
``--trace 1`` runs ``UNTRACED_ROUNDS`` untraced rounds and one traced
round and reports the per-layer metrics, with the tracing overhead.  Either way every output
is checked (``checks.py``), an environment fingerprint is printed and
saved with the result under ``.perfbench/results/``, and the last line
of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_ROUNDS = 3
SETUP_SAMPLES = 5
#: Untraced rounds before the traced one; the fastest is the overhead's
#: base (the first round of a process also pays for warm-up).
UNTRACED_ROUNDS = 2
#: A child set-up sample that takes longer than this has hung.
SETUP_TIMEOUT_S = 60


def git_commit() -> str | None:
    """HEAD's commit when the tree is a git checkout, read from the
    repository files (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), so a
    result traces to the exact code even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(args, config) -> dict:
    from checks import digest
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": git_commit(), "source_sha256": source_digest(),
            "config_sha256": digest(config), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def probe(args, scratch: Path, importtime: bool = False):
    """One fresh-process set-up sample; returns (seconds, stderr)."""
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [str(HERE / "setup_probe.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--scratch", str(scratch)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], \
        proc.stderr


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of this process; for shard_churn plus the
    largest child so far (the region workers: set-up probes run later)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "shard_churn":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024


def timed(args, workload, scratch: Path) -> dict:
    start = time.perf_counter()
    rounds = 0
    longest = 0.0
    while rounds < MIN_ROUNDS or (time.perf_counter() - start + longest
                                  <= args.seconds):
        began = time.perf_counter()
        workload.round()
        longest = max(longest, time.perf_counter() - began)
        rounds += 1
        # The worlds a round leaves in reference cycles must not add to
        # the next round's peak memory.
        gc.collect()
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in workload.end_to_end().items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(args.workload),
                              "unit": "MB"}
    samples = [probe(args, scratch)[0] for _ in range(SETUP_SAMPLES)]
    metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    print(f"rounds: {rounds}; set-up samples: {samples}", file=sys.stderr)
    return metrics


def traced(args, workload, scratch: Path) -> dict:
    from tracing import Tracer, import_breakdown
    untraced = []
    for _ in range(UNTRACED_ROUNDS):
        began = time.perf_counter()
        workload.round()
        untraced.append(time.perf_counter() - began)
        gc.collect()
    untraced_s = min(untraced)
    tracer = Tracer()
    tracer.install()
    try:
        began = time.perf_counter()
        workload.round(tracer)
        traced_s = time.perf_counter() - began
    finally:
        tracer.uninstall()
    metrics = workload.per_layer(tracer)
    _, log = probe(args, scratch, importtime=True)
    metrics["import.repro_s"], metrics["import.third_party_s"] = \
        import_breakdown(log)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    OUT.mkdir(exist_ok=True)
    spans = tracer.write(OUT / f"spans-{args.workload}.bin")
    metrics["trace.spans"] = spans
    print(f"untraced round {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"{spans} spans", file=sys.stderr)
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_kb"):
        return "KB"
    if name.endswith(("_ratio", "_imbalance")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure3_sweep", "serve_session",
                                 "shard_churn"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import PRELOAD
    from workloads import WORKLOADS, FluidCapture
    # Import every module the tracer patches in both modes, so the
    # registry holds the same metric families with and without tracing.
    for module in PRELOAD:
        importlib.import_module(module)

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch,
                                            FluidCapture())
        run = traced if args.trace else timed
        metrics = run(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = fingerprint(args, workload.config())
    for error in workload.errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if getattr(workload, "fault_goodput", None):
        single, local = workload.fault_goodput
        print(f"known fault: local sync normal goodput {local / 1e9:.3f} "
              f"Gbps vs run_single {single / 1e9:.3f} Gbps at the end of "
              f"the attack", file=sys.stderr)
    result = {"correct": not workload.errors,
              "attempted": workload.attempted, "failed": workload.failed,
              "metrics": metrics}
    details = {name: {"value": value, "unit": unit}
               for name, (value, unit) in workload.details().items()}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    record.write_text(json.dumps({"env": env, "result": result,
                                  "details": details},
                                 indent=2, sort_keys=True) + "\n")
    print("details: " + json.dumps(details, sort_keys=True))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
