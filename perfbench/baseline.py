"""Record a baseline: every workload at several seeds, with provenance.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1] [--out FILE]

Runs ``run.py`` once per workload and seed with tracing off, and once per
workload with tracing on, then writes per metric the median, quartiles,
sample count and spread (interquartile distance over the median, the
figure each end-to-end ``bound`` in BENCHMARK.json is compared with).
Provenance covers the machine, the library versions, the thread caps, the
git commit and the seeds.  Without ``--out`` the result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import run


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its result line plus how long the run took."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def provenance(seeds: list[int], seconds: int) -> dict:
    env = run.worker_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "thread_caps": {k: v for k, v in env.items() if k.endswith("_THREADS")},
        "git_commit": git_commit(),
        "seeds": seeds,
        "run_seconds": seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.workloads.WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    chosen = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"provenance": provenance(seeds, seconds), "workloads": {}}
    for w in spec["workloads"]:
        if w["name"] not in chosen:
            continue
        runs = [run_once(w["name"], seed, seconds, 0) for seed in seeds]
        traced = run_once(w["name"], seeds[0], seconds, 1)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"], **summary(values)
            }
            print(
                f"{w['name']:15s} {m['name']:12s} median {metrics[m['name']]['median']:10.4f} "
                f"spread {metrics[m['name']]['spread']:.3f} (bound {m['bound']})",
                file=sys.stderr,
            )
        report["workloads"][w["name"]] = {
            "why": w["why"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": [r["elapsed_s"] for r in runs],
            "traced_run_elapsed_s": traced["elapsed_s"],
            "end_to_end": metrics,
            "per_layer": {
                name: {"value": v["value"], "unit": v["unit"]}
                for name, v in traced["metrics"].items()
            },
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
