"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--job run|trace|import|reference]

Every job times ``import udwrm`` (set-up) and writes ``result.json`` into
DIR.  ``run`` then times the workload's job (wall, and each part of it) and
adds the peak resident set and the status of every command; ``trace`` does the same with
the package's public callables wrapped and writes the spans to
``spans.jsonl``.  ``reference`` computes the independent references the
verifier needs (the ``q-sweep`` part only); ``import`` stops after the import.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--job", choices=("run", "trace", "import", "reference"), default="run")
    args = parser.parse_args()

    start = time.perf_counter()
    import udwrm  # noqa: F401  (the set-up being timed)

    result = {"setup_s": time.perf_counter() - start}
    if args.job in ("run", "trace"):
        result.update(run(args))
    elif args.job == "reference":
        import workloads

        result["q_references"] = workloads.q_references()
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def run(args) -> dict:
    import tracing
    import workloads

    import udwrm.cli  # noqa: F401  (loaded before tracing so its names get wrapped)

    parts = workloads.WORKLOADS[args.workload]
    runs = {part: workloads.write_configs(part, args.seed, args.out) for part in parts}
    tracer = None
    if args.job == "trace":
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()

    status, part_wall_s = [], {}
    start = time.perf_counter()
    for part in parts:
        part_start = time.perf_counter()
        if part == "history-sweep":
            status += workloads.history_sweep(args.seed, args.out)
        else:
            status += workloads.run_cli(runs[part])
        part_wall_s[part] = time.perf_counter() - part_start
    wall_s = time.perf_counter() - start

    out = {"wall_s": wall_s, "part_wall_s": part_wall_s, "commands": status}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(os.path.join(args.out, "spans.jsonl"))
        out["trace_missing"] = tracer.missing
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return out


if __name__ == "__main__":
    sys.exit(main())
