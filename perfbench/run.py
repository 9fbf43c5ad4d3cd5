"""Benchmark for udwrm: time to a verified table, end to end and per module.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory, so nothing needs installing.  Each workload is a batch job in a
closed loop with one client: repetitions run one after another, each in a
fresh interpreter (so each pays ``import udwrm`` as every CLI call does, and
no cache survives between repetitions), until the next one would end past
``--seconds``, but at least twice.  The workloads and their parts are
defined in ``workloads.py``.  BLAS/OpenMP thread pools are capped at the
CPUs this process may use.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median import
time over the repetitions and one more interpreter), ``wall_s``
(median time from the first call into the package to the last output
written) and ``peak_rss_mb`` (median peak resident set of a repetition).
``--trace 1`` runs one untraced and one traced repetition and reports the
per-module metrics from the traced one's spans (``tracing.py``), the wall
time of each part of the workload, the ``python -X importtime`` breakdown of
the import, the tracing overhead and the verification fractions.

Every output row is checked after the clock stops (``verify.py``), and each
table must be byte-identical across repetitions of one seed, including
earlier runs of the same code kept in ``.perfbench_out/digests.json``.  The
last line printed is one JSON object: ``correct``, ``attempted`` and
``failed`` count checked rows, ``metrics`` maps names to value and unit.
Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# interpreters per run that only import (or compute the verifier's
# reference), for more set-up samples than the repetitions give
SETUP_SAMPLES = 1
# repetitions per run, at least
MIN_REPETITIONS = 2
# every interpreter of one workload run must end by then, or it is killed
# and counted as failed, so that the run ends within three minutes
RUN_DEADLINE_S = 165

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

IMPORT_MODULES = ("udwrm", "scipy.stats", "mpmath", "scipy.integrate")

PER_LAYER = {
    "response.q_closed_accelerated.self_s": "s",
    "response.q_closed_accelerated.calls": "count",
    "response.q_direct.self_s": "s",
    "response.q_direct.calls": "count",
    "kernel.value.calls": "count",
    "response.f_fraction.self_s": "s",
    "response.f_fraction.k2.self_s": "s",
    "response.f_fraction.k3.self_s": "s",
    "response.f_fraction.k4.self_s": "s",
    "response.f_fraction.k5.self_s": "s",
    "response.f_fraction.calls": "count",
    "response.f_fraction.misses": "count",
    "response.f_fraction.hit_ratio": "fraction",
    "response.correction_sums.self_s": "s",
    "strings.rm_string_prob.self_s": "s",
    "strings.rm_string_prob.calls": "count",
    "kernel.limit.self_s": "s",
    "kernel.limit.points": "count",
    "schedule.chi_window.self_s": "s",
    "schedule.chi_window.points": "count",
    "combinatorics.enumerate_contraction_classes.self_s": "s",
    "combinatorics.enumerate_contraction_classes.calls": "count",
    "combinatorics.enumerate_contraction_classes.classes": "count",
    "bounds.n_limit.self_s": "s",
    "bounds.loose_bounds.self_s": "s",
    "bounds.loose_bounds.calls": "count",
    "bounds.tight_bounds.self_s": "s",
    "bounds.tight_bounds.calls": "count",
    "bounds.GammaProfile.from_kernel.self_s": "s",
    "oracle.string_distribution.self_s": "s",
    "oracle.exact_string_prob.self_s": "s",
    "oracle.exact_string_prob.calls": "count",
    "oracle.step_unitary.self_s": "s",
    "oracle.step_unitary.calls": "count",
    "oracle.propagator_consistency.self_s": "s",
    "bayes.update_posterior.self_s": "s",
    "bayes.update_posterior.calls": "count",
    "cli.main.self_s": "s",
    **{f"part.{p}.wall_s": "s" for p in workloads.PARTS},
    **{f"import.{m}.s": "s" for m in IMPORT_MODULES},
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
    "verify.fail_frac": "fraction",
    "verify.err_miss_frac": "fraction",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(len(os.sched_getaffinity(0)))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = cap
    return env


def code_hash() -> str:
    """Digest of the package and benchmark sources: outputs of one seed must
    repeat exactly while this is unchanged."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "udwrm"), HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Run:
    """All interpreters started for one workload at one seed."""

    def __init__(self, workload: str, seed: int, env: dict) -> None:
        self.workload, self.seed, self.env = workload, seed, env
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.count = 0
        self.outcome = verify.Outcome()
        self.setup_s: list[float] = []
        self.refs = None
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.has_q_sweep = "q-sweep" in workloads.WORKLOADS[workload]

    def spawn(self, job: str) -> dict:
        """One worker interpreter; returns its result, with ``failure`` set
        if it crashed or timed out."""
        self.count += 1
        rep_dir = os.path.join(self.dir, f"{self.count}-{job}")
        os.makedirs(rep_dir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload]
        cmd += ["--seed", str(self.seed), "--out", rep_dir, "--job", job]
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()), check=False,
            )
            failure = proc.stderr[-2000:] if proc.returncode != 0 else None
        except subprocess.TimeoutExpired:
            failure = f"{job} interpreter still running {RUN_DEADLINE_S} s into the run"
        if failure is not None:
            return {"failure": failure, "dir": rep_dir}
        with open(os.path.join(rep_dir, "result.json")) as fh:
            result = json.load(fh)
        self.setup_s.append(result["setup_s"])
        self.refs = result.get("q_references", self.refs)
        result["dir"] = rep_dir
        return result

    def extra_interpreters(self, count: int) -> None:
        """Import-only interpreters for more set-up samples; where the
        workload has the ``q-sweep`` part, the first one computes the
        verifier's reference instead."""
        for i in range(count):
            job = "reference" if i == 0 and self.has_q_sweep else "import"
            result = self.spawn(job)
            if "failure" in result:
                self.outcome.note(f"{job} interpreter failed: {result['failure']}")

    def check(self, results: list[dict]) -> None:
        """Verify every repetition's rows, then their repeatability."""
        rows = workloads.expected_rows(self.workload)
        for r in results:
            if "failure" in r:
                self.outcome.attempted += sum(rows.values())
                self.outcome.failed += sum(rows.values())
                self.outcome.note(f"repetition failed: {r['failure']}")
                continue
            one = verify.verify(self.workload, r["dir"], r["commands"], self.refs)
            for key in ("attempted", "failed", "err_checked", "err_missed"):
                setattr(self.outcome, key, getattr(self.outcome, key) + getattr(one, key))
            self.outcome.messages += one.messages
        self.check_repeatable(results)

    def check_repeatable(self, results: list[dict]) -> None:
        """Each table must match, byte for byte, every other repetition of
        this seed under the same code; a table that differs fails its rows."""
        store = os.path.join(OUT, "digests.json")
        key = f"{self.workload}:{self.seed}:{code_hash()}"
        try:
            with open(store) as fh:
                known = json.load(fh)
        except (OSError, ValueError):
            known = {}
        first = known.setdefault(key, {})
        rows = workloads.expected_rows(self.workload)
        for r in results:
            for name in rows:
                path = os.path.join(r["dir"], name + ".csv")
                if "failure" in r or not os.path.exists(path):
                    continue
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                if first.setdefault(name, digest) != digest:
                    self.outcome.failed += rows[name]
                    self.outcome.note(f"{name}: output differs from an earlier repetition")
        with open(store, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        self.outcome.failed = min(self.outcome.failed, self.outcome.attempted)


def import_times(env: dict) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of the modules of interest."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import udwrm"],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name in IMPORT_MODULES and name not in found:
                found[name] = int(parts[1]) / 1e6
    return {f"import.{m}.s": found.get(m, 0.0) for m in IMPORT_MODULES}


def fractions(outcome: verify.Outcome) -> dict[str, float]:
    return {
        "verify.fail_frac": outcome.failed / max(outcome.attempted, 1),
        "verify.err_miss_frac": outcome.err_missed / outcome.err_checked
        if outcome.err_checked else 0.0,
    }


def run_untraced(run: Run, seconds: float) -> dict[str, float]:
    """Repetitions until the next one would end past ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(run.spawn("run"))
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_REPETITIONS and elapsed * (1 + 1 / len(results)) > seconds:
            break
    run.extra_interpreters(SETUP_SAMPLES)
    run.check(results)
    walls = [r["wall_s"] for r in results if "wall_s" in r]
    if not walls:
        return {}
    return {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results if "wall_s" in r),
    }


def run_traced(run: Run) -> dict[str, float]:
    """One untraced and one traced repetition; per-layer metrics from the
    traced one, overhead from the pair."""
    plain = run.spawn("run")
    traced = run.spawn("trace")
    run.extra_interpreters(1 if run.has_q_sweep else 0)
    run.check([plain, traced])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(import_times(run.env))
    for part, value in plain.get("part_wall_s", {}).items():
        metrics[f"part.{part}.wall_s"] = value
    if "wall_s" in traced:
        spans, counters = tracing.read_jsonl(os.path.join(traced["dir"], "spans.jsonl"))
        layers = tracing.layer_metrics(spans, counters)
        metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
        metrics["trace.coverage_frac"] = tracing.covered_time(spans) / traced["wall_s"]
        if "wall_s" in plain:
            metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        shutil.copy(
            os.path.join(traced["dir"], "spans.jsonl"),
            os.path.join(OUT, f"trace-{run.workload}-seed{run.seed}.jsonl"),
        )
        if traced["trace_missing"]:
            run.outcome.note(f"not traced (absent from the package): {traced['trace_missing']}")
    metrics.update(fractions(run.outcome))
    return metrics


def report(workload: str, run: Run, metrics: dict, units: dict) -> None:
    o = run.outcome
    print(f"== {workload}  seed {run.seed}  {len(run.setup_s)} interpreters")
    for name, value in metrics.items():
        if not name.startswith("verify."):  # printed below with their row counts
            print(f"  {name:52s} {value:14.6g} {units[name]}")
    checks = fractions(o)
    print(f"  {'fail_frac':52s} {checks['verify.fail_frac']:14.6g} fraction"
          f"  ({o.failed}/{o.attempted} rows)")
    if o.err_checked:
        print(f"  {'err_miss_frac':52s} {checks['verify.err_miss_frac']:14.6g} fraction"
              f"  ({o.err_missed}/{o.err_checked} rows)")
    for message in o.messages[:20]:
        print(f"  ! {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "udwrm", "__init__.py")):
        print(f"no package source at {SRC}: run from a udwrm checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = worker_env()
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    total = verify.Outcome()
    combined = {}
    for name in names:
        run = Run(name, args.seed, env)
        if args.trace:
            metrics = run_traced(run)
        else:
            metrics = run_untraced(run, args.seconds)
        report(name, run, metrics, units)
        total.attempted += run.outcome.attempted
        total.failed += run.outcome.failed
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        )
    print(json.dumps({
        "correct": total.failed == 0 and bool(combined),
        "attempted": max(total.attempted, 1),
        "failed": total.failed if total.attempted else 1,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
