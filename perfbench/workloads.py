"""The benchmark workloads: inputs made from the seed, and the timed job.

A workload is a batch job run once per repetition in a fresh interpreter.
It is made of parts, each producing tables: ``q-sweep``, ``horizon-oracle``
and ``strings-deep`` call ``udwrm.cli.main(argv)`` in-process, one command
after another; ``history-sweep`` drives the library API.  The four parts
are paired into two workloads (see WORKLOADS): within the same budget of
runs, a run then measures about 55 s of work instead of about 25 s, and
wall times on a shared host swing by about 10% over seconds, so longer runs
spread less.  Configs and the Bayes outcome record are written before the
clock starts.  Every output table is a CSV
file in the repetition's output directory, checked afterwards by
``verify.py``.

This module imports only the standard library at load time, so the parent
process can read the workload definitions without importing the package.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

README_DETECTOR = {"omega": 0.2, "lambda": 0.01}
README_SCHEDULE = {"sigma": 1.0, "repetitions": 8}
README_QUADRATURE = {"qmc_points": 1 << 20, "gl_order": 32}

Q_SWEEP_ALPHAS = (0.1, 1.0, 5.0)

# README accelerated model (alpha = 0.1): single-window q and adjacent gamma
HORIZON_Q = 5.465734945535168e-06
HORIZON_GAMMA = 2.2654559733562785e-04
# rows n = 1 .. n_limit: row n shows the loose bound at n - 1, which is
# undefined from n_limit on
HORIZON_ROWS = 2139

BAYES_OUTCOMES = 4000
BAYES_RATE = 0.1

HISTORY_WINDOWS = 8
HISTORY_MAX_EXCITATIONS = 2
HISTORY_ROWS = 92


@dataclass(frozen=True)
class Command:
    """One CLI call: subcommand, config (None for no --config) and the
    number of data rows its CSV must hold."""

    output: str
    subcommand: str
    config: dict | None
    rows: int


def bayes_bits(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [int(rng.random() < BAYES_RATE) for _ in range(BAYES_OUTCOMES)]


def commands(part: str, seed: int) -> list[Command]:
    """The CLI commands of a part, in run order (empty for the library job)."""
    if part == "q-sweep":
        return [
            Command(
                f"transition-alpha{alpha}",
                "transition",
                {
                    "detector": README_DETECTOR,
                    "worldline": {"kind": "accelerated", "alpha": alpha},
                    "schedule": README_SCHEDULE,
                },
                4,
            )
            for alpha in Q_SWEEP_ALPHAS
        ]
    if part == "strings-deep":
        return [
            Command(
                "string-probs",
                "string-probs",
                {
                    "detector": README_DETECTOR,
                    "worldline": {"kind": "inertial"},
                    "schedule": README_SCHEDULE,
                    "quadrature": README_QUADRATURE,
                    "strings": {"length": 5},
                },
                32,
            )
        ]
    if part == "horizon-oracle":
        return [
            Command(
                "bounds",
                "bounds",
                {"bounds": {"q": HORIZON_Q, "gamma": HORIZON_GAMMA}},
                HORIZON_ROWS,
            ),
            Command("oracle", "oracle", {"oracle": {"env_dim": 8, "length": 11}}, 3),
            Command(
                "bayes",
                "bayes",
                {
                    "bayes": {
                        "bits": bayes_bits(seed),
                        "chunk": 1,
                        "epsilon": 1e-3,
                        "step_corrections": [1e-3],
                    }
                },
                BAYES_OUTCOMES + 1,
            ),
            Command("combinatorics", "combinatorics", None, 9),
        ]
    if part == "history-sweep":
        return []
    raise ValueError(f"unknown part {part!r}")


# Two workloads, each stressing its own layers and bypassing the other's:
# the first never evaluates a correction integral, the second spends nearly
# all its time in them.
WORKLOADS = {
    "q-horizon-oracle": ("q-sweep", "horizon-oracle"),
    "strings-history": ("strings-deep", "history-sweep"),
}
PARTS = tuple(p for parts in WORKLOADS.values() for p in parts)


def expected_rows(workload: str) -> dict[str, int]:
    """Output name -> data rows, for counting the rows of a failed command."""
    rows = {}
    for part in WORKLOADS[workload]:
        if part == "history-sweep":
            rows["history-sweep"] = HISTORY_ROWS
        rows.update({c.output: c.rows for c in commands(part, 0)})
    return rows


# --- executed in the repetition process, after ``import udwrm`` -------------


def write_configs(part: str, seed: int, out_dir: str) -> list[tuple[Command, list[str]]]:
    """Write each command's config and return it with its CLI argv."""
    runs = []
    for c in commands(part, seed):
        argv = [c.subcommand, "--out", os.path.join(out_dir, c.output + ".csv")]
        argv += ["--seed", str(seed)]
        if c.config is not None:
            path = os.path.join(out_dir, c.output + ".json")
            with open(path, "w") as fh:
                json.dump(c.config, fh)
            argv += ["--config", path]
        runs.append((c, argv))
    return runs


def run_cli(runs) -> list[dict]:
    """Timed part of a CLI workload: each command in turn."""
    from udwrm import cli

    status = []
    for c, argv in runs:
        try:
            rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a crash fails the command's rows, not the run
            error = f"{type(exc).__name__}: {exc}"
        status.append({"output": c.output, "error": error})
    return status


def _fmt(x: float) -> str:
    return format(x, ".16e")


def history_sweep(seed: int, out_dir: str) -> list[dict]:
    """Timed part of ``history-sweep``: criterion-06 histories on the README
    inertial model, with conditional probabilities and both bound kinds."""
    import itertools

    from udwrm import (
        DetectorParams,
        GammaProfile,
        HistoryRecord,
        ResponseModel,
        WightmanKernel,
        default_schedule,
        inertial,
        loose_bounds,
        tight_bounds,
    )

    try:
        det = DetectorParams(omega=README_DETECTOR["omega"], lam=README_DETECTOR["lambda"])
        kern = WightmanKernel(inertial())
        sched = default_schedule(
            sigma=README_SCHEDULE["sigma"], repetitions=README_SCHEDULE["repetitions"]
        )
        model = ResponseModel(
            kern,
            sched,
            det,
            qmc_points=README_QUADRATURE["qmc_points"],
            gl_order=README_QUADRATURE["gl_order"],
            seed=seed,
        )
        gp = GammaProfile.from_kernel(kern, sched)
        q = model.q
        rows = []
        for query in range(HISTORY_WINDOWS):
            for size in range(HISTORY_MAX_EXCITATIONS + 1):
                for exc in itertools.combinations(range(query), size):
                    h = HistoryRecord(excitations=exc, query=query)
                    p = model.conditional_excitation(h)
                    tight = tight_bounds(h.excitations, h.query, q, gp)
                    loose = loose_bounds(h.order, q, gp.gamma)
                    rows.append(
                        [str(query), " ".join(map(str, exc)), _fmt(p.value), _fmt(p.abs_error)]
                        + [_fmt(v) for v in (tight.lower, tight.upper, loose.lower, loose.upper)]
                        + [_fmt(gp.gamma)]
                    )
        with open(os.path.join(out_dir, "history-sweep.csv"), "w") as fh:
            fh.write(
                "query,excitations,p,abs_error,tight_lower,tight_upper,"
                "loose_lower,loose_upper,gamma\n"
            )
            fh.writelines(",".join(r) + "\n" for r in rows)
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return [{"output": "history-sweep", "error": error}]


def q_references() -> list[list]:
    """Independent reference for the closed-form rows of ``q-sweep``:
    quadrature with the profile tails kept.  Rows are
    [worldline, alpha, value, abs_error]."""
    from udwrm import (
        DetectorParams,
        WightmanKernel,
        accelerated,
        default_schedule,
        inertial,
        q_direct,
    )

    det = DetectorParams(omega=README_DETECTOR["omega"], lam=README_DETECTOR["lambda"])
    sched = default_schedule(sigma=README_SCHEDULE["sigma"])
    worldlines = [("inertial", 0.0, inertial())]
    worldlines += [("accelerated", a, accelerated(a)) for a in Q_SWEEP_ALPHAS]
    out = []
    for kind, alpha, w in worldlines:
        r = q_direct(WightmanKernel(w), sched, det, truncated=False)
        out.append([kind, alpha, r.value, r.abs_error])
    return out
