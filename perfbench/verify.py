"""Checks on every output row, run after the clock has stopped.

One operation is one output row.  A row fails when it is missing, cannot be
parsed or breaks a check; a command that crashed or exited non-zero fails
all the rows it should have written.  ``q-sweep`` also counts the
closed-form rows whose reported ``abs_error`` does not cover the distance to
an independent quadrature reference (``err_miss``).  Standard library only.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import workloads


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    err_checked: int = 0
    err_missed: int = 0
    messages: list[str] = field(default_factory=list)

    def note(self, what: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(what)


class Table:
    """The rows of one output file and the set of those that failed."""

    def __init__(self, name: str, rows: list[dict], out: Outcome) -> None:
        self.name, self.rows, self.out = name, rows, out
        self.bad: set[int] = set()

    def fail(self, i: int, what: str) -> None:
        self.bad.add(i)
        self.out.note(f"{self.name} row {i}: {what}")

    def fail_all(self, what: str) -> None:
        self.bad.update(range(len(self.rows)))
        self.out.note(f"{self.name}: {what}")


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _floats(row: dict, *keys: str) -> list[float]:
    return [float(row[k]) for k in keys]


def check_transition(t: Table, refs: list[list] | None) -> None:
    """Each q finite and in (0, 1); closed form and quadrature of one
    worldline agree to 1e-4 relative; closed-form rows are compared with the
    reference for ``err_miss``."""
    closed = {}
    for i, row in enumerate(t.rows):
        q = float(row["q"])
        if not (math.isfinite(q) and 0.0 < q < 1.0):
            t.fail(i, f"q = {q} outside (0, 1)")
        elif row["method"] == "closed_form":
            closed[row["worldline"]] = q
    for i, row in enumerate(t.rows):
        if row["method"] == "quadrature" and row["worldline"] in closed:
            q, ref = float(row["q"]), closed[row["worldline"]]
            if not abs(q - ref) <= 1e-4 * abs(ref):
                t.fail(i, f"quadrature {q} vs closed form {ref}")
    for row in t.rows:
        if row["method"] != "closed_form" or refs is None:
            continue
        alpha = float(row["alpha"])
        for kind, ref_alpha, ref, ref_err in refs:
            if kind == row["worldline"] and ref_alpha == alpha:
                v, err = _floats(row, "q", "abs_error")
                t.out.err_checked += 1
                t.out.err_missed += abs(v - ref) > err + ref_err


def check_string_probs(t: Table) -> None:
    """Probabilities sum to 1 within max(10 sum abs_error, 1e-12); each
    p_rm / p_born lies in [ratio_lower, ratio_upper] widened by abs_error."""
    total = sum(float(r["p_rm"]) for r in t.rows)
    err = sum(float(r["abs_error"]) for r in t.rows)
    if not abs(total - 1.0) <= max(10.0 * err, 1e-12):
        t.fail_all(f"sum p_rm = {total!r} with sum abs_error = {err!r}")
    for i, row in enumerate(t.rows):
        born, p, e, lo, hi = _floats(
            row, "p_born", "p_rm", "abs_error", "ratio_lower", "ratio_upper"
        )
        if not (born > 0.0 and lo - e / born <= p / born <= hi + e / born):
            t.fail(i, f"p_rm / p_born = {p / born if born else math.nan} outside [{lo}, {hi}]")


def check_history_sweep(t: Table) -> None:
    """Tight bounds inside loose; each conditional inside its tight bounds
    within 10 abs_error (criterion 06).  For the inertial kernel the
    adjacent-window ratio is (T_on / T_off)^2 = 0.01."""
    for i, row in enumerate(t.rows):
        p, e, tl, tu, ll, lu, gamma = _floats(
            row, "p", "abs_error", "tight_lower", "tight_upper",
            "loose_lower", "loose_upper", "gamma",
        )
        if not ll <= tl <= tu <= lu:
            t.fail(i, f"tight [{tl}, {tu}] not inside loose [{ll}, {lu}]")
        elif not tl - 10.0 * e <= p <= tu + 10.0 * e:
            t.fail(i, f"p = {p} outside tight [{tl}, {tu}] +- 10 * {e}")
        elif not abs(gamma - 0.01) <= 1e-12:
            t.fail(i, f"gamma = {gamma}, expected 0.01")


def check_bounds(t: Table) -> None:
    """lower <= q <= upper on every row, and upper never decreases."""
    prev_upper = -math.inf
    for i, row in enumerate(t.rows):
        lo, hi, q = _floats(row, "lower", "upper", "q")
        if not lo <= q <= hi:
            t.fail(i, f"q = {q} outside [{lo}, {hi}]")
        elif not hi >= prev_upper:
            t.fail(i, f"upper {hi} below the previous {prev_upper}")
        prev_upper = max(prev_upper, hi)


def check_oracle(t: Table) -> None:
    for i, row in enumerate(t.rows):
        if row["passed"] != "True":
            t.fail(i, f"check {row['check']} failed with {row['value']}")


def check_bayes(t: Table) -> None:
    for i, row in enumerate(t.rows):
        h1, h2, total = _floats(row, "mass_h1", "mass_h2", "total_mass")
        if not (abs(total - 1.0) <= 1e-9 and h1 >= 0.0 and h2 >= 0.0):
            t.fail(i, f"masses {h1}, {h2}, total {total}")


# criterion 01 golden values for k = 2..8; the Wick counts are (2k - 1)!!
GOLDEN_PARTITIONS = [1, 1, 2, 2, 4, 4, 7]
GOLDEN_CROSSINGS = [2, 8, 60, 544, 6040, 79008, 1190672]
GOLDEN_PARTITION_TERMS = {"partition_4": 48, "partition_2+2": 12}


def check_combinatorics(t: Table) -> None:
    expected = [
        [str(k), str(p), str(c), str(math.prod(range(1, 2 * k, 2)))]
        for k, p, c in zip(range(2, 9), GOLDEN_PARTITIONS, GOLDEN_CROSSINGS)
    ]
    expected += [[name, "", str(n), ""] for name, n in GOLDEN_PARTITION_TERMS.items()]
    for i, (row, want) in enumerate(zip(t.rows, expected)):
        got = [row["k"], row["restricted_partitions"], row["crossing_pairings"], row["wick_terms"]]
        if got != want:
            t.fail(i, f"{got} != {want}")


CHECKS = {
    "string-probs": check_string_probs,
    "history-sweep": check_history_sweep,
    "bounds": check_bounds,
    "oracle": check_oracle,
    "bayes": check_bayes,
    "combinatorics": check_combinatorics,
}


def check_table(name: str, rows: list[dict], n_rows: int, out: Outcome, refs=None) -> None:
    """Run the table's checks and add its failed rows to ``out``; rows
    missing from the table, or a table that cannot be read, fail too."""
    t = Table(name, rows, out)
    try:
        if name.startswith("transition"):
            check_transition(t, refs)
        else:
            CHECKS[name](t)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        t.fail_all(f"unreadable output ({type(exc).__name__}: {exc})")
    if len(rows) != n_rows:
        out.note(f"{name}: {len(rows)} rows, expected {n_rows}")
    out.failed += min(n_rows, len(t.bad) + abs(n_rows - len(rows)))


def verify(workload: str, out_dir: str, status: list[dict], refs=None) -> Outcome:
    """Check every output of one repetition against its expected row count."""
    out = Outcome()
    errors = {s["output"]: s["error"] for s in status}
    for name, n_rows in workloads.expected_rows(workload).items():
        out.attempted += n_rows
        path = os.path.join(out_dir, name + ".csv")
        error = errors.get(name, "did not run")
        if error is None and not os.path.exists(path):
            error = "wrote no output"
        if error is not None:
            out.failed += n_rows
            out.note(f"{name}: {error}")
            continue
        check_table(name, read_rows(path), n_rows, out, refs)
    return out
