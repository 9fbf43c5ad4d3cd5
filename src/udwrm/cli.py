"""Command-line front end: JSON config in, deterministic CSV/JSON tables out.

Subcommands map to the figure-reproduction datasets: single-window
transition probabilities, per-string probabilities and corrections, the
loose-bound horizon table, Bayesian posterior traces, the finite-dimensional
oracle verification sweep, and the pairing-count tables.

Every CSV starts with a comment line recording the SHA-256 of the canonical
config and the seed, followed by a header row; floats carry 17 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .bayes import CorrectionModel, Posterior, delta_p_first_order, update_posterior
from .bounds import GammaProfile, HorizonExceededError, loose_bounds, n_limit, tight_bounds
from .combinatorics import (
    crossing_count,
    partition_term_count,
    restricted_partitions,
    wick_term_count,
)
from .kernel import WightmanKernel, accelerated, inertial
from .response import DetectorParams, ResponseModel, q_closed_accelerated, q_closed_inertial, q_direct
from .schedule import default_schedule
from .strings import BitString, born_string_prob, ratio_bounds, rm_string_prob


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".16e")
    return str(x)


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _emit(rows, header, args, config) -> None:
    meta = f"config_sha256={_config_hash(config)} seed={args.seed}"
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            out.write(f"# {meta}\n")
            writer = csv.writer(out)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        else:
            json.dump(
                {
                    "meta": meta,
                    "columns": header,
                    "rows": [[_fmt(v) for v in row] for row in rows],
                },
                out,
                indent=2,
            )
            out.write("\n")
    finally:
        if args.out:
            out.close()


def _build_model(config: dict) -> tuple[ResponseModel, WightmanKernel]:
    det = config.get("detector", {})
    d = DetectorParams(omega=det.get("omega", 0.2), lam=det.get("lambda", 1e-2))
    wl = config.get("worldline", {"kind": "inertial"})
    if wl.get("kind", "inertial") == "accelerated":
        kern = WightmanKernel(accelerated(wl["alpha"]))
    else:
        kern = WightmanKernel(inertial())
    sch = config.get("schedule", {})
    sched = default_schedule(
        sigma=sch.get("sigma", 1.0),
        repetitions=sch.get("repetitions", 8),
        t_off_factor=sch.get("t_off_factor", 10.0),
    )
    return ResponseModel(kern, sched, d), kern


def _cmd_transition(args, config):
    det = config.get("detector", {})
    d = DetectorParams(omega=det.get("omega", 0.2), lam=det.get("lambda", 1e-2))
    sigma = config.get("schedule", {}).get("sigma", 1.0)
    alpha = config.get("worldline", {}).get("alpha", 0.1)
    sched = default_schedule(sigma=sigma)
    rows = []
    qi = q_closed_inertial(d, sigma)
    rows.append(["inertial", 0.0, "closed_form", qi.value, qi.abs_error])
    qd = q_direct(WightmanKernel(inertial()), sched, d)
    rows.append(["inertial", 0.0, "quadrature", qd.value, qd.abs_error])
    qa = q_closed_accelerated(d, sigma, alpha)
    rows.append(["accelerated", alpha, "closed_form", qa.value, qa.abs_error])
    qda = q_direct(WightmanKernel(accelerated(alpha)), sched, d)
    rows.append(["accelerated", alpha, "quadrature", qda.value, qda.abs_error])
    _emit(rows, ["worldline", "alpha", "method", "q", "abs_error"], args, config)
    return 0


def _cmd_string_probs(args, config):
    model, kern = _build_model(config)
    length = config.get("strings", {}).get("length", 4)
    q = model.q
    gp = GammaProfile.from_kernel(kern, model.schedule)
    horizon = n_limit(q, gp.gamma)
    ub = loose_bounds(min(length, horizon - 1), q, gp.gamma)
    eps_dev = ub.upper / q - 1.0
    delta_dev = 1.0 - ub.lower / q
    ratio = q / (1.0 - q)
    rows = []
    for v in range(1 << length):
        b = BitString.from_int(v, length)
        sp = rm_string_prob(b, model)
        lo, hi = ratio_bounds(b, eps_dev, delta_dev, ratio)
        rows.append(
            [
                v,
                str(b),
                born_string_prob(q, b),
                sp.value,
                sp.log_ratio_correction,
                sp.abs_error,
                lo,
                hi,
            ]
        )
    _emit(
        rows,
        [
            "id",
            "bits",
            "p_born",
            "p_rm",
            "log_ratio_correction",
            "abs_error",
            "ratio_lower",
            "ratio_upper",
        ],
        args,
        config,
    )
    return 0


def _cmd_bounds(args, config):
    block = config.get("bounds", {})
    q = block.get("q", 0.1)
    gamma = block.get("gamma", 0.01)
    horizon = n_limit(q, gamma)
    n_max = block.get("n_max", horizon + 1)
    rows = [[1, q, q, q]]
    for n in range(2, n_max + 1):
        # row n reports the bound certified before the n-th outcome, i.e.
        # for the n-1 windows already recorded (the published horizon axis)
        try:
            bp = loose_bounds(n - 1, q, gamma)
        except HorizonExceededError:
            break
        rows.append([n, bp.lower, bp.upper, q])
    _emit(rows, ["n", "lower", "upper", "q"], args, config)
    return 0


def _cmd_bayes(args, config):
    block = config.get("bayes", {})
    bits = block.get("bits")
    if not bits:
        print("bayes subcommand needs a 'bayes.bits' outcome list", file=sys.stderr)
        return 2
    eps = block.get("epsilon", 0.0)
    chunk = block.get("chunk", 1)
    steps = block.get("step_corrections")

    def delta(qgrid, b):
        if steps is None:
            return np.zeros_like(qgrid)
        return delta_p_first_order(qgrid, steps[: b.length], b)

    m = CorrectionModel(coupling_epsilon=eps, delta_p=delta)
    post = Posterior()
    rows = [[0, post.family_mass(1), post.family_mass(2), post.total_mass()]]
    for i in range(0, len(bits), chunk):
        b = BitString(bits=tuple(bits[i : i + chunk]))
        post = update_posterior(post, b, m)
        rows.append(
            [i + len(b.bits), post.family_mass(1), post.family_mass(2), post.total_mass()]
        )
    _emit(rows, ["observed", "mass_h1", "mass_h2", "total_mass"], args, config)
    return 0


def _cmd_oracle(args, config):
    from .oracle import (
        exact_step_probability,
        perturbative_corrections,
        propagator_consistency,
        random_model,
        random_weak_model,
        string_distribution,
    )

    block = config.get("oracle", {})
    d = block.get("env_dim", 8)
    length = block.get("length", 8)
    eps = block.get("epsilon", 1e-3)
    rows = []
    m = random_model(d, length, seed=args.seed)
    norm = sum(string_distribution(m, length).values())
    rows.append(["tree_normalization", abs(norm - 1.0), 1e-10, abs(norm - 1.0) < 1e-10])
    mw = random_weak_model(d, 2, epsilon=eps, seed=args.seed)
    p, q1, q2 = perturbative_corrections(mw, 0, mw.env_initial)
    res = [
        abs(
            exact_step_probability(mw, 0, mw.env_initial, e)[1]
            - (p + e * q1 + e * e * q2)[1]
        )
        for e in (eps, eps / 2)
    ]
    ratio = res[0] / res[1] if res[1] > 0 else float("inf")
    rows.append(["eps_halving_ratio", ratio, 8.0, abs(ratio - 8.0) <= 1.6])
    dev = propagator_consistency(m, 0)
    rows.append(["propagator_consistency", dev, 1e-9, dev < 1e-9])
    _emit(rows, ["check", "value", "threshold", "passed"], args, config)
    return 0


def _cmd_combinatorics(args, config):
    rows = []
    for k in range(2, 9):
        rows.append(
            [
                k,
                len(restricted_partitions(k)),
                crossing_count(k),
                wick_term_count(k) if k <= 12 else "",
            ]
        )
    for p in restricted_partitions(4):
        rows.append([f"partition_{'+'.join(map(str, p.parts))}", "", partition_term_count(p), ""])
    _emit(
        rows,
        ["k", "restricted_partitions", "crossing_pairings", "wick_terms"],
        args,
        config,
    )
    return 0


_COMMANDS = {
    "transition": _cmd_transition,
    "string-probs": _cmd_string_probs,
    "bounds": _cmd_bounds,
    "bayes": _cmd_bayes,
    "oracle": _cmd_oracle,
    "combinatorics": _cmd_combinatorics,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udwrm",
        description="Repeated-measurement statistics for Unruh-DeWitt detectors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command != "combinatorics" and not args.config:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: the {args.command} subcommand needs --config", file=sys.stderr)
        return 2
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read().strip()
            if not text:
                parser.print_usage(sys.stderr)
                print(f"{parser.prog}: config file is empty", file=sys.stderr)
                return 2
            config = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: bad config: {exc}", file=sys.stderr)
            return 2
        if not config and args.command != "combinatorics":
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: config has no settings", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args, config)
    except (ValueError, RuntimeError) as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
