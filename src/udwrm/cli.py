"""Command-line front end: JSON config in, deterministic CSV/JSON tables out.

Subcommands map to the figure-reproduction datasets: single-window
transition probabilities, per-string probabilities and corrections, the
loose-bound horizon table, Bayesian posterior traces, the finite-dimensional
oracle verification sweep, and the pairing-count tables.

Every CSV starts with a comment line recording the SHA-256 of the canonical
config, the seed and the package version, followed by a header row; floats carry 17 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .bayes import CorrectionModel, Posterior, delta_p_first_order, posterior_trace
from .bounds import GammaProfile, loose_bound_scan, loose_bounds, n_limit
from .combinatorics import (
    MAX_WINDOWS,
    crossing_count,
    partition_term_count,
    restricted_partitions,
    wick_term_count,
)
from .kernel import WightmanKernel, accelerated, inertial
from .response import DetectorParams, ResponseModel, q_closed_accelerated, q_closed_inertial, q_direct
from .schedule import default_schedule
from .strings import (
    BitString,
    born_string_prob,
    ratio_bounds,
    rm_string_table,
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".16e")
    return str(x)


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _emit(rows, header, args, config) -> None:
    meta = f"config_sha256={_config_hash(config)} seed={args.seed} version={__version__}"
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


class ConfigError(ValueError):
    """A config value has the wrong type or range (exit status 2)."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _in_open_unit(v) -> bool:
    return _is_real(v) and 0.0 < v < 1.0


def _config_value(block: dict, section: str, key: str, default, ok, expected: str):
    """block[key] (or the default), checked before any work is done."""
    value = block.get(key, default)
    if not ok(value):
        raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
    return value


# every config block and its keys; ``quadrature`` is read by earlier
# versions and is accepted and ignored
_CONFIG_KEYS = {
    "detector": ("omega", "lambda"),
    "worldline": ("kind", "alpha"),
    "schedule": ("sigma", "repetitions", "t_off_factor"),
    "strings": ("length",),
    "bounds": ("q", "gamma", "n_max"),
    "bayes": ("bits", "chunk", "epsilon", "step_corrections"),
    "oracle": ("env_dim", "length", "epsilon"),
    "quadrature": ("qmc_points", "gl_order"),
}
_WORLDLINE_KINDS = ("inertial", "accelerated")


def _check_config_keys(config) -> None:
    """The config and each of its blocks are objects with known keys only."""
    if not isinstance(config, dict):
        raise ConfigError(f"the config must be an object, got {config!r}")
    for section, block in config.items():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"{section} is not a known block ({', '.join(_CONFIG_KEYS)})")
        if not isinstance(block, dict):
            raise ConfigError(f"{section} must be an object, got {block!r}")
        keys = _CONFIG_KEYS[section]
        for key in block:
            if key not in keys:
                raise ConfigError(f"{section}.{key} is not a known key ({', '.join(keys)})")


def _is_positive(v) -> bool:
    return _is_real(v) and v > 0


def _model_config(config: dict, alpha_default: float | None = None):
    """The detector, worldline and schedule blocks, checked before any work.

    Returns (DetectorParams, worldline kind, alpha, ``default_schedule``
    keyword arguments).  An accelerated worldline needs ``alpha`` unless a
    default is given.
    """
    det, wl, sch = (config.get(section, {}) for section in ("detector", "worldline", "schedule"))
    positive = "a finite number > 0"
    d = DetectorParams(
        omega=_config_value(det, "detector", "omega", 0.2, _is_positive, positive),
        lam=_config_value(det, "detector", "lambda", 1e-2, _is_positive, positive),
    )
    kind = _config_value(
        wl,
        "worldline",
        "kind",
        "inertial",
        lambda v: v in _WORLDLINE_KINDS,
        " or ".join(_WORLDLINE_KINDS),
    )
    alpha = _config_value(
        wl,
        "worldline",
        "alpha",
        alpha_default,
        lambda v: _is_positive(v) or (v is None and kind == "inertial"),
        positive,
    )
    schedule = {
        "sigma": _config_value(sch, "schedule", "sigma", 1.0, _is_positive, positive),
        "repetitions": _config_value(
            sch, "schedule", "repetitions", 8, lambda v: _is_int(v) and v >= 1, "an integer >= 1"
        ),
        "t_off_factor": _config_value(
            sch, "schedule", "t_off_factor", 10.0, _is_positive, positive
        ),
    }
    return d, kind, alpha, schedule


def _cmd_transition(args, config):
    d, _, alpha, schedule = _model_config(config, alpha_default=0.1)
    sigma = schedule["sigma"]
    sched = default_schedule(**schedule)
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
    d, kind, alpha, schedule = _model_config(config)
    cap = min(schedule["repetitions"], MAX_WINDOWS)
    length = _config_value(
        config.get("strings", {}),
        "strings",
        "length",
        4,
        lambda v: _is_int(v) and 1 <= v <= cap,
        f"an integer in [1, {cap}]",
    )
    kern = WightmanKernel(accelerated(alpha) if kind == "accelerated" else inertial())
    model = ResponseModel(kern, default_schedule(**schedule), d)
    q = model.q
    gp = GammaProfile.from_kernel(kern, model.schedule)
    horizon = n_limit(q, gp.gamma)
    ub = loose_bounds(min(length, horizon - 1), q, gp.gamma)
    eps_dev = ub.upper / q - 1.0
    delta_dev = 1.0 - ub.lower / q
    ratio = q / (1.0 - q)
    rows = []
    for v, sp in enumerate(rm_string_table(length, model)):
        b = BitString.from_int(v, length)
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
    q = _config_value(block, "bounds", "q", 0.1, _in_open_unit, "a number in (0, 1)")
    gamma = _config_value(
        block, "bounds", "gamma", 0.01, _in_open_unit, "a number in (0, 1)"
    )
    n_max = _config_value(
        block,
        "bounds",
        "n_max",
        None,
        lambda v: v is None or (_is_int(v) and v >= 1),
        "an integer >= 1",
    )
    if n_max is None:
        n_max = n_limit(q, gamma) + 1
    # row n reports the bound certified before the n-th outcome, i.e. for
    # the n-1 windows already recorded (the published horizon axis)
    rows = [[1, q, q, q]]
    for n, bp in enumerate(loose_bound_scan(q, gamma, n_max - 1), start=2):
        rows.append([n, bp.lower, bp.upper, q])
    _emit(rows, ["n", "lower", "upper", "q"], args, config)
    return 0


def _cmd_bayes(args, config):
    block = config.get("bayes", {})
    bits = _config_value(
        block,
        "bayes",
        "bits",
        None,
        lambda v: isinstance(v, list)
        and len(v) > 0
        and all(x in (0, 1) and _is_int(x) for x in v),
        "a non-empty list of 0/1 integers",
    )
    chunk = _config_value(
        block, "bayes", "chunk", 1, lambda v: _is_int(v) and v >= 1, "an integer >= 1"
    )
    eps = _config_value(
        block, "bayes", "epsilon", 0.0, lambda v: _is_real(v) and v >= 0, "a number >= 0"
    )
    longest = min(chunk, len(bits))
    steps = _config_value(
        block,
        "bayes",
        "step_corrections",
        None,
        lambda v: v is None
        or (isinstance(v, list) and len(v) >= longest and all(map(_is_real, v))),
        f"a list of at least {longest} numbers",
    )

    def delta(qgrid, b):
        if steps is None:
            return np.zeros_like(qgrid)
        return delta_p_first_order(qgrid, steps[: b.length], b)

    m = CorrectionModel(coupling_epsilon=eps, delta_p=delta)
    prior = Posterior()
    chunks = (
        BitString(bits=tuple(bits[i : i + chunk])) for i in range(0, len(bits), chunk)
    )
    _, masses = posterior_trace(prior, chunks, m)
    rows = itertools.chain(
        [[0, prior.family_mass(1), prior.family_mass(2), prior.total_mass()]],
        ([min(i * chunk, len(bits)), *row] for i, row in enumerate(masses, start=1)),
    )
    _emit(rows, ["observed", "mass_h1", "mass_h2", "total_mass"], args, config)
    return 0


def _cmd_oracle(args, config):
    from .oracle import (
        MAX_ENV_DIM,
        MAX_STRING_LENGTH,
        REMAINDER_CONTRACTION,
        propagator_consistency,
        random_model,
        random_weak_model,
        remainder_check,
        string_distribution,
    )

    block = config.get("oracle", {})
    d = _config_value(
        block,
        "oracle",
        "env_dim",
        8,
        lambda v: _is_int(v) and 1 <= v <= MAX_ENV_DIM,
        f"an integer in [1, {MAX_ENV_DIM}]",
    )
    length = _config_value(
        block,
        "oracle",
        "length",
        8,
        lambda v: _is_int(v) and 1 <= v <= MAX_STRING_LENGTH,
        f"an integer in [1, {MAX_STRING_LENGTH}]",
    )
    # above 1e-3 the O(eps^4) terms can still grow between halvings, and the
    # remainder check fails on true models (d = 8: eps = 3e-3, 1e-2)
    eps = _config_value(
        block,
        "oracle",
        "epsilon",
        1e-3,
        lambda v: _is_real(v) and 0 < v <= 1e-3,
        "a number in (0, 1e-3]",
    )
    rows = []
    m = random_model(d, length, seed=args.seed)
    norm = sum(string_distribution(m, length).values())
    rows.append(["tree_normalization", abs(norm - 1.0), 1e-10, abs(norm - 1.0) < 1e-10])
    mw = random_weak_model(d, 2, epsilon=eps, seed=args.seed)
    rc = remainder_check(mw, 0, mw.env_initial, eps)
    rows.append(["cubic_remainder", rc.contraction, REMAINDER_CONTRACTION, rc.passed])
    dev = propagator_consistency(m, 0)
    rows.append(["propagator_consistency", dev, 1e-9, dev < 1e-9])
    _emit(rows, ["check", "value", "threshold", "passed"], args, config)
    return 0


def _cmd_combinatorics(args, config):
    rows = []
    for k in range(2, 9):
        rows.append([k, len(restricted_partitions(k)), crossing_count(k), wick_term_count(k)])
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
        _check_config_keys(config)
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: bad config: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
