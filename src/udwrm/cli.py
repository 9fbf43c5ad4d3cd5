"""Command-line front end: JSON config in, deterministic CSV/JSON tables out.

Subcommands map to the figure-reproduction datasets: single-window
transition probabilities, per-string probabilities and corrections, the
loose-bound horizon table, Bayesian posterior traces, the finite-dimensional
oracle verification sweep, and the pairing-count tables.

The config format is one table, ``_CONFIG``: every block and key with its
default and its check.  ``main`` checks every given value against it before
any subcommand runs, whichever subcommand that is; a subcommand checks only
what depends on another value.

Every CSV starts with a comment line recording the SHA-256 of the canonical
config (by CPython's own hash module where it has one, so that a process
that draws no oracle model never loads OpenSSL), the seed and the package
version, followed by a header row; floats
carry 17 significant digits so reruns are byte-identical.  Each run of rows
with one type signature is written with one %-format, "%.16e" for a float
field and "%s" for any other.  No field of any table holds a comma, a quote
or a line break, so none is quoted, and the CSV is csv.writer's excel
dialect.

``main`` may be called many times in one process (the benchmark does): the
parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before), not
# hashlib's, which maps OpenSSL's libcrypto (megabytes of resident set) for
# this one digest; the digest is the same.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build whose hashes all come from OpenSSL
        from hashlib import sha256

from . import __version__
from .bayes import CorrectionModel, Posterior, delta_p_first_order, posterior_trace
from .bounds import GammaProfile, loose_bound_rows, loose_bound_scan
from .combinatorics import (
    MAX_WINDOWS,
    crossing_count,
    partition_term_count,
    restricted_partitions,
    wick_term_count,
)
from .kernel import WightmanKernel, accelerated, inertial
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
from .response import DetectorParams, ResponseModel, q_closed_accelerated, q_closed_inertial, q_direct
from .schedule import default_schedule
from .strings import (
    BitString,
    born_string_prob,
    ratio_bounds,
    rm_string_table,
)


def _fmt(x) -> str:
    return "%.16e" % x if isinstance(x, float) else str(x)


# rows per string of _csv_text: big enough that a string's %-format costs
# little per field, small enough that no whole table is held as one string
_BLOCK_ROWS = 256


def _csv_text(rows):
    """The CSV records of ``rows`` in strings of at most _BLOCK_ROWS records:
    each run of rows with one type signature takes one %-format."""
    for types, group in itertools.groupby(rows, lambda row: tuple(map(type, row))):
        line = ",".join("%.16e" if issubclass(t, float) else "%s" for t in types) + "\r\n"
        while block := list(itertools.islice(group, _BLOCK_ROWS)):
            yield (line * len(block)) % tuple(itertools.chain.from_iterable(block))


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def _emit(header, rows, args, config) -> None:
    meta = f"config_sha256={_config_hash(config)} seed={args.seed} version={__version__}"
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            out.write(f"# {meta}\n")
            out.writelines(_csv_text(itertools.chain([header], rows)))
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


def _int_in(lo: int, hi: float = math.inf):
    return lambda v: _is_int(v) and lo <= v <= hi


def _is_bit_list(v) -> bool:
    """A non-empty list of the integers 0 and 1, bools excluded: its types,
    then its values, each gathered into a set in one pass."""
    return isinstance(v, list) and len(v) > 0 and set(map(type, v)) <= {int} and set(v) <= {0, 1}


_WORLDLINE_KINDS = ("inertial", "accelerated")
_POSITIVE = (lambda v: _is_real(v) and v > 0, "a finite number > 0")
_UNIT = (lambda v: _is_real(v) and 0.0 < v < 1.0, "a number in (0, 1)")
_ANY = (lambda v: True, "anything")

# _CONFIG[block][key] = (default, check, expected): every block and key of
# the config.  A key whose default is None may also be given as null, which
# leaves it unset.  ``quadrature`` is read by earlier versions and is
# accepted and ignored.
_CONFIG = {
    "detector": {"omega": (0.2, *_POSITIVE), "lambda": (1e-2, *_POSITIVE)},
    "worldline": {
        "kind": ("inertial", lambda v: v in _WORLDLINE_KINDS, " or ".join(_WORLDLINE_KINDS)),
        "alpha": (None, *_POSITIVE),
    },
    "schedule": {
        "sigma": (1.0, *_POSITIVE),
        "repetitions": (8, _int_in(1), "an integer >= 1"),
        "t_off_factor": (10.0, *_POSITIVE),
    },
    "strings": {"length": (4, _int_in(1, MAX_WINDOWS), f"an integer in [1, {MAX_WINDOWS}]")},
    "bounds": {
        "q": (0.1, *_UNIT),
        "gamma": (0.01, *_UNIT),
        "n_max": (None, _int_in(1), "an integer >= 1"),
    },
    "bayes": {
        "bits": (None, _is_bit_list, "a non-empty list of 0/1 integers"),
        "chunk": (1, _int_in(1), "an integer >= 1"),
        "epsilon": (0.0, lambda v: _is_real(v) and v >= 0, "a number >= 0"),
        "step_corrections": (
            None,
            lambda v: isinstance(v, list) and all(map(_is_real, v)),
            "a list of numbers",
        ),
    },
    "oracle": {
        "env_dim": (8, _int_in(1, MAX_ENV_DIM), f"an integer in [1, {MAX_ENV_DIM}]"),
        "length": (8, _int_in(1, MAX_STRING_LENGTH), f"an integer in [1, {MAX_STRING_LENGTH}]"),
        # above 1e-3 the O(eps^4) terms can still grow between halvings, and
        # the remainder check fails on true models (d = 8: eps = 3e-3, 1e-2)
        "epsilon": (1e-3, lambda v: _is_real(v) and 0 < v <= 1e-3, "a number in (0, 1e-3]"),
    },
    "quadrature": {"qmc_points": (None, *_ANY), "gl_order": (None, *_ANY)},
}


def _settings(config) -> dict:
    """Every block of ``_CONFIG`` with its defaults filled in.

    The config and each of its blocks must be objects with known keys only,
    and every given value must pass its check; the first that does not
    raises ConfigError.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"the config must be an object, got {config!r}")
    for section, block in config.items():
        if section not in _CONFIG:
            raise ConfigError(f"{section} is not a known block ({', '.join(_CONFIG)})")
        if not isinstance(block, dict):
            raise ConfigError(f"{section} must be an object, got {block!r}")
        keys = _CONFIG[section]
        for key, value in block.items():
            if key not in keys:
                raise ConfigError(f"{section}.{key} is not a known key ({', '.join(keys)})")
            default, ok, expected = keys[key]
            if not (ok(value) or (value is None and default is None)):
                raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
    return {
        section: {key: default for key, (default, _, _) in keys.items()} | config.get(section, {})
        for section, keys in _CONFIG.items()
    }


def _detector(settings: dict) -> DetectorParams:
    det = settings["detector"]
    return DetectorParams(omega=det["omega"], lam=det["lambda"])


def _cmd_transition(args, settings):
    d = _detector(settings)
    alpha = settings["worldline"]["alpha"] or 0.1
    sigma = settings["schedule"]["sigma"]
    sched = default_schedule(**settings["schedule"])
    results = [
        ("inertial", 0.0, q_closed_inertial(d, sigma)),
        ("inertial", 0.0, q_direct(WightmanKernel(inertial()), sched, d)),
        ("accelerated", alpha, q_closed_accelerated(d, sigma, alpha)),
        ("accelerated", alpha, q_direct(WightmanKernel(accelerated(alpha)), sched, d)),
    ]
    rows = [[kind, a, r.method, r.value, r.abs_error] for kind, a, r in results]
    return ["worldline", "alpha", "method", "q", "abs_error"], rows


def _cmd_string_probs(args, settings):
    kind, alpha = settings["worldline"]["kind"], settings["worldline"]["alpha"]
    if kind == "accelerated" and alpha is None:
        raise ConfigError(f"worldline.alpha must be {_POSITIVE[1]}, got None")
    schedule = settings["schedule"]
    length = settings["strings"]["length"]
    cap = min(schedule["repetitions"], MAX_WINDOWS)
    if length > cap:
        raise ConfigError(f"strings.length must be an integer in [1, {cap}], got {length!r}")
    kern = WightmanKernel(accelerated(alpha) if kind == "accelerated" else inertial())
    model = ResponseModel(kern, default_schedule(**schedule), _detector(settings))
    q = model.q
    try:
        gamma = GammaProfile.from_kernel(kern, model.schedule).gamma
    except ValueError:
        # gamma >= 1, as with T_off <= T_on, where adjacent windows
        # correlate at least as strongly as one window with itself: no loose
        # bound exists
        scan = []
    else:
        scan = loose_bound_scan(q, gamma, length)
    # the bound at the string's length certifies every factor of the string
    # only while it is a probability interval, i.e. inside the horizon
    ub = scan[-1] if len(scan) == length else None
    certified = ub is not None and 0.0 < ub.lower and ub.upper < 1.0
    rows = []
    for v, sp in enumerate(rm_string_table(length, model)):
        b = BitString.from_int(v, length)
        lo, hi = ratio_bounds(b, ub, q) if certified else (math.nan, math.nan)
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
    header = [
        "id",
        "bits",
        "p_born",
        "p_rm",
        "log_ratio_correction",
        "abs_error",
        "ratio_lower",
        "ratio_upper",
    ]
    return header, rows


def _cmd_bounds(args, settings):
    q, gamma, n_max = (settings["bounds"][key] for key in ("q", "gamma", "n_max"))
    # row n reports the bound certified before the n-th outcome, i.e. for
    # the n-1 windows already recorded (the published horizon axis); by
    # default the rows run to n_limit(q, gamma) + 1
    table = loose_bound_rows(q, gamma, None if n_max is None else n_max - 1)
    rows = [[1, q, q, q]]
    rows += ([n, lower, upper, q] for n, (lower, upper) in enumerate(table, start=2))
    return ["n", "lower", "upper", "q"], rows


def _cmd_bayes(args, settings):
    bits, chunk, eps, steps = (
        settings["bayes"][key] for key in ("bits", "chunk", "epsilon", "step_corrections")
    )
    if bits is None:
        raise ConfigError(f"bayes.bits must be {_CONFIG['bayes']['bits'][2]}, got None")
    longest = min(chunk, len(bits))
    if steps is not None and len(steps) < longest:
        raise ConfigError(
            f"bayes.step_corrections must be a list of at least {longest} numbers, got {steps!r}"
        )

    def delta(qgrid, b):
        if steps is None:
            return np.zeros_like(qgrid)
        return delta_p_first_order(qgrid, steps[: b.length], b)

    m = CorrectionModel(coupling_epsilon=eps, delta_p=delta)
    prior = Posterior()
    bit_string = functools.cache(lambda c: BitString(bits=c))  # one per distinct chunk
    chunks = (bit_string(tuple(bits[i : i + chunk])) for i in range(0, len(bits), chunk))
    _, masses = posterior_trace(prior, chunks, m)
    rows = itertools.chain(
        [[0, prior.family_mass(1), prior.family_mass(2), prior.total_mass()]],
        ([min(i * chunk, len(bits)), *row] for i, row in enumerate(masses, start=1)),
    )
    return ["observed", "mass_h1", "mass_h2", "total_mass"], rows


def _cmd_oracle(args, settings):
    d, length, eps = (settings["oracle"][key] for key in ("env_dim", "length", "epsilon"))
    rows = []
    m = random_model(d, length, seed=args.seed)
    norm = sum(string_distribution(m, length).tolist())
    rows.append(["tree_normalization", abs(norm - 1.0), 1e-10, abs(norm - 1.0) < 1e-10])
    mw = random_weak_model(d, 2, epsilon=eps, seed=args.seed)
    rc = remainder_check(mw, 0, eps)
    rows.append(["cubic_remainder", rc.contraction, REMAINDER_CONTRACTION, rc.passed])
    dev = propagator_consistency(m, 0)
    rows.append(["propagator_consistency", dev, 1e-9, dev < 1e-9])
    return ["check", "value", "threshold", "passed"], rows


def _cmd_combinatorics(args, settings):
    rows = []
    for k in range(2, 9):
        rows.append([k, len(restricted_partitions(k)), crossing_count(k), wick_term_count(k)])
    for p in restricted_partitions(4):
        rows.append([f"partition_{'+'.join(map(str, p.parts))}", "", partition_term_count(p), ""])
    return ["k", "restricted_partitions", "crossing_pairings", "wick_terms"], rows


_COMMANDS = {
    "transition": _cmd_transition,
    "string-probs": _cmd_string_probs,
    "bounds": _cmd_bounds,
    "bayes": _cmd_bayes,
    "oracle": _cmd_oracle,
    "combinatorics": _cmd_combinatorics,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process."""
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

    def usage_error(message: str) -> int:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: {message}", file=sys.stderr)
        return 2

    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command != "combinatorics" and not args.config:
        return usage_error(f"the {args.command} subcommand needs --config")
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read().strip()
            if not text:
                return usage_error("config file is empty")
            config = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            return usage_error(f"bad config: {exc}")
        if not config and args.command != "combinatorics":
            return usage_error("config has no settings")
    try:
        header, rows = _COMMANDS[args.command](args, _settings(config))
        _emit(header, rows, args, config)
        return 0
    except ConfigError as exc:
        return usage_error(f"bad config: {exc}")
    except (ValueError, RuntimeError) as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # _emit opens the one file written: --out
        return usage_error(f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
