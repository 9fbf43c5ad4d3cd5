"""Bit-string outcome model: Born product law versus the history-conditioned
chain law, plus ratio bounds and excitation-rate summaries.

Probabilities of individual strings differ from the Born products by parts
in 10^7 or less at weak coupling, so comparisons are carried as log-ratio
corrections accumulated with log1p rather than as raw differences.  Chain
factors are lookups in the sums cached with the strings' subset pass, the
sums ``correction_sums`` reads for a history, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundPair
from .kernel import Worldline
from .response import ResponseModel, ratio_from_sums
from .schedule import is_integer


@dataclass(frozen=True)
class BitString:
    """Measurement record b_1..b_L; b_1 is the most significant base-10 bit."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        if not (bits and all(is_integer(b) and b in (0, 1) for b in bits)):
            raise ValueError(f"bits must be the integers 0 and 1, at least one, got {self.bits!r}")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        if value < 0 or value >= 1 << length:
            raise ValueError(f"{value} does not fit in {length} bits")
        return cls(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> tuple[int, ...]:
        """1-based positions of the excited outcomes."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b == 1)

    @property
    def popcount(self) -> int:
        return sum(self.bits)

    def to_int(self) -> int:
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class RateReport:
    """Excitation-rate ratios: sampled from the string, single-window
    theoretical, and the infinite-interaction-time reference."""

    sampled: float
    theoretical: float
    reference: float

    def __post_init__(self) -> None:
        for name in ("sampled", "theoretical", "reference"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} ratio must be >= 0")


def born_string_prob(q: float, b: BitString) -> float:
    """q^n (1-q)^(L-n): outcome-order independent product law."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    n = b.popcount
    return q**n * (1.0 - q) ** (b.length - n)


@dataclass(frozen=True)
class StringProbability:
    value: float
    log_ratio_correction: float  # log(value / born_string_prob)
    abs_error: float


def _chain_law(b: BitString, q: float, num, den, num_err, den_err) -> StringProbability:
    """Chain-law string probability, each factor conditioned on the ones
    recorded before it.

    Windows are numbered 0..L-1; bit j (1-based) is the outcome of window
    j-1.  ``num`` and ``den`` are the query and history sums of
    ``_window_sums``, ``num_err`` and ``den_err`` theirs, indexed by mask
    (bit i for window i); all are 0 on masks of one window, so a factor
    without history is exactly q.  The result also carries log(P_rm / P_born)
    assembled from the per-factor ratios, which stays accurate when the
    correction is far below the probability's double-precision resolution.
    """
    log_ratio = 0.0
    err = 0.0
    history = 0
    for j, bit in enumerate(b.bits):
        full = history | 1 << j
        ratio, ratio_err = ratio_from_sums(num[full], den[history], num_err[full], den_err[history])
        if bit == 1:
            # P(1|h)/q = 1 + ratio
            log_ratio += math.log1p(ratio)
            err += ratio_err
            history |= 1 << j
        else:
            # (1 - P(1|h))/(1 - q) = 1 - q*ratio/(1-q)
            log_ratio += math.log1p(-q * ratio / (1.0 - q))
            err += q * ratio_err / (1.0 - q)
    value = born_string_prob(q, b) * math.exp(log_ratio)
    return StringProbability(
        value=value, log_ratio_correction=log_ratio, abs_error=value * err
    )


def _window_sums(length: int, model: ResponseModel) -> tuple[list[float], ...]:
    """(num, den, num_err, den_err) of windows 0..length-1, indexed by mask:
    the chain sums cached with their one subset pass.

    A length that is not an integer in [1, repetitions], or past
    MAX_WINDOWS windows, raises before any integral.
    """
    reps = model.schedule.repetitions
    if not (is_integer(length) and 1 <= length <= reps):
        raise ValueError(
            f"table length must be an integer in [1, {reps}] (the repetitions), got {length!r}"
        )
    return model._subset_fractions(tuple(range(length)))[2:]


def rm_string_prob(b: BitString, model: ResponseModel) -> StringProbability:
    """Chain-law probability of one string: its row of
    ``rm_string_table(b.length, model)``."""
    return _chain_law(b, model.q, *_window_sums(b.length, model))


def rm_string_table(length: int, model: ResponseModel) -> list[StringProbability]:
    """Chain-law probabilities of all 2^length strings, indexed by
    ``BitString.to_int``, from one subset pass: each chain factor is a
    lookup."""
    sums = _window_sums(length, model)
    return [
        _chain_law(BitString.from_int(v, length), model.q, *sums) for v in range(1 << length)
    ]


def ratio_bounds(b: BitString, bound: BoundPair, q: float) -> tuple[float, float]:
    """Interval guaranteed to contain P_rm(B) / P_born(B), given a bound
    that holds every conditional excitation probability of the string
    (such as the loose bound at its length).

    The bound's worst-case relative deviations from q, and q/(1-q), set how
    far each 1 and each 0 can move its factor.
    """
    if not (0.0 < q < 1.0 and bound.lower <= q <= bound.upper):
        raise ValueError(f"need 0 < q < 1 inside the bound, got q = {q!r} and {bound}")
    upper_eps = bound.upper / q - 1.0
    lower_delta = 1.0 - bound.lower / q
    excitation_ratio = q / (1.0 - q)
    n = b.popcount
    zeros = b.length - n
    lower = (1.0 - lower_delta) ** n * (1.0 - excitation_ratio * upper_eps) ** zeros
    upper = (1.0 + upper_eps) ** n * (1.0 + excitation_ratio * lower_delta) ** zeros
    return lower, upper


def rate_report(b: BitString, q: float, w: Worldline, omega: float) -> RateReport:
    """Sampled n/(L-n) against q/(1-q) and the infinite-time thermal ratio.

    The reference is the detailed-balance ratio at the worldline's
    equilibrium temperature: exp(-2 pi omega / alpha) when accelerated,
    zero (no excitations survive infinite interaction) when inertial.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be a finite number > 0, got {omega!r}")
    n = b.popcount
    if n == b.length:
        sampled = math.inf
    else:
        sampled = n / (b.length - n)
    theoretical = q / (1.0 - q)
    if w.kind == "accelerated":
        reference = math.exp(-2.0 * math.pi * omega / w.alpha)
    else:
        reference = 0.0
    return RateReport(sampled=sampled, theoretical=theoretical, reference=reference)
