"""Closed-form bounds on history-conditioned excitation probabilities.

Everything here is driven by the kernel ratios gamma_ij: the correlator
evaluated at the closest approach of two interaction windows, normalized by
its value at one window duration.  Loose bounds use only the worst-case
(adjacent-window) ratio and a crossing-pairing count, so they depend on the
history length alone; tight bounds use the per-pair ratios of an explicit
history.  Both are only meaningful while the correlator magnitude does not
grow with window separation, which is checked once on the table of ratios.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .combinatorics import MAX_WINDOWS, cycle_cover_sums
from .kernel import WightmanKernel
from .response import _TINY, HistoryRecord, _log_correlator_bound
from .schedule import RepetitionSchedule

#: n_limit's scan stops here, with a warning, if no horizon is met first.
N_LIMIT_CAP = 10_000
#: GammaProfile.from_kernel tabulates gamma_g for at least
#: g = 1 .. MONOTONICITY_SEPARATIONS, and checks that it does not increase.
MONOTONICITY_SEPARATIONS = 16


class HorizonExceededError(RuntimeError):
    """Requested a bound where its defining denominator is non-positive."""


class MonotonicityError(RuntimeError):
    """The correlator magnitude failed to decrease with window separation."""


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float
    kind: str  # "tight" | "loose"

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        if self.kind not in ("tight", "loose"):
            raise ValueError(f"unknown bound kind {self.kind!r}")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


class GammaProfile:
    """Window-separation ratios gamma_g, g = 1 .. G, read-only.

    By stationarity gamma_ij depends only on g = |i - j|, so one table
    serves every pair; gamma = gamma_1 is the adjacent-window ratio.  The
    table must be finite, start in [0, 1) and not increase with g (a
    correlator that underflows to 0 gives zeros, and at gamma_1 = 0 every
    bound is exactly q).
    """

    def __init__(self, ratios) -> None:
        ratios = np.array(ratios, dtype=float)
        if not (
            ratios.ndim == 1
            and ratios.size
            and np.all(np.isfinite(ratios) & (ratios >= 0.0))
            and ratios[0] < 1.0
        ):
            raise ValueError("ratios must be a finite 1-d table >= 0 with gamma_1 in [0, 1)")
        if np.any(np.diff(ratios) > 0.0):
            raise MonotonicityError("correlator magnitude grows with window separation")
        ratios.flags.writeable = False
        self.ratios = ratios

    @classmethod
    def from_kernel(cls, kern: WightmanKernel, sched: RepetitionSchedule) -> "GammaProfile":
        """|K(T g - T_on)| / |K(T_on)|: the correlator at the closest approach
        of two windows g apart over its value at one window length, for
        g = 1 .. max(MONOTONICITY_SEPARATIONS, repetitions - 1)."""
        g = np.arange(1, max(MONOTONICITY_SEPARATIONS, sched.repetitions - 1) + 1)
        s = sched.t * g - sched.t_on
        reference = abs(kern.limit(sched.t_on))
        # where |K(T_on)| is subnormal or 0 (alpha T_on >~ 700) the quotient
        # is taken in logs, where neither correlator underflows; a quotient
        # past the largest double is inf, which the table rejects
        with np.errstate(over="ignore"):
            if reference >= _TINY:
                return cls(np.abs(kern.limit(s)) / reference)
            return cls(
                np.exp(_log_correlator_bound(kern, s) - _log_correlator_bound(kern, sched.t_on))
            )

    @property
    def gamma(self) -> float:
        return float(self.ratios[0])

    def pair(self, i: int, j: int) -> float:
        """gamma_ij = gamma_|i-j|."""
        g = abs(i - j)
        if not 1 <= g <= self.ratios.size:
            raise ValueError(f"separation |i - j| = {g} outside the table [1, {self.ratios.size}]")
        return float(self.ratios[g - 1])


def _parity_sums(gamma: float):
    """Yield (E_{n-1}, O_{n-1}, E_n, O_n) for n = 1, 2, ..., where E_n (O_n)
    is the sum over even (odd) k = 2..n of C(n, k) c(k) gamma^k.

    The crossing counts c(k) = 2(k-1)(c(k-1) + c(k-2)) have the EGF
    e^{-t}(1-2t)^{-1/2}, which gives
    E_{n+1} = E_n + 2 gamma n (O_n - O_{n-1}) + 2 gamma^2 n (1 + E_{n-1}),
    O_{n+1} = O_n + 2 gamma n (E_n - E_{n-1}) + 2 gamma^2 n O_{n-1}.
    The increments are carried instead of differenced, so every term is
    non-negative: nothing cancels, and an overflow stays inf (never nan).
    """
    e_prev = e = de = o_prev = o = do = 0.0
    for n in itertools.count(1):
        yield e_prev, o_prev, e, o
        de, do = (
            2.0 * gamma * n * do + 2.0 * gamma * gamma * n * (1.0 + e_prev),
            2.0 * gamma * n * de + 2.0 * gamma * gamma * n * o_prev,
        )
        e_prev, e, o_prev, o = e, e + de, o, o + do


def _check_q_gamma(q: float, gamma: float) -> None:
    if not 0.0 < q < 1.0 or not 0.0 <= gamma < 1.0:
        raise ValueError("q must lie in (0, 1) and gamma in [0, 1)")


def loose_bound_scan(q: float, gamma: float, n_max: int) -> list[BoundPair]:
    """Loose bounds for n = 1 .. n_max in one pass, stopping before the
    first n at which they are undefined (see ``loose_bounds``)."""
    _check_q_gamma(q, gamma)
    out = []
    for e_prev, o_prev, e, o in itertools.islice(_parity_sums(gamma), n_max):
        if o_prev >= 1.0 or o > 1.0:
            break
        out.append(
            BoundPair(q * (1.0 - o) / (1.0 + e_prev), q * (1.0 + e) / (1.0 - o_prev), "loose")
        )
    return out


def loose_bounds(n: int, q: float, gamma: float) -> BoundPair:
    """History-independent bounds on the n-th conditional excitation.

    Upper: q (1 + even-sum(n)) / (1 - odd-sum(n-1));
    lower: q (1 - odd-sum(n)) / (1 + even-sum(n-1)).
    Values may exceed 1 for large n (that is the validity horizon's job);
    a non-positive denominator or negative numerator raises instead.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scan = loose_bound_scan(q, gamma, n)
    if len(scan) < n:
        raise HorizonExceededError(
            f"loose bounds undefined at n={n}: odd correction sums reach 1"
        )
    return scan[-1]


def n_limit(q: float, gamma: float) -> int:
    """Validity horizon of the loose bounds: the first n at which they fail.

    Conditional probabilities are trustworthy only for histories strictly
    below the returned value.  A window count n fails once an odd correction
    sum (at n or n-1) reaches 1 or the upper bound reaches 1; all three
    conditions are monotone in n, so the scan stops at the first failure.
    """
    _check_q_gamma(q, gamma)
    sums = itertools.islice(_parity_sums(gamma), 1, N_LIMIT_CAP)
    for n, (_, o_prev, e, o) in enumerate(sums, start=2):
        if o >= 1.0 or o_prev >= 1.0 or q * (1.0 + e) / (1.0 - o_prev) >= 1.0:
            return n
    warnings.warn(f"validity horizon exceeds the search cap {N_LIMIT_CAP}", stacklevel=2)
    return N_LIMIT_CAP


def tight_bounds(
    history: tuple[int, ...],
    query: int,
    q: float,
    gp: GammaProfile,
) -> BoundPair:
    """History-specific bounds from per-pair ratios, n = len(history) + 1.

    B_S, the bound on the correction fraction of a window subset S, is the
    cycle-cover sum over S with every link the scalar gamma_ij: a 2-cycle
    weighs 2 gamma^2, an m-cycle 2^m times its gamma product.  The fractions
    follow a sign pattern (even |S|: in [0, B_S]; odd: in [-B_S, 0]), so
    over all windows A and the history H = A - {query},

        upper = q (1 + sum_{even S in A} B_S) / (1 - sum_{odd S in H} B_S),
        lower = q (1 - sum_{odd S in A} B_S) / (1 + sum_{even S in H} B_S).

    The result is intersected with the loose bounds, which are occasionally
    narrower on one side.  More than MAX_WINDOWS windows raise before any
    gamma_ij is looked up.
    """
    h = HistoryRecord(tuple(history), query)
    n = h.order
    if n > MAX_WINDOWS:
        raise ValueError(f"{n} windows exceed MAX_WINDOWS = {MAX_WINDOWS}")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    loose = loose_bounds(n, q, gp.gamma)
    # float links: the cycle-cover programme multiplies them as floats
    covers = cycle_cover_sums(h.excitations + (query,), lambda _side, gap: gp.pair(gap, 0))
    totals = [0.0, 0.0]  # even, odd subsets of all windows
    history_totals = [0.0, 0.0]  # even, odd subsets of the history
    for subset, bound in enumerate(covers.tolist()[1:], start=1):
        parity = bin(subset).count("1") % 2
        totals[parity] += bound
        if subset < 1 << (n - 1):
            history_totals[parity] += bound
    upper = q * (1.0 + totals[0]) / (1.0 - history_totals[1])
    lower = q * (1.0 - totals[1]) / (1.0 + history_totals[0])
    return BoundPair(max(lower, loose.lower), min(upper, loose.upper), kind="tight")
