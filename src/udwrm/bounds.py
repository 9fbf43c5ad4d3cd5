"""Closed-form bounds on history-conditioned excitation probabilities.

Everything here is driven by the kernel ratios gamma_ij: the correlator
evaluated at the closest approach of two interaction windows, normalized by
its value at one window duration.  Loose bounds use only the worst-case
(adjacent-window) ratio and a crossing-pairing count, so they depend on the
history length alone; tight bounds use the per-pair ratios of an explicit
history.  Both are only meaningful while the correlator magnitude decreases
with window separation, which is checked numerically.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .combinatorics import MAX_WINDOWS, cycle_cover_sums
from .kernel import WightmanKernel, extreme_point_value
from .response import HistoryRecord
from .schedule import RepetitionSchedule

#: n_limit's scan stops here, with a warning, if no horizon is met first.
N_LIMIT_CAP = 10_000
#: GammaProfile.from_kernel checks that gamma_(0, j) decreases for
#: j = 1 .. MONOTONICITY_SEPARATIONS.
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
    """Pairwise window-separation ratios gamma_ij, with gamma = gamma(adjacent).

    Built either from a kernel and schedule (ratios of correlator values at
    the windows' closest approach to the single-window value) or from a
    constant worst-case gamma.
    """

    def __init__(self, gamma: float, pair_fn=None) -> None:
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        self._gamma = gamma
        self._pair_fn = pair_fn

    @classmethod
    def from_kernel(cls, kern: WightmanKernel, sched: RepetitionSchedule) -> "GammaProfile":
        reference = abs(kern.limit(sched.t_on))

        def pair(i: int, j: int) -> float:
            return abs(extreme_point_value(kern, sched, i, j)) / reference

        gamma = pair(0, 1)
        ratios = [pair(0, j) for j in range(1, MONOTONICITY_SEPARATIONS + 1)]
        if any(b >= a for a, b in zip(ratios, ratios[1:])):
            raise MonotonicityError(
                "correlator magnitude does not decrease with window separation"
            )
        return cls(gamma, pair_fn=pair)

    @property
    def gamma(self) -> float:
        return self._gamma

    def pair(self, i: int, j: int) -> float:
        if self._pair_fn is None:
            return self._gamma
        value = self._pair_fn(i, j)
        if not 0.0 < value <= self._gamma:
            raise MonotonicityError(
                f"gamma_({i},{j}) = {value} outside (0, gamma]"
            )
        return value


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
    if not 0.0 < q < 1.0 or not 0.0 < gamma < 1.0:
        raise ValueError("q and gamma must lie in (0, 1)")


def parity_correction_sum(n: int, gamma: float, parity: int) -> float:
    """Worst-case correction-sum magnitude over n windows, split by the
    parity of the number of cross-paired windows (even: positive
    contributions, odd: negative)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    return next(itertools.islice(_parity_sums(gamma), n - 1, None))[2 + parity]


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
    gamma_ij is evaluated.
    """
    h = HistoryRecord(tuple(history), query)
    n = h.order
    if n > MAX_WINDOWS:
        raise ValueError(f"{n} windows exceed MAX_WINDOWS = {MAX_WINDOWS}")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    loose = loose_bounds(n, q, gp.gamma)
    windows = h.excitations + (query,)
    gammas = np.zeros((n, n))
    for a, b in itertools.combinations(range(n), 2):
        gammas[a, b] = gammas[b, a] = gp.pair(windows[a], windows[b])
    covers = cycle_cover_sums(n, lambda a, _side, b: gammas[a : a + 1, b : b + 1])
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
