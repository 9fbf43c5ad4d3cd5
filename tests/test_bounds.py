import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from udwrm import (
    GammaProfile,
    HistoryRecord,
    HorizonExceededError,
    ResponseModel,
    WightmanKernel,
    accelerated,
    default_schedule,
    inertial,
    loose_bounds,
    n_limit,
    parity_correction_sum,
    tight_bounds,
)
from udwrm.bounds import MONOTONICITY_SEPARATIONS, N_LIMIT_CAP, MonotonicityError, loose_bound_scan
from udwrm.combinatorics import MAX_WINDOWS, crossing_count, cycle_cover_sums


Q, GAMMA = 0.1, 0.01
# README accelerated model (alpha = 0.1): single-window q and adjacent gamma
README_Q, README_GAMMA = 5.465734945535168e-06, 2.2654559733562785e-04


def constant(gamma):
    """A table with the same ratio at every separation a history can reach."""
    return GammaProfile([gamma] * MAX_WINDOWS)


def exact_parity_sum(n, gamma, parity):
    g = Fraction(gamma)
    return sum(
        math.comb(n, k) * crossing_count(k) * g**k
        for k in range(2, n + 1)
        if k % 2 == parity
    )


def assert_parity_sums_exact(gamma, ns):
    for n in ns:
        for parity in (0, 1):
            exact = exact_parity_sum(n, gamma, parity)
            value = parity_correction_sum(n, gamma, parity)
            if exact == 0:
                assert value == 0.0
            else:
                assert abs(Fraction(value) - exact) <= Fraction(4e-15) * exact, (n, parity)


def test_parity_sums_match_direct_evaluation():
    assert_parity_sums_exact(GAMMA, range(1, 55))


def test_parity_sums_match_exact_fractions_at_readme_gamma():
    assert_parity_sums_exact(README_GAMMA, (50, 200, 400))


def test_parity_correction_sum_overflows_to_inf():
    for parity in (0, 1):
        assert parity_correction_sum(2000, 0.05, parity) == math.inf


@pytest.mark.parametrize(
    "q, gamma, horizon",
    [
        (Q, GAMMA, 55),
        (Q, 0.05, 14),
        (Q, 0.001, 487),
        (0.3, 0.05, 14),
        (1e-3, 1e-3, 494),
        (1e-3, 0.2, 6),
        (0.5, 1e-4, 4277),
        (README_Q, README_GAMMA, 2139),
    ],
)
def test_n_limit_grid(q, gamma, horizon):
    assert n_limit(q, gamma) == horizon
    # the last certified window count still gives a sub-unit upper bound
    assert loose_bounds(horizon - 1, q, gamma).upper < 1.0


def test_loose_bounds_first_windows_collapse_to_q():
    b1 = loose_bounds(1, Q, GAMMA)
    assert (b1.lower, b1.upper) == (Q, Q)
    b2 = loose_bounds(2, Q, GAMMA)
    assert b2.lower == Q
    assert b2.upper == pytest.approx(Q * (1 + 2 * GAMMA**2))


def test_loose_bounds_nested_in_n():
    prev = loose_bounds(2, Q, GAMMA)
    for n in range(3, 30):
        cur = loose_bounds(n, Q, GAMMA)
        assert cur.lower <= prev.lower
        assert cur.upper >= prev.upper
        prev = cur


def test_n_limit_horizon():
    assert n_limit(Q, GAMMA) == 55
    assert loose_bounds(54, Q, GAMMA).upper < 1.0
    assert loose_bounds(55, Q, GAMMA).upper > 1.0


def test_n_limit_shrinks_with_gamma():
    assert n_limit(Q, 0.05) < n_limit(Q, GAMMA)
    assert n_limit(Q, 0.001) > n_limit(Q, GAMMA)


def test_loose_bounds_raises_past_breakdown():
    with pytest.raises(HorizonExceededError):
        loose_bounds(2000, Q, 0.05)


def test_gamma_profile_constant():
    gp = constant(GAMMA)
    assert gp.gamma == GAMMA
    assert gp.pair(0, 5) == pytest.approx(GAMMA)


def test_gamma_profile_from_kernel(inertial_kernel, schedule):
    gp = GammaProfile.from_kernel(inertial_kernel, schedule)
    assert gp.gamma == pytest.approx(0.01, rel=1e-10)
    assert gp.pair(0, 2) < gp.pair(0, 1)


@pytest.mark.parametrize("alpha", [None, 0.1, 1.0, 5.0], ids=["inertial", "0.1", "1", "5"])
@pytest.mark.parametrize("repetitions", [8, 30])
def test_gamma_profile_table_from_kernel(alpha, repetitions):
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    sched = default_schedule(repetitions=repetitions)
    gp = GammaProfile.from_kernel(kern, sched)
    size = max(MONOTONICITY_SEPARATIONS, repetitions - 1)
    assert gp.ratios.shape == (size,)
    reference = abs(float(kern.limit(sched.t_on)))
    for g in range(1, size + 1):
        value = abs(float(kern.limit(sched.t * g - sched.t_on))) / reference
        assert gp.ratios[g - 1] == value
        assert gp.pair(3, 3 + g) == gp.pair(3 + g, 3) == value
    assert gp.gamma == gp.ratios[0] > 0.0
    assert all(a >= b for a, b in zip(gp.ratios, gp.ratios[1:]))
    # the correlator underflows to 0 far out at alpha >= 1
    assert (gp.ratios[-1] == 0.0) == (alpha is not None and alpha >= 1.0)
    with pytest.raises(ValueError):
        gp.ratios[0] = 0.5


@pytest.mark.parametrize(
    "ratios",
    [
        [0.01, 0.02],
        [0.01, 0.001, 0.002],
        [0.01, -0.001],
        [0.01, math.nan],
        [0.01, math.inf],
        [math.inf],
        [1.0, 0.5],
        [],
        [[0.01]],
        0.01,
    ],
    ids=[
        "increasing",
        "increasing-tail",
        "negative",
        "nan",
        "inf",
        "inf-gamma",
        "unit-gamma",
        "empty",
        "2d",
        "scalar",
    ],
)
def test_gamma_profile_rejects_bad_tables(ratios):
    with pytest.raises((ValueError, MonotonicityError)):
        GammaProfile(ratios)


def test_gamma_profile_accepts_constant_and_zero_tail():
    assert GammaProfile([0.5, 0.5, 0.5]).pair(0, 3) == 0.5
    assert GammaProfile([0.5, 1e-300, 0.0, 0.0]).pair(7, 3) == 0.0
    assert GammaProfile([0.0, 0.0]).gamma == 0.0


@pytest.mark.parametrize("i, j", [(0, 0), (4, 4), (0, MAX_WINDOWS + 1), (MAX_WINDOWS + 3, 2)])
def test_gamma_profile_pair_outside_table_raises(i, j):
    with pytest.raises(ValueError, match="separation"):
        constant(GAMMA).pair(i, j)


def test_gamma_profile_rejects_nonmonotone_kernel(schedule):
    class Wiggle:
        def limit(self, s):
            return np.cos(s)

    with pytest.raises(MonotonicityError):
        GammaProfile.from_kernel(Wiggle(), schedule)


def test_zero_gamma_bounds_are_exactly_q():
    # a correlator that underflows to 0 at the adjacent window carries no
    # memory: every bound collapses to [q, q]
    assert [(b.lower, b.upper) for b in loose_bound_scan(Q, 0.0, 50)] == [(Q, Q)] * 50
    zeros = GammaProfile([0.0] * MAX_WINDOWS)
    for n in range(2, MAX_WINDOWS + 1):
        b = tight_bounds(tuple(range(n - 1)), n - 1, Q, zeros)
        assert (b.lower, b.upper) == (Q, Q)
        assert parity_correction_sum(n, 0.0, 0) == parity_correction_sum(n, 0.0, 1) == 0.0
    with pytest.warns(UserWarning, match="search cap"):
        assert n_limit(Q, 0.0) == N_LIMIT_CAP


def test_tight_bounds_reduce_to_known_forms():
    gp = constant(GAMMA)
    b2 = tight_bounds((0,), 1, Q, gp)
    assert b2.lower == Q
    assert b2.upper == pytest.approx(Q * (1 + 2 * GAMMA**2))
    b3 = tight_bounds((0, 1), 2, Q, gp)
    assert b3.upper == pytest.approx(Q * (1 + 6 * GAMMA**2))
    assert b3.lower == pytest.approx(Q * (1 - 8 * GAMMA**3) / (1 + 2 * GAMMA**2))


def test_tight_bounds_inside_loose():
    gp = constant(GAMMA)
    for hist, query, n in (((0,), 1, 2), ((0, 1), 2, 3), ((0, 1, 2), 3, 4)):
        tight = tight_bounds(hist, query, Q, gp)
        loose = loose_bounds(n, Q, GAMMA)
        assert tight.lower >= loose.lower
        assert tight.upper <= loose.upper


def test_tight_bounds_reach_max_windows():
    n = 7
    b = tight_bounds(tuple(range(n - 1)), n - 1, Q, constant(GAMMA))
    loose = loose_bounds(n, Q, GAMMA)
    assert b.kind == "tight"
    assert loose.lower <= b.lower <= b.upper <= loose.upper

    n = MAX_WINDOWS + 1
    with pytest.raises(ValueError, match="MAX_WINDOWS"):
        tight_bounds(tuple(range(n - 1)), n - 1, Q, constant(GAMMA))


@pytest.mark.parametrize(
    "history, query",
    [((0, 2, 1), 3), ((0, 0), 3), ((0, 2), 2), ((0, 2), 1), ((-1, 2), 3), ((), -1)],
    ids=["decreasing", "repeated", "query-at-last", "query-before-last", "negative", "neg-query"],
)
def test_tight_bounds_reject_bad_histories(history, query):
    with pytest.raises(ValueError):
        tight_bounds(history, query, Q, constant(GAMMA))


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_tight_bounds_contain_histories_of_seven_to_ten_windows(
    kind, inertial_kernel, accelerated_kernel, detector
):
    kern = inertial_kernel if kind == "inertial" else accelerated_kernel
    sched = default_schedule(repetitions=10)
    model = ResponseModel(kern, sched, detector)
    gp = GammaProfile.from_kernel(kern, sched)
    query = 9
    # longest first: the all-ones pass over the ten windows caches every
    # subset, so every later history is a cache read
    histories = [
        h for k in range(query, 5, -1) for h in itertools.combinations(range(query), k)
    ]
    assert len(histories) == 130
    for history in histories:
        p = model.conditional_excitation(HistoryRecord(excitations=history, query=query))
        bound = tight_bounds(history, query, model.q, gp)
        assert bound.kind == "tight"
        assert bound.contains(p.value), (history, p, bound)


def test_tight_bounds_contain_a_short_history_at_alpha_1(detector):
    # gamma_g underflows to 0 from g = 9 on: the bound still holds there
    kern = WightmanKernel(accelerated(1.0))
    sched = default_schedule(repetitions=10)
    gp = GammaProfile.from_kernel(kern, sched)
    assert gp.pair(0, 9) == 0.0
    model = ResponseModel(kern, sched, detector)
    p = model.conditional_excitation(HistoryRecord(excitations=(0, 3), query=9))
    bound = tight_bounds((0, 3), 9, model.q, gp)
    assert bound.kind == "tight"
    assert bound.contains(p.value), (p, bound)


def pair_bound(g):
    return 2.0 * g * g


def triple_bound(ga, gb, gc):
    return 8.0 * ga * gb * gc


def quad_bound(g, i, j, k, l):
    """Cyclic monomials (weight 16 each) plus squared-pair monomials
    (weight 4 each)."""
    cyclic = (
        g(i, j) * g(j, l) * g(l, k) * g(k, i)
        + g(i, l) * g(l, k) * g(k, j) * g(j, i)
        + g(i, k) * g(k, j) * g(j, l) * g(l, i)
    )
    squared = (
        g(i, j) ** 2 * g(k, l) ** 2
        + g(i, k) ** 2 * g(j, l) ** 2
        + g(i, l) ** 2 * g(j, k) ** 2
    )
    return 16.0 * cyclic + 4.0 * squared


def closed_form_bound(g, windows):
    """Bound on the correction fraction of two to four windows."""
    if len(windows) == 2:
        return pair_bound(g(*windows))
    if len(windows) == 3:
        a, b, c = windows
        return triple_bound(g(a, b), g(b, c), g(a, c))
    return quad_bound(g, *windows)


def subset_bounds(gp, windows):
    """(subset of windows, closed-form bound) for every subset of two or more."""
    return [
        (subset, closed_form_bound(gp.pair, subset))
        for size in range(2, len(windows) + 1)
        for subset in itertools.combinations(windows, size)
    ]


def test_scalar_cycle_covers_match_closed_forms(inertial_kernel, schedule):
    # distinct gaps give distinct gamma_ij, so every cyclic order is told apart
    gp = GammaProfile.from_kernel(inertial_kernel, schedule)
    windows = (0, 1, 3, 7)
    g = gp.pair
    covers = cycle_cover_sums(
        4, lambda a, _side, b: [[g(windows[min(a, b)], windows[max(a, b)])]]
    )
    for subset, bound in subset_bounds(gp, windows):
        mask = sum(1 << windows.index(w) for w in subset)
        assert covers[mask] == pytest.approx(bound, rel=1e-14, abs=0.0), subset


def vertex_sums(signed_bounds):
    """Every sum that takes each fraction at 0 or at its signed bound."""
    return [
        math.fsum(f for pick, f in zip(picks, signed_bounds) if pick)
        for picks in itertools.product((0, 1), repeat=len(signed_bounds))
    ]


@pytest.mark.parametrize("profile", ["constant", "kernel"])
def test_tight_bounds_contain_every_sign_rule_extreme_at_four_windows(
    profile, inertial_kernel, schedule
):
    # P = q (1 + N) / (1 + D): N sums the fractions of every window subset,
    # D those without the query, each fraction in [0, B] (even subsets) or
    # [-B, 0] (odd); the bounds hold N and D to these ranges separately
    if profile == "constant":
        gp, history, query = constant(GAMMA), (0, 1, 2), 3
    else:
        gp, history, query = GammaProfile.from_kernel(inertial_kernel, schedule), (0, 1, 3), 4
    bound = tight_bounds(history, query, Q, gp)
    signed = [(s, -b if len(s) % 2 else b) for s, b in subset_bounds(gp, history + (query,))]
    nums = vertex_sums([f for _, f in signed])
    dens = vertex_sums([f for s, f in signed if query not in s])
    probabilities = [Q * (1.0 + num) / (1.0 + den) for num in nums for den in dens]
    assert min(probabilities) >= bound.lower - 1e-14 * Q, (min(probabilities), bound)
    assert max(probabilities) <= bound.upper + 1e-14 * Q, (max(probabilities), bound)


@pytest.mark.parametrize(
    "history, query", [((0, 1, 2, 3), 4), ((0, 2, 3, 5), 6), ((0, 1, 2, 3, 4), 5)]
)
def test_tight_bounds_at_five_and_six_windows(
    history, query, full_model, inertial_kernel, schedule
):
    gp = GammaProfile.from_kernel(inertial_kernel, schedule)
    q = full_model.q
    n = len(history) + 1
    tight = tight_bounds(history, query, q, gp)
    loose = loose_bounds(n, q, gp.gamma)
    assert tight.kind == "tight"
    assert loose.lower <= tight.lower <= tight.upper <= loose.upper
    assert tight.upper - tight.lower < loose.upper - loose.lower
    if n == 5:
        p = full_model.conditional_excitation(HistoryRecord(excitations=history, query=query))
        slack = 10.0 * p.abs_error
        assert tight.lower - slack <= p.value <= tight.upper + slack


def test_tight_bounds_widen_with_gamma():
    narrow = tight_bounds((0,), 1, Q, constant(0.005))
    wide = tight_bounds((0,), 1, Q, constant(0.02))
    assert wide.upper - wide.lower > narrow.upper - narrow.lower


def test_bound_pair_contains():
    b = loose_bounds(5, Q, GAMMA)
    assert b.contains(Q)
    assert not b.contains(1.0)
