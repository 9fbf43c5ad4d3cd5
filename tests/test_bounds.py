import math
from fractions import Fraction

import pytest

from udwrm import (
    GammaProfile,
    HorizonExceededError,
    loose_bounds,
    n_limit,
    parity_correction_sum,
    tight_bounds,
)
from udwrm.bounds import MonotonicityError
from udwrm.combinatorics import crossing_count


Q, GAMMA = 0.1, 0.01
# README accelerated model (alpha = 0.1): single-window q and adjacent gamma
README_Q, README_GAMMA = 5.465734945535168e-06, 2.2654559733562785e-04


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
    gp = GammaProfile.constant(GAMMA)
    assert gp.gamma == GAMMA
    assert gp.pair(0, 5) == pytest.approx(GAMMA)


def test_gamma_profile_from_kernel(inertial_kernel, schedule):
    gp = GammaProfile.from_kernel(inertial_kernel, schedule)
    assert gp.gamma == pytest.approx(0.01, rel=1e-10)
    assert gp.pair(0, 2) < gp.pair(0, 1)


def test_gamma_profile_rejects_nonmonotone_kernel(schedule):
    class Wiggle:
        def limit(self, s):
            return math.cos(s)

    with pytest.raises(MonotonicityError):
        GammaProfile.from_kernel(Wiggle(), schedule)


def test_tight_bounds_reduce_to_known_forms():
    gp = GammaProfile.constant(GAMMA)
    b2 = tight_bounds((0,), 1, Q, gp)
    assert b2.lower == Q
    assert b2.upper == pytest.approx(Q * (1 + 2 * GAMMA**2))
    b3 = tight_bounds((0, 1), 2, Q, gp)
    assert b3.upper == pytest.approx(Q * (1 + 6 * GAMMA**2))
    assert b3.lower == pytest.approx(Q * (1 - 8 * GAMMA**3) / (1 + 2 * GAMMA**2))


def test_tight_bounds_inside_loose():
    gp = GammaProfile.constant(GAMMA)
    for hist, query, n in (((0,), 1, 2), ((0, 1), 2, 3), ((0, 1, 2), 3, 4)):
        tight = tight_bounds(hist, query, Q, gp)
        loose = loose_bounds(n, Q, GAMMA)
        assert tight.lower >= loose.lower
        assert tight.upper <= loose.upper


def test_tight_bounds_past_four_windows_are_loose():
    gp = GammaProfile.constant(GAMMA)
    with pytest.warns(UserWarning, match="falls back to loose bounds"):
        b = tight_bounds((0, 1, 2, 3), 4, Q, gp)
    assert b == loose_bounds(5, Q, GAMMA)
    assert b.kind == "loose"


def test_tight_bounds_widen_with_gamma():
    narrow = tight_bounds((0,), 1, Q, GammaProfile.constant(0.005))
    wide = tight_bounds((0,), 1, Q, GammaProfile.constant(0.02))
    assert wide.upper - wide.lower > narrow.upper - narrow.lower


def test_bound_pair_contains():
    b = loose_bounds(5, Q, GAMMA)
    assert b.contains(Q)
    assert not b.contains(1.0)
