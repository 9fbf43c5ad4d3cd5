import math

import numpy as np
import pytest

from udwrm.kernel import (
    WightmanKernel,
    accelerated,
    extreme_point_value,
    inertial,
    unruh_temperature,
)
from udwrm.schedule import (
    bump,
    default_schedule,
    max_repetitions,
    truncated_gaussian,
)


def test_inertial_limit_closed_form():
    k = WightmanKernel(inertial())
    for s in (0.5, 1.0, 3.0, 80.0):
        assert k.limit(s) == pytest.approx(-1.0 / (4.0 * math.pi**2 * s**2))


def test_accelerated_limit_closed_form():
    alpha = 0.3
    k = WightmanKernel(accelerated(alpha))
    for s in (0.5, 2.0, 10.0):
        expected = -(alpha**2) / (16.0 * math.pi**2 * math.sinh(alpha * s / 2.0) ** 2)
        assert k.limit(s) == pytest.approx(expected)


def test_accelerated_approaches_inertial_at_small_alpha():
    ki = WightmanKernel(inertial())
    ka = WightmanKernel(accelerated(1e-6))
    assert ka.limit(2.0) == pytest.approx(ki.limit(2.0), rel=1e-9)


def test_regularized_value_converges_to_limit():
    k = WightmanKernel(inertial())
    s = 1.5
    vals = [k.value(s, epsilon=10.0**-j) for j in (2, 3, 4)]
    errs = [abs(v - k.limit(s)) for v in vals]
    assert errs[0] > errs[1] > errs[2]


def test_regularized_value_finite_at_coincidence():
    k = WightmanKernel(inertial())
    v = k.value(0.0, epsilon=1e-3)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_unruh_temperature():
    assert unruh_temperature(accelerated(0.1)) == pytest.approx(0.1 / (2 * math.pi))
    assert unruh_temperature(inertial()) is None


def test_kernel_limit_vectorized():
    k = WightmanKernel(inertial())
    s = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(k.limit(s), [k.limit(x) for x in s])


def test_switching_profile_normalization_and_support():
    p = truncated_gaussian(1.0)
    assert p.value(0.0) == pytest.approx(1.0)
    assert p.value(p.half_width + 0.1) == 0.0
    assert p.value(-p.half_width - 0.1) == 0.0
    b = bump(2.0)
    assert b.compact_support
    assert b.value(0.0) == pytest.approx(1.0)
    assert b.value(2.0) == 0.0


def test_schedule_geometry():
    s = default_schedule(sigma=1.0, repetitions=8)
    assert s.t_on == pytest.approx(8.0)
    assert s.t == pytest.approx(s.t_on + s.t_off)
    a0, b0 = s.interaction_interval(0)
    a1, b1 = s.interaction_interval(1)
    assert b0 - a0 == pytest.approx(s.t_on)
    assert a1 - a0 == pytest.approx(s.t)


def test_chi_window_peaks_at_center():
    s = default_schedule()
    x = np.linspace(0.0, s.t_on, 201)
    vals = s.chi_window(x)
    assert np.argmax(vals) == 100


def test_chi_rm_tiles_windows():
    s = default_schedule(repetitions=3)
    c0 = s.window_center(0)
    c2 = s.window_center(2)
    assert s.chi(c0) == pytest.approx(s.chi(c2))
    # dead time between windows
    assert s.chi((s.interaction_interval(0)[1] + s.interaction_interval(1)[0]) / 2) == 0.0


def test_max_repetitions_scales_with_horizon():
    s = default_schedule()
    n_small = max_repetitions(truncated_gaussian(1.0), s)
    assert n_small is None or n_small >= 1


def test_extreme_point_value_monotone_decay():
    k = WightmanKernel(inertial())
    s = default_schedule(repetitions=8)
    vals = [abs(extreme_point_value(k, s, 0, j)) for j in range(1, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
