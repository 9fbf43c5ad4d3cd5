import cmath
import math
import warnings

import numpy as np
import pytest

from udwrm.kernel import (
    WightmanKernel,
    accelerated,
    inertial,
    unruh_temperature,
)
from udwrm.schedule import RepetitionSchedule, default_schedule


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


def test_accelerated_value_is_the_correlator_at_s_minus_i_eps():
    # K(z) = -a^2 / (16 pi^2) sinh^-2(a z / 2) at z = s - i eps, up to the
    # strip's edge below the first pole, at -2 pi i / a
    alpha = 0.3
    k = WightmanKernel(accelerated(alpha))
    for s in (-7.0, -0.5, 0.0, 1.5, 40.0):
        for eps in (1e-3, 1.0, 0.9 * 2.0 * math.pi / alpha):
            sh = cmath.sinh(0.5 * alpha * complex(s, -eps))
            expected = -(alpha**2) / (16.0 * math.pi**2) / (sh * sh)
            assert k.value(s, eps) == pytest.approx(expected, rel=1e-12), (s, eps)
    # near alpha -> 0 it is the inertial value, to the order (alpha z)^2
    tiny = WightmanKernel(accelerated(1e-6))
    assert tiny.value(1.5, 0.2) == pytest.approx(WightmanKernel(inertial()).value(1.5, 0.2), rel=1e-10)
    # far out it is 0, without an overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = k.value(np.array([-1e4, 1e4]), 1.0)
    assert np.all(far == 0.0)


def test_unruh_temperature():
    assert unruh_temperature(accelerated(0.1)) == pytest.approx(0.1 / (2 * math.pi))
    assert unruh_temperature(inertial()) is None


def test_kernel_limit_rejects_coincidence():
    for kern in (WightmanKernel(inertial()), WightmanKernel(accelerated(0.1))):
        with pytest.raises(ValueError, match="s = 0"):
            kern.limit(0.0)
        with pytest.raises(ValueError, match="s = 0"):
            kern.limit(np.array([1.0, 0.0]))


def test_kernel_limit_vectorized():
    k = WightmanKernel(inertial())
    s = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(k.limit(s), [k.limit(x) for x in s])


def test_switching_profile_normalization_and_support():
    s = default_schedule(sigma=1.0)
    c = s.t_on / 2.0
    assert s.chi_window(c) == 1.0
    assert s.chi_window(c + 1.0) == pytest.approx(math.exp(-0.5))
    # the Gaussian is cut at 4 sigma, the window's ends, and is zero outside
    for x in (0.0, s.t_on, -0.1, s.t_on + 0.1):
        assert s.chi_window(x) == 0.0
    assert s.chi_window(1e-9) > 0.0


@pytest.mark.parametrize(
    "sigma, t_off_factor",
    [(1.0, 10.0), (0.5, 4.0), (2.25, 0.5), (0.3, 1.0)],
    ids=["sigma1-off10", "sigma0.5-off4", "sigma2.25-off0.5", "sigma0.3-off1"],
)
def test_schedule_geometry(sigma, t_off_factor):
    s = RepetitionSchedule(sigma, 8, t_off_factor)
    assert s.t_on == 8.0 * sigma
    assert s.t == s.t_on + t_off_factor * s.t_on
    assert s.chi_window(s.t_on / 2.0) == 1.0
    assert s.chi_window(0.0) == s.chi_window(s.t_on) == 0.0


def test_chi_window_peaks_at_center():
    s = default_schedule()
    x = np.linspace(0.0, s.t_on, 201)
    vals = s.chi_window(x)
    assert np.argmax(vals) == 100


def test_accelerated_limit_underflows_to_zero_without_warning():
    k = WightmanKernel(accelerated(5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = k.limit(np.array([1.0, 300.0, 1e4]))
    assert values[0] < 0.0
    assert values[1] == values[2] == 0.0
