import math
import os
import subprocess
import sys

import numpy as np
import pytest

import udwrm
from udwrm import (
    DetectorParams,
    HistoryRecord,
    ResponseModel,
    WightmanKernel,
    accelerated,
    calQ,
    default_schedule,
    enumerate_contraction_classes,
    inertial,
    q_closed_accelerated,
    q_closed_inertial,
    q_direct,
)
from udwrm.response import QuadratureError


def test_q_closed_inertial_value(detector):
    r = q_closed_inertial(detector, 1.0)
    assert r.value == pytest.approx(5.4530039131486545e-06, rel=1e-12)
    assert r.value > 0


def test_q_closed_inertial_scaling(detector):
    # lambda^2 prefactor
    strong = DetectorParams(omega=detector.omega, lam=2 * detector.lam)
    assert q_closed_inertial(strong, 1.0).value == pytest.approx(
        4 * q_closed_inertial(detector, 1.0).value
    )


def test_q_closed_inertial_gap_suppression(detector):
    wide = DetectorParams(omega=1.0, lam=detector.lam)
    assert q_closed_inertial(wide, 1.0).value < q_closed_inertial(detector, 1.0).value


def test_q_closed_accelerated_thermal_enhancement(detector):
    qi = q_closed_inertial(detector, 1.0).value
    qa = q_closed_accelerated(detector, 1.0, 0.1).value
    assert qa > qi  # thermal bath adds excitations
    assert qa == pytest.approx(qi, rel=1e-2)


def test_q_closed_accelerated_small_alpha_limit(detector):
    qi = q_closed_inertial(detector, 1.0).value
    qa = q_closed_accelerated(detector, 1.0, 1e-4).value
    assert qa == pytest.approx(qi, rel=1e-7)


def test_q_closed_accelerated_truncation_error_flagged(detector):
    with pytest.raises(QuadratureError):
        q_closed_accelerated(detector, 1.0, 0.1, n_max=1)


def test_q_direct_matches_closed_form(inertial_kernel, schedule, detector):
    r = q_direct(inertial_kernel, schedule, detector, truncated=False)
    ref = q_closed_inertial(detector, 1.0).value
    assert abs(r.value - ref) / ref < 1e-8


def test_q_direct_truncated_mode_close(inertial_kernel, schedule, detector):
    r = q_direct(inertial_kernel, schedule, detector)
    ref = q_closed_inertial(detector, 1.0).value
    # window truncation shifts the value at the 1e-5 relative level
    assert abs(r.value - ref) / ref < 1e-4


def test_calq_strips_coupling(inertial_kernel, schedule, detector):
    q = calQ(inertial_kernel, schedule, detector)
    assert q * detector.lam**2 == pytest.approx(
        q_closed_inertial(detector, 1.0).value, rel=1e-10
    )


def test_history_record_validation():
    h = HistoryRecord(excitations=(0, 2), query=5)
    assert h.order == 3
    with pytest.raises(ValueError):
        HistoryRecord(excitations=(2, 0), query=5)
    with pytest.raises(ValueError):
        HistoryRecord(excitations=(0, 2), query=2)


def test_first_window_is_unconditioned(full_model):
    r = full_model.conditional_excitation(HistoryRecord(excitations=(), query=0))
    assert r.value == full_model.q
    assert r.abs_error == 0.0


def test_f_fraction_translation_invariance(full_model):
    a, _ = full_model.f_fraction((0, 1))
    b, _ = full_model.f_fraction((3, 4))
    assert a == b  # stationary schedule: only gaps matter


def test_f_fraction_gap_decay(full_model):
    near = abs(full_model.f_fraction((0, 1))[0])
    far = abs(full_model.f_fraction((0, 5))[0])
    assert far < near


def test_f_fraction_pair_is_positive(full_model):
    # two-interval cross terms factor into squared magnitudes
    val, _ = full_model.f_fraction((0, 1))
    assert val > 0


def test_f_fraction_triple_is_negative(full_model):
    val, _ = full_model.f_fraction((0, 1, 2))
    assert val < 0


def test_conditional_excitation_near_q(full_model):
    r = full_model.conditional_excitation(HistoryRecord(excitations=(0,), query=1))
    assert r.value == pytest.approx(full_model.q, rel=1e-3)
    assert r.value != full_model.q


def test_correction_ratio_small(full_model):
    ratio, err = full_model.correction_ratio(HistoryRecord(excitations=(0,), query=1))
    assert abs(ratio) < 1e-3
    assert err >= 0.0


def test_f_fraction_ignores_seed_and_points(inertial_kernel, schedule, detector):
    m1 = ResponseModel(inertial_kernel, schedule, detector, qmc_points=1 << 10, seed=42)
    m2 = ResponseModel(inertial_kernel, schedule, detector, qmc_points=1 << 20, seed=7)
    assert m1.f_fraction((0, 1, 3)) == m2.f_fraction((0, 1, 3))


def _window_points(sched, d, order):
    """Tensor Gauss-Legendre points of one window on the (v, t) map: the
    later time u = v, the earlier time u' = v - t v, and the weights
    2 chi(u) chi(u') cos(w (u - u')) v dv dt."""
    x, w = np.polynomial.legendre.leggauss(order)
    v = 0.5 * sched.t_on * (x[:, None] + 1.0)
    s = v * 0.5 * (x[None, :] + 1.0)
    weight = (
        2.0
        * sched.chi_window(v)
        * sched.chi_window(v - s)
        * np.cos(d.omega * s)
        * v
        * (0.25 * sched.t_on * w[:, None] * w[None, :])
    )
    later = np.broadcast_to(v, s.shape).ravel()
    return (later, (v - s).ravel()), weight.ravel()


def reference_fraction(model, gaps, order=32):
    """Correction fraction by tensor Gauss-Legendre over every window.

    For two windows this is the four-dimensional product rule; for more,
    the same product rule is contracted over the quadrature points of each
    window with einsum.  The correlators are evaluated at the points
    themselves, not interpolated.
    """
    sched, kern = model.schedule, model.kernel
    ends, weight = _window_points(sched, model.detector, order)
    index = {g: "abcdef"[i] for i, g in enumerate(gaps)}
    total = 0.0
    for cls in enumerate_contraction_classes(len(gaps), gaps):
        subscripts = [index[g] for g in gaps]
        operands = [weight] * len(gaps)
        for (ga, sa), (gb, sb) in cls.edges:
            subscripts.append(index[ga] + index[gb])
            operands.append(
                kern.limit(sched.t * (ga - gb) + ends[sa][:, None] - ends[sb][None, :])
            )
        total += np.einsum(",".join(subscripts) + "->", *operands, optimize=True)
    return total / model.calq ** len(gaps)


@pytest.mark.parametrize("gaps", [(0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 1, 3)])
@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_f_fraction_error_covers_reference(kind, gaps, full_model, full_accelerated_model):
    model = full_model if kind == "inertial" else full_accelerated_model
    val, err = model.f_fraction(gaps)
    ref = reference_fraction(model, gaps)
    assert abs(val - ref) <= err, (val, ref, err)


@pytest.mark.parametrize("gaps", [((0, 1, 3), (0, 2, 3)), ((0, 1, 2, 4), (0, 2, 3, 4))])
def test_f_fraction_reflection_symmetry(gaps, full_model):
    # reversing time maps one window set onto the other
    (a, ea), (b, eb) = (full_model.f_fraction(g) for g in gaps)
    assert abs(a - b) <= ea + eb, (a, b, ea + eb)


def test_f_fraction_refines_fast_decaying_correlator(schedule, detector):
    # at alpha = 1 the correlator falls like exp(-alpha s) across a window,
    # which the starting Chebyshev resolution misses at the 1e-6 level
    kern = WightmanKernel(accelerated(1.0))
    model = ResponseModel(kern, schedule, detector, q_mode="quadrature")
    val, err = model.f_fraction((0, 1))
    ref = reference_fraction(model, (0, 1))
    assert abs(val - ref) <= err, (val, ref, err)


def test_f_fraction_stalls_for_touching_windows(inertial_kernel, detector):
    model = ResponseModel(inertial_kernel, default_schedule(t_off_factor=1e-4), detector)
    with pytest.raises(QuadratureError):
        model.f_fraction((0, 1))


def test_import_skips_scipy_stats():
    code = "import sys, udwrm; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(udwrm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_strong_coupling_warns(inertial_kernel, schedule):
    with pytest.warns(UserWarning):
        DetectorParams(omega=0.2, lam=0.5)
